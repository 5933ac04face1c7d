"""Seeded stream determinism and child-stream independence."""

import numpy as np
import pytest

from test_training import small_windows, tiny_disc, tiny_gen
from tsgan.numcore import RngStream
from tsgan.numcore.rng import _entropy_words
from tsgan.training import TrainConfig, train_wgan


def test_same_seed_and_key_reproduce_bitwise():
    a = RngStream(42, ("loop", 3)).normal((4, 4))
    b = RngStream(42, ("loop", 3)).normal((4, 4))
    np.testing.assert_array_equal(a, b)


def test_different_seeds_differ():
    a = RngStream(1, ("x",)).uniform(0.0, 1.0, (8,))
    b = RngStream(2, ("x",)).uniform(0.0, 1.0, (8,))
    assert not np.array_equal(a, b)


def test_string_and_int_key_parts_mix():
    a = RngStream(0, ("epoch", 5, "batch", 2)).normal((3,))
    b = RngStream(0, ("epoch", 5, "batch", 2)).normal((3,))
    c = RngStream(0, ("epoch", 5, "batch", 3)).normal((3,))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_child_streams_are_independent_of_parent_consumption():
    parent = RngStream(7, ("root",))
    child_before = parent.child("sub").normal((5,))
    parent.normal((100,))  # drain the parent
    child_after = parent.child("sub").normal((5,))
    np.testing.assert_array_equal(child_before, child_after)


def test_child_key_extends_parent_key():
    direct = RngStream(9, ("a", "b")).normal((4,))
    derived = RngStream(9, ("a",)).child("b").normal((4,))
    np.testing.assert_array_equal(direct, derived)


def test_permutation_and_integers_are_seeded():
    p1 = RngStream(3, ("perm",)).permutation(20)
    p2 = RngStream(3, ("perm",)).permutation(20)
    np.testing.assert_array_equal(p1, p2)
    assert sorted(p1.tolist()) == list(range(20))
    i1 = RngStream(3, ("ints",)).integers(0, 10, (50,))
    assert i1.min() >= 0 and i1.max() < 10


def test_draw_order_matters_within_a_stream():
    s = RngStream(11, ())
    first = s.normal((3,))
    second = s.normal((3,))
    assert not np.array_equal(first, second)


def test_a_stream_drawn_late_matches_one_drawn_at_once():
    parent = RngStream(13, ("root",))
    late = parent.child("late")  # built now, drawn from last
    parent.child("sibling").normal((50,))
    parent.normal((50,))
    parent.child("late").uniform(0.0, 1.0, (7,))  # a twin of `late`, drawn first
    np.testing.assert_array_equal(late.normal((6,)),
                                  RngStream(13, ("root", "late")).normal((6,)))


def test_wgan_epoch_builds_one_philox_per_stream_drawn_from(monkeypatch):
    ds, _ = small_windows()
    gen, critic = tiny_gen(18, 2, 3), tiny_disc(head="linear")
    built, drawn, derived = [0], [], [0]
    philox, init = np.random.Philox, RngStream.__init__

    def counting_philox(*args, **kwargs):
        built[0] += 1
        return philox(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        derived[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    monkeypatch.setattr(RngStream, "__init__", counting_init)
    for name in ("normal", "uniform", "permutation", "integers"):
        draw = getattr(RngStream, name)

        def recording(self, *args, _draw=draw, **kwargs):
            if not any(s is self for s in drawn):
                drawn.append(self)
            return _draw(self, *args, **kwargs)

        monkeypatch.setattr(RngStream, name, recording)
    train_wgan(gen, critic, ds, TrainConfig(epochs=1, batch_size=16, n_critic=2, seed=3))
    assert built[0] == len(drawn) > 0
    # the generator has no dropout: its gdrop and gdropg streams are never drawn
    assert derived[0] > len(drawn)


def test_entropy_words_give_the_pool_a_list_of_ints_gives():
    parts = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    for entropy in [*([p] for p in parts), parts, parts[::-1]]:
        want = np.random.SeedSequence(entropy).generate_state(8)
        got = np.random.SeedSequence(_entropy_words(entropy)).generate_state(8)
        np.testing.assert_array_equal(got, want)
    # a negative key part is refused as numpy refuses it in a list
    with pytest.raises(ValueError, match="non-negative"):
        np.random.SeedSequence([3, -1])
    with pytest.raises(ValueError, match="non-negative"):
        RngStream(0, (3, -1)).normal((2,))
