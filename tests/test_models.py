"""Recurrent cells, network assembly, builders, and checkpoint round-trips."""

import numpy as np
import pytest

from cell_oracle import gru_cell_forward, lstm_cell_forward
from gradtools import check_gradients
from tape_oracle import mean
from tsgan.errors import ConfigError, DataError, ShapeError
from tsgan.models import (NetSpec, Network, build_critic, build_discriminator,
                          build_forecaster, build_generator, build_network,
                          build_timegan, conv_out_len,
                          load_checkpoint, min_discriminator_len,
                          save_checkpoint, scale_width, trunk_end)
from tsgan.models.builders import (DISC_CONV_FILTERS, DISC_DENSE_UNITS,
                                   GENERATOR_DENSE_UNITS, GENERATOR_GRU_UNITS)
from tsgan.numcore import RngStream, Tensor, dropout


def _cell(kind, input_dim, units, rng):
    """A cell dict drawn the way a one-layer network draws its parameters."""
    spec = NetSpec("cell", input_dim, [{"kind": kind, "units": units}])
    return {k.split(".", 1)[1]: v for k, v in build_network(spec, rng).params.items()}


def _zeroed(cell):
    return {k: Tensor(np.zeros_like(v.data), requires_grad=True) for k, v in cell.items()}


def test_gru_zero_parameters_halve_the_state():
    # z = r = 1/2 and the candidate is tanh(0) = 0, so h' = h/2 exactly.
    cell = _zeroed(_cell("gru", 3, 4, RngStream(0, ("gru",))))
    h = Tensor(np.arange(8.0).reshape(2, 4))
    x = Tensor(np.ones((2, 3)))
    out = gru_cell_forward(cell, x, h)
    np.testing.assert_allclose(out.data, h.data / 2.0)


def test_lstm_zero_parameters_oracle():
    # Gates sigma(0) = 1/2, candidate tanh(0) = 0: c' = c/2, h' = tanh(c/2)/2.
    cell = _zeroed(_cell("lstm", 3, 4, RngStream(0, ("lstm",))))
    c = Tensor(np.linspace(-1.0, 1.0, 8).reshape(2, 4))
    h = Tensor(np.zeros((2, 4)))
    x = Tensor(np.ones((2, 3)))
    h2, c2 = lstm_cell_forward(cell, x, h, c)
    np.testing.assert_allclose(c2.data, c.data / 2.0)
    np.testing.assert_allclose(h2.data, np.tanh(c.data / 2.0) / 2.0)


def test_cell_initialization_is_seeded_and_bounded():
    a = _cell("gru", 5, 7, RngStream(1, ("cell",)))
    b = _cell("gru", 5, 7, RngStream(1, ("cell",)))
    bound = 1.0 / np.sqrt(5 + 7)
    for key in a:
        np.testing.assert_array_equal(a[key].data, b[key].data)
        assert np.max(np.abs(a[key].data)) <= bound
    for bias in ("bz", "br", "bh"):
        np.testing.assert_array_equal(a[bias].data, 0.0)


def test_gru_cell_gradients():
    cell = _cell("gru", 2, 3, RngStream(2, ("g",)))
    x = Tensor(np.random.default_rng(0).normal(size=(4, 2)))
    h = Tensor(np.zeros((4, 3)))
    tensors = list(cell.values())
    check_gradients(lambda: mean(gru_cell_forward(cell, x, h)), tensors)


def test_lstm_cell_gradients():
    cell = _cell("lstm", 2, 3, RngStream(3, ("l",)))
    x = Tensor(np.random.default_rng(1).normal(size=(4, 2)))
    h = Tensor(np.zeros((4, 3)))
    c = Tensor(np.zeros((4, 3)))
    check_gradients(lambda: mean(lstm_cell_forward(cell, x, h, c)[0]),
                    list(cell.values()))


def test_netspec_roundtrip_and_validation():
    spec = NetSpec("demo", 4, [{"kind": "gru", "units": 3},
                               {"kind": "last_step"},
                               {"kind": "dense", "units": 2, "activation": "linear"}])
    again = NetSpec.from_dict(spec.to_dict())
    assert again.to_dict() == spec.to_dict()
    with pytest.raises(ConfigError):
        NetSpec("bad", 4, [{"kind": "pooling"}])
    with pytest.raises(ConfigError):
        NetSpec("bad", 4, [{"kind": "dense", "units": 2, "activation": "swish"}])
    with pytest.raises(ConfigError):
        NetSpec("bad", 0, [])


@pytest.mark.parametrize("layer", [
    {"kind": "gru", "units": 3}, {"kind": "lstm", "units": 3}, {"kind": "dropout", "rate": 0.5},
    {"kind": "flatten", "flat_width": 4}, {"kind": "last_step"},
], ids=lambda layer: layer["kind"])
def test_netspec_refuses_an_activation_on_a_kind_that_applies_none(layer):
    """Only dense and conv1d layers apply an activation; on any other kind it would be
    ignored, so it is refused: from code a ConfigError, from a loaded spec a DataError."""
    layers = [{**layer, "activation": "relu"}]
    text = rf"bad: layer 0 \({layer['kind']}\) applies no activation, got 'relu'"
    with pytest.raises(ConfigError, match=text):
        NetSpec("bad", 4, layers)
    with pytest.raises(DataError, match=text):
        NetSpec.from_dict({"name": "bad", "input_dim": 4, "layers": layers})
    assert NetSpec("ok", 4, [layer]).layers == [layer]


def test_netspec_from_dict_reads_no_bool_as_a_width():
    """A JSON `true` loads as Python's True, an int equal to 1; it is no input width."""
    d = NetSpec("demo", 4, [{"kind": "dense", "units": 2}]).to_dict()
    with pytest.raises(DataError, match="input_dim"):
        NetSpec.from_dict({**d, "input_dim": True})


@pytest.mark.parametrize("layers", [
    [{"kind": "dense"}],
    [{"kind": "gru", "units": 0}, {"kind": "dense", "units": 2}],
    [{"kind": "dropout", "rate": 1.0}],
], ids=["dense-without-units", "gru-with-no-units", "dropout-rate-one"])
def test_netspec_checks_layer_fields_when_built(layers):
    with pytest.raises(ConfigError, match="fields are missing or invalid"):
        NetSpec("bad", 4, layers)


def test_netspec_checks_input_ranks_when_built():
    with pytest.raises(ConfigError, match=r"layer 1 \(gru\) takes a rank-3 input, gets rank 2"):
        NetSpec("bad", 4, [{"kind": "last_step"}, {"kind": "gru", "units": 3}])
    with pytest.raises(ConfigError, match=r"layer 0 \(conv1d\) takes a rank-3 input"):
        NetSpec("bad", 4, [{"kind": "conv1d", "filters": 2, "kernel": 2, "stride": 1}],
                input_rank=2)
    forecaster = build_forecaster("gru", 2, 3, 4, 2, 2, RngStream(0, ("f",)))
    assert forecaster.spec.ranks == [3, 3, 3, 2, 2]
    assert NetSpec("flat", 4, [{"kind": "dropout", "rate": 0.5}, {"kind": "dense", "units": 1}],
                   input_rank=2).ranks == [2, 2, 2]


def test_network_rejects_mismatched_parameters():
    """A Network lays its spec's canonical names and shapes over one vector of their size."""
    spec = NetSpec("demo", 2, [{"kind": "dense", "units": 3, "activation": "linear"}],
                   input_rank=2)
    net = Network(spec, np.arange(9.0))
    assert [(k, v.shape) for k, v in net.params.items()] == [("L0.W", (2, 3)), ("L0.b", (3,))]
    np.testing.assert_array_equal(net.params["L0.b"].data, [6.0, 7.0, 8.0])
    for flat in (np.zeros(10), np.zeros(8), np.zeros((1, 9)), np.zeros((9, 1))):
        with pytest.raises(ShapeError, match="does not hold 9 values"):
            Network(spec, flat)


def test_forward_validates_input_rank_and_width():
    net = build_forecaster("gru", 1, 4, 6, 2, 3, RngStream(0, ("f",)))
    with pytest.raises(ShapeError):
        net.forward(Tensor(np.zeros((5, 3))))
    with pytest.raises(ShapeError):
        net.forward(Tensor(np.zeros((5, 6, 7))))


def test_forward_runs_a_layer_range():
    gen = build_generator(2, 6, 3, RngStream(0, ("g",)), feature_dim=4, width_mult=1 / 64)
    x = Tensor(np.random.default_rng(1).normal(size=(5, 6, 6)))
    full = gen.forward(x).data
    for cut in range(len(gen.spec.layers) + 1):
        np.testing.assert_array_equal(gen.forward(gen.forward(x, stop=cut), start=cut).data,
                                      full)
    # only a range that begins at layer 0 checks the network's input contract
    last = gen.forward(x, stop=4)
    assert last.shape[-1] != gen.spec.input_dim
    np.testing.assert_array_equal(gen.forward(last, start=4).data, full)
    with pytest.raises(ShapeError):
        gen.forward(last, stop=4)
    for start, stop in [(-1, None), (3, 2), (0, 9)]:
        with pytest.raises(ConfigError, match="layer range"):
            gen.forward(x, start=start, stop=stop)


def test_dropout_follows_the_rng():
    """Given an rng, a forward masks its dropout layer as dropout() does with that rng;
    without one, the layer passes its input through."""
    gen = build_generator(2, 6, 3, RngStream(0, ("g",)), feature_dim=4, width_mult=1 / 32)
    x = Tensor(np.random.default_rng(2).normal(size=(5, 6, 6)))
    cut = trunk_end(gen.spec)
    h = gen.forward(x, stop=cut)
    masked = dropout(h, gen.spec.layers[cut]["rate"], RngStream(3, ("drop",)))
    assert not np.array_equal(masked.data, h.data)
    np.testing.assert_array_equal(gen.forward(x, rng=RngStream(3, ("drop",))).data,
                                  gen.forward(masked, start=cut + 1).data)
    np.testing.assert_array_equal(gen.forward(x).data, gen.forward(h, start=cut + 1).data)


def test_a_carried_call_on_a_network_without_last_step_equals_a_plain_one():
    """A TimeGAN supervisor (three GRU layers, then a per-step dense head) run from zero
    states on its packed weights gives its plain forward bit for bit, and returns each
    GRU layer's states at every step."""
    net = build_timegan(feature_dim=5, hidden_dim=3, rng=RngStream(4, ("tg",)))["supervisor"]
    x = Tensor(np.random.default_rng(3).uniform(size=(4, 7, 3)))
    carry = list(zip(net.zero_states(4), net.pack()))
    out, states = net.forward(x, carry=carry)
    assert out.data.tobytes() == net.forward(x).data.tobytes()
    assert len(states) == 3
    for i, state in enumerate(states):
        assert len(state) == 1
        assert state[0].tobytes() == net.forward(x, stop=i + 1).data.tobytes()
    with pytest.raises(ConfigError, match="2 carried states for the 3 recurrent layers"):
        net.forward(x, carry=carry[:2])


def test_trunk_end_is_the_first_dropout_layer():
    gen = build_generator(2, 6, 3, RngStream(0, ("g",)), feature_dim=4, width_mult=1 / 64)
    assert trunk_end(gen.spec) == 5 and gen.spec.layers[5]["kind"] == "dropout"
    spec = NetSpec("two_drops", 3, [{"kind": "dropout", "rate": 0.1},
                                    {"kind": "dense", "units": 2},
                                    {"kind": "dropout", "rate": 0.1}])
    assert trunk_end(spec) == 0
    forecaster = build_forecaster("gru", 2, 3, 4, 2, 2, RngStream(0, ("f",)))
    assert trunk_end(forecaster.spec) == len(forecaster.spec.layers)


def test_time_distributed_dense_applies_per_step():
    spec = NetSpec("td", 3, [{"kind": "dense", "units": 2, "activation": "linear"}])
    net = build_network(spec, RngStream(4, ("td",)))
    x = np.random.default_rng(2).normal(size=(5, 7, 3))
    out = net.forward(Tensor(x)).data
    w = net.params["L0.W"].data
    b = net.params["L0.b"].data
    np.testing.assert_allclose(out, x @ w + b)


def test_last_step_selects_the_final_time_slice():
    spec = NetSpec("ls", 3, [{"kind": "last_step"}])
    net = Network(spec, np.zeros(0))
    assert net.params == {}
    x = np.random.default_rng(3).normal(size=(4, 6, 3))
    np.testing.assert_array_equal(net.forward(Tensor(x)).data, x[:, -1, :])


def test_recurrent_stack_output_shape_and_determinism():
    net1 = build_forecaster("lstm", 2, 5, 9, 3, 4, RngStream(6, ("fx",)))
    net2 = build_forecaster("lstm", 2, 5, 9, 3, 4, RngStream(6, ("fx",)))
    x = Tensor(np.random.default_rng(4).normal(size=(2, 9, 4)))
    out1 = net1.forward(x).data
    assert out1.shape == (2, 3)
    np.testing.assert_array_equal(out1, net2.forward(x).data)


def test_forecaster_network_gradients():
    net = build_forecaster("gru", 1, 3, 4, 2, 2, RngStream(7, ("gc",)))
    x = Tensor(np.random.default_rng(5).normal(size=(3, 4, 2)))
    check_gradients(lambda: mean(net.forward(x)), list(net.params.values()))


def test_scale_width_and_conv_len_helpers():
    assert scale_width(1024, 1.0) == 1024
    assert scale_width(1024, 1 / 32) == 32
    assert scale_width(2, 1 / 32) == 1  # floor of 1 unit
    assert conv_out_len(90, 5, 4) == 22
    assert min_discriminator_len() == 85


def test_generator_architecture_at_full_and_desk_scale():
    full = build_generator(8, 12, 10, RngStream(0, ("g1",)), feature_dim=18)
    kinds = [l["kind"] for l in full.spec.layers]
    assert kinds == ["gru", "gru", "gru", "last_step", "dense", "dropout",
                     "dense", "dense"]
    gru_units = [l["units"] for l in full.spec.layers if l["kind"] == "gru"]
    assert tuple(gru_units) == GENERATOR_GRU_UNITS
    dense_units = [l["units"] for l in full.spec.layers if l["kind"] == "dense"]
    assert tuple(dense_units[:2]) == GENERATOR_DENSE_UNITS
    assert full.spec.layers[-1]["activation"] == "sigmoid"
    assert full.spec.input_dim == 26

    small = build_generator(8, 12, 10, RngStream(0, ("g2",)), feature_dim=18,
                            width_mult=1 / 32)
    small_gru = [l["units"] for l in small.spec.layers if l["kind"] == "gru"]
    assert small_gru == [32, 16, 8]


def test_discriminator_architecture_and_minimum_length():
    disc = build_discriminator(90, 1, RngStream(1, ("d",)))
    conv = [l for l in disc.spec.layers if l["kind"] == "conv1d"]
    assert [l["filters"] for l in conv] == list(DISC_CONV_FILTERS)
    assert all(l["kernel"] == 5 and l["stride"] == 4 for l in conv)
    dense = [l["units"] for l in disc.spec.layers if l["kind"] == "dense"]
    assert dense[:2] == list(DISC_DENSE_UNITS)
    assert disc.spec.layers[-1]["activation"] == "sigmoid"

    out = disc.forward(Tensor(np.random.default_rng(6).normal(size=(3, 90, 1))))
    assert out.data.shape == (3, 1)
    assert np.all((out.data > 0) & (out.data < 1))

    with pytest.raises(ConfigError) as err:
        build_discriminator(84, 1, RngStream(1, ("d2",)))
    assert "85" in str(err.value)


def test_critic_has_a_linear_head():
    critic = build_critic(90, 1, RngStream(2, ("c",)), width_mult=0.25)
    assert critic.spec.layers[-1]["activation"] == "linear"


def test_timegan_bundle_wiring():
    nets = build_timegan(6, hidden_dim=8, rng=RngStream(3, ("tg",)))
    assert set(nets) == {"embedder", "recovery", "generator", "supervisor",
                         "discriminator"}
    assert nets["embedder"].spec.input_dim == 6
    assert nets["embedder"].spec.layers[-1]["units"] == 8
    assert nets["recovery"].spec.input_dim == 8
    assert nets["recovery"].spec.layers[-1]["units"] == 6
    assert nets["discriminator"].spec.layers[-1]["units"] == 1
    x = Tensor(np.random.default_rng(7).uniform(size=(2, 5, 6)))
    latent = nets["embedder"].forward(x)
    assert latent.data.shape == (2, 5, 8)
    back = nets["recovery"].forward(latent)
    assert back.data.shape == (2, 5, 6)


@pytest.mark.parametrize("feature_dim, hidden_dim", [(0, 8), (6, 0)])
def test_timegan_refuses_an_empty_width(feature_dim, hidden_dim):
    """The network specs refuse a zero input width and zero gru units."""
    with pytest.raises(ConfigError):
        build_timegan(feature_dim, hidden_dim=hidden_dim, rng=RngStream(3, ("tg",)))


def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    net = build_forecaster("gru", 2, 4, 6, 3, 5, RngStream(9, ("ck",)))
    stem = tmp_path / "model"
    save_checkpoint(stem, net, seed=9, step=17)
    loaded, manifest = load_checkpoint(stem)
    assert manifest["seed"] == 9 and manifest["step"] == 17
    assert loaded.spec.to_dict() == net.spec.to_dict()
    for name in net.params:
        np.testing.assert_array_equal(loaded.params[name].data, net.params[name].data)
    x = Tensor(np.random.default_rng(8).normal(size=(2, 6, 5)))
    np.testing.assert_array_equal(loaded.forward(x).data, net.forward(x).data)


def test_checkpoint_detects_blob_corruption(tmp_path):
    net = build_forecaster("gru", 1, 2, 3, 1, 2, RngStream(10, ("ck2",)))
    stem = tmp_path / "model"
    save_checkpoint(stem, net)

    blob = (tmp_path / "model.bin").read_bytes()
    (tmp_path / "model.bin").write_bytes(blob[:-8])
    with pytest.raises(DataError):
        load_checkpoint(stem)
    (tmp_path / "model.bin").write_bytes(blob + b"\x00" * 8)
    with pytest.raises(DataError):
        load_checkpoint(stem)
    with pytest.raises(DataError):
        load_checkpoint(tmp_path / "absent")


def test_clone_is_independent():
    net = build_forecaster("gru", 1, 2, 3, 1, 2, RngStream(11, ("cl",)))
    twin = net.clone()
    twin.params["L0.Wz"].data = twin.params["L0.Wz"].data + 1.0
    assert not np.array_equal(net.params["L0.Wz"].data, twin.params["L0.Wz"].data)
