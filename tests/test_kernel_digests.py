"""Bit-identity of the fused recurrent kernels against a digest fixture.

tests/fixtures/kernel_digests.json holds, for a sweep of GRU and LSTM shapes,
the SHA-256 of each kernel's output and of every gradient its backward returns.
A refactor of the kernels that keeps their numbers keeps these digests.
Regenerate the fixture only for a deliberate numeric change:

    PYTHONPATH=src python tests/test_kernel_digests.py

The digests hold for the BLAS build that wrote them; `blas_probe` pins a few
products of the kernels' shapes, and where it differs the test is skipped,
since a different BLAS may round a product differently.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from tape_oracle import mul, tsum
from tsgan.numcore import Tape, Tensor, backward, gru_sequence, lstm_sequence

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "kernel_digests.json"
KERNELS = {"gru": (gru_sequence, 3), "lstm": (lstm_sequence, 4)}
# (batch, seq, feat, units): batch 1 (where a gate's time-major slab can be a strided
# view, which BLAS rounds differently), odd sizes, products that BLAS blocks
SHAPES = [(1, 1, 1, 1), (1, 9, 3, 5), (1, 22, 39, 1), (2, 7, 3, 4), (5, 3, 1, 16),
          (16, 30, 12, 12), (32, 10, 18, 32), (3, 4, 6, 96), (64, 2, 5, 33)]


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def case_digests(kind: str, shape: tuple, x_grad: bool) -> dict:
    """Digests of the output and of each gradient, the loss sum(out * weights)."""
    fn, k = KERNELS[kind]
    batch, seq, feat, units = shape
    draw = np.random.default_rng([batch, seq, feat, units, k, x_grad])
    params = []
    for _ in range(k):
        params.append(Tensor(draw.normal(scale=0.4, size=(feat + units, units)),
                             requires_grad=True))
        params.append(Tensor(draw.normal(scale=0.3, size=units), requires_grad=True))
    x = Tensor(draw.normal(size=(batch, seq, feat)), requires_grad=x_grad)
    weights = draw.normal(size=(batch, seq, units))
    with Tape() as tape:
        out = fn(x, *params)
        loss = tsum(mul(out, weights))
    gmap = backward(tape, loss)
    leaves = [x, *params] if x_grad else params
    return {"out": _digest(out.data), "grads": [_digest(gmap[t.tape_id]) for t in leaves]}


def blas_probe() -> str:
    """One digest over products of the kernels' GEMM shapes."""
    draw = np.random.default_rng(0)
    prods = []
    for m, n, p in [(1, 5, 15), (16, 12, 36), (480, 12, 24), (320, 32, 128), (32, 96, 288),
                    (4, 33, 99), (12, 480, 36), (128, 320, 32)]:
        a, b = draw.normal(size=(m, n)), draw.normal(size=(n, p))
        prods += [a @ b, np.ascontiguousarray(b.T) @ np.ascontiguousarray(a.T)]
    return _digest(*prods)


def _cases():
    return [(kind, shape, x_grad) for kind in KERNELS for shape in SHAPES
            for x_grad in (True, False)]


def _case_id(kind, shape, x_grad) -> str:
    return f"{kind}-{'x'.join(map(str, shape))}-{'xgrad' if x_grad else 'noxgrad'}"


def write_fixture() -> None:
    doc = {"blas_probe": blas_probe(),
           "cases": {_case_id(*c): case_digests(*c) for c in _cases()}}
    FIXTURE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def fixture_doc():
    doc = json.loads(FIXTURE.read_text())
    if doc["blas_probe"] != blas_probe():
        pytest.skip("this BLAS rounds the probe products differently from the fixture's")
    return doc


def test_fixture_covers_the_sweep(fixture_doc):
    assert sorted(fixture_doc["cases"]) == sorted(_case_id(*c) for c in _cases())


@pytest.mark.parametrize("case", _cases(), ids=lambda c: _case_id(*c))
def test_kernel_outputs_and_gradients_match_the_digests(case, fixture_doc):
    assert case_digests(*case) == fixture_doc["cases"][_case_id(*case)]


if __name__ == "__main__":
    write_fixture()
