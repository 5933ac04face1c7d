"""Finite-difference gradient checking shared by the unit and acceptance tests."""

import numpy as np

from tsgan.numcore import Tape, backward


def numeric_grads(f, arrays, h=1e-5):
    """Central-difference gradients of scalar f() w.r.t. arrays mutated in place."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat, gf = a.ravel(), g.ravel()
        for i in range(flat.size):
            kept = flat[i]
            flat[i] = kept + h
            fp = f()
            flat[i] = kept - h
            fm = f()
            flat[i] = kept
            gf[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def analytic_grads(build_loss, tensors):
    """Backward-pass gradients of build_loss() w.r.t. the given leaves."""
    with Tape() as rec:
        loss = build_loss()
    gmap = backward(rec, loss)
    return [gmap[t.tape_id] for t in tensors]


def check_gradients(build_loss, tensors, h=1e-5, rtol=1e-4, atol=1e-7):
    """Assert analytic and numeric gradients agree for every leaf tensor."""
    analytic = analytic_grads(build_loss, tensors)

    def value():
        return float(build_loss().data.reshape(()))

    numeric = numeric_grads(value, [t.data for t in tensors], h=h)
    for a, n in zip(analytic, numeric):
        np.testing.assert_allclose(a, n, rtol=rtol, atol=atol)
