"""Per-layer spans and counts, recorded from outside the program.

`install` rebinds the public names that tsgan's modules import from one
another (and the public methods of a few classes) to timing wrappers. Nothing
under src/ is edited: a wrapped function is replaced in every loaded
`tsgan.*` module that holds it, so callers that did `from ..numcore import
backward` see the wrapper too. Spans nest on a stack, so a layer's self time
is its duration minus the spans it called.

The tape itself has no timer hooks, so per-op forward/backward seconds and the
per-layer-kind (gru/lstm/conv1d/dense) split are not measured here; both need
spans inside src/ and belong to a later change. Node counts per op kind are
read from the tape's node list when `backward` consumes it.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict

# Op kinds reported one by one; every other kind still counts in the totals.
OPS = ("matmul", "add", "sub", "mul", "sigmoid", "tanh", "relu", "concat",
       "slice", "reshape", "conv1d", "mean")

# Update stages, named by the networks an optimizer step updates (sorted,
# joined with '-'). These are every stage the four workloads run.
STAGES = ("gru_forecaster", "lstm_forecaster", "embedder-recovery", "supervisor",
          "discriminator", "embedder-generator-recovery-supervisor", "critic",
          "generator")

_RNG_METHODS = ("child", "normal", "uniform", "permutation", "integers")
_PREDICTORS = ("ForecasterPredictor", "GanPredictor", "TimeganPredictor",
               "PersistencePredictor")


class Tracer:
    """Span totals and exact counts for one process."""

    def __init__(self):
        self._active_tape = None            # tsgan's active_tape, set by install()
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far."""
        self.seconds = defaultdict(float)   # span name -> inclusive seconds
        self.calls = defaultdict(int)       # span name -> calls
        self.counts = defaultdict(int)      # exact counts (nodes, rows, bytes)
        self.stage_ops = defaultdict(Counter)  # stage -> op kind -> nodes
        self.stage_steps = Counter()        # stage -> updates
        self.intervals_ms = []              # between consecutive updates of one loop
        self.loop_self_s = 0.0
        self._stack = []                    # open spans: [name, seconds in children]
        self._owner = {}                    # id(parameter Tensor) -> network name
        self._tape_ops = None               # op counts of the last tape, until its update
        self._last_update = None

    def in_span(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def wrap(self, name, fn, before=None, after=None):
        """Time `fn` under `name` (a string, or a function of the call's args)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            if before is not None:
                before(*args, **kwargs)
            frame = [label, 0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += dt
                tracer.seconds[label] += dt
                tracer.calls[label] += 1
                if label == "training":
                    tracer.loop_self_s += dt - frame[1]
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return wrapper

    # --- hooks -------------------------------------------------------------

    def _on_backward(self, record, loss, *rest, **kw):
        ops = Counter(node[0] for node in record.nodes)
        self._tape_ops = ops
        self.counts["tensor.nodes"] += len(record.nodes)
        self.counts["tensor.leaves"] += len(record._leaves)
        for op, n in ops.items():
            self.counts[f"tensor.nodes.{op}"] += n

    def _on_update(self, state, params, grads, *rest, **kw):
        now = time.perf_counter()
        if self._last_update is not None:
            self.intervals_ms.append((now - self._last_update) * 1000.0)
        self._last_update = now
        stage = "-".join(sorted({self._owner.get(id(p), "unknown") for p in params.values()}))
        if self._tape_ops is not None:
            self.stage_ops[stage].update(self._tape_ops)
            self.stage_steps[stage] += 1
            self._tape_ops = None

    def _on_training(self, *args, **kw):
        self._last_update = None

    def _forward_label(self, net, x, *rest, **kw):
        on_tape = self._active_tape() is not None
        return "network.forward_train" if on_tape else "network.forward_eval"

    def _on_forward(self, net, x, *rest, **kw):
        # refreshed on every call: ids of freed parameters get reused
        for p in net.params.values():
            self._owner[id(p)] = net.name
        if self._active_tape() is None:
            self.counts["network.forward_eval_rows"] += x.shape[0]

    def _on_predict(self, predictor, inputs, *rest, **kw):
        if self.in_span("synthesis.forecast"):
            self.counts["synthesis.predict_calls"] += 1
            self.counts["synthesis.predict_rows"] += inputs.shape[0]

    def _after_save(self, manifest, stem, *rest, **kw):
        for ext in (".json", ".bin"):
            self.counts["checkpoint.bytes"] += os.path.getsize(str(stem) + ext)

    def _on_digest(self, path, *rest, **kw):
        self.counts["manifest.digest_bytes"] += os.path.getsize(path)

    # --- output ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data copy of everything recorded so far."""
        return {
            "seconds": dict(self.seconds),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "stage_ops": {k: dict(v) for k, v in self.stage_ops.items()},
            "stage_steps": dict(self.stage_steps),
            "intervals_ms": list(self.intervals_ms),
            "loop_self_s": self.loop_self_s,
        }


def _rebind(old, new) -> None:
    """Point every tsgan module attribute that holds `old` at `new`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "tsgan" or mod_name.startswith("tsgan.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports."""
    import tsgan.cli  # noqa: F401  (loads every module the CLI chain uses)
    from tsgan import evaluate, manifest, pipeline
    from tsgan.data import features, ohlcv, scaling, windows
    from tsgan.models import checkpoint, network
    from tsgan.numcore import optim, rng, tensor
    from tsgan.training import forecaster, gan, synthesis, timegan, wgan

    t = tracer
    t._active_tape = tensor.active_tape
    functions = [
        (tensor.backward, "tensor.backward", t._on_backward, None),
        (tensor.leaf_grads, "optim.leaf_grads", None, None),
        (optim.optimizer_step, "optim.step", t._on_update, None),
        (optim.clip_weights, "optim.clip", None, None),
        (forecaster.train_forecaster, "training", t._on_training, None),
        (gan.train_gan, "training", t._on_training, None),
        (wgan.train_wgan, "training", t._on_training, None),
        (timegan.train_timegan, "training", t._on_training, None),
        (synthesis.forecast, "synthesis.forecast", None, None),
        (pipeline.prepare_dataset, "pipeline.prepare", None, None),
        (ohlcv.repair_calendar, "data.repair", None, None),
        (features.build_features, "data.features", None, None),
        (scaling.fit_scaler, "data.features", None, None),
        (scaling.apply_scaler, "data.features", None, None),
        (windows.make_windows, "data.windows", None, None),
        (windows.split_train_test, "data.windows", None, None),
        (checkpoint.save_checkpoint, "checkpoint.save", None, t._after_save),
        (checkpoint.load_checkpoint, "checkpoint.load", None, None),
        (manifest.write_manifest, "manifest.write", None, None),
        (manifest.file_digest, "manifest.digest", t._on_digest, None),
        (evaluate.horizon_sweep, "evaluate.sweep", None, None),
    ]
    for fn, name, before, after in functions:
        _rebind(fn, t.wrap(name, fn, before, after))

    net_cls = network.Network
    net_cls.forward = t.wrap(t._forward_label, net_cls.forward, t._on_forward)
    for method in _RNG_METHODS:
        setattr(rng.RngStream, method, t.wrap("rng.draw", getattr(rng.RngStream, method)))
    for cls_name in _PREDICTORS:
        cls = getattr(synthesis, cls_name)
        cls.predict = t.wrap("synthesis.predict", cls.predict, t._on_predict)
