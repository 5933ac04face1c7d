"""Layer specs, parameter initialization, and the shared forward interpreter.

A NetSpec is an ordered list of layer descriptions; a Network couples one
NetSpec with a ParamVector: name -> Tensor, each value a view into one float64
vector, laid in the spec's canonical order. net_forward walks the layer list,
so every architecture in the toolkit (generator, discriminator, critic,
forecasters, TimeGAN sub-networks) shares one executor and one checkpoint
format.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError, DataError, ShapeError
from ..numcore import (
    RngStream,
    Tensor,
    concat,
    conv1d,
    dropout,
    gru_sequence,
    lstm_sequence,
    matmul,
    relu,
    reshape,
    sigmoid,
    slice_tensor,
    tanh,
)
from ..numcore.optim import require_finite
from ..numcore.tensor import ParamVector

ACTIVATIONS = ("sigmoid", "tanh", "relu", "linear")

# The fields each layer kind reads: positive ints, except dropout's rate, in [0, 1).
_LAYER_FIELDS = {"gru": ("units",), "lstm": ("units",), "dense": ("units",),
                 "conv1d": ("filters", "kernel", "stride"), "flatten": ("flat_width",),
                 "dropout": ("rate",), "last_step": ()}

# Gate letters of each recurrent kind, in parameter order and in the argument
# order of its fused sequence kernel: W<gate>, b<gate> per gate.
_GATES = {"gru": "zrh", "lstm": "fiog"}
_SEQUENCE_KERNELS = {"gru": gru_sequence, "lstm": lstm_sequence}

# Field types of a serialized NetSpec; `layers` holds one JSON object per layer.
_SPEC_FIELD_TYPES = {"name": str, "input_dim": int, "input_rank": int, "layers": list}


class NetSpec:
    """Ordered layer descriptions plus the input contract (rank and width)."""

    def __init__(self, name: str, input_dim: int, layers: list[dict], input_rank: int = 3):
        if input_dim < 1:
            raise ConfigError(f"{name}: input_dim must be positive, got {input_dim}")
        if input_rank not in (2, 3):
            raise ConfigError(f"{name}: input_rank must be 2 or 3, got {input_rank}")
        for i, layer in enumerate(layers):
            kind = layer.get("kind")
            if not isinstance(kind, str) or kind not in _LAYER_FIELDS:
                raise ConfigError(f"{name}: layer {i} has unknown kind {kind!r}")
            act = layer.get("activation")
            if act is not None and act not in ACTIVATIONS:
                raise ConfigError(f"{name}: layer {i} has unknown activation {act!r}")
        self.name = name
        self.input_dim = int(input_dim)
        self.input_rank = int(input_rank)
        self.layers = [dict(layer) for layer in layers]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "input_dim": self.input_dim,
            "input_rank": self.input_rank,
            "layers": [dict(layer) for layer in self.layers],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NetSpec":
        if not isinstance(d, dict):
            raise DataError("network spec must be a JSON object")
        d = {"input_rank": 3, **d}
        wrong = [k for k, kind in _SPEC_FIELD_TYPES.items() if not isinstance(d.get(k), kind)]
        if "layers" not in wrong and not all(isinstance(layer, dict) for layer in d["layers"]):
            wrong.append("layers")
        if wrong:
            raise DataError(f"network spec fields are missing or have the wrong type: "
                            f"{', '.join(wrong)}")
        for i, layer in enumerate(d["layers"]):
            kind = layer.get("kind")
            fields = _LAYER_FIELDS.get(kind, ()) if isinstance(kind, str) else ()
            bad = [f for f in fields if not _valid_layer_field(f, layer.get(f))]
            if bad:
                raise DataError(f"network spec layer {i} ({kind}) fields are missing or "
                                f"invalid: {', '.join(bad)}")
        try:
            return cls(d["name"], d["input_dim"], d["layers"], d["input_rank"])
        except ConfigError as exc:  # a bad value in a loaded file is a data error
            raise DataError(str(exc)) from None


def _valid_layer_field(name: str, value) -> bool:
    if isinstance(value, bool):
        return False
    if name == "rate":
        return isinstance(value, (int, float)) and 0.0 <= value < 1.0
    return isinstance(value, int) and value >= 1


def _apply_activation(x: Tensor, name: str | None) -> Tensor:
    if name is None or name == "linear":
        return x
    if name == "sigmoid":
        return sigmoid(x)
    if name == "tanh":
        return tanh(x)
    if name == "relu":
        return relu(x)
    raise ConfigError(f"unknown activation {name!r}")


def param_shapes(spec: NetSpec) -> list[tuple[str, tuple]]:
    """Named parameter shapes in canonical (manifest) order."""
    shapes: list[tuple[str, tuple]] = []
    width = spec.input_dim
    for i, layer in enumerate(spec.layers):
        kind = layer["kind"]
        prefix = f"L{i}"
        if kind in _GATES:
            units = layer["units"]
            for gate in _GATES[kind]:
                shapes.append((f"{prefix}.W{gate}", (width + units, units)))
                shapes.append((f"{prefix}.b{gate}", (units,)))
            width = units
        elif kind == "dense":
            units = layer["units"]
            shapes.append((f"{prefix}.W", (width, units)))
            shapes.append((f"{prefix}.b", (units,)))
            width = units
        elif kind == "conv1d":
            filters = layer["filters"]
            shapes.append((f"{prefix}.W", (layer["kernel"], width, filters)))
            shapes.append((f"{prefix}.b", (filters,)))
            width = filters
        # flatten widens to length*channels, but length is runtime data; the
        # builders only place dense layers after flatten with known widths.
        elif kind == "flatten":
            width = layer["flat_width"]
    return shapes


def init_network_params(spec: NetSpec, rng: RngStream) -> ParamVector:
    """Seeded init: weights uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)], biases zero.

    Draw order is layer order then canonical name order, so identical seeds
    give bit-identical parameters. Each draw lands in its view of one vector.
    """
    shapes = param_shapes(spec)
    params = ParamVector(shapes, np.zeros(sum(math.prod(s) for _, s in shapes)))
    for name, shape in shapes:
        if not name.split(".")[-1].startswith("b"):
            fan_in = shape[0] * shape[1] if len(shape) == 3 else shape[0]
            bound = 1.0 / np.sqrt(fan_in)
            params[name].data[...] = rng.uniform(-bound, bound, shape)
    return params


def trunk_end(spec: NetSpec) -> int:
    """Index of the spec's first dropout layer, or the layer count if it has none.

    The layers before it draw no randomness, so every train-mode forward on one
    input gives the same trunk values; only the head from here on differs.
    """
    return next((i for i, layer in enumerate(spec.layers) if layer["kind"] == "dropout"),
                len(spec.layers))


def net_forward(
    spec: NetSpec,
    params: dict[str, Tensor],
    x: Tensor,
    mode: str = "eval",
    rng: RngStream | None = None,
    start: int = 0,
    stop: int | None = None,
) -> Tensor:
    """Run layers [start, stop) of the network (all of them by default).

    Dropout fires only in train mode (needs an rng). The input contract is
    checked when the range begins at layer 0; a later start takes the output
    of the layer before it.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"{spec.name}: mode must be 'train' or 'eval', got {mode!r}")
    stop = len(spec.layers) if stop is None else stop
    if not 0 <= start <= stop <= len(spec.layers):
        raise ConfigError(f"{spec.name}: layer range [{start}, {stop}) is outside "
                          f"its {len(spec.layers)} layers")
    if start == 0 and (x.ndim != spec.input_rank or x.shape[-1] != spec.input_dim):
        raise ShapeError(
            f"{spec.name}: expected rank-{spec.input_rank} input with width "
            f"{spec.input_dim}, got shape {x.shape}"
        )
    out = x
    for i, layer in enumerate(spec.layers[start:stop], start):
        kind = layer["kind"]
        prefix = f"L{i}"
        where = f"{spec.name} layer {i} ({kind})"
        if kind in _GATES:
            if out.ndim != 3:
                raise ShapeError(f"{where}: needs a (batch, seq, feat) input, got {out.shape}")
            gate_params = (params[f"{prefix}.{p}{gate}"] for gate in _GATES[kind] for p in "Wb")
            out = _SEQUENCE_KERNELS[kind](out, *gate_params)
        elif kind == "last_step":
            if out.ndim != 3:
                raise ShapeError(f"{where}: needs a (batch, seq, feat) input, got {out.shape}")
            out = slice_tensor(out, (slice(None), out.shape[1] - 1, slice(None)))
        elif kind == "dense":
            if out.ndim not in (2, 3):
                raise ShapeError(f"{where}: needs rank-2 or -3 input, got {out.shape}")
            out = matmul(out, params[f"{prefix}.W"]) + params[f"{prefix}.b"]
            out = _apply_activation(out, layer.get("activation"))
        elif kind == "conv1d":
            if out.ndim != 3:
                raise ShapeError(f"{where}: needs a (batch, length, ch) input, got {out.shape}")
            out = conv1d(out, params[f"{prefix}.W"], stride=layer["stride"])
            out = out + params[f"{prefix}.b"]
            out = _apply_activation(out, layer.get("activation"))
        elif kind == "flatten":
            if out.ndim != 3:
                raise ShapeError(f"{where}: needs a rank-3 input, got {out.shape}")
            out = reshape(out, (out.shape[0], out.shape[1] * out.shape[2]))
        elif kind == "dropout":
            out = dropout(out, layer["rate"], mode=mode, rng=rng)
    return out


class Network:
    """One spec bound to its parameters: a ParamVector laid in the spec's canonical
    order (param_shapes), which is also the order a checkpoint lists them in.
    Forward calls share net_forward."""

    def __init__(self, spec: NetSpec, params: ParamVector):
        if [(k, v.shape) for k, v in params.items()] != param_shapes(spec):
            raise ShapeError(f"{spec.name}: parameters do not match the declared layer "
                             "names and shapes in canonical order")
        self.spec = spec
        self.params = params

    @property
    def name(self) -> str:
        return self.spec.name

    def forward(self, x: Tensor, mode: str = "eval", rng: RngStream | None = None,
                start: int = 0, stop: int | None = None) -> Tensor:
        return net_forward(self.spec, self.params, x, mode=mode, rng=rng,
                           start=start, stop=stop)

    def clone(self) -> "Network":
        """Frozen value copy (a fresh vector, same spec)."""
        return Network(self.spec, ParamVector(param_shapes(self.spec), self.params.flat.copy()))


def forward_stacked(net: Network, first, second) -> tuple[Tensor, Tensor]:
    """net's eval-mode outputs on two batches from one forward over them stacked on axis 0.

    Rows do not interact in a forward, so each half is that batch's own output
    up to rounding; the backward pass sums a parameter's gradient over both
    halves at once. Losses and gradients agree with two separate forwards
    within 1e-12 (gradients relative to the network's largest entry).
    """
    out = net.forward(concat([first, second], axis=0))
    m = first.shape[0]
    return slice_tensor(out, slice(None, m)), slice_tensor(out, slice(m, None))


def require_finite_params(net: Network) -> None:
    require_finite(net.params, net.params.flat,
                   net.name + ": parameter {!r} contains non-finite values")


def build_network(spec: NetSpec, rng: RngStream) -> Network:
    return Network(spec, init_network_params(spec, rng))
