"""Layer specs, parameter initialization, and the shared forward interpreter.

A NetSpec is an ordered list of layer descriptions; a Network couples one
NetSpec with a flat name -> Tensor parameter dict. net_forward walks the
layer list, so every architecture in the toolkit (generator, discriminator,
critic, forecasters, TimeGAN sub-networks) shares one executor and one
checkpoint format.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, DataError, ShapeError
from ..numcore import (
    RngStream,
    Tensor,
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

ACTIVATIONS = ("sigmoid", "tanh", "relu", "linear")

_LAYER_KINDS = ("gru", "lstm", "dense", "conv1d", "flatten", "dropout", "last_step")

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
            if kind not in _LAYER_KINDS:
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
        return cls(d["name"], d["input_dim"], d["layers"], d["input_rank"])


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


def _layer_param_shapes(spec: NetSpec) -> list[tuple[str, tuple]]:
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


def init_network_params(spec: NetSpec, rng: RngStream) -> dict[str, Tensor]:
    """Seeded init: weights uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)], biases zero.

    Draw order is layer order then canonical name order, so identical seeds
    give bit-identical parameters.
    """
    params: dict[str, Tensor] = {}
    for name, shape in _layer_param_shapes(spec):
        short = name.split(".")[-1]
        if short.startswith("b"):
            params[name] = Tensor(np.zeros(shape), requires_grad=True)
        else:
            if len(shape) == 3:
                fan_in = shape[0] * shape[1]
            else:
                fan_in = shape[0]
            bound = 1.0 / np.sqrt(fan_in)
            params[name] = Tensor(rng.uniform(-bound, bound, shape), requires_grad=True)
    return params


def net_forward(
    spec: NetSpec,
    params: dict[str, Tensor],
    x: Tensor,
    mode: str = "eval",
    rng: RngStream | None = None,
) -> Tensor:
    """Run the network. Dropout fires only in train mode (needs an rng)."""
    if mode not in ("train", "eval"):
        raise ConfigError(f"{spec.name}: mode must be 'train' or 'eval', got {mode!r}")
    if x.ndim != spec.input_rank or x.shape[-1] != spec.input_dim:
        raise ShapeError(
            f"{spec.name}: expected rank-{spec.input_rank} input with width "
            f"{spec.input_dim}, got shape {x.shape}"
        )
    out = x
    for i, layer in enumerate(spec.layers):
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
    """One spec bound to its parameters. Forward calls share net_forward."""

    def __init__(self, spec: NetSpec, params: dict[str, Tensor]):
        expected = dict(_layer_param_shapes(spec))
        got = {k: v.shape for k, v in params.items()}
        if got != expected:
            raise ShapeError(f"{spec.name}: parameter set does not match the declared layer shapes")
        self.spec = spec
        self.params = params

    @property
    def name(self) -> str:
        return self.spec.name

    def forward(self, x: Tensor, mode: str = "eval", rng: RngStream | None = None) -> Tensor:
        return net_forward(self.spec, self.params, x, mode=mode, rng=rng)

    def __call__(self, x: Tensor, mode: str = "eval", rng: RngStream | None = None) -> Tensor:
        return self.forward(x, mode=mode, rng=rng)

    def param_order(self) -> list[str]:
        return [name for name, _ in _layer_param_shapes(self.spec)]

    def clone(self) -> "Network":
        """Frozen value copy (fresh arrays, same spec)."""
        copied = {
            k: Tensor(v.data.copy(), requires_grad=v.requires_grad) for k, v in self.params.items()
        }
        return Network(self.spec, copied)


def build_network(spec: NetSpec, rng: RngStream) -> Network:
    return Network(spec, init_network_params(spec, rng))
