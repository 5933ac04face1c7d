"""Layer specs, parameter initialization, and the one layer executor.

A NetSpec is an ordered list of layer descriptions, checked whole when it is
built: each layer's kind, fields and activation (dense and conv1d layers take
one, other kinds none), and the rank of the input it takes. A Network couples
one NetSpec with the ParamVector it lays out itself: name -> Tensor, each value
a view into one float64 vector, in the spec's canonical order. Network.forward
walks the layer list, so every architecture in the toolkit (generator,
discriminator, critic, forecasters, TimeGAN sub-networks) shares one executor
and one checkpoint format.
"""

from __future__ import annotations

import math
from itertools import islice

import numpy as np

from ..artifacts import is_a
from ..errors import ConfigError, DataError, ShapeError
from ..numcore import (
    RngStream,
    Tensor,
    as_tensor,
    concat,
    conv1d,
    dense,
    dropout,
    gru_pack,
    gru_sequence,
    lstm_pack,
    lstm_sequence,
    reshape,
    slice_tensor,
)
from ..numcore.optim import require_finite
from ..numcore.tensor import ACTIVATION_RULES, ParamVector

ACTIVATIONS = tuple(ACTIVATION_RULES)
# The layer kinds that apply an activation; on any other kind one is refused.
_ACTIVATED_KINDS = ("dense", "conv1d")

# Each layer kind: the fields it reads (positive ints, except dropout's rate, in
# [0, 1)), the input ranks it takes, and the rank it hands on (None: the one it got).
_LAYER_KINDS = {"gru": (("units",), (3,), 3), "lstm": (("units",), (3,), 3),
                "dense": (("units",), (2, 3), None), "dropout": (("rate",), (2, 3), None),
                "conv1d": (("filters", "kernel", "stride"), (3,), 3),
                "flatten": (("flat_width",), (3,), 2), "last_step": ((), (3,), 2)}

# Gate letters of each recurrent kind, in parameter order and in the argument
# order of its fused sequence kernel: W<gate>, b<gate> per gate.
_GATES = {"gru": "zrh", "lstm": "fiog"}
_SEQUENCE_KERNELS = {"gru": gru_sequence, "lstm": lstm_sequence}
# Each recurrent kind's pack function: its kernel's weights packed once for many calls.
_PACKS = {"gru": gru_pack, "lstm": lstm_pack}
# The arrays of each recurrent kind's state: h, plus c for the LSTM.
_STATE_PARTS = {"gru": 1, "lstm": 2}

# Field types of a serialized NetSpec; `layers` holds one JSON object per layer.
_SPEC_FIELD_TYPES = {"name": str, "input_dim": int, "input_rank": int, "layers": list}


class NetSpec:
    """Ordered layer descriptions plus the input contract (rank and width).
    `ranks[i]` is the rank layer i takes; the last entry is the output's rank."""

    def __init__(self, name: str, input_dim: int, layers: list[dict], input_rank: int = 3):
        if input_dim < 1:
            raise ConfigError(f"{name}: input_dim must be positive, got {input_dim}")
        if input_rank not in (2, 3):
            raise ConfigError(f"{name}: input_rank must be 2 or 3, got {input_rank}")
        ranks = [int(input_rank)]
        for i, layer in enumerate(layers):
            kind = layer.get("kind")
            if not isinstance(kind, str) or kind not in _LAYER_KINDS:
                raise ConfigError(f"{name}: layer {i} has unknown kind {kind!r}")
            fields, takes, gives = _LAYER_KINDS[kind]
            bad = [f for f in fields if not _valid_layer_field(f, layer.get(f))]
            if bad:
                raise ConfigError(f"{name}: layer {i} ({kind}) fields are missing or "
                                  f"invalid: {', '.join(bad)}")
            act = layer.get("activation")
            if act is not None and kind not in _ACTIVATED_KINDS:
                raise ConfigError(f"{name}: layer {i} ({kind}) applies no activation, "
                                  f"got {act!r}")
            if act is not None and act not in ACTIVATIONS:
                raise ConfigError(f"{name}: layer {i} has unknown activation {act!r}")
            if ranks[-1] not in takes:
                raise ConfigError(f"{name}: layer {i} ({kind}) takes a rank-"
                                  f"{' or '.join(map(str, takes))} input, gets rank {ranks[-1]}")
            ranks.append(gives or ranks[-1])
        self.name = name
        self.input_dim = int(input_dim)
        self.input_rank = int(input_rank)
        self.layers = [dict(layer) for layer in layers]
        self.ranks = ranks

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
        wrong = [k for k, kind in _SPEC_FIELD_TYPES.items() if not is_a(d.get(k), kind)]
        if "layers" not in wrong and not all(isinstance(layer, dict) for layer in d["layers"]):
            wrong.append("layers")
        if wrong:
            raise DataError(f"network spec fields are missing or have the wrong type: "
                            f"{', '.join(wrong)}")
        try:
            return cls(d["name"], d["input_dim"], d["layers"], d["input_rank"])
        except ConfigError as exc:  # a bad value in a loaded file is a data error
            raise DataError(str(exc)) from None


def _valid_layer_field(name: str, value) -> bool:
    if name == "rate":
        return is_a(value, (int, float)) and 0.0 <= value < 1.0
    return is_a(value, int) and value >= 1


def _layer_shapes(spec: NetSpec) -> list[list[tuple[str, tuple]]]:
    """Each layer's named parameter shapes, in canonical order."""
    layers: list[list[tuple[str, tuple]]] = []
    width = spec.input_dim
    for i, layer in enumerate(spec.layers):
        kind = layer["kind"]
        if kind in _GATES:
            units = layer["units"]
            shapes = [(f"{p}{gate}", (width + units, units) if p == "W" else (units,))
                      for gate in _GATES[kind] for p in "Wb"]
        elif kind == "dense":
            shapes = [("W", (width, layer["units"])), ("b", (layer["units"],))]
        elif kind == "conv1d":
            shapes = [("W", (layer["kernel"], width, layer["filters"])),
                      ("b", (layer["filters"],))]
        else:
            shapes = []
        # A layer with parameters hands on its bias width. flatten widens to
        # length*channels, but length is runtime data; the builders only place
        # dense layers after flatten with known widths.
        width = shapes[-1][1][0] if shapes else layer.get("flat_width", width)
        layers.append([(f"L{i}.{name}", shape) for name, shape in shapes])
    return layers


def param_shapes(spec: NetSpec) -> list[tuple[str, tuple]]:
    """Named parameter shapes in canonical (manifest) order."""
    return [shape for shapes in _layer_shapes(spec) for shape in shapes]


def trunk_end(spec: NetSpec) -> int:
    """Index of the spec's first dropout layer, or the layer count if it has none.

    The layers before it draw no randomness, so every forward on one input
    gives the same trunk values, whatever its rng; only the head from here on differs.
    """
    return next((i for i, layer in enumerate(spec.layers) if layer["kind"] == "dropout"),
                len(spec.layers))


class Network:
    """One spec bound to the ParamVector it lays over `flat` in the spec's canonical order
    (param_shapes), the order a checkpoint lists them in; a wrong length is a ShapeError.
    The network owns `flat` for its whole life: updates write it in place."""

    def __init__(self, spec: NetSpec, flat: np.ndarray):
        per_layer = _layer_shapes(spec)
        self.spec = spec
        self.params = ParamVector([shape for shapes in per_layer for shape in shapes], flat)
        # each layer's Tensors in its kernel's argument order
        tensors = iter(self.params.values())
        self._layer_params = [list(islice(tensors, len(shapes))) for shapes in per_layer]

    @property
    def name(self) -> str:
        return self.spec.name

    def forward(self, x: Tensor, rng: RngStream | None = None, start: int = 0,
                stop: int | None = None, carry: list | None = None):
        """Run layers [start, stop) of the network (all of them by default).

        Dropout layers draw their masks from `rng` when it is given and pass values
        through when it is not. The input must have the rank layer `start` takes, and
        the network's input width when `start` is 0. Given `carry`, one (state, pack)
        pair per recurrent layer in [start, stop), in order: the layer starts from the
        state (a tuple of (batch, units) arrays, see gru_sequence and lstm_sequence)
        and runs on the packed weights (see pack), and the call returns (output, those
        layers' states at every step). Only a forward that records nothing on a tape
        may take a carry.
        """
        spec = self.spec
        stop = len(spec.layers) if stop is None else stop
        if not 0 <= start <= stop <= len(spec.layers):
            raise ConfigError(f"{spec.name}: layer range [{start}, {stop}) is outside "
                              f"its {len(spec.layers)} layers")
        shape = x.data.shape
        if len(shape) != spec.ranks[start] or (start == 0 and shape[-1] != spec.input_dim):
            width = f" with width {spec.input_dim}" if start == 0 else ""
            raise ShapeError(f"{spec.name}: layer {start} expects a rank-{spec.ranks[start]} "
                             f"input{width}, got shape {shape}")
        layers = spec.layers[start:stop]
        if carry is not None:
            recurrent = sum(layer["kind"] in _SEQUENCE_KERNELS for layer in layers)
            if len(carry) != recurrent:
                raise ConfigError(f"{spec.name}: {len(carry)} carried states for the "
                                  f"{recurrent} recurrent layers in [{start}, {stop})")
            carry, states = iter(carry), []
        out = x
        for layer, params in zip(layers, self._layer_params[start:stop]):
            kind = layer["kind"]
            if kind in _SEQUENCE_KERNELS:
                # no keywords without a carry: a kernel wrapper may take none
                if carry is None:
                    out = _SEQUENCE_KERNELS[kind](out, *params)
                else:
                    state, packed = next(carry)
                    out, state = _SEQUENCE_KERNELS[kind](out, *params, state=state,
                                                         packed=packed)
                    states.append(state)
            elif kind == "last_step":
                out = slice_tensor(out, (slice(None), out.data.shape[1] - 1, slice(None)))
            elif kind == "dense":
                out = dense(out, *params, layer.get("activation") or "linear")
            elif kind == "conv1d":
                out = conv1d(out, *params, layer.get("activation") or "linear", layer["stride"])
            elif kind == "flatten":
                batch, length, channels = out.data.shape
                out = reshape(out, (batch, length * channels))
            elif kind == "dropout":
                out = dropout(out, layer["rate"], rng)
        return out if carry is None else (out, states)

    def row_bytes(self) -> int:
        """Bytes one input row (one sequence at one timestep) holds in the largest layer
        call: its input, and a recurrent layer's input and output, [1|x], its two gate
        buffers and its states. No layer turns a rank-2 value back into a sequence, so
        every recurrent layer comes before last_step, as for pack and zero_states."""
        width = most = self.spec.input_dim
        for layer in self.spec.layers:
            if layer["kind"] in _GATES:
                gates = len(_GATES[layer["kind"]])
                most = max(most, 2 * width + 1 + (2 * gates + 4) * layer["units"])
            width = layer.get("units", width)
        return 8 * (self.spec.input_dim + most)

    def zero_states(self, batch: int) -> list:
        """Zero initial states of the recurrent layers, in order, as a carry holds them."""
        return [tuple(np.zeros((batch, layer["units"]))
                      for _ in range(_STATE_PARTS[layer["kind"]]))
                for layer in self.spec.layers if layer["kind"] in _STATE_PARTS]

    def pack(self) -> list:
        """The packed weights of the recurrent layers, in order (see gru_pack and
        lstm_pack), as a carry holds them. A pack is a copy: it holds until the weights
        are next written, so a caller packs once per use and keeps no pack past it."""
        return [_PACKS[layer["kind"]](*params)
                for layer, params in zip(self.spec.layers, self._layer_params)
                if layer["kind"] in _PACKS]

    def clone(self) -> "Network":
        """Frozen value copy (a fresh vector, same spec)."""
        return Network(self.spec, self.params.flat.copy())


def forward_stacked(net: Network, first, second) -> tuple[Tensor, Tensor]:
    """net's dropout-free outputs on two batches from one forward over them stacked on axis 0.

    Rows do not interact in a forward, so each half is that batch's own output
    up to rounding; the backward pass sums a parameter's gradient over both
    halves at once. Losses and gradients agree with two separate forwards
    within 1e-12 (gradients relative to the network's largest entry).
    """
    first = first if isinstance(first, Tensor) else as_tensor(first)
    out = net.forward(concat([first, second], axis=0))
    m = first.data.shape[0]
    return slice_tensor(out, slice(None, m)), slice_tensor(out, slice(m, None))


def require_finite_params(net: Network) -> None:
    require_finite(net.params, net.params.flat,
                   net.name + ": parameter {!r} contains non-finite values")


def build_network(spec: NetSpec, rng: RngStream) -> Network:
    """Seeded init: weights (parameters of more than one dimension) uniform in
    [-1/sqrt(fan_in), +1/sqrt(fan_in)], fan_in the product of all but their last
    dimension; biases zero. Draws follow the canonical parameter order, so identical
    seeds give bit-identical parameters; each lands in its view of the one vector."""
    net = Network(spec, np.zeros(sum(math.prod(shape) for _, shape in param_shapes(spec))))
    for t in net.params.values():
        shape = t.data.shape
        if len(shape) > 1:
            bound = 1.0 / np.sqrt(math.prod(shape[:-1]))
            t.data[...] = rng.uniform(-bound, bound, shape)
    return net
