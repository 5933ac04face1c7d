"""Reference architectures: generator, discriminator/critic, forecasters, TimeGAN.

Widths default to the full-size reference configuration; every builder takes
a width multiplier so the same topology runs at desk scale (multiplier 1/32
turns the generator's {1024, 512, 256, 128, 64} into {32, 16, 8, 4, 2}).
"""

from __future__ import annotations

from ..errors import ConfigError
from ..numcore import RngStream
from .network import Network, NetSpec, build_network

GENERATOR_GRU_UNITS = (1024, 512, 256)
GENERATOR_DENSE_UNITS = (128, 64)
GENERATOR_DROPOUT = 0.4
DISC_CONV_FILTERS = (32, 64, 128)
DISC_DENSE_UNITS = (220, 330)
DISC_KERNEL = 5
DISC_STRIDE = 4
TIMEGAN_HIDDEN = 24
TIMEGAN_STACK = 3
FORECASTER_KINDS = ("gru", "lstm")


def scale_width(base: int, mult: float) -> int:
    """Scale a layer width, never below one unit."""
    return max(1, round(base * mult))


def conv_out_len(length: int, kernel: int, stride: int) -> int:
    return (length - kernel) // stride + 1


def min_discriminator_len() -> int:
    """Shortest input that keeps every discriminator conv layer's output length >= 1."""
    need = 1
    for _ in DISC_CONV_FILTERS:
        need = DISC_KERNEL + DISC_STRIDE * (need - 1)
    return need


def build_generator(
    latent_dim: int,
    seq_len: int,
    out_dim: int,
    rng: RngStream,
    feature_dim: int = 0,
    width_mult: float = 1.0,
) -> Network:
    """Stacked GRU tower, then a dense head on the final state.

    Per-step input is the conditioning feature vector (width feature_dim,
    possibly 0) concatenated with latent noise (width latent_dim). Output is
    out_dim sigmoid units, one per forecast step, in scaled price units.
    """
    if latent_dim < 1 or seq_len < 1 or out_dim < 1 or feature_dim < 0:
        raise ConfigError(
            f"generator: bad dims (latent={latent_dim}, seq={seq_len}, "
            f"out={out_dim}, features={feature_dim})"
        )
    g1, g2, g3 = (scale_width(u, width_mult) for u in GENERATOR_GRU_UNITS)
    d1, d2 = (scale_width(u, width_mult) for u in GENERATOR_DENSE_UNITS)
    layers = [
        {"kind": "gru", "units": g1},
        {"kind": "gru", "units": g2},
        {"kind": "gru", "units": g3},
        {"kind": "last_step"},
        {"kind": "dense", "units": d1, "activation": "relu"},
        {"kind": "dropout", "rate": GENERATOR_DROPOUT},
        {"kind": "dense", "units": d2, "activation": "relu"},
        {"kind": "dense", "units": out_dim, "activation": "sigmoid"},
    ]
    spec = NetSpec("generator", feature_dim + latent_dim, layers, input_rank=3)
    return build_network(spec, rng)


def build_discriminator(
    seq_len: int,
    in_dim: int,
    rng: RngStream,
    width_mult: float = 1.0,
    head: str = "sigmoid",
) -> Network:
    """Three stride-4 conv blocks, flatten, two relu dense layers, 1-unit head.

    head='sigmoid' is the GAN discriminator (probability output); 'linear'
    is the critic variant with an unbounded score.
    """
    if head not in ("sigmoid", "linear"):
        raise ConfigError(f"discriminator: head must be 'sigmoid' or 'linear', got {head!r}")
    min_len = min_discriminator_len()
    if seq_len < min_len:
        raise ConfigError(
            f"discriminator: input length {seq_len} too short for "
            f"{len(DISC_CONV_FILTERS)} conv layers (kernel {DISC_KERNEL}, "
            f"stride {DISC_STRIDE}); minimum is {min_len}"
        )
    f1, f2, f3 = (scale_width(f, width_mult) for f in DISC_CONV_FILTERS)
    u1, u2 = (scale_width(u, width_mult) for u in DISC_DENSE_UNITS)
    length = seq_len
    for _ in DISC_CONV_FILTERS:
        length = conv_out_len(length, DISC_KERNEL, DISC_STRIDE)
    layers = [
        {"kind": "conv1d", "filters": f1, "kernel": DISC_KERNEL, "stride": DISC_STRIDE,
         "activation": "relu"},
        {"kind": "conv1d", "filters": f2, "kernel": DISC_KERNEL, "stride": DISC_STRIDE,
         "activation": "relu"},
        {"kind": "conv1d", "filters": f3, "kernel": DISC_KERNEL, "stride": DISC_STRIDE,
         "activation": "relu"},
        {"kind": "flatten", "flat_width": length * f3},
        {"kind": "dense", "units": u1, "activation": "relu"},
        {"kind": "dense", "units": u2, "activation": "relu"},
        {"kind": "dense", "units": 1, "activation": head},
    ]
    name = "discriminator" if head == "sigmoid" else "critic"
    spec = NetSpec(name, in_dim, layers, input_rank=3)
    return build_network(spec, rng)


def build_critic(seq_len: int, in_dim: int, rng: RngStream, width_mult: float = 1.0) -> Network:
    return build_discriminator(seq_len, in_dim, rng, width_mult=width_mult, head="linear")


def build_forecaster(
    kind: str,
    layers: int,
    units: int,
    seq_len: int,
    horizon: int,
    input_dim: int,
    rng: RngStream,
) -> Network:
    """Stacked recurrent layers of one cell kind, linear dense head of width horizon."""
    if kind not in FORECASTER_KINDS:
        raise ConfigError(f"forecaster: kind must be one of {FORECASTER_KINDS}, got {kind!r}")
    if layers < 1 or seq_len < 1:  # NetSpec checks units, horizon and input_dim
        raise ConfigError(f"forecaster: bad dims (layers={layers}, seq={seq_len})")
    stack = [{"kind": kind, "units": units} for _ in range(layers)]
    stack.append({"kind": "last_step"})
    stack.append({"kind": "dense", "units": horizon, "activation": "linear"})
    spec = NetSpec(f"{kind}_forecaster", input_dim, stack, input_rank=3)
    return build_network(spec, rng)


def build_timegan(
    feature_dim: int,
    hidden_dim: int = TIMEGAN_HIDDEN,
    seq_len: int | None = None,
    rng: RngStream | None = None,
) -> dict[str, Network]:
    """Five sub-networks over a shared latent space of width hidden_dim.

    embedder: features -> latent; recovery: latent -> features;
    generator: noise -> latent; supervisor: latent -> next-step latent;
    discriminator: latent sequence -> per-step real/fake probability.
    All heads are sigmoid (features and latents live in [0, 1]).
    """
    if rng is None:
        raise ConfigError("timegan: an RngStream is required for initialization")

    def stack(name: str, in_dim: int, out_dim: int, depth: int = TIMEGAN_STACK) -> Network:
        layers = [{"kind": "gru", "units": hidden_dim} for _ in range(depth)]
        layers.append({"kind": "dense", "units": out_dim, "activation": "sigmoid"})
        return build_network(NetSpec(name, in_dim, layers, input_rank=3), rng.child(name))

    return {
        "embedder": stack("embedder", feature_dim, hidden_dim),
        "recovery": stack("recovery", hidden_dim, feature_dim),
        "generator": stack("generator", feature_dim, hidden_dim),
        "supervisor": stack("supervisor", hidden_dim, hidden_dim),
        "discriminator": stack("discriminator", hidden_dim, 1),
    }
