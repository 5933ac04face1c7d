"""Model architectures: layered networks, their builders, and checkpoints."""

from .builders import (
    DISC_CONV_FILTERS,
    DISC_DENSE_UNITS,
    DISC_KERNEL,
    DISC_STRIDE,
    GENERATOR_DENSE_UNITS,
    GENERATOR_DROPOUT,
    GENERATOR_GRU_UNITS,
    TIMEGAN_HIDDEN,
    TIMEGAN_STACK,
    build_critic,
    build_discriminator,
    build_forecaster,
    build_generator,
    build_timegan,
    conv_out_len,
    min_discriminator_len,
    scale_width,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .network import (
    ACTIVATIONS,
    Network,
    NetSpec,
    build_network,
    trunk_end,
)
