"""Training loops, objectives, traces, and model-output synthesis."""

from .config import TrainConfig
from .forecaster import train_forecaster
from .gan import disc_sequence, gen_latent_dim, gen_output_dim, train_gan
from .losses import (
    GENERATOR_LOSS_MODES,
    PROB_FLOOR,
    bce,
    critic_estimate,
    critic_generator_cost,
    discriminator_cost,
    gan_value,
    generator_cost,
    jensen_shannon_divergence,
    mse,
    optimal_discriminator,
    weighted_sum,
)
from .synthesis import (
    FORECAST_MODES,
    ForecastResult,
    ForecasterPredictor,
    GanPredictor,
    PersistencePredictor,
    TimeganPredictor,
    as_predictor,
    forecast,
    generate_synthetic,
)
from .step import minibatches
from .timegan import TIMEGAN_NET_NAMES, phase_budgets, train_timegan
from .trace import CSV_COLUMNS, LossTrace
from .wgan import train_wgan
