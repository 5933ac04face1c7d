"""Desk-scale time-series GAN and recurrent forecasting toolkit.

Everything runs on a small float64 reverse-mode autodiff core (tsgan.numcore);
no external deep learning framework is involved.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DataError, DomainError, GraphError,
                     NumericAbort, ShapeError, ToolkitError)
