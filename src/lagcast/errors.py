"""Exception types shared across the package.

The CLI maps each of the three roots (ConfigError, DataError, FitError)
onto its own exit code, so raising the right class matters more than
the message text.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """Bad flag, config-file entry, or parameter combination."""


class DataError(ValueError):
    """Input series or file is unusable (malformed, too short, non-finite)."""


class FitError(RuntimeError):
    """Model fitting or training failed."""


class DegenerateSampleError(DataError):
    """Paired sample carries no usable signal for the requested test."""


class UndefinedMetricError(DataError):
    """Metric is mathematically undefined for the given inputs."""
