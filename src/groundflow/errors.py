"""Exception types raised across the toolkit."""


class GroundflowError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(GroundflowError, ValueError):
    """Grids or arrays that must share a shape do not."""


class ConfigError(GroundflowError, ValueError):
    """Invalid configuration value or unparsable config file."""


class Divergence(GroundflowError, RuntimeError):
    """Optimization produced a non-finite loss."""


class OutOfBoundsPoint(GroundflowError, ValueError):
    """A point falls outside the ground grid."""


class InstanceTooLarge(GroundflowError, ValueError):
    """Brute-force oracle invoked on an instance beyond its size limit."""


class UndefinedMetric(GroundflowError, ValueError):
    """Metric is undefined for the given input (e.g. no ground truth)."""


class FormatError(GroundflowError, ValueError):
    """A serialized file does not match the expected container format."""
