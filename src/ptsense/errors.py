"""Exception hierarchy for the ptsense package."""

from __future__ import annotations


class PtsenseError(Exception):
    """Base class for all ptsense errors."""


class InvalidMatrix(PtsenseError):
    """Matrix input contains NaN/Inf or has an unsupported shape."""


class NotSu2Like(PtsenseError):
    """Matrix squared is not proportional to the identity."""


class EigFailure(PtsenseError):
    """Eigendecomposition did not converge or failed the residual check."""


class InvalidStep(PtsenseError):
    """Non-positive integration step."""


class NormUnderflow(PtsenseError):
    """State norm collapsed below representable range during renormalization."""


class MetricSingular(PtsenseError):
    """Metric operator is singular (gamma/omega at or beyond the exceptional point)."""


class EmptyBranch(PtsenseError):
    """Post-selection branch has vanishing probability; conditioned state undefined."""


class InvalidScheme(PtsenseError):
    """Unknown scheme name or scheme/parameter mismatch."""


class InvalidDerivative(PtsenseError):
    """Density-matrix derivative is not Hermitian (or not traceless where required)."""


class UndefinedResourceMetrics(PtsenseError):
    """Resource metrics undefined because the reference information vanishes."""


class ConfigError(PtsenseError):
    """Invalid sweep configuration; the message names the offending field."""


class WriteError(PtsenseError):
    """Output path is not writable."""
