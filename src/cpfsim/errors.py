"""Exception hierarchy for the cpfsim package.

All domain errors derive from :class:`CpfError` so callers can distinguish
physics/validation failures from programming errors.  The CLI maps these to
exit codes; library users catch them directly.
"""

from __future__ import annotations


class CpfError(Exception):
    """Base class for all cpfsim domain errors."""


class InvalidMomentSet(CpfError):
    """Moments are non-finite, out of range, or imply a negative probability."""


class InvalidProbabilityTable(CpfError):
    """Table entries violate positivity or normalization."""


class ZeroProbabilityPostselection(CpfError):
    """Conditioning outcome has (numerically) zero probability."""


class EmptyPostselection(CpfError):
    """No sampled trajectory survived the postselection filter."""


class BathTooLarge(CpfError):
    """Requested bath too large to simulate: the dense statevector oracle beyond
    its spin count, or a Cauchy-ensemble chunk or a scaled bath's arrays beyond
    the memory budget."""


class UnreachablePolarization(CpfError):
    """Requested bath polarization exceeds the physical range [-1, +1]."""


class StepTooCoarse(CpfError):
    """Path integration step too large relative to the noise correlation time."""


class NonFiniteResult(CpfError, ValueError):
    """A computed value or standard error is inf or nan: the parameters or times
    overflow the float range.  Also a ValueError, the error of a bad Estimate."""


class UndefinedCorrelation(CpfError):
    """The noise model has no finite second-moment correlation function."""


class ConfigError(CpfError):
    """Experiment configuration file is malformed or inconsistent."""


class GridMismatch(CpfError):
    """Two result sets to be compared were evaluated on different grids."""
