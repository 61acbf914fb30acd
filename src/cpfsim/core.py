"""Model-independent types for the three-measurement dephasing protocol.

A qubit prepared along +x is measured in the x basis at times 0, t and
t + tau, giving outcomes x, y, z in {+1, -1}.  Conditioned on the middle
outcome y, the statistics of the outer pair are fixed by three moments,

    f_t     = <x y | y>     past correlation over the first interval,
    f_tau   = <z y | y>     future correlation over the second interval,
    f_joint = <z x | y>     joint moment coupling past and future,

through the probability table

    P(z, x | y) = (1 + x*y*f_t + z*y*f_tau + z*x*f_joint) / 4.

The conditional past-future correlation is the connected combination

    C_pf = f_joint - f_t * f_tau,

which vanishes identically when the evolution between measurements is
memoryless.  This module owns the outcome bookkeeping, the moment set and the
probability table (float64 scalars or arrays of points) with their validity
constraints, and the C_pf combination rules.  Dynamical models that produce
the moments live in the sibling modules.

Conventions: outcomes are the integers +1 and -1 (the measured eigenvalues),
and the conditioning outcome y is always explicit in table constructors.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidMomentSet, InvalidProbabilityTable, NonFiniteResult,
                     ZeroProbabilityPostselection)

OUTCOMES: tuple[int, int] = (+1, -1)

# Absolute tolerance on table normalization.
NORMALIZATION_TOL = 1e-12
# Entries may fall outside [0, 1] by at most this much before rejection;
# violations inside the band are clipped to the boundary.
ENTRY_TOL = 1e-9
# Conditioning on an outcome pair needs |1 + yx f_t| above this threshold.
POSTSELECTION_EPS = 1e-12


def validate_outcome(value: int, name: str = "outcome") -> int:
    """Return ``value`` as a plain int after checking it is the number +1 or -1
    (1.0 passes; True, None, nan, text and lists do not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or value not in OUTCOMES:
        from ._mc import shown  # _mc imports core: core imports _mc only to refuse

        raise ValueError(f"{name} must be +1 or -1, got {shown(value)}")
    return int(value)


def joint_moment_bounds(f_t: float, f_tau: float) -> tuple[float, float]:
    """Range of f_joint compatible with non-negative table entries.

    For given marginal moments the table is a valid probability distribution
    iff  -1 + |f_t + f_tau| <= f_joint <= 1 - |f_t - f_tau|.
    """
    lo = -1.0 + abs(f_t + f_tau)
    hi = 1.0 - abs(f_t - f_tau)
    if lo > hi:
        # mathematically lo == hi here (one moment has magnitude 1); the two
        # roundings can invert the degenerate window by an ulp
        lo = hi = 0.5 * (lo + hi)
    return lo, hi


@dataclass(frozen=True, eq=False)  # array fields: no value equality
class MomentSet:
    """The three conditional moments (f_t, f_tau, f_joint).

    Each moment is a float64 scalar or array (the three broadcast against
    each other); every value must be finite and lie in [-1, +1].  Whether a
    triple is jointly realizable as a probability table is only decided at
    table construction time; see :func:`joint_moment_bounds`.
    """

    f_t: np.ndarray
    f_tau: np.ndarray
    f_joint: np.ndarray

    def __post_init__(self) -> None:
        for name in ("f_t", "f_tau", "f_joint"):
            v = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(v)):
                raise InvalidMomentSet(f"{name} must be finite, got {_first(v, ~np.isfinite(v))!r}")
            if np.any(np.abs(v) > 1.0 + 1e-12):
                raise InvalidMomentSet(
                    f"{name} must lie in [-1, +1], got {_first(v, np.abs(v) > 1.0 + 1e-12)!r}"
                )
            object.__setattr__(self, name, v[()])


def _first(values: np.ndarray, mask: np.ndarray) -> float:
    """The first entry of values where mask holds, for error messages."""
    return float(np.broadcast_to(values, mask.shape)[mask].flat[0])


def cpf_from_moments(moments: MomentSet) -> np.ndarray:
    """Connected correlation C_pf = f_joint - f_t * f_tau."""
    return moments.f_joint - moments.f_t * moments.f_tau


@dataclass(frozen=True, eq=False)  # array fields: no value equality
class CpfProbabilityTable:
    """Conditional distribution P(z, x | y) for one value of y.

    ``entries`` maps each (z, x) to a float64 scalar or an array, all of one
    shape (a ValueError otherwise): one table per point.  Construction clips
    entries within ``ENTRY_TOL`` of [0, 1] to it and keeps the bits of the
    others (the sign of a zero too), rejects the rest and NaN, naming the
    first bad value, and checks that the entries sum to 1 within
    ``NORMALIZATION_TOL``.
    """

    y: int
    entries: dict[tuple[int, int], np.ndarray]

    def __post_init__(self) -> None:
        y = validate_outcome(self.y, "y")
        keys = [(z, x) for z in OUTCOMES for x in OUTCOMES]
        if set(self.entries) != set(keys):
            raise InvalidProbabilityTable(
                f"entries must cover all four (z, x) pairs, got {sorted(self.entries)}"
            )
        p = np.array([self.entries[k] for k in keys], dtype=float)
        bad = ~((p >= -ENTRY_TOL) & (p <= 1.0 + ENTRY_TOL))  # NaN included
        if np.any(bad):
            z, x = keys[np.argwhere(bad)[0][0]]  # of the first bad value, in key order
            raise InvalidProbabilityTable(
                f"P(z={z:+d}, x={x:+d} | y={y:+d}) = {_first(p, bad)!r}, out of [0, 1]")
        p[p < 0.0] = 0.0
        p[p > 1.0] = 1.0
        total = sum(p)
        off = np.abs(total - 1.0) > NORMALIZATION_TOL
        if np.any(off):
            raise InvalidProbabilityTable(f"entries sum to {_first(total, off)!r}, not 1")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "entries", dict(zip(keys, p)))

    def moment_set(self) -> MomentSet:
        """Recover (f_t, f_tau, f_joint) from the table, elementwise.

        f_t and f_tau are y times the differences of the marginals P(x|y) and
        P(z|y).  The explicit pairwise sums keep the recovery bitwise invariant
        under y -> -y, which permutes the entries as (z, x) -> (-z, -x).
        """
        e = self.entries
        f_t = self.y * ((e[(+1, +1)] + e[(-1, +1)]) - (e[(+1, -1)] + e[(-1, -1)]))
        f_tau = self.y * ((e[(+1, +1)] + e[(+1, -1)]) - (e[(-1, +1)] + e[(-1, -1)]))
        f_joint = (e[(+1, +1)] + e[(-1, -1)]) - (e[(+1, -1)] + e[(-1, +1)])
        return MomentSet(f_t=f_t, f_tau=f_tau, f_joint=f_joint)


def cpf_probability_table(moments: MomentSet, y: int) -> CpfProbabilityTable:
    """The table P(z, x | y) = (1 + x y f_t + z y f_tau + z x f_joint) / 4 of scalar
    or array moments.  Raises InvalidMomentSet where the moments imply no table:
    an entry outside [0, 1] by more than ``ENTRY_TOL`` (smaller excursions, dust
    from upstream engines, are clipped) or entries that do not sum to 1."""
    y = validate_outcome(y, "y")
    entries = {
        (z, x): 0.25 * (1.0 + x * y * moments.f_t + z * y * moments.f_tau + z * x * moments.f_joint)
        for z in OUTCOMES for x in OUTCOMES
    }
    try:
        return CpfProbabilityTable(y=y, entries=entries)
    except InvalidProbabilityTable as exc:
        raise InvalidMomentSet(f"moments imply {exc}") from exc


def conditional_coherence(moments: MomentSet, yx: int) -> np.ndarray:
    """Real coherence after the second measurement, conditioned on yx.

    c^{yx} = [f_tau + yx f_joint] / [1 + yx f_t].  Raises
    ZeroProbabilityPostselection where |1 + yx f_t| <= ``POSTSELECTION_EPS``,
    i.e. where the conditioning outcome pair has (numerically) zero
    probability (1 + yx f_t) / 2.
    """
    yx = validate_outcome(yx, "yx")
    denom = 1.0 + yx * moments.f_t
    dead = np.abs(denom) <= POSTSELECTION_EPS
    if np.any(dead):
        raise ZeroProbabilityPostselection(
            f"outcome pair with yx={yx:+d} has probability (1 + yx f_t)/2 ~ 0 "
            f"(f_t = {_first(moments.f_t, dead)!r})"
        )
    return (moments.f_tau + yx * moments.f_joint) / denom


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo estimate: value, standard error and sample count."""

    value: float
    std_error: float
    n_samples: int

    def __post_init__(self) -> None:
        v = float(self.value)
        se = float(self.std_error)
        n = int(self.n_samples)
        if not math.isfinite(v):
            raise NonFiniteResult(f"value must be finite, got {v!r}")
        if not math.isfinite(se) or se < 0.0:
            error = ValueError if math.isfinite(se) else NonFiniteResult
            raise error(f"std_error must be finite and >= 0, got {se!r}")
        if n < 1:
            raise ValueError(f"n_samples must be >= 1, got {n}")
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "std_error", se)
        object.__setattr__(self, "n_samples", n)

    def __str__(self) -> str:
        return f"{self.value:.6g} +/- {self.std_error:.3g} (n={self.n_samples})"
