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
memoryless.  This module owns the outcome bookkeeping, the moment and table
containers with their validity constraints, and the C_pf combination rules.
Dynamical models that produce the moments live in the sibling modules.

Conventions: outcomes are the integers +1 and -1 (the measured eigenvalues),
and the conditioning outcome y is always explicit in table constructors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidMomentSet, InvalidProbabilityTable, ZeroProbabilityPostselection

OUTCOMES: tuple[int, int] = (+1, -1)

# Absolute tolerance on table normalization.
NORMALIZATION_TOL = 1e-12
# Entries may fall outside [0, 1] by at most this much before rejection;
# violations inside the band are clipped to the boundary.
ENTRY_TOL = 1e-9
# Conditioning on an outcome pair needs |1 + yx f_t| above this threshold.
POSTSELECTION_EPS = 1e-12


def validate_outcome(value: int, name: str = "outcome") -> int:
    """Return ``value`` as a plain int after checking it is +1 or -1."""
    v = int(value)
    if v != value or v not in OUTCOMES:
        raise ValueError(f"{name} must be +1 or -1, got {value!r}")
    return v


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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class CpfProbabilityTable:
    """Conditional distribution P(z, x | y) for one value of y.

    ``entries`` maps (z, x) to a probability; construction clips entries within
    ``ENTRY_TOL`` of [0, 1] to it, rejects the rest, validates normalization
    to within ``NORMALIZATION_TOL``, and
    derives ``marginal_x`` and ``marginal_z``, the single-outcome
    conditionals P(x|y) and P(z|y).
    """

    y: int
    entries: dict[tuple[int, int], float]
    marginal_x: dict[int, float] = field(init=False)
    marginal_z: dict[int, float] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "y", validate_outcome(self.y, "y"))
        keys = {(z, x) for z in OUTCOMES for x in OUTCOMES}
        if set(self.entries) != keys:
            raise InvalidProbabilityTable(
                f"entries must cover all four (z, x) pairs, got {sorted(self.entries)}"
            )
        entries = {k: float(v) for k, v in self.entries.items()}
        for k, p in entries.items():
            if not math.isfinite(p) or p < -ENTRY_TOL or p > 1.0 + ENTRY_TOL:
                raise InvalidProbabilityTable(f"entry {k} out of [0, 1]: {p!r}")
            entries[k] = min(max(p, 0.0), 1.0)  # p itself when inside [0, 1]
        total = sum(entries.values())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise InvalidProbabilityTable(f"entries sum to {total!r}, not 1")
        mx = {x: entries[(+1, x)] + entries[(-1, x)] for x in OUTCOMES}
        mz = {z: entries[(z, +1)] + entries[(z, -1)] for z in OUTCOMES}
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "marginal_x", mx)
        object.__setattr__(self, "marginal_z", mz)

    def moment_set(self) -> MomentSet:
        """Recover (f_t, f_tau, f_joint) from the table.

        The explicit pairwise sums keep the recovery bitwise invariant under
        y -> -y, which permutes the entries as (z, x) -> (-z, -x).
        """
        e = self.entries
        f_t = self.y * (self.marginal_x[+1] - self.marginal_x[-1])
        f_tau = self.y * (self.marginal_z[+1] - self.marginal_z[-1])
        f_joint = (e[(+1, +1)] + e[(-1, -1)]) - (e[(+1, -1)] + e[(-1, +1)])
        return MomentSet(f_t=f_t, f_tau=f_tau, f_joint=f_joint)


def cpf_table_cells(moments: MomentSet, y: int) -> dict[tuple[int, int], np.ndarray]:
    """The four cells P(z, x | y) of the table implied by the moments.

    Raises InvalidMomentSet if any cell falls outside [0, 1] by more than
    ``ENTRY_TOL``; smaller excursions (floating-point dust from upstream
    engines) are clipped to the boundary.  Raises InvalidProbabilityTable
    if the clipped cells do not sum to 1 within ``NORMALIZATION_TOL``.
    """
    y = validate_outcome(y, "y")
    cells: dict[tuple[int, int], np.ndarray] = {}
    for z in OUTCOMES:
        for x in OUTCOMES:
            p = 0.25 * (
                1.0
                + x * y * moments.f_t
                + z * y * moments.f_tau
                + z * x * moments.f_joint
            )
            bad = (p < -ENTRY_TOL) | (p > 1.0 + ENTRY_TOL)
            if np.any(bad):
                raise InvalidMomentSet(
                    f"moments imply P(z={z:+d}, x={x:+d} | y={y:+d}) = {_first(p, bad)!r}"
                )
            cells[(z, x)] = np.clip(p, 0.0, 1.0)[()]
    total = sum(cells.values())
    off = np.abs(total - 1.0) > NORMALIZATION_TOL
    if np.any(off):
        raise InvalidProbabilityTable(f"entries sum to {_first(total, off)!r}, not 1")
    return cells


def cpf_probability_table(moments: MomentSet, y: int) -> CpfProbabilityTable:
    """Build P(z, x | y) from scalar moments; see :func:`cpf_table_cells`."""
    return CpfProbabilityTable(y=y, entries=cpf_table_cells(moments, y))


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


def cpf_from_table(table: CpfProbabilityTable) -> float:
    """C_pf evaluated directly from a probability table.

    Equals <zx> - <z><x> conditioned on the table's y.  Going through the
    recovered moments keeps the value bitwise invariant under y -> -y,
    which permutes the entries as (z, x) -> (-z, -x).
    """
    return cpf_from_moments(table.moment_set())


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
            raise ValueError(f"value must be finite, got {v!r}")
        if not math.isfinite(se) or se < 0.0:
            raise ValueError(f"std_error must be finite and >= 0, got {se!r}")
        if n < 1:
            raise ValueError(f"n_samples must be >= 1, got {n}")
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "std_error", se)
        object.__setattr__(self, "n_samples", n)

    def __str__(self) -> str:
        return f"{self.value:.6g} +/- {self.std_error:.3g} (n={self.n_samples})"
