"""Exact finite-N spin-bath engine and its Cauchy-coupling ensemble average.

The qubit couples to N bath spins through H = -sigma_z (x) sum_k g_k
sigma_z^(k) (phase convention below).  For the product initial bath state
with per-spin amplitudes (alpha_k, beta_k), everything is set by the
coherence overlap

    c_t = prod_k (|alpha_k|^2 e^{+i 2 g_k t} + |beta_k|^2 e^{-i 2 g_k t}),

an even-real-part function with c_{-t} = conj(c_t).  With f(u) = Re c_u the
three-measurement table moments are f_t = f(t), f_tau = f(tau) and
f_joint = [f(t+tau) + f(t-tau)] / 2, and the coherence after the second
measurement, conditioned on the product y*x, is

    c^{yx}(t,tau) = [c_tau + yx (c_{t+tau} + conj(c_{t-tau})) / 2]
                    / [1 + yx Re c_t].

Its real part is core.conditional_coherence of moment_set; the dense
statevector oracle replays the complex value (oracle_conditional_coherence).

Phase convention: the oracle applies the diagonal propagator phase
e^{+i s t L} with s = +-1 the system z-eigenvalue and L = sum_k g_k m_k the
bath magnetization level, so the *relative* phase between the two system
branches is 2 g_k t per spin, exactly reproducing c_t above.

The Lorentz-ensemble model draws each total coupling gtilde_k = N g_k from
an independent Cauchy(omega/2, gamma/2) density.  Averaging e^{2 i gtilde s}
gives e^{i omega s - gamma |s|}, hence the closed forms lorentz_coherence
and lorentz_moment_set.  The Monte Carlo estimators average the
per-realization probability *table* over the ensemble before combining
moments (table-first order).

The closed forms take scalar or array times; their moment sets feed the
array combinators of core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from ._mc import McConfig, MomentStats, collect_moments, validate_times
from .errors import (
    BathTooLarge,
    UnreachablePolarization,
    ZeroProbabilityPostselection,
)

ORACLE_MAX_SPINS = 14

# Largest draw of one Cauchy-ensemble chunk, as counted by _ensemble_chunk_bytes.
ENSEMBLE_MAX_BYTES = 256 * 2**20


def _normalized_pair(a: complex, b: complex, what: str) -> tuple[complex, complex]:
    a, b = complex(a), complex(b)
    for v in (a, b):
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ValueError(f"{what} amplitudes must be finite")
    norm = abs(a) ** 2 + abs(b) ** 2
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"{what} amplitudes must satisfy |a|^2+|b|^2=1, got {norm!r}")
    return a, b


@dataclass(frozen=True)
class SpinBathSpec:
    """N bath spins with couplings g_k and initial amplitudes (alpha_k, beta_k)."""

    couplings: np.ndarray
    alphas: np.ndarray
    betas: np.ndarray

    def __post_init__(self) -> None:
        g = np.atleast_1d(np.asarray(self.couplings, dtype=float))
        a = np.atleast_1d(np.asarray(self.alphas, dtype=complex))
        b = np.atleast_1d(np.asarray(self.betas, dtype=complex))
        if not (g.ndim == a.ndim == b.ndim == 1) or not (g.size == a.size == b.size):
            raise ValueError("couplings, alphas, betas must be 1-d of equal length")
        if g.size < 1:
            raise ValueError("need at least one bath spin")
        if not np.all(np.isfinite(g)):
            raise ValueError("couplings must be finite")
        norms = np.abs(a) ** 2 + np.abs(b) ** 2
        if not np.all(np.isfinite(norms)) or np.max(np.abs(norms - 1.0)) > 1e-12:
            raise ValueError("per-spin amplitudes must satisfy |alpha|^2+|beta|^2=1")
        for name, arr in (("couplings", g), ("alphas", a), ("betas", b)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_spins(self) -> int:
        return self.couplings.size


@dataclass(frozen=True)
class SystemInit:
    """System amplitudes (a, b) on the z-eigenstates |+>, |->."""

    a: complex
    b: complex

    def __post_init__(self) -> None:
        a, b = _normalized_pair(self.a, self.b, "system")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def plus(cls) -> SystemInit:
        """The |+> state assumed by all closed-form results."""
        return cls(a=1.0, b=0.0)


@dataclass(frozen=True)
class LorentzCouplingSpec:
    """Ensemble of N-spin baths with iid Cauchy total couplings.

    gtilde_k ~ Cauchy(center omega/2, half-width gamma/2); the per-spin
    coupling is gtilde_k / N.  alpha and beta are shared by every spin.
    """

    gamma: float
    omega: float = 0.0
    n_spins: int = 1
    alpha: complex = 1.0 / math.sqrt(2.0)
    beta: complex = 1.0 / math.sqrt(2.0)

    def __post_init__(self) -> None:
        gm = float(self.gamma)
        if not math.isfinite(gm) or gm <= 0.0:
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma!r}")
        w = float(self.omega)
        if not math.isfinite(w):
            raise ValueError(f"omega must be finite, got {self.omega!r}")
        n = int(self.n_spins)
        if n < 1:
            raise ValueError(f"n_spins must be >= 1, got {self.n_spins!r}")
        a, b = _normalized_pair(self.alpha, self.beta, "bath spin")
        object.__setattr__(self, "gamma", gm)
        object.__setattr__(self, "omega", w)
        object.__setattr__(self, "n_spins", n)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)


def _finite(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError(f"t must be finite, got {float(t[~np.isfinite(t)][0])!r}")
    return t


def _spin_product(couplings, amplitudes, t):
    """Re and Im of prod_k (|a_k|^2 e^{+i 2 g_k t} + |b_k|^2 e^{-i 2 g_k t}).

    couplings yields one g_k per spin, a scalar or an array that broadcasts
    against t; amplitudes yields the matching (a_k, b_k) scalars.  Spin by
    spin, so memory stays at a few broadcast-sized arrays for any N, and in
    real arithmetic: numpy's complex multiply (and its array abs) round
    differently in their scalar and vector loops, so a point would not match
    a grid bit for bit.
    """
    re, im = 1.0, 0.0
    for g_k, (a_k, b_k) in zip(couplings, amplitudes):
        up, dn = abs(a_k) ** 2, abs(b_k) ** 2
        theta = 2.0 * g_k * t
        c, d = (up + dn) * np.cos(theta), (up - dn) * np.sin(theta)
        re, im = re * c - im * d, re * d + im * c
    return re, im


def coherence(spec: SpinBathSpec, t):
    """Bath overlap c_t by the product formula; c_0 = 1, |c_t| <= 1.

    Takes a scalar or an array of times and returns the same shape.  The
    protocol only uses t >= 0, but negative arguments (arising as t-tau
    inside conditional quantities) evaluate the same product formula, which
    is the analytic continuation: c_{-t} = conj(c_t).
    """
    t = _finite(t)
    re, im = _spin_product(spec.couplings, zip(spec.alphas, spec.betas), t)
    return (re + 1j * im)[()]


def _moment_set(overlap, t, tau) -> core.MomentSet:
    t, tau = _finite(t), _finite(tau)
    return core.MomentSet(
        f_t=overlap(t).real,
        f_tau=overlap(tau).real,
        f_joint=0.5 * (overlap(t + tau).real + overlap(t - tau).real),
    )


def moment_set(spec: SpinBathSpec, t, tau) -> core.MomentSet:
    """Table moments (f(t), f(tau), [f(t+tau)+f(t-tau)]/2) with f = Re c.

    t and tau are scalars or arrays that broadcast against each other.  The
    CPF vanishes at t = 0 or tau = 0 only up to state-normalization rounding
    (a few n_spins ulp), since f(0) is the computed product of per-spin
    norms rather than an exact 1.0.
    """
    return _moment_set(lambda u: coherence(spec, u), t, tau)


def scaled_gaussian_bath(n_spins: int, g: float, omega: float = 0.0) -> SpinBathSpec:
    """Uniform bath realizing the large-N Gaussian scaling.

    Couplings g_k = g / sqrt(N) and amplitudes with |alpha|^2 - |beta|^2 =
    omega / (2 g sqrt(N)), so that c_t -> exp(i omega t - 2 (g t)^2) for
    N >> 1.  Raises UnreachablePolarization when |omega/(2 g sqrt(N))| > 1.
    """
    n = int(n_spins)
    if n < 1:
        raise ValueError(f"n_spins must be >= 1, got {n_spins!r}")
    g = float(g)
    if not math.isfinite(g) or g <= 0.0:
        raise ValueError(f"g must be finite and > 0, got {g!r}")
    pol = float(omega) / (2.0 * g * math.sqrt(n))
    if abs(pol) > 1.0:
        raise UnreachablePolarization(
            f"|alpha|^2 - |beta|^2 = {pol!r} is outside [-1, 1]; "
            "increase N or g, or reduce omega"
        )
    w_up = 0.5 * (1.0 + pol)
    w_dn = 0.5 * (1.0 - pol)
    gk = g / math.sqrt(n)
    return SpinBathSpec(
        couplings=np.full(n, gk),
        alphas=np.full(n, math.sqrt(w_up), dtype=complex),
        betas=np.full(n, math.sqrt(w_dn), dtype=complex),
    )


# ---------------------------------------------------------------------------
# Cauchy-coupling ensemble: closed forms


def lorentz_coherence(spec: LorentzCouplingSpec, t):
    """Ensemble-averaged coherence e^{-gamma|t|} (|a|^2 e^{i w t/N} + |b|^2 e^{-i w t/N})^N.

    Takes a scalar or an array of times and returns the same shape.  For
    omega = 0 the decay is the pure exponential e^{-gamma|t|}; balanced
    amplitudes |alpha| = |beta| give e^{-gamma|t|} cos^N(omega t/N).
    """
    t = _finite(t)
    n = spec.n_spins
    w_up = abs(spec.alpha) ** 2
    w_dn = abs(spec.beta) ** 2
    # bracket^N in polar form, in real arithmetic for the reason given in coherence
    arg = spec.omega * t / n
    re, im = (w_up + w_dn) * np.cos(arg), (w_up - w_dn) * np.sin(arg)
    size = np.exp(-spec.gamma * np.abs(t)) * np.power(np.hypot(re, im), float(n))
    phase = n * np.arctan2(im, re)
    return (size * np.cos(phase) + 1j * (size * np.sin(phase)))[()]


def lorentz_moment_set(spec: LorentzCouplingSpec, t, tau) -> core.MomentSet:
    """Ensemble-averaged protocol moments under Cauchy coupling draws.

    The probability table is linear in (f_t, f_tau, f_joint), so the table
    of the realization-averaged moments equals the realization average of
    the tables; each moment is Re lorentz_coherence at the right lag.  For
    omega = 0 the CPF is [e^{-g(t+tau)} + e^{-g|t-tau|}]/2 - e^{-g(t+tau)}:
    non-negative, zero at tau = 0, and -> 1/2 along the diagonal even though
    the averaged coherence is exactly exponential (a time-independent
    dephasing Lindblad dynamics on average).
    """
    return _moment_set(lambda u: lorentz_coherence(spec, u), t, tau)


# ---------------------------------------------------------------------------
# Cauchy-coupling ensemble: Monte Carlo

def _ensemble_cols(spec: LorentzCouplingSpec, t: float, tau: float | None):
    """Sampler of the per-realization (f_t, f_tau, f_joint) columns, or of the
    f_t column alone when tau is None."""
    n = spec.n_spins
    amplitudes = [(spec.alpha, spec.beta)] * n
    lags = np.array([[t]] if tau is None else [[t], [tau], [t + tau], [t - tau]])
    half_w = 0.5 * spec.omega
    half_g = 0.5 * spec.gamma

    def sample(rng: np.random.Generator, m: int) -> np.ndarray:
        # couplings gtilde_k / N by inverse CDF, in the buffer of the uniforms
        g = rng.random((m, n))
        g -= 0.5
        g *= math.pi
        np.tan(g, out=g)
        g *= half_g
        g += half_w
        g /= n
        re, _ = _spin_product(g.T, amplitudes, lags)
        if tau is None:
            return re.T
        return np.column_stack([re[0], re[1], 0.5 * (re[2] + re[3])])

    return sample


# Per-trajectory float64 values one draw holds besides its couplings: the spin
# product keeps up to eight (4, chunk_size) lag arrays alive at once (32), and
# 8 more cover the (chunk_size, 3) columns and the fixed small objects of short
# chunks.
_ENSEMBLE_DRAW_COLUMNS = 40


def _ensemble_chunk_bytes(spec: LorentzCouplingSpec, cfg: McConfig) -> int:
    """Peak bytes of one chunk's draw: the couplings and the per-trajectory arrays."""
    return 8 * cfg.resolved_chunk_size * (spec.n_spins + _ENSEMBLE_DRAW_COLUMNS)


def _ensemble_stats(
    spec: LorentzCouplingSpec, t: float, tau: float | None, cfg: McConfig, workers: int
) -> MomentStats:
    """MomentStats of _ensemble_cols(spec, t, tau) over the Cauchy ensemble."""
    t, tau_checked = validate_times(t, 0.0 if tau is None else tau)
    tau = None if tau is None else tau_checked
    need = _ensemble_chunk_bytes(spec, cfg)
    if need > ENSEMBLE_MAX_BYTES:
        raise BathTooLarge(
            f"N = {spec.n_spins} spins at chunk_size {cfg.resolved_chunk_size} draw "
            f"{need / 2**20:.0f} MiB per chunk, over the {ENSEMBLE_MAX_BYTES // 2**20} MiB "
            "budget; lower mc.chunk_size"
        )
    return collect_moments(_ensemble_cols(spec, t, tau), cfg, workers)


def lorentz_mc_coherence(
    spec: LorentzCouplingSpec, t: float, cfg: McConfig, workers: int = 1
) -> core.Estimate:
    """Ensemble-averaged Re c_t by direct Cauchy sampling."""
    return _ensemble_stats(spec, t, None, cfg, workers).estimate(0)


def lorentz_mc_moments(
    spec: LorentzCouplingSpec, t: float, tau: float, cfg: McConfig, workers: int = 1
) -> tuple[core.Estimate, core.Estimate, core.Estimate]:
    """Ensemble means of (f(t), f(tau), f_joint): the averaged-table moments."""
    return _ensemble_stats(spec, t, tau, cfg, workers).moments()


def lorentz_mc_cpf(
    spec: LorentzCouplingSpec, t: float, tau: float, cfg: McConfig, workers: int = 1
) -> core.Estimate:
    """Ensemble CPF in table-first order: average the table, then combine.

    The per-realization probability table is linear in the per-realization
    moments, so the ensemble-averaged table is the table of the averaged
    moments, and its CPF is f_joint - f_t f_tau of those: the closed form
    of lorentz_moment_set.
    """
    return _ensemble_stats(spec, t, tau, cfg, workers).cpf()


def lorentz_mc_conditional_coherence(
    spec: LorentzCouplingSpec, t: float, tau: float, yx: int, cfg: McConfig, workers: int = 1
) -> core.Estimate:
    """Ensemble conditional coherence (real part) from averaged moments.

    Evaluates [E f_tau + yx E f_joint] / [1 + yx E f_t] over the Cauchy
    ensemble, with delta-method error.  Raises ZeroProbabilityPostselection
    when the estimated denominator magnitude is at most
    _mc.ESTIMATED_POSTSELECTION_EPS.
    """
    yx = core.validate_outcome(yx, "yx")
    return _ensemble_stats(spec, t, tau, cfg, workers).conditional_coherence(yx)


# ---------------------------------------------------------------------------
# Dense statevector oracle


def _bath_levels(spec: SpinBathSpec) -> np.ndarray:
    """L[i] = sum_k g_k m_k for bath basis index i (bit k = 0 means spin k up)."""
    n = spec.n_spins
    idx = np.arange(1 << n)
    levels = np.zeros(1 << n)
    for k in range(n):
        m_k = 1.0 - 2.0 * ((idx >> k) & 1)
        levels += spec.couplings[k] * m_k
    return levels


def _initial_state(spec: SpinBathSpec, init: SystemInit) -> np.ndarray:
    """The (2, 2^N) system-bath state (a |+> + b |->) (x) prod_k (alpha_k |up>
    + beta_k |down>), spin k on bit k.  Raises BathTooLarge for N > 14."""
    if spec.n_spins > ORACLE_MAX_SPINS:
        raise BathTooLarge(
            f"N = {spec.n_spins} exceeds the dense oracle limit {ORACLE_MAX_SPINS}"
        )
    bath = np.ones(1, dtype=complex)
    for a_k, b_k in zip(spec.alphas, spec.betas):
        bath = np.concatenate([a_k * bath, b_k * bath])
    return np.vstack([init.a * bath, init.b * bath])


def _evolve_diagonal(state: np.ndarray, levels: np.ndarray, dt: float) -> np.ndarray:
    """Apply exp(+i dt L) to the |+> row and the conjugate to the |-> row."""
    phase = np.exp(1j * dt * levels)
    return np.vstack([state[0] * phase, state[1] * np.conj(phase)])


def _evolve_gatewise(state: np.ndarray, spec: SpinBathSpec, dt: float) -> np.ndarray:
    """Same unitary as _evolve_diagonal, built spin by spin (independent path)."""
    out = state.copy()
    dim = out.shape[1]
    idx = np.arange(dim)
    for k in range(spec.n_spins):
        m_k = 1.0 - 2.0 * ((idx >> k) & 1)
        ph = np.exp(1j * dt * spec.couplings[k] * m_k)
        out[0] *= ph
        out[1] *= np.conj(ph)
    return out


def _project_x(state: np.ndarray, outcome: int) -> tuple[float, np.ndarray]:
    """Probability and collapsed state of an x-basis system measurement."""
    bath = (state[0] + outcome * state[1]) / math.sqrt(2.0)
    prob = float(np.vdot(bath, bath).real)
    if prob <= 0.0:
        return 0.0, np.zeros_like(state)
    bath = bath / math.sqrt(prob)
    collapsed = np.vstack([bath / math.sqrt(2.0), outcome * bath / math.sqrt(2.0)])
    return prob, collapsed


def oracle_protocol(
    spec: SpinBathSpec,
    init: SystemInit,
    t: float,
    tau: float,
    y: int,
    *,
    propagator: str = "diagonal",
) -> core.CpfProbabilityTable:
    """Replay the full three-measurement protocol on the dense statevector.

    Builds the (2, 2^N) system-bath state, applies the first x projector to
    both branches, evolves each by the diagonal propagator over t, applies
    the y projector, evolves over tau, reads out the z probabilities, and
    assembles P(z, x | y) = P(z|y,x) P(y|x) P(x) / P(y).

    propagator selects one of two independent implementations of the same
    unitary ("diagonal" or "gatewise").  Raises BathTooLarge for N > 14 and
    ZeroProbabilityPostselection if P(y) = 0.
    """
    state = _initial_state(spec, init)
    t, tau = validate_times(t, tau)
    y = core.validate_outcome(y, "y")
    if propagator == "diagonal":
        levels = _bath_levels(spec)
        evolve = lambda st, dt: _evolve_diagonal(st, levels, dt)
    elif propagator == "gatewise":
        evolve = lambda st, dt: _evolve_gatewise(st, spec, dt)
    else:
        raise ValueError(f"unknown propagator {propagator!r}")

    p_x: dict[int, float] = {}
    p_y_given_x: dict[int, float] = {}
    p_z_given_yx: dict[tuple[int, int], float] = {}
    for x in core.OUTCOMES:
        px, st_x = _project_x(state, x)
        p_x[x] = px
        if px == 0.0:
            p_y_given_x[x] = 0.0
            continue
        py, st_y = _project_x(evolve(st_x, t), y)
        p_y_given_x[x] = py
        if py == 0.0:
            continue
        st_final = evolve(st_y, tau)
        for z in core.OUTCOMES:
            pz, _ = _project_x(st_final, z)
            p_z_given_yx[(z, x)] = pz

    p_y = sum(p_y_given_x[x] * p_x[x] for x in core.OUTCOMES)
    if p_y <= 0.0:
        raise ZeroProbabilityPostselection(f"P(y={y:+d}) = 0 for this protocol")

    entries = {}
    for z in core.OUTCOMES:
        for x in core.OUTCOMES:
            if p_y_given_x[x] == 0.0 or p_x[x] == 0.0:
                entries[(z, x)] = 0.0
            else:
                entries[(z, x)] = p_z_given_yx[(z, x)] * p_y_given_x[x] * p_x[x] / p_y
    return core.CpfProbabilityTable(y=y, entries=entries)


def oracle_conditional_coherence(
    spec: SpinBathSpec, init: SystemInit, t: float, tau: float, x: int, y: int
) -> complex:
    """Post-second-measurement bath overlap replayed on the statevector.

    Returns the complex coherence c^{yx} of the state after collapsing on
    (x, then y) and evolving tau; for init = |+> it is the c^{yx} of the
    module docstring with yx = x*y, whose real part is
    core.conditional_coherence of moment_set.
    """
    state = _initial_state(spec, init)
    x = core.validate_outcome(x, "x")
    y = core.validate_outcome(y, "y")
    levels = _bath_levels(spec)
    px, st_x = _project_x(state, x)
    if px == 0.0:
        raise ZeroProbabilityPostselection(f"P(x={x:+d}) = 0")
    py, st_y = _project_x(_evolve_diagonal(st_x, levels, t), y)
    if py == 0.0:
        raise ZeroProbabilityPostselection(f"P(y={y:+d}|x={x:+d}) = 0")
    st_final = _evolve_diagonal(st_y, levels, tau)
    return 2.0 * y * complex(np.vdot(st_final[1], st_final[0]))
