"""Trajectory-level Monte Carlo for the dephasing measurement protocol.

Each noise realization is reduced to the pair of integrated phases

    theta1 = int_0^t xi dt',      theta2 = int_t^{t+tau} xi dt',

because the per-realization measurement probabilities depend on nothing
else:

    p(y | x)    = (1 + y x cos 2 theta1) / 2,
    p(z | y, x) = (1 + z y cos 2 theta2) / 2   (x-independent).

For every supported noise model the joint law of (theta1, theta2) is known
exactly, so the primary samplers are free of time-discretization error:

    White:         independent N(0, gamma_w t), N(0, gamma_w tau)
    ExpCorrGauss:  bivariate normal with the integrated-OU covariance
                   (see analytic.phase_covariance)
    StaticGauss:   theta1 = xi t, theta2 = xi tau, xi ~ N(0, g^2)
    StaticLorentz: theta1 = gt~ t, theta2 = gt~ tau, gt~ ~ Cauchy(omega/2,
                   gamma/2) drawn by inverse CDF

A discretized Ornstein-Uhlenbeck path integrator (ou_path_reference) exists
solely as an independent check of the ExpCorrGauss covariance formulas.

Estimators average over trajectories in fixed-size chunks with per-chunk
counter-based random streams and an ordered reduction, so results are
bit-identical for a given (seed, chunk_size, n) at any worker count.
"""

from __future__ import annotations

import math

import numpy as np

from . import analytic, core
from ._mc import (
    Chunk,
    McConfig,
    MomentStats,
    collect_moments,
    map_chunks,
    validate_times,
)
from .analytic import NoiseModel
from .errors import EmptyPostselection, StepTooCoarse

__all__ = [
    "McConfig",
    "mc_moments",
    "mc_cpf_semianalytic",
    "mc_cpf_sampling",
    "mc_conditional_coherence",
    "ou_path_reference",
]

# (z, x, zx) of the kept cells 2 z_idx + x_idx (index 0 is +1)
_ZX_ROWS = np.array([(z, x, z * x) for z in core.OUTCOMES for x in core.OUTCOMES])

# The Gaussian-pair models' draws are standard normal pairs that no parameter
# scales: their law owns them, so every such model of a grid_memo() scope shares them.
_PAIR_LAW = dict.fromkeys((analytic.White, analytic.ExpCorrGauss), object())


def _phase_draws(model: NoiseModel, rng: np.random.Generator, m: int) -> np.ndarray:
    """A chunk's draws for the phases at every (t, tau): standard normal pairs, drawn
    (m, 2) and kept as two rows, for Gaussian processes; a static model's frequency."""
    match model:
        case analytic.White() | analytic.ExpCorrGauss():
            # block by block, so no (m, 2) copy is held next to the rows
            d = np.empty((2, m))
            for k in range(0, m, 4096):
                d[:, k:k + 4096] = rng.standard_normal((min(4096, m - k), 2)).T
            return d
        case analytic.StaticGauss(g=g):
            return g * rng.standard_normal(m)
        case analytic.StaticLorentz(gamma=gamma, omega=omega):
            u = rng.random(m)
            return 0.5 * omega + 0.5 * gamma * np.tan(math.pi * (u - 0.5))
    raise TypeError(f"unknown noise model {model!r}")


def _theta1(model: NoiseModel, d: np.ndarray, t: float) -> np.ndarray:
    """theta1 of the draws d of _phase_draws."""
    if d.ndim == 1:
        return d * t
    return math.sqrt(analytic.phase_covariance(model, t, 0.0)[0]) * d[0]


def _theta2(model: NoiseModel, d: np.ndarray, t: float, tau: float) -> np.ndarray:
    """theta2 of the draws d of _phase_draws, jointly exact with _theta1."""
    if d.ndim == 1:
        return d * tau
    var1, var2, cov = analytic.phase_covariance(model, t, tau)
    if isinstance(model, analytic.White):
        return math.sqrt(var2) * d[1]
    # second row of the two-step Cholesky of [[var1, cov], [cov, var2]]
    a = math.sqrt(var1)
    if a > 0.0:
        b = cov / a
        c = math.sqrt(max(var2 - b * b, 0.0))
    else:
        b, c = 0.0, math.sqrt(var2)
    return b * d[0] + c * d[1]


def _cos2(theta: np.ndarray) -> np.ndarray:
    """cos 2 theta, in theta's buffer."""
    theta *= 2.0
    return np.cos(theta, out=theta)


def _cos2_theta2(chunk: Chunk, model: NoiseModel, d: np.ndarray, t: float, tau: float):
    """cos 2 theta2 of the chunk's draws d.  Off the OU model it depends on tau
    alone, and a grid keeps it in one slot per tau (read-only there)."""
    if isinstance(model, analytic.ExpCorrGauss):
        return _cos2(_theta2(model, d, t, tau))
    (b,) = chunk.memo(f"cos2 {tau.hex()}", model, tau,
                      lambda: (_cos2(_theta2(model, d, t, tau)),))
    return b


def _moment_stats(
    model: NoiseModel, t: float, tau: float, cfg: McConfig, workers: int
) -> MomentStats:
    t, tau = validate_times(t, tau)

    def sample(chunk: Chunk) -> tuple[np.ndarray, ...]:
        (d,) = chunk.memo("phase", _PAIR_LAW.get(type(model), model), None,
                          lambda: (_phase_draws(model, chunk.stream(), chunk.size),))
        (a,) = chunk.memo("cos1", model, t, lambda: (_cos2(_theta1(model, d, t)),))
        b = _cos2_theta2(chunk, model, d, t, tau)
        return a, b, a * b

    return collect_moments(sample, cfg, workers)


def mc_moments(
    model: NoiseModel, t: float, tau: float, cfg: McConfig, workers: int = 1
) -> tuple[core.Estimate, core.Estimate, core.Estimate]:
    """Sample means of cos 2theta1, cos 2theta2 and their product.

    These estimate f(t), f'(tau) and f(t,tau).  f'(tau) is measured from
    theta2 alone, so a stationarity violation would show up as
    f'(tau) != f(tau).
    """
    return _moment_stats(model, t, tau, cfg, workers).moments()


def mc_cpf_semianalytic(
    model: NoiseModel, t: float, tau: float, cfg: McConfig, workers: int = 1
) -> core.Estimate:
    """Plug-in CPF estimator f(t,tau) - f(t) f'(tau) on shared trajectories.

    Standard error by the delta method over the joint covariance of the
    three moment means.
    """
    return _moment_stats(model, t, tau, cfg, workers).cpf()


def mc_conditional_coherence(
    model: NoiseModel, t: float, tau: float, yx: int, cfg: McConfig, workers: int = 1
) -> core.Estimate:
    """Conditioned coherence estimate [f'(tau) + yx f(t,tau)] / [1 + yx f(t)].

    The numerator is the unconditional average of cos 2theta2 (1 + yx
    cos 2theta1); the denominator uses the same-sample estimate of f(t).
    Raises ZeroProbabilityPostselection when the estimated denominator
    magnitude is at most _mc.ESTIMATED_POSTSELECTION_EPS.
    """
    yx = core.validate_outcome(yx, "yx")
    return _moment_stats(model, t, tau, cfg, workers).conditional_coherence(yx)


def _kept_stage(model: NoiseModel, d: np.ndarray, u: np.ndarray, cos1: np.ndarray,
                y_select: int) -> tuple[np.ndarray, ...]:
    """x and y of every trajectory from the outcome uniforms u (m, 3) and cos 2 theta1,
    in whose buffer p(y = +1 | x) is built; then, of those with y == y_select, the
    cell 2 z_idx + x_idx at z = -1, the z uniform and what cos 2 theta2 needs: the
    OU model's normal draw rows, or the index into the chunk's per-tau array."""
    x_up = u[:, 0] < 0.5
    p_y = cos1
    p_y *= 2.0 * x_up.astype(float) - 1.0  # x = +-1.0, in float steps (bool casts are slow)
    p_y += 1.0
    p_y *= 0.5
    keep = u[:, 1] < p_y
    del cos1, p_y  # freed before the kept trajectories are gathered
    idx = np.flatnonzero(keep if y_select > 0 else ~keep)
    cell = 3 - x_up[idx]  # intp
    return cell, u[idx, 2], d[:, idx] if isinstance(model, analytic.ExpCorrGauss) else idx


def _z_counts(cell: np.ndarray, u_z: np.ndarray, cos2: np.ndarray, y_select: int) -> np.ndarray:
    """The four kept cells' counts; p(z = +1 | y_select) is built in the kept
    trajectories' cos 2 theta2 buffer."""
    p_z = np.negative(cos2, out=cos2) if y_select < 0 else cos2  # the bits of cos2 * y
    p_z += 1.0
    p_z *= 0.5
    return np.bincount(cell - 2 * (u_z < p_z), minlength=4)


def _kept_counts(model: NoiseModel, t: float, tau: float, y_select: int, cfg: McConfig,
                 workers: int = 1) -> np.ndarray:
    """Counts[2 z_idx + x_idx] of the sampled triples with y == y_select; index 0 is +1.
    Every trajectory draws x and y; only the kept ones are read out in z."""

    def draw(chunk: Chunk) -> tuple[np.ndarray, np.ndarray]:
        rng = chunk.stream()
        return _phase_draws(model, rng, chunk.size), rng.random((chunk.size, 3))

    def worker(chunk: Chunk) -> np.ndarray:
        d, u = chunk.memo("outcomes", _PAIR_LAW.get(type(model), model), None, lambda: draw(chunk))
        cell, u_z, r = chunk.memo(f"kept {y_select:+d}", model, t, lambda: _kept_stage(
            model, d, u, _cos2(_theta1(model, d, t)), y_select))
        if r.ndim == 2:
            cos2 = _cos2(_theta2(model, r, t, tau))
        else:  # gathered from the chunk's, which a grid keeps per tau
            cos2 = _cos2_theta2(chunk, model, d, t, tau)[r]
        return _z_counts(cell, u_z, cos2, y_select)

    return sum(map_chunks(worker, cfg, workers))


def mc_cpf_sampling(
    model: NoiseModel,
    t: float,
    tau: float,
    y_select: int,
    cfg: McConfig,
    workers: int = 1,
) -> core.Estimate:
    """CPF from literal postselection on the sampled middle outcome.

    Draws x and y for every trajectory, keeps those with y == y_select, reads
    z out for the kept ones only, and returns <zx> - <z><x> over them.  The kept
    (z, x) counts are the MomentStats of the kept trajectories' (z, x, zx)
    columns, so the standard error is the delta-method error every other
    estimator reports.  It is too small, down to 0, where nearly every kept
    trajectory falls in one (z, x) cell, as at short times.
    """
    y_select = core.validate_outcome(y_select, "y_select")
    t, tau = validate_times(t, tau)
    kept = _kept_counts(model, t, tau, y_select, cfg, workers)
    if not kept.any():
        raise EmptyPostselection(
            f"no trajectory produced y = {y_select:+d} out of {cfg.n_trajectories}"
        )
    return MomentStats.from_counts(_ZX_ROWS, kept).cpf()


def ou_path_reference(
    model: analytic.ExpCorrGauss, t: float, tau: float, cfg: McConfig, workers: int = 1
) -> tuple[core.Estimate, core.Estimate, core.Estimate]:
    """Moment estimates from discretized OU paths (validation oracle).

    Simulates xi on a grid with the exact one-step update
    x' = x e^{-dt/tau_c} + g sqrt(1 - e^{-2 dt/tau_c}) eta, starting from the
    stationary law, and integrates the phase by the trapezoid rule.  Carries
    an O(dt^2) quadrature bias; the exact bivariate sampler is the primary
    path.  Raises StepTooCoarse for path_dt > tau_c / 10.
    """
    if not isinstance(model, analytic.ExpCorrGauss):
        raise TypeError("ou_path_reference requires an ExpCorrGauss model")
    t, tau = validate_times(t, tau)
    g, tc = model.g, model.tau_c
    dt = cfg.path_dt if cfg.path_dt is not None else min(tc, 1.0 / g) / 50.0
    if dt > tc / 10.0:
        raise StepTooCoarse(f"path_dt {dt} exceeds tau_c/10 = {tc / 10.0}")

    def segment_steps(length: float) -> tuple[int, float]:
        if length == 0.0:
            return 0, 0.0
        n = max(1, math.ceil(length / dt))
        return n, length / n

    n1, dt1 = segment_steps(t)
    n2, dt2 = segment_steps(tau)

    # one stage: its draws interleave with the step counts of both intervals
    def sample(chunk: Chunk) -> tuple[np.ndarray, ...]:
        rng, m = chunk.stream(), chunk.size
        x = g * rng.standard_normal(m)
        theta = np.zeros(m)
        cols = []
        for n, step in ((n1, dt1), (n2, dt2)):
            theta[:] = 0.0
            if n:
                decay = math.exp(-step / tc)
                kick = g * math.sqrt(-math.expm1(-2.0 * step / tc))
                for _ in range(n):
                    x_next = decay * x + kick * rng.standard_normal(m)
                    theta += 0.5 * step * (x + x_next)
                    x = x_next
            cols.append(np.cos(2.0 * theta))
        a, b = cols
        return a, b, a * b

    return collect_moments(sample, cfg, workers).moments()
