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
    McConfig,
    MomentStats,
    chunk_stream,
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

# (z, x, zx) of the kept cells in the ravel order of counts[y_idx] (index 0 is +1)
_ZX_ROWS = np.array([(z, x, z * x) for z in core.OUTCOMES for x in core.OUTCOMES])


def _phase_arrays(
    model: NoiseModel, t: float, tau: float, rng: np.random.Generator, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw m exact samples of (theta1, theta2); fixed draw layout per model."""
    match model:
        case analytic.White():
            var1, var2, _ = analytic.phase_covariance(model, t, tau)
            z = rng.standard_normal((m, 2))
            return math.sqrt(var1) * z[:, 0], math.sqrt(var2) * z[:, 1]
        case analytic.ExpCorrGauss():
            var1, var2, cov = analytic.phase_covariance(model, t, tau)
            z = rng.standard_normal((m, 2))
            # two-step Cholesky of [[var1, cov], [cov, var2]]
            a = math.sqrt(var1)
            if a > 0.0:
                b = cov / a
                c = math.sqrt(max(var2 - b * b, 0.0))
            else:
                b, c = 0.0, math.sqrt(var2)
            return a * z[:, 0], b * z[:, 0] + c * z[:, 1]
        case analytic.StaticGauss(g=g):
            xi = g * rng.standard_normal(m)
            return xi * t, xi * tau
        case analytic.StaticLorentz(gamma=gamma, omega=omega):
            u = rng.random(m)
            gt = 0.5 * omega + 0.5 * gamma * np.tan(math.pi * (u - 0.5))
            return gt * t, gt * tau
    raise TypeError(f"unknown noise model {model!r}")


def _moment_cols(model: NoiseModel, t: float, tau: float):
    def sample(rng: np.random.Generator, m: int) -> np.ndarray:
        th1, th2 = _phase_arrays(model, t, tau, rng, m)
        a = np.cos(2.0 * th1)
        b = np.cos(2.0 * th2)
        return np.column_stack([a, b, a * b])

    return sample


def _moment_stats(
    model: NoiseModel, t: float, tau: float, cfg: McConfig, workers: int
) -> MomentStats:
    t, tau = validate_times(t, tau)
    return collect_moments(_moment_cols(model, t, tau), cfg, workers)


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


def _outcome_counts(
    model: NoiseModel, t: float, tau: float, cfg: McConfig, workers: int = 1
) -> np.ndarray:
    """Counts[y_idx, z_idx, x_idx] of sampled triples; index 0 is +1, 1 is -1."""

    def worker(i: int, m: int) -> np.ndarray:
        rng = chunk_stream(cfg.seed, i)
        th1, th2 = _phase_arrays(model, t, tau, rng, m)
        u = rng.random((m, 3))
        x = np.where(u[:, 0] < 0.5, 1, -1)
        p_y = 0.5 * (1.0 + x * np.cos(2.0 * th1))
        y = np.where(u[:, 1] < p_y, 1, -1)
        p_z = 0.5 * (1.0 + y * np.cos(2.0 * th2))
        z = np.where(u[:, 2] < p_z, 1, -1)
        # cell index 4 y_idx + 2 z_idx + x_idx
        return np.bincount(2 * (1 - y) + (1 - z) + (1 - x) // 2, minlength=8)

    return sum(map_chunks(worker, cfg, workers)).reshape(2, 2, 2)


def mc_cpf_sampling(
    model: NoiseModel,
    t: float,
    tau: float,
    y_select: int,
    cfg: McConfig,
    workers: int = 1,
) -> core.Estimate:
    """CPF from literal postselection on the sampled middle outcome.

    Generates one outcome triple per trajectory, keeps those with
    y == y_select, and returns <zx> - <z><x> over the kept set.  The kept
    (z, x) counts are the MomentStats of the kept trajectories' (z, x, zx)
    columns, so the standard error is the delta-method error every other
    estimator reports.  It is too small, down to 0, where nearly every kept
    trajectory falls in one (z, x) cell, as at short times.
    """
    y_select = core.validate_outcome(y_select, "y_select")
    t, tau = validate_times(t, tau)
    kept = _outcome_counts(model, t, tau, cfg, workers)[(1 - y_select) // 2]
    if not kept.any():
        raise EmptyPostselection(
            f"no trajectory produced y = {y_select:+d} out of {cfg.n_trajectories}"
        )
    return MomentStats.from_counts(_ZX_ROWS, kept.ravel()).cpf()


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

    def sample(rng: np.random.Generator, m: int) -> np.ndarray:
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
        return np.column_stack([a, b, a * b])

    return collect_moments(sample, cfg, workers).moments()
