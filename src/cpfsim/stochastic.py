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

The draws come from _mc: the Gaussian pairs from its block draw
(_mc.draw_rows), the Cauchy frequency from its inverse CDF (_mc.cauchy).
Each stage takes cos 2 theta from one vectorized tan of theta (_mc.cos2,
2/(1 + tan^2 theta) - 1), within 2 ulp of 1 of libm's cos, not from cos
itself, which numpy may run as scalar libm where its tan is vectorized.

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
    cauchy,
    check_times,
    collect_moments,
    cos2,
    draw_rows,
    map_chunks,
)
from .analytic import NoiseModel
from .errors import EmptyPostselection, NonFiniteResult, StepTooCoarse

__all__ = [
    "McConfig",
    "mc_moments",
    "mc_cpf_sampling",
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
            return draw_rows(rng.standard_normal, 2, m)
        case analytic.StaticGauss(g=g):
            return g * rng.standard_normal(m)
        case analytic.StaticLorentz(gamma=gamma, omega=omega):
            return cauchy(rng.random(m), gamma, omega)
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
    # second row of the two-step Cholesky of [[var1, cov], [cov, var2]]; White's
    # cov = 0 gives b = 0 and c = sqrt(var2), as does var1 = 0 at t = 0
    a = math.sqrt(var1)
    b = cov / a if a > 0.0 else 0.0
    c = math.sqrt(max(var2 - b * b, 0.0))
    return b * d[0] + c * d[1]


def _cos2_theta2(chunk: Chunk, model: NoiseModel, d: np.ndarray, t: float, tau: float):
    """cos 2 theta2 of the chunk's draws d.  Off the OU model it depends on tau
    alone, and a grid keeps it in one slot per tau (read-only there)."""
    if isinstance(model, analytic.ExpCorrGauss):
        return cos2(_theta2(model, d, t, tau))
    (b,) = chunk.memo(f"cos2 {tau.hex()}", model, tau,
                      lambda: (cos2(_theta2(model, d, t, tau)),))
    return b


def mc_moments(
    model: NoiseModel, t: float, tau: float | None, cfg: McConfig, workers: int = 1
) -> MomentStats:
    """MomentStats of cos 2theta1, cos 2theta2 and their product, or of cos 2theta1
    alone when tau is None.

    Their means estimate f(t), f'(tau) and f(t,tau) (.moments()); .cpf() reads the
    plug-in CPF f(t,tau) - f(t) f'(tau) and .conditional_coherence(yx) the
    conditioned coherence [f'(tau) + yx f(t,tau)] / [1 + yx f(t)], both with
    delta-method errors over the shared trajectories.  f'(tau) is measured from
    theta2 alone, so a stationarity violation would show up as f'(tau) != f(tau).
    """
    t, tau = float(check_times(t, "t")), None if tau is None else float(check_times(tau, "tau"))

    def sample(chunk: Chunk) -> tuple[np.ndarray, ...]:
        (d,) = chunk.memo("phase", _PAIR_LAW.get(type(model), model), None,
                          lambda: (_phase_draws(model, chunk.stream(), chunk.size),))
        (a,) = chunk.memo("cos1", model, t, lambda: (cos2(_theta1(model, d, t)),))
        if tau is None:
            return (a,)
        b = _cos2_theta2(chunk, model, d, t, tau)
        return a, b, a * b

    return collect_moments(sample, cfg, workers)


def _kept_stage(model: NoiseModel, d: np.ndarray, u: np.ndarray, cos1: np.ndarray,
                y_select: int) -> tuple[np.ndarray, ...]:
    """x and y of every trajectory from the outcome uniforms u (m, 3) and cos 2 theta1,
    in whose buffer p(y = +1 | x) is built; then, of those with y == y_select, the
    cell 2 z_idx + x_idx at z = -1, the z uniform and what cos 2 theta2 needs: the
    OU model's normal draw rows, or the index into the tile's per-tau array."""
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


def _z_counts(cell: np.ndarray, u_z: np.ndarray, b: np.ndarray, y_select: int) -> np.ndarray:
    """The four kept cells' counts; p(z = +1 | y_select) is built in b, the kept
    trajectories' cos 2 theta2."""
    p_z = np.negative(b, out=b) if y_select < 0 else b  # the bits of b * y
    p_z += 1.0
    p_z *= 0.5
    return np.bincount(cell - 2 * (u_z < p_z), minlength=4)


def _finite_cos2(cos: np.ndarray, name: str, value: float) -> np.ndarray:
    """cos, the cos 2 theta of a stage, unless a phase overflowed and made one nan: an
    outcome uniform compares False with nan, which would count it as -1 silently."""
    if np.isnan(cos).any():
        raise NonFiniteResult(f"{name} = {value!r} overflows a sampled phase: cos 2 theta is nan")
    return cos


def _kept_counts(model: NoiseModel, t: float, tau: float, y_select: int, cfg: McConfig,
                 workers: int = 1) -> np.ndarray:
    """Counts[2 z_idx + x_idx] of the sampled triples with y == y_select; index 0 is +1.
    Every trajectory draws x and y; only the kept ones are read out in z.  A chunk draws
    whole, then runs the rest tile by tile (Chunk.tiles) and adds the tiles' counts.
    Raises NonFiniteResult, naming t or tau, where a phase overflows."""

    def draw(chunk: Chunk) -> tuple[np.ndarray, np.ndarray]:
        rng = chunk.stream()
        return _phase_draws(model, rng, chunk.size), rng.random((chunk.size, 3))

    def tile(chunk: Chunk, d: np.ndarray, u: np.ndarray) -> np.ndarray:
        cell, u_z, r = chunk.memo(f"kept {y_select:+d}", model, t, lambda: _kept_stage(
            model, d, u, _finite_cos2(cos2(_theta1(model, d, t)), "t", t), y_select))
        if r.ndim == 2:
            b = cos2(_theta2(model, r, t, tau))
        else:  # gathered from the tile's, which a grid keeps per tau
            b = _cos2_theta2(chunk, model, d, t, tau)[r]
        return _z_counts(cell, u_z, _finite_cos2(b, "tau", tau), y_select)

    def worker(chunk: Chunk) -> np.ndarray:
        d, u = chunk.memo("outcomes", _PAIR_LAW.get(type(model), model), None, lambda: draw(chunk))
        return sum(tile(chunk, d[..., s], u[s]) for s in chunk.tiles())

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
    t, tau = float(check_times(t, "t")), float(check_times(tau, "tau"))
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
    path.  Raises StepTooCoarse for path_dt > tau_c / 10.  It keeps libm's
    cos 2 theta, so that it shares no arithmetic with the samplers' _mc.cos2.
    """
    if not isinstance(model, analytic.ExpCorrGauss):
        raise TypeError("ou_path_reference requires an ExpCorrGauss model")
    t, tau = float(check_times(t, "t")), float(check_times(tau, "tau"))
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
