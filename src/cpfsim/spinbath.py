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
and lorentz_moment_set.  Its Monte Carlo entry, lorentz_mc_moments, averages
the per-realization moments, and so the probability *table*, over the
ensemble before combining them (table-first order).

The closed forms take scalar or array times; their moment sets feed the
array combinators of core.  The steps from a chunk's stream to the spin
factors come from _mc: the ensemble's couplings from its Cauchy inverse CDF
(_mc.cauchy) in its block draw (_mc.draw_rows), and each spin's cos 2x and
sin 2x, for the closed forms too, from one tan of the half angle (_mc.cos2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import core
from ._mc import (Chunk, McConfig, MomentStats, block_rows, cauchy, check_count, check_real,
                  check_time, check_times, collect_moments, cos2, draw_rows, real, reals, shown)
from .errors import (
    BathTooLarge,
    UnreachablePolarization,
    ZeroProbabilityPostselection,
)

ORACLE_MAX_SPINS = 14

# Largest draw of one Cauchy-ensemble chunk, as counted by _ensemble_chunk_bytes,
# and largest arrays of a scaled bath (_SCALED_SPIN_BYTES a spin).
ENSEMBLE_MAX_BYTES = 256 * 2**20
# Bytes a spin of scaled_gaussian_bath takes: its coupling and two complex amplitudes.
_SCALED_SPIN_BYTES = 40


def _check_amplitudes(a, b, what: str) -> None:
    """Raise a ValueError naming what and the first bad norm unless |a|^2 + |b|^2
    is 1 within 1e-12, for a pair of scalars or each pair of per-spin arrays (from
    _mc.real or _mc.reals).  An amplitude that is not finite, or whose square
    overflows, has an inf or nan norm."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.atleast_1d(np.abs(a) ** 2 + np.abs(b) ** 2)
        bad = norm[~(np.abs(norm - 1.0) <= 1e-12)]
    if bad.size:
        raise ValueError(f"{what} amplitudes must satisfy |a|^2+|b|^2=1, got {float(bad[0])!r}")


@dataclass(frozen=True, eq=False)  # array fields: no value equality
class SpinBathSpec:
    """N bath spins with couplings g_k and initial amplitudes (alpha_k, beta_k), held
    as read-only 1-d arrays.  The amplitudes default to 1/sqrt 2 for every spin."""

    couplings: list[float]
    alphas: list[complex] | None = None
    betas: list[complex] | None = None

    def __post_init__(self) -> None:
        g = np.atleast_1d(reals(self.couplings))
        if g.ndim != 1:
            raise ValueError(f"couplings must be 1-d, got shape {g.shape}")
        if (self.alphas is None) != (self.betas is None):
            raise ValueError("alphas and betas must be given together")
        a, b = (np.full(g.size, 1.0 / math.sqrt(2.0), complex) if v is None
                else np.atleast_1d(reals(v, complex)) for v in (self.alphas, self.betas))
        for name, arr in (("alphas", a), ("betas", b)):
            if arr.shape != g.shape:
                raise ValueError(f"{name} must hold one amplitude per coupling ({g.size}), "
                                 f"got shape {arr.shape}")
        if g.size < 1:
            raise ValueError("need at least one bath spin")
        if not np.all(np.isfinite(g)):
            raise ValueError("couplings must be finite")
        _check_amplitudes(a, b, "per-spin")
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
        a, b = real(self.a, complex), real(self.b, complex)
        _check_amplitudes(a, b, "system")
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
        object.__setattr__(self, "gamma", check_real(self.gamma, "gamma"))
        object.__setattr__(self, "omega", check_real(self.omega, "omega", positive=False))
        object.__setattr__(self, "n_spins", check_count(self.n_spins, "n_spins"))
        check_real(self.n_spins, "n_spins")  # the closed form takes N as a float
        alpha, beta = real(self.alpha, complex), real(self.beta, complex)
        _check_amplitudes(alpha, beta, "bath spin")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)


# Most values in the kernel's buffers for blocks of several spins, for the closed-form
# bath and the Cauchy ensemble alike, besides numpy's buffers (3 * np.getbufsize() at
# most) for ufuncs on a block's non-contiguous views.
_ENSEMBLE_BLOCK_VALUES = 2**16


def _spin_blocks(g: np.ndarray, t: float | np.ndarray, tau: float | None, pol):
    """Re and Im (None when pol is None) of prod_k (cos x_k + i pol_k sin x_k), x_k = 2 g_k lag,
    for couplings g (N, m) and pol a float or one per spin, as rows for the lags t, tau, t + tau,
    t - tau (for t, a float or 1-d lags, when tau is None), from two tangents a spin (_mc.cos2)
    and the angle sums of _angle_sums.  Factors fold in spin order, as a spin loop's would at t
    and tau; at t == tau, t - tau is 1.0."""
    n, m = g.shape
    ts = np.atleast_1d(t) if tau is None else np.array([t, tau])
    k, lags, rows = (ts.size,) * 3 if tau is None else (2, 4, 3 if t == tau else 4)  # rows folded
    # lag-major block buffers: the fold stack, or c, d, x and two spin-major copies of c, d
    slots = 2 * k if pol is None else 6 * lags + 2
    block = max(1, min(n, _ENSEMBLE_BLOCK_VALUES // max(1, m * slots)))  # 1: no lags
    re = np.ones((lags, m))
    if pol is None:
        stack = np.empty((2 * k, block + 1, m))
        f = stack[:, 1:]  # cos, then sin and scratch

        def fold(out: np.ndarray, b: int) -> None:  # after a copy of the running product
            stack[:len(out), 0] = out
            np.multiply.reduce(stack[:len(out), :b + 1], axis=1, out=out)

        for lo in range(0, n, block):
            b = min(block, n - lo)
            cos2(np.multiply(g[lo:lo + block], ts[:, None, None], out=f[:k, :b]), f[k:, :b])
            fold(re[:k], b)
            if tau is not None:  # cos(A +- B) into the rows of cos A, cos B; the sines are scratch
                _angle_sums(f[0::2, :b], f[1::2, :b], f[:2, :b], f[2:, :b])
                fold(re[2:rows], b)
        return re, None
    cd, x_all = np.empty((2, lags, block, m)), np.empty((2, block, m))
    r, i, i_d = re[:rows], np.zeros((rows, m)), np.empty((rows, m))
    for lo in range(0, n, block):
        c, d, x = cd[0, :, :n - lo], cd[1, :, :n - lo], x_all[:, :n - lo]
        cos2(np.multiply(g[lo:lo + block], ts[:, None, None], out=c[:k]), d[:k])
        if tau is not None:  # cos(A +- B), then sin(A -+ B) = sA cB -+ cA sB
            _angle_sums(cd[:, 0, :n - lo], cd[:, 1, :n - lo], c[2:], x)
            _angle_sums(cd[::-1, 0, :n - lo], cd[:, 1, :n - lo], d[:1:-1], x)
        d *= pol[lo:lo + block, None] if np.ndim(pol) else pol
        for c_k, d_k in np.ascontiguousarray(cd[:, :rows, :n - lo].transpose(2, 0, 1, 3)):
            # (re, im) <- (re c - im d, re d + im c)
            np.multiply(i, d_k, out=i_d)
            d_k *= r
            r *= c_k
            r -= i_d
            i *= c_k
            i += d_k
    return re, i


def _angle_sums(a: np.ndarray, b: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """(a0 b0 - a1 b1, a0 b0 + a1 b1) into out's rows, the products in scratch's rows
    (which may be a[1] and b[1]): cos(A +- B) = cA cB -+ sA sB for a = (cA, sA),
    b = (cB, sB); sin(A -+ B) = sA cB -+ cA sB for a = (sA, cA)."""
    q = np.multiply(a[1], b[1], out=scratch[1])
    p = np.multiply(a[0], b[0], out=scratch[0])
    np.subtract(p, q, out=out[0])
    np.add(p, q, out=out[1])


def coherence(spec: SpinBathSpec, t):
    """Bath overlap c_t by the product formula; c_0 = 1 exactly, |c_t| <= 1.

    Takes a scalar or an array of times and returns the same shape.  Each
    spin's factor is cos x + i (|alpha_k|^2 - |beta_k|^2) sin x, x = 2 g_k t,
    from _spin_blocks: the spin norms (1 within 1e-12) are not multiplied in.  The
    protocol only uses t >= 0, but negative arguments (arising as t-tau
    inside conditional quantities) evaluate the same product formula, which
    is the analytic continuation: c_{-t} = conj(c_t).
    """
    t = check_times(t, "t", lags=True)
    pol = np.abs(spec.alphas) ** 2 - np.abs(spec.betas) ** 2
    re, im = _spin_blocks(spec.couplings[:, None], np.ravel(t), None, pol if pol.any() else None)
    return (re + 1j * (0.0 if im is None else im)).reshape(t.shape)[()]


def _moment_set(overlap, t, tau) -> core.MomentSet:
    """Moments of Re overlap, which is called once, on the distinct values (told
    apart by their bits) of the four lags t, tau, t + tau and t - tau together;
    each moment takes its own lag's shape.  The overlaps are elementwise, so the
    bits are those of a call on every point."""
    t, tau = check_times(t, "t"), check_times(tau, "tau")
    with np.errstate(over="ignore"):  # an overflowing sum raises, named, instead
        # (as an array, whose refused element shows as a float, not a numpy scalar)
        lags = (t, tau, check_times(np.asarray(t + tau), "t + tau"), t - tau)
    bits, inverse = np.unique(np.concatenate(lags, axis=None).view(np.int64), return_inverse=True)
    f = np.split(overlap(bits.view(float)).real[inverse], np.cumsum([u.size for u in lags])[:-1])
    f_t, f_tau, f_sum, f_diff = (part.reshape(u.shape) for part, u in zip(f, lags))
    return core.MomentSet(f_t=f_t, f_tau=f_tau, f_joint=0.5 * (f_sum + f_diff))


def moment_set(spec: SpinBathSpec, t, tau) -> core.MomentSet:
    """Table moments (f(t), f(tau), [f(t+tau)+f(t-tau)]/2) with f = Re c.

    t and tau are scalars or arrays that broadcast against each other.  f(0)
    is exactly 1.0 and f(-u) is f(u) bit for bit, so the CPF is exactly 0.0 at
    t = 0 or tau = 0.
    """
    return _moment_set(lambda u: coherence(spec, u), t, tau)


def scaled_gaussian_bath(n_spins: int, g: float, omega: float = 0.0) -> SpinBathSpec:
    """Uniform bath realizing the large-N Gaussian scaling.

    Couplings g_k = g / sqrt(N) and amplitudes with |alpha|^2 - |beta|^2 =
    omega / (2 g sqrt(N)), so that c_t -> exp(i omega t - 2 (g t)^2) for
    N >> 1.  Raises UnreachablePolarization when |omega/(2 g sqrt(N))| > 1,
    and BathTooLarge, before any allocation, when its arrays would take more
    than ENSEMBLE_MAX_BYTES.
    """
    n = check_count(n_spins, "n_spins")
    g, omega = check_real(g, "g"), check_real(omega, "omega", positive=False)
    if n * _SCALED_SPIN_BYTES > ENSEMBLE_MAX_BYTES:
        raise BathTooLarge(f"N = {shown(n)} spins take {shown(n * _SCALED_SPIN_BYTES >> 20)} "
                           "MiB of couplings and amplitudes, over the "
                           f"{ENSEMBLE_MAX_BYTES // 2**20} MiB budget")
    pol = omega / (2.0 * g * math.sqrt(n))
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
    amplitudes |alpha| = |beta| give e^{-gamma|t|} cos^N(omega t/N).  As the
    spec is normalized, the bracket is cos + i (|a|^2 - |b|^2) sin: c_0 = 1.
    """
    t, n = check_times(t, "t", lags=True), spec.n_spins
    # bracket^N in polar form, in real arithmetic: numpy's complex multiply rounds
    # differently in its scalar and vector loops, so a point would miss its grid's bits
    arg = spec.omega * t / n
    re, im = np.cos(arg), (abs(spec.alpha) ** 2 - abs(spec.beta) ** 2) * np.sin(arg)
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

# Trajectories of one tile of an ensemble chunk: its (N, tile) couplings are the
# most a draw holds at once.  Tile k starts k * _ENSEMBLE_TILE * N uniforms into
# the chunk's stream, a whole number of Philox blocks.  Smaller tiles slow the
# kernel's general path, which folds one spin of a tile per Python iteration.
_ENSEMBLE_TILE = 4096


def _ensemble_cols(spec: LorentzCouplingSpec, t: float, tau: float | None):
    """Sampler of the per-realization (f_t, f_tau, f_joint) columns, or of the
    f_t column alone when tau is None, tile by tile."""
    n = spec.n_spins
    pol = abs(spec.alpha) ** 2 - abs(spec.beta) ** 2

    def couplings(stream: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
        g = cauchy(stream.random(shape), spec.gamma, spec.omega)  # gtilde_k, then / N
        g /= n
        return g

    def tile(chunk: Chunk, lo: int) -> tuple[np.ndarray]:
        """Spin-major (N, tile) couplings of the trajectories from lo, from the
        (tile, N) uniforms the chunk's stream holds lo * N uniforms in."""
        draw = functools.partial(couplings, chunk.stream(lo * n // 4))
        return (draw_rows(draw, n, min(_ENSEMBLE_TILE, chunk.size - lo)),)

    def sample(chunk: Chunk) -> tuple[np.ndarray, ...]:
        cols = np.empty((1 if tau is None else 3, chunk.size))
        for lo in range(0, chunk.size, _ENSEMBLE_TILE):
            (g,) = chunk.memo(f"couplings {lo // _ENSEMBLE_TILE}", spec, None,
                              functools.partial(tile, chunk, lo))
            re, _ = _spin_blocks(g, t, tau, pol or None)
            hi = lo + g.shape[1]
            cols[0, lo:hi] = re[0]
            if tau is not None:
                cols[1, lo:hi] = re[1]
                np.add(re[2], re[3], out=cols[2, lo:hi])
                cols[2, lo:hi] *= 0.5
            del g, re  # before the next tile is drawn
        return tuple(cols)

    return sample


# Per-trajectory float64 values one draw holds, at most.  Of the chunk: its columns,
# MomentStats' centred rows and its row of products (7).  Of one tile, besides its
# couplings, the block of uniforms they are drawn in and the kernel's blocks of
# several spins: the kernel's general path keeps (4, tile) re, im and products (12)
# and one-spin blocks (10), its balanced path (|alpha| == |beta|) re and a one-spin
# block or a copy of re (8).  The rest is headroom.
_ENSEMBLE_CHUNK_COLUMNS = 7
_ENSEMBLE_TILE_COLUMNS = 33
# Bytes of the small objects of one draw whatever its size (the stream, array
# headers, the lags): up to 3.3 kB under tracemalloc, on chunks of 1-5
# trajectories, where the per-trajectory headroom is a few hundred bytes.
_ENSEMBLE_DRAW_FIXED_BYTES = 4096


def _ensemble_chunk_bytes(spec: LorentzCouplingSpec, cfg: McConfig) -> int:
    """Peak bytes of one chunk's draw: the chunk's per-trajectory arrays, one tile's
    couplings and per-trajectory arrays, one block of uniforms (_mc.block_rows), the
    kernel's blocks and the draw's small objects."""
    m, n = cfg.chunk_size, spec.n_spins
    tile = min(m, _ENSEMBLE_TILE)
    return (8 * (m * _ENSEMBLE_CHUNK_COLUMNS + tile * (n + _ENSEMBLE_TILE_COLUMNS)
                 + min(tile, block_rows(n)) * n + _ENSEMBLE_BLOCK_VALUES + 3 * np.getbufsize())
            + _ENSEMBLE_DRAW_FIXED_BYTES)


def lorentz_mc_moments(
    spec: LorentzCouplingSpec, t: float, tau: float | None, cfg: McConfig, workers: int = 1
) -> MomentStats:
    """MomentStats of the per-realization (f(t), f(tau), f_joint) over the Cauchy
    ensemble, or of f(t) alone (Re c_t) when tau is None.

    The per-realization probability table is linear in the per-realization
    moments, so the ensemble-averaged table is the table of the averaged
    moments: .cpf() and .conditional_coherence(yx) of these stats combine the
    averaged moments in table-first order, the order of lorentz_moment_set.
    Raises BathTooLarge, before any draw, when one chunk's draw would take more
    than ENSEMBLE_MAX_BYTES.
    """
    t, tau = check_time(t, "t"), None if tau is None else check_time(tau, "tau")
    need = _ensemble_chunk_bytes(spec, cfg)
    if need > ENSEMBLE_MAX_BYTES:
        raise BathTooLarge(
            f"N = {spec.n_spins} spins at chunk_size {cfg.chunk_size} draw "
            f"{need / 2**20:.0f} MiB per chunk, over the {ENSEMBLE_MAX_BYTES // 2**20} MiB "
            "budget; lower mc.chunk_size"
        )
    return collect_moments(_ensemble_cols(spec, t, tau), cfg, workers)


# ---------------------------------------------------------------------------
# Dense statevector oracle


def _bath_levels(spec: SpinBathSpec) -> np.ndarray:
    """L[i] = sum_k g_k m_k for bath basis index i (bit k = 0 means spin k up)."""
    levels = np.zeros(1)
    for g_k in spec.couplings:
        levels = np.concatenate([levels + g_k, levels - g_k])
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


def _propagator_phase(spec: SpinBathSpec, propagator: str):
    """(dt, out) -> exp(+i dt L) in out, the |+> row's phase (the |-> row takes
    its conjugate), from the bath levels ("diagonal") or one single-spin gate at
    a time ("gatewise"): two independent builds of the same unitary."""
    if propagator == "diagonal":
        levels = _bath_levels(spec)
        return lambda dt, out: np.exp(np.multiply(1j * dt, levels, out=out), out=out)
    if propagator != "gatewise":
        raise ValueError(f"unknown propagator {propagator!r}")

    def gatewise(dt: float, out: np.ndarray) -> np.ndarray:
        out[...] = 1.0
        idx = np.arange(out.size)
        for k in range(spec.n_spins):
            out *= np.exp(1j * dt * spec.couplings[k] * (1.0 - 2.0 * ((idx >> k) & 1)))
        return out

    return gatewise


def _x_probability(
    up: np.ndarray, dn: np.ndarray, outcome: int, out: np.ndarray, collapse: bool = False
) -> float:
    """Probability of an x-basis system outcome on the state rows (up, dn).

    Leaves the bath state (up + outcome dn) / sqrt(2) in out, normalized when
    collapse is set and the probability is positive; the collapsed rows are
    then (out, outcome out) / sqrt(2).
    """
    np.add(up, np.multiply(outcome, dn, out=out), out=out)
    out /= math.sqrt(2.0)
    prob = float(np.square(out.view(float)).sum())  # |out|^2, a pairwise sum
    if collapse and prob > 0.0:
        out /= math.sqrt(prob)
    return prob


def _y_branches(state: np.ndarray, phase, t: float, y: int):
    """The protocol up to the y measurement: P(x), P(y|x) and, for each x with
    P(x) P(y|x) > 0, the rows of the state collapsed on x, evolved over t and
    collapsed on y."""
    p_x, p_y_given_x, rows = {}, {}, {}
    ph = phase(t, np.empty_like(state[0]))
    for x in core.OUTCOMES:
        bath = np.empty_like(ph)
        p_x[x] = _x_probability(state[0], state[1], x, bath, collapse=True)
        p_y_given_x[x] = 0.0 if p_x[x] == 0.0 else _x_probability(
            bath / math.sqrt(2.0) * ph, x * bath / math.sqrt(2.0) * np.conj(ph), y, bath, True
        )
        if p_y_given_x[x] > 0.0:
            rows[x] = (bath / math.sqrt(2.0), y * bath / math.sqrt(2.0))
    return p_x, p_y_given_x, rows


def oracle_protocol(
    spec: SpinBathSpec,
    init: SystemInit,
    t: float,
    tau: float | np.ndarray,
    y: int,
    *,
    propagator: str = "diagonal",
) -> core.CpfProbabilityTable:
    """Replay the full three-measurement protocol on the dense statevector.

    Builds the (2, 2^N) system-bath state, applies the first x projector to
    both branches, evolves each by the diagonal propagator over t, applies
    the y projector, evolves over tau, reads out the z probabilities, and
    assembles P(z, x | y) = P(z|y,x) P(y|x) P(x) / P(y).

    tau is a scalar or a 1-d array, and the one table returned has entries
    of tau's shape, each point bitwise the entry of a scalar call.  The work
    up to the y projector is done once; each tau adds one phase vector,
    shared by both x branches, and the z readouts, in a few preallocated 2^N
    buffers.

    propagator selects one of two independent implementations of the same
    unitary ("diagonal" or "gatewise").  The times and y are checked before
    the state is built.  Raises BathTooLarge for N > 14 and
    ZeroProbabilityPostselection if P(y) = 0 (also for an empty tau array).
    """
    t, tau = check_time(t, "t"), check_times(tau, "tau")
    if tau.ndim > 1:
        raise ValueError("tau must be a scalar or a 1-d array")
    y = core.validate_outcome(y, "y")
    state = _initial_state(spec, init)
    phase = _propagator_phase(spec, propagator)

    p_x, p_y_given_x, rows = _y_branches(state, phase, t, y)
    p_y = sum(p_y_given_x[x] * p_x[x] for x in core.OUTCOMES)
    if p_y <= 0.0:
        raise ZeroProbabilityPostselection(f"P(y={y:+d}) = 0 for this protocol")

    ph, conj_ph, up, dn, bath = (np.empty_like(state[0]) for _ in range(5))
    entries = {(z, x): np.zeros(tau.shape) for z in core.OUTCOMES for x in core.OUTCOMES}
    for k, tau_k in enumerate(tau.ravel().tolist()):
        np.conj(phase(tau_k, ph), out=conj_ph)
        for x, (up_y, dn_y) in rows.items():
            np.multiply(up_y, ph, out=up)
            np.multiply(dn_y, conj_ph, out=dn)
            for z in core.OUTCOMES:
                p_zx = _x_probability(up, dn, z, bath) * p_y_given_x[x] * p_x[x] / p_y
                entries[(z, x)].flat[k] = p_zx
    return core.CpfProbabilityTable(y, entries)


def oracle_conditional_coherence(
    spec: SpinBathSpec, init: SystemInit, t: float, tau: float, x: int, y: int
) -> complex:
    """Post-second-measurement bath overlap replayed on the statevector.

    Returns the complex coherence c^{yx} of the state after collapsing on
    (x, then y) and evolving tau; for init = |+> it is the c^{yx} of the
    module docstring with yx = x*y, whose real part is
    core.conditional_coherence of moment_set.  The times, x and y are
    checked before the state is built.
    """
    t, tau = check_time(t, "t"), check_time(tau, "tau")
    x = core.validate_outcome(x, "x")
    y = core.validate_outcome(y, "y")
    state = _initial_state(spec, init)
    phase = _propagator_phase(spec, "diagonal")
    p_x, _, rows = _y_branches(state, phase, t, y)
    if p_x[x] == 0.0:
        raise ZeroProbabilityPostselection(f"P(x={x:+d}) = 0")
    if x not in rows:
        raise ZeroProbabilityPostselection(f"P(y={y:+d}|x={x:+d}) = 0")
    ph = phase(tau, np.empty_like(state[0]))
    up, dn = rows[x]
    a, b = dn * np.conj(ph), up * ph  # <a|b> from pairwise sums of real products
    re = (a.real * b.real).sum() + (a.imag * b.imag).sum()
    im = (a.real * b.imag).sum() - (a.imag * b.real).sum()
    return 2.0 * y * complex(re, im)
