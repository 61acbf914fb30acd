"""Shared Monte Carlo plumbing: chunked counter-based streams and reductions.

Sampling is partitioned into fixed-size chunks.  Chunk i draws from an
independent Philox stream keyed by the run seed with the chunk index placed
in the high half of the 256-bit counter, so streams never overlap and any
chunk (hence any trajectory) is recomputable in isolation; an offset in the
low half starts a draw part way into the chunk's stream.  Chunk statistics
are merged in ascending chunk order, which makes every estimate bit-identical
for a given (seed, chunk_size, n) regardless of how many workers execute the
chunks.

The steps every sampler shares from its inputs to its factors live here: the
one conversion of values from outside (real, reals; numeric refuses text and
bools), the time, parameter and count checks built on it (check_time,
check_times, check_real, check_count), the form of a refused value in their
messages (shown), the block draw of a chunk's rows (draw_rows), the Cauchy
inverse CDF (cauchy) and cos 2 theta, sin 2 theta from one tan of theta (cos2).

A sampler works on one Chunk in stages: the chunk's draws, a per-t stage, a
per-tau stage where tau alone fixes it, and the rest of the point.  Inside
grid_memo() the points of a grid, which all draw the same chunk streams, compute
each chunk's draws once, each per-t stage once per t (rows are t-major) and each
per-tau stage once per tau (a slot per tau); the bits do not change.  A sweep's
legs share one scope, and a slot serves every model equal to its owner: legs
of one model (a sweep over yx, y_select, quantity or method) share the draws
and the per-tau stages, and draws that no model parameter scales are drawn once.
Outside such a scope a point may run the stages after its draws tile by tile
(Chunk.tiles), which keeps its temporaries small.
"""

from __future__ import annotations

import contextlib
import functools
import math
import numbers
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .core import Estimate, validate_outcome
from .errors import ZeroProbabilityPostselection

DEFAULT_CHUNK_SIZE = 1 << 16
# McConfig rejects a run layout past either bound, so that neither one chunk's
# draw (several arrays of chunk_size rows) nor the list of chunks exhausts memory.
MAX_CHUNK_SIZE = 1 << 20
MAX_CHUNKS = 1 << 16
# Values of one block of a chunk's draw (draw_rows), 256 KiB.
DRAW_BLOCK_VALUES = 2**15
# Trajectories of one tile of a lone point's chunk (Chunk.tiles): a tile's float64
# arrays take 64 KiB, below glibc's default 128 KiB mmap threshold, so the heap reuses
# a freed tile's pages where a chunk's would go back to the system and fault in again.
POINT_TILE = 1 << 13
# Bytes one grid_memo() scope holds at most; a stage past the budget is
# recomputed at every call.
GRID_MEMO_MAX_BYTES = 16 << 20

_MASK64 = (1 << 64) - 1

# Conditioning on estimated moments needs |1 + yx f_t| above this threshold.
ESTIMATED_POSTSELECTION_EPS = 1e-9


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo run parameters.

    chunk_size defaults to min(2**16, n_trajectories), which __post_init__
    stores, and must not exceed n_trajectories or MAX_CHUNK_SIZE, and the run
    must split into at most MAX_CHUNKS chunks; chunk_size is part of the
    reproducibility contract (it fixes the random-stream layout).  path_dt is
    only consumed by path-integrating samplers; None selects a model-dependent
    default.
    """

    n_trajectories: int
    seed: int = 0
    chunk_size: int | None = None
    path_dt: float | None = None

    def __post_init__(self) -> None:
        n = check_count(self.n_trajectories, "n_trajectories")
        object.__setattr__(self, "n_trajectories", n)
        object.__setattr__(self, "seed", check_count(self.seed, "seed", least=None) & _MASK64)
        c = min(DEFAULT_CHUNK_SIZE, n) if self.chunk_size is None else self.chunk_size
        if not (isinstance(c, numbers.Real) and 1 <= c <= n):
            raise ValueError(
                f"chunk_size must be in [1, n_trajectories], got {shown(self.chunk_size)}")
        c = check_count(c, "chunk_size")
        if c > MAX_CHUNK_SIZE:
            raise ValueError(f"chunk_size must be <= {MAX_CHUNK_SIZE}, got {shown(c)}")
        object.__setattr__(self, "chunk_size", c)
        chunks = -(-n // c)
        if chunks > MAX_CHUNKS:
            raise ValueError(
                f"n_trajectories {shown(n)} at chunk_size {c} makes {shown(chunks)} "
                f"chunks, over the {MAX_CHUNKS}-chunk limit"
            )
        if self.path_dt is not None:
            object.__setattr__(self, "path_dt", check_real(self.path_dt, "path_dt"))


def chunk_sizes(cfg: McConfig) -> list[int]:
    """Trajectory counts per chunk, in chunk-index order."""
    full, rest = divmod(cfg.n_trajectories, cfg.chunk_size)
    return [cfg.chunk_size] * full + ([rest] if rest else [])


# The open grid_memo() scope's slots, (seed, chunk, stage) -> (owner, tag, value,
# generation), and their bytes, changed under the lock; pool threads touch only
# their own chunk's slots.  Each grid_memo() entry (a sweep leg) is a generation.
_memo: dict | None = None
_memo_bytes = 0
_memo_lock = threading.Lock()
_depth = 0
_generation = 0


@contextlib.contextmanager
def grid_memo():
    """Scope in which the points of a grid share their chunks' stages (Chunk.memo).

    Its slots hold at most GRID_MEMO_MAX_BYTES and are dropped when the
    outermost scope exits.  A nested scope (a sweep leg) starts a generation,
    whose new stages may evict an earlier one's slots past the budget.
    """
    global _memo, _memo_bytes, _depth, _generation
    with _memo_lock:
        if _depth == 0:
            _memo, _memo_bytes = {}, 0
        _depth += 1
        _generation += 1
    try:
        yield
    finally:
        with _memo_lock:
            _depth -= 1
            if _depth == 0:
                _memo.clear()
                _memo = None


@dataclass(frozen=True)
class Chunk:
    """Chunk index of the run drawn from seed, and its trajectory count."""

    seed: int
    index: int
    size: int

    def stream(self, offset: int = 0) -> np.random.Generator:
        """The chunk's Philox stream, offset 4-value blocks in: it gives the values
        that the chunk's stream gives after its first 4 * offset."""
        return np.random.Generator(
            np.random.Philox(key=self.seed, counter=(self.index << 128) + offset))

    def tiles(self) -> list[slice]:
        """The chunk's trajectories in slices of POINT_TILE (the last may be shorter),
        or in one slice inside grid_memo(), where a grid's points share whole stages."""
        step = self.size if _memo is not None else POINT_TILE
        return [slice(lo, lo + step) for lo in range(0, self.size, step)]

    def memo(self, stage: str, owner, t: float | None, compute) -> tuple:
        """compute(), a tuple of arrays that depends on this chunk, on owner (the
        model, or the law of draws no parameter scales) and on t (tau for a
        per-tau stage, None for a chunk's draws) only.
        Inside grid_memo() it is kept, read-only, in the slot of (seed, index,
        stage) while it fits the budget, and returned while size and t's bits
        hold, to an equal owner (frozen dataclasses compare by value).
        """
        global _memo_bytes
        slots = _memo
        if slots is None:
            return compute()
        key = (self.seed, self.index, stage)
        tag = (self.size, None if t is None else struct.pack("<d", t))
        slot = slots.get(key)
        if slot is not None and slot[0] == owner and slot[1] == tag:
            return slot[2]
        with _memo_lock:  # an old value goes before its successor is computed
            if (old := slots.pop(key, None)) is not None:
                _memo_bytes -= sum(a.nbytes for a in old[2])
        value = compute()
        size = sum(a.nbytes for a in value)
        with _memo_lock:
            # an earlier generation's slots, which come first, make room for this one's
            while _memo_bytes + size > GRID_MEMO_MAX_BYTES and slots:
                k = next(iter(slots))
                if slots[k][3] == _generation:
                    break
                _memo_bytes -= sum(a.nbytes for a in slots.pop(k)[2])
            if _memo_bytes + size <= GRID_MEMO_MAX_BYTES:
                for a in value:
                    a.flags.writeable = False
                slots[key] = (owner, tag, value, _generation)
                _memo_bytes += size
        return value


def map_chunks(worker, cfg: McConfig, workers: int = 1) -> list:
    """Run worker(chunk) for every Chunk of cfg, results in chunk order.

    A run of one chunk, or at one worker, runs inline; otherwise a thread
    pool of at most one worker per chunk, each chunk under the numpy error
    state of the calling thread (a pool thread does not inherit it).
    """
    chunks = [Chunk(cfg.seed, i, m) for i, m in enumerate(chunk_sizes(cfg))]
    if workers <= 1 or len(chunks) == 1:
        return [worker(chunk) for chunk in chunks]
    from concurrent.futures import ThreadPoolExecutor  # only parallel runs pay its import

    state = np.geterr()

    def run(chunk: Chunk):
        with np.errstate(**state):
            return worker(chunk)

    with ThreadPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
        return list(pool.map(run, chunks))


def block_rows(width: int) -> int:
    """Trajectories per block of draw_rows: DRAW_BLOCK_VALUES values, or one
    trajectory's width when that is more."""
    return max(1, DRAW_BLOCK_VALUES // width)


def draw_rows(draw, width: int, m: int) -> np.ndarray:
    """(width, m) rows of m trajectories' width values each, drawn trajectory-major
    as one (m, width) draw would be: draw((rows, width)) block by block, each block
    stored transposed, so that no (m, width) copy is held beside the rows."""
    out, rows = np.empty((width, m)), block_rows(width)
    for lo in range(0, m, rows):
        out[:, lo:lo + rows] = draw((min(rows, m - lo), width)).T
    return out


def cauchy(u: np.ndarray, gamma: float, omega: float) -> np.ndarray:
    """Cauchy(omega/2, gamma/2) values from the uniforms u by inverse CDF, in u's buffer."""
    u -= 0.5
    u *= math.pi
    np.tan(u, out=u)
    u *= 0.5 * gamma
    u += 0.5 * omega
    return u


def cos2(theta: np.ndarray, sin: np.ndarray | None = None) -> np.ndarray:
    """cos 2 theta as w - 1, w = 2/(1 + h^2), h = tan theta, in theta's buffer,
    and with sin also sin 2 theta as h w into sin.

    One vectorized tan of the half angle: numpy's float64 cos and sin can be
    scalar libm where its tan is vectorized.  Within 2 ulp of 1 of libm's cos 2
    theta and sin 2 theta, in [-1, 1], exactly (1, 0) at theta = +-0.0, and
    finite where 2 theta overflows.
    """
    h = np.tan(theta, out=theta if sin is None else sin)
    np.square(h, out=theta)
    theta += 1.0
    np.divide(2.0, theta, out=theta)
    if sin is not None:
        sin *= theta
    theta -= 1.0
    return theta


def shown(value) -> str:
    """repr(value) for an error message, or 3 digits of an integer too long for repr
    (past sys.get_int_max_str_digits(), 4,300 digits by default): 1.00e+5000."""
    try:
        return repr(value)
    except ValueError:
        import decimal  # only such a refusal pays its import

        return f"{decimal.Decimal(value):.3g}"


def numeric(value):
    """value; a TypeError where it, or an element of a list, tuple or array in it,
    is text or a bool, which float(), complex() and numpy would read as a number."""
    kind = value.dtype.kind if isinstance(value, np.ndarray) else None
    if kind in ("b", "S", "U") or isinstance(value, (str, bytes, bool, np.bool_)):
        raise TypeError("text or a bool is not a number")
    if kind == "O" or isinstance(value, (list, tuple)):
        for v in value.flat if kind else value:
            numeric(v)
    return value


def real(value, kind=float):
    """kind(value), a float or a complex; an integer beyond the float range is
    +-inf, and a value that is not a number (text, a bool, None, a list) is nan."""
    try:
        return kind(numeric(value))
    except OverflowError:
        return kind(math.inf if value > 0 else -math.inf)
    except (TypeError, ValueError):
        return kind(math.nan)


def reals(values, dtype=float) -> np.ndarray:
    """values as an array of dtype: all inf where an integer is beyond the float range,
    all nan where a value is not a number (text, a bool), one nan for a ragged list."""
    try:
        return np.asarray(numeric(values), dtype=dtype)
    except (OverflowError, TypeError, ValueError) as exc:
        fill = math.inf if isinstance(exc, OverflowError) else math.nan
    try:
        return np.full(np.shape(values), fill, dtype)
    except ValueError:  # a ragged list has no shape to keep
        return np.full(1, fill, dtype)


def check_real(value: float, name: str, positive: bool = True) -> float:
    """value as a float (real), checked to be finite and, if positive, > 0 (a model
    parameter or path_dt); a ValueError names the argument name."""
    v = real(value)
    if not math.isfinite(v) or (positive and v <= 0.0):
        raise ValueError(f"{name} must be finite{' and > 0' if positive else ''}, "
                         f"got {shown(value)}")
    return v


def check_count(value, name: str, least: int | None = 1) -> int:
    """value as an int, checked to be integral (3.0 passes; 2.9, nan, inf and True
    do not) and >= least unless least is None (n_trajectories, chunk_size,
    n_spins; the seed has no bound); a ValueError names the argument name."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and value % 1 == 0):
        raise ValueError(f"{name} must be an integer, got {shown(value)}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {shown(value)}")
    return int(value)


def check_time(value, name: str) -> float:
    """value, one point's time, as a float (real), checked to be finite, >= 0 and not
    a list or an array of several; a ValueError names the argument name."""
    v = math.nan if getattr(value, "ndim", 0) else real(value)
    if not 0.0 <= v < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {shown(value)}")
    return v


def check_times(value, name: str, lags: bool = False) -> np.ndarray:
    """value as a float64 array (reals) whose elements are finite and, unless they
    are lags (which may be negative), >= 0; a ValueError names the argument name."""
    v = reals(value)
    ok = np.isfinite(v) if lags else (v >= 0.0) & (v < math.inf)
    if np.count_nonzero(ok) < v.size:  # all() takes 3x as long on a small array
        rule = "finite" if lags else "finite and >= 0"
        raise ValueError(f"{name} must be {rule}, got {float(v[~ok][0])!r}")
    return v


@dataclass(frozen=True, eq=False)  # array fields: no value equality
class MomentStats:
    """Count, column sums and centred second moments of per-trajectory columns.

    Columns 0-2 hold one trajectory's (f_t, f_tau, f_joint) (a coherence
    sampler draws column 0 alone).  Each chunk keeps its second moments about
    its own mean, and chunks merge pairwise (Chan, Golub and LeVeque), so
    nearly constant columns keep their small variances instead of cancelling
    them away.  Every sum is one of numpy's pairwise reductions or a Python
    float sum in a fixed order, never a BLAS call, so the bits do not depend
    on which kernel the linked BLAS picks for the CPU.
    """

    n: int
    s: np.ndarray  # (dim,) column sums
    m2: np.ndarray  # (dim, dim) cross-products of deviations from the mean

    @classmethod
    def from_samples(cls, cols) -> MomentStats:
        """cols holds dim 1-D columns of n_samples.  s[j] is cols[j].sum() and
        m2[i, j] = m2[j, i] the sum of d_i * d_j (i <= j), both numpy pairwise
        sums, where d_j = cols[j] - s[j] / n_samples.  Besides the columns it
        holds dim + 1 rows of n_samples: the d_j and one row of products."""
        n, dim = cols[0].size, len(cols)
        s, m2 = np.empty(dim), np.empty((dim, dim))
        d, p = np.empty((dim, n)), np.empty(n)
        for j, c in enumerate(cols):
            s[j] = c.sum()
            np.subtract(c, s[j] / n, out=d[j])
        for i in range(dim):
            for j in range(i, dim):
                m2[i, j] = m2[j, i] = np.multiply(d[i], d[j], out=p).sum()
        return cls(n, s, m2)

    @classmethod
    def from_counts(cls, rows: np.ndarray, counts: np.ndarray) -> MomentStats:
        """from_samples of rows[k] (integers) repeated counts[k] times: exact column
        sums, count-weighted centred products added over the rows in order, and
        no (n_samples, dim) array."""
        n = int(counts.sum())
        s = (counts[:, None] * rows).sum(axis=0)
        d = rows - s / n
        m2 = (d[:, :, None] * counts[:, None, None] * d[:, None, :]).sum(axis=0)
        return cls(n, s.astype(float), m2)

    def merge(self, other: MomentStats) -> MomentStats:
        n = self.n + other.n
        delta = other.s / other.n - self.s / self.n
        m2 = self.m2 + other.m2 + np.outer(delta, delta) * (self.n * other.n / n)
        return MomentStats(n, self.s + other.s, m2)

    def mean(self) -> np.ndarray:
        return self.s / self.n

    def _cov_of_mean(self, k: int) -> list[list[float]]:
        """Covariance of the first k column means (sample cov / n), Python floats."""
        n = self.n
        if n < 2:
            return [[0.0] * k for _ in range(k)]
        return [[m_ij / (n - 1) / n for m_ij in row] for row in self.m2[:k, :k].tolist()]

    def _delta(self, value: float, grad: list[float]) -> Estimate:
        """Estimate of a smooth function of the first len(grad) column means.

        grad holds Python floats.  The quadratic form (grad' cov) grad is summed
        in Python floats in index order: first the row vector grad' cov, then
        its product with grad."""
        cov = self._cov_of_mean(len(grad))
        var = 0.0
        for j, g_j in enumerate(grad):
            col = 0.0
            for g_i, row in zip(grad, cov):
                col += g_i * row[j]
            var += col * g_j
        return Estimate(value, math.sqrt(max(var, 0.0)), self.n)

    def estimate(self, index: int) -> Estimate:
        """Mean of one column as an Estimate."""
        return self._delta(self.mean().tolist()[index], [0.0] * index + [1.0])

    def moments(self) -> tuple[Estimate, Estimate, Estimate]:
        """Estimates of (f_t, f_tau, f_joint)."""
        return self.estimate(0), self.estimate(1), self.estimate(2)

    def cpf(self) -> Estimate:
        """Plug-in C_pf = f_joint - f_t f_tau, delta-method error."""
        m = self.mean().tolist()
        return self._delta(m[2] - m[0] * m[1], [-m[1], -m[0], 1.0])

    def conditional_coherence(self, yx: int) -> Estimate:
        """(f_tau + yx f_joint) / (1 + yx f_t) of the means, delta-method error.

        Raises a ValueError unless yx is +1 or -1, and
        ZeroProbabilityPostselection when the estimated weight |1 + yx f_t| is at
        most ESTIMATED_POSTSELECTION_EPS.
        """
        yx = validate_outcome(yx, "yx")
        m = self.mean().tolist()
        denom = 1.0 + yx * m[0]
        if abs(denom) <= ESTIMATED_POSTSELECTION_EPS:
            raise ZeroProbabilityPostselection(
                f"estimated postselection weight 1 + yx f(t) = {denom!r} for yx={yx:+d}"
            )
        num = m[1] + yx * m[2]
        return self._delta(num / denom, [-yx * num / denom**2, 1.0 / denom, yx / denom])


def collect_moments(sample_cols, cfg: McConfig, workers: int = 1) -> MomentStats:
    """Accumulate MomentStats over all chunks, merged in chunk-index order.

    sample_cols(chunk) must return the dim columns drawn from the chunk, 1-D
    arrays of chunk.size each.
    """
    stats = map_chunks(lambda chunk: MomentStats.from_samples(sample_cols(chunk)), cfg, workers)
    return functools.reduce(MomentStats.merge, stats)
