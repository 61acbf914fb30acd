"""Shared Monte Carlo plumbing: chunked counter-based streams and reductions.

Sampling is partitioned into fixed-size chunks.  Chunk i draws from an
independent Philox stream keyed by the run seed with the chunk index placed
in the high half of the 256-bit counter, so streams never overlap and any
chunk (hence any trajectory) is recomputable in isolation.  Chunk statistics
are merged in ascending chunk order, which makes every estimate bit-identical
for a given (seed, chunk_size, n) regardless of how many workers execute the
chunks.

A sampler works on one Chunk in stages: the chunk's draws, a per-t stage, a
per-tau stage where tau alone fixes it, and the rest of the point.  Inside
grid_memo() the points of a grid, which all draw the same chunk streams, compute
each chunk's draws once, each per-t stage once per t (rows are t-major) and each
per-tau stage once per tau (a slot per tau); the bits do not change.  A sweep's
legs share one scope, so draws that no model parameter scales are drawn once.
"""

from __future__ import annotations

import contextlib
import functools
import math
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .core import Estimate
from .errors import ZeroProbabilityPostselection

DEFAULT_CHUNK_SIZE = 1 << 16
# McConfig rejects a run layout past either bound, so that neither one chunk's
# draw (several arrays of chunk_size rows) nor the list of chunks exhausts memory.
MAX_CHUNK_SIZE = 1 << 20
MAX_CHUNKS = 1 << 16
# Bytes one grid_memo() scope holds at most; a stage past the budget is
# recomputed at every call.
GRID_MEMO_MAX_BYTES = 16 << 20

_MASK64 = (1 << 64) - 1

# Conditioning on estimated moments needs |1 + yx f_t| above this threshold.
ESTIMATED_POSTSELECTION_EPS = 1e-9


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo run parameters.

    chunk_size defaults to min(2**16, n_trajectories) and must not exceed
    n_trajectories or MAX_CHUNK_SIZE, and the run must split into at most
    MAX_CHUNKS chunks; chunk_size is part of the reproducibility contract (it
    fixes the random-stream layout).  path_dt is only consumed by
    path-integrating samplers; None selects a model-dependent default.
    """

    n_trajectories: int
    seed: int = 0
    chunk_size: int | None = None
    path_dt: float | None = None

    def __post_init__(self) -> None:
        n = int(self.n_trajectories)
        if n < 1:
            raise ValueError(f"n_trajectories must be >= 1, got {self.n_trajectories!r}")
        object.__setattr__(self, "n_trajectories", n)
        object.__setattr__(self, "seed", int(self.seed) & _MASK64)
        if self.chunk_size is not None:
            c = int(self.chunk_size)
            if c < 1 or c > n:
                raise ValueError(
                    f"chunk_size must be in [1, n_trajectories], got {self.chunk_size!r}"
                )
            if c > MAX_CHUNK_SIZE:
                raise ValueError(f"chunk_size must be <= {MAX_CHUNK_SIZE}, got {c}")
            object.__setattr__(self, "chunk_size", c)
        chunks = -(-n // self.resolved_chunk_size)
        if chunks > MAX_CHUNKS:
            raise ValueError(
                f"n_trajectories {n} at chunk_size {self.resolved_chunk_size} makes {chunks} "
                f"chunks, over the {MAX_CHUNKS}-chunk limit"
            )
        if self.path_dt is not None:
            dt = float(self.path_dt)
            if not math.isfinite(dt) or dt <= 0.0:
                raise ValueError(f"path_dt must be finite and > 0, got {self.path_dt!r}")
            object.__setattr__(self, "path_dt", dt)

    @property
    def resolved_chunk_size(self) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        return min(DEFAULT_CHUNK_SIZE, self.n_trajectories)


def chunk_sizes(cfg: McConfig) -> list[int]:
    """Trajectory counts per chunk, in chunk-index order."""
    c = cfg.resolved_chunk_size
    full, rest = divmod(cfg.n_trajectories, c)
    return [c] * full + ([rest] if rest else [])


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
    outermost scope exits.
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

    def stream(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.seed, counter=self.index << 128))

    def memo(self, stage: str, owner, t: float | None, compute) -> tuple:
        """compute(), a tuple of arrays that depends on this chunk, on owner (the
        model, or the law of draws no parameter scales) and on t (tau for a
        per-tau stage, None for a chunk's draws) only.
        Inside grid_memo() it is kept, read-only, in the slot of (seed, index,
        stage) while it fits the budget, and returned while owner (the same
        object), size and t's bits hold.
        """
        global _memo_bytes
        slots = _memo
        if slots is None:
            return compute()
        key = (self.seed, self.index, stage)
        tag = (self.size, None if t is None else struct.pack("<d", t))
        slot = slots.get(key)
        if slot is not None and slot[0] is owner and slot[1] == tag:
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
    pool of at most one worker per chunk.
    """
    chunks = [Chunk(cfg.seed, i, m) for i, m in enumerate(chunk_sizes(cfg))]
    if workers <= 1 or len(chunks) == 1:
        return [worker(chunk) for chunk in chunks]
    from concurrent.futures import ThreadPoolExecutor  # only parallel runs pay its import

    with ThreadPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
        return list(pool.map(worker, chunks))


def validate_times(t, tau) -> tuple[float, float]:
    """t and tau as floats, checked to be finite and >= 0."""
    t, tau = float(t), float(tau)
    if not (math.isfinite(t) and math.isfinite(tau)) or t < 0.0 or tau < 0.0:
        raise ValueError(f"t and tau must be finite and >= 0, got t={t!r}, tau={tau!r}")
    return t, tau


@dataclass(frozen=True, eq=False)  # array fields: no value equality
class MomentStats:
    """Count, column sums and centred second moments of per-trajectory columns.

    Columns 0-2 hold one trajectory's (f_t, f_tau, f_joint) (a coherence
    sampler draws column 0 alone).  Each chunk keeps its second moments about
    its own mean, and chunks merge pairwise (Chan, Golub and LeVeque), so
    nearly constant columns keep their small variances instead of cancelling
    them away.
    """

    n: int
    s: np.ndarray  # (dim,) column sums
    m2: np.ndarray  # (dim, dim) cross-products of deviations from the mean

    @classmethod
    def from_samples(cls, cols) -> MomentStats:
        """cols holds dim 1-D columns of n_samples.  The bits are those of the
        (n_samples, dim) stack's axis-0 sum, which adds rows in order to 0.0
        (pairwise for one column), and of d.T @ d."""
        n, dim = cols[0].size, len(cols)
        s, d = np.empty(dim), np.empty((dim, n))
        for j, c in enumerate(cols):
            s[j] = 0.0 + np.cumsum(c, out=d[j])[-1] if dim > 1 else c.sum()
            np.subtract(c, s[j] / n, out=d[j])
        return cls(n, s, d @ d.T)

    @classmethod
    def from_counts(cls, rows: np.ndarray, counts: np.ndarray) -> MomentStats:
        """from_samples of rows[k] (integers) repeated counts[k] times: exact column
        sums, and no (n_samples, dim) array."""
        n = int(counts.sum())
        s = counts @ rows
        d = rows - s / n
        return cls(n, s.astype(float), (d.T * counts) @ d)

    def merge(self, other: MomentStats) -> MomentStats:
        n = self.n + other.n
        delta = other.s / other.n - self.s / self.n
        m2 = self.m2 + other.m2 + np.outer(delta, delta) * (self.n * other.n / n)
        return MomentStats(n, self.s + other.s, m2)

    def mean(self) -> np.ndarray:
        return self.s / self.n

    def _cov_of_mean(self) -> np.ndarray:
        """Covariance matrix of the column means (sample cov / n)."""
        if self.n < 2:
            return np.zeros_like(self.m2)
        return self.m2 / (self.n - 1) / self.n

    def _delta(self, value: float, grad: list[float]) -> Estimate:
        """Estimate of a smooth function of the first len(grad) column means."""
        g = np.array(grad, dtype=float)
        k = g.size
        var = float(g @ self._cov_of_mean()[:k, :k] @ g)
        return Estimate(float(value), math.sqrt(max(var, 0.0)), self.n)

    def estimate(self, index: int) -> Estimate:
        """Mean of one column as an Estimate."""
        var = self._cov_of_mean()[index, index]
        return Estimate(float(self.mean()[index]), math.sqrt(var), self.n)

    def moments(self) -> tuple[Estimate, Estimate, Estimate]:
        """Estimates of (f_t, f_tau, f_joint)."""
        return self.estimate(0), self.estimate(1), self.estimate(2)

    def cpf(self) -> Estimate:
        """Plug-in C_pf = f_joint - f_t f_tau, delta-method error."""
        m = self.mean()
        return self._delta(m[2] - m[0] * m[1], [-m[1], -m[0], 1.0])

    def conditional_coherence(self, yx: int) -> Estimate:
        """(f_tau + yx f_joint) / (1 + yx f_t) of the means, delta-method error.

        Raises ZeroProbabilityPostselection when the estimated weight
        |1 + yx f_t| is at most ESTIMATED_POSTSELECTION_EPS.
        """
        m = self.mean()
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
