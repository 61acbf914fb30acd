"""Shared Monte Carlo plumbing: chunked counter-based streams and reductions.

Sampling is partitioned into fixed-size chunks.  Chunk i draws from an
independent Philox stream keyed by the run seed with the chunk index placed
in the high half of the 256-bit counter, so streams never overlap and any
chunk (hence any trajectory) is recomputable in isolation.  Chunk statistics
are merged in ascending chunk order, which makes every estimate bit-identical
for a given (seed, chunk_size, n) regardless of how many workers execute the
chunks.  Inside shared_draws() the points of a grid, which all draw the same
chunk streams, draw each chunk once and replay it.
"""

from __future__ import annotations

import contextlib
import functools
import math
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
# Bytes of recorded draws one shared_draws() scope holds at most; draws past
# the budget are made live at every point.
SHARED_DRAWS_MAX_BYTES = 16 << 20

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


def _chunk_generator(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=chunk_index << 128))


def chunk_stream(seed: int, chunk_index: int) -> np.random.Generator:
    """Independent generator for one chunk of one run.

    Inside shared_draws() it is a _ReplayStream that yields the same bits.
    """
    store = _store
    if store is None:
        return _chunk_generator(seed, chunk_index)
    return store.stream(seed, chunk_index)


# One recorded draw: (method, size, array, bit generator state after the call).
_Entry = tuple[str, object, np.ndarray, dict]


class _DrawStore:
    """The records of one shared_draws() scope: the draws of each (seed, chunk)
    in call order.  Chunks run on pool threads, so the records and the byte
    count change under the lock."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.records: dict[tuple[int, int], list[_Entry]] = {}
        self.nbytes = 0

    def stream(self, seed: int, chunk_index: int) -> _ReplayStream:
        key = (seed, chunk_index)
        with self.lock:
            record = self.records.get(key)
            if record is None:
                record = self.records[key] = []
                return _ReplayStream(self, key, record, recording=True)
        return _ReplayStream(self, key, record, recording=False)

    def keep(self, record: list[_Entry], method: str, size, out: np.ndarray,
             live: np.random.Generator) -> bool:
        """Append a draw to record if it fits the byte budget; True if kept."""
        with self.lock:
            if self.nbytes + out.nbytes > SHARED_DRAWS_MAX_BYTES:
                return False
            self.nbytes += out.nbytes
            record.append((method, size, out, live.bit_generator.state))
        return True


class _ReplayStream:
    """A chunk's stream inside shared_draws().

    The first stream of a (seed, chunk) draws live from Philox and records its
    calls until one would pass the byte budget.  A later one returns a fresh
    copy of each recorded array while its calls match the record position by
    position; from the first call that differs, or past the end of the record,
    it draws live from a Philox stream set to the state after the matched
    prefix.  Every array is therefore bit-equal to the one chunk_stream's
    Generator would return.
    """

    def __init__(self, store: _DrawStore, key: tuple[int, int], record: list[_Entry],
                 recording: bool) -> None:
        self.store, self.key, self.record, self.recording = store, key, record, recording
        self.live = _chunk_generator(*key) if recording else None
        self.pos = 0

    def random(self, size) -> np.ndarray:
        return self._draw("random", size)

    def standard_normal(self, size) -> np.ndarray:
        return self._draw("standard_normal", size)

    def _draw(self, method: str, size) -> np.ndarray:
        if self.live is None:
            record = self.record
            if self.pos < len(record) and record[self.pos][:2] == (method, size):
                self.pos += 1
                return record[self.pos - 1][2].copy()
            self.live = _chunk_generator(*self.key)
            if self.pos:
                self.live.bit_generator.state = record[self.pos - 1][3]
        out = getattr(self.live, method)(size)
        if self.recording:
            self.recording = self.store.keep(self.record, method, size, out, self.live)
            if self.recording:
                # a copy, as the caller may write into it (_ensemble_cols does);
                # the record keeps the generator's array, allocated before the
                # caller's temporaries: keeping the copy held ~4 MB more RSS
                return out.copy()
        return out


_store: _DrawStore | None = None  # the open shared_draws() scope's records
_depth = 0
_scope_lock = threading.Lock()


@contextlib.contextmanager
def shared_draws():
    """Scope in which each chunk stream is drawn once and replayed after.

    While it is open, chunk_stream(seed, i) records the first call sequence
    made on it and replays it to every later stream of (seed, i), so points of
    one grid share their common random numbers without redrawing them.  The
    bits do not change.  Records hold at most SHARED_DRAWS_MAX_BYTES; they are
    dropped when the outermost scope exits.
    """
    global _store, _depth
    with _scope_lock:
        if _depth == 0:
            _store = _DrawStore()
        _depth += 1
    try:
        yield
    finally:
        with _scope_lock:
            _depth -= 1
            if _depth == 0:
                _store = None


def map_chunks(worker, cfg: McConfig, workers: int = 1) -> list:
    """Run worker(chunk_index, chunk_n) for every chunk, results in order.

    A run of one chunk, or at one worker, runs inline; otherwise a thread
    pool of at most one worker per chunk.
    """
    sizes = chunk_sizes(cfg)
    if workers <= 1 or len(sizes) == 1:
        return [worker(i, m) for i, m in enumerate(sizes)]
    from concurrent.futures import ThreadPoolExecutor  # only parallel runs pay its import

    with ThreadPoolExecutor(max_workers=min(workers, len(sizes))) as pool:
        return list(pool.map(worker, range(len(sizes)), sizes))


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
    def from_samples(cls, cols: np.ndarray) -> MomentStats:
        """cols has shape (n_samples, dim)."""
        n = cols.shape[0]
        s = cols.sum(axis=0)
        d = cols - s / n
        return cls(n, s, d.T @ d)

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

    sample_cols(rng, m) must return an (m, dim) array drawn from rng.
    """

    def worker(i: int, m: int) -> MomentStats:
        return MomentStats.from_samples(sample_cols(chunk_stream(cfg.seed, i), m))

    return functools.reduce(MomentStats.merge, map_chunks(worker, cfg, workers))
