"""Spans recorded from outside cpfsim, around calls into its public functions.

``Tracer.install()`` replaces each traced function with a wrapper in every
cpfsim module namespace that binds it (``stochastic`` imports ``map_chunks``
from ``_mc`` by name, so both bindings must be replaced), and ``restore()``
puts the original objects back.  A wrapper opens a span only when the call
crosses into another layer; calls inside the layer that is already open pass
straight through, so a layer's call count is the number of times other code
called into it.

Spans are kept in memory as ``Span`` records, tagged with the job that
caused them, and reduced to per-layer metrics by ``summarize``.  A span's self time is its duration minus the durations of
its child spans on the same thread.  Chunk workers of ``_mc.map_chunks`` are
wrapped as spans of their own; on a pool thread they have no parent.
"""

from __future__ import annotations

import inspect
import itertools
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

SPINBATH_ORACLE = ("oracle_protocol", "oracle_conditional_coherence")
SPINBATH_ENSEMBLE = (
    "lorentz_mc_coherence",
    "lorentz_mc_moments",
    "lorentz_mc_cpf",
    "lorentz_mc_cpf_per_realization",
    "lorentz_mc_conditional_coherence",
)
CLI_LAYERS = {
    "main": "cli.main",
    "load_config": "cli.parse",
    "parse_config": "cli.parse",
    "evaluate_rows": "cli.evaluate",
    "write_csv": "cli.write_csv",
    "write_manifest": "cli.write_manifest",
}


def layer_of(module: str, name: str) -> str | None:
    """Layer that a public function of a cpfsim module belongs to."""
    if module == "cli":
        return CLI_LAYERS.get(name)
    if module == "spinbath":
        if name in SPINBATH_ORACLE:
            return "spinbath.oracle"
        return "spinbath.ensemble" if name in SPINBATH_ENSEMBLE else "spinbath.closed"
    if module == "_mc":
        return "mc" if name == "map_chunks" else None
    if module in ("analytic", "core", "stochastic"):
        return module
    return None


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    job: str
    thread: int
    func: str
    layer: str
    start: float
    end: float
    work: int = 0  # trajectories, amplitudes, rows or chunks, by function
    extra: int = 0  # CSV bytes for write_csv, workers for map_chunks
    wait: float = 0.0  # map_chunks only: wall time beyond its chunks' parallel share


class Tracer:
    def __init__(self, modules: dict):
        """modules maps a short module name ("cli", "analytic", ...) to the module."""
        self.modules = modules
        self.spans: list[Span] = []
        self.job = ""
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    def targets(self) -> dict[object, tuple[str, str]]:
        """function object -> (qualified name, layer) for every traced function."""
        out = {}
        for short, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") and name != "map_chunks":
                    continue
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                layer = layer_of(short, name)
                if layer is not None:
                    out[obj] = (f"{short}.{name}", layer)
        return out

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {fn: self._wrap(fn, *info) for fn, info in self.targets().items()}
        for mod in self.modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def restore(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span_id, parent, func, layer, start, end, work=0, extra=0, wait=0.0):
        # list.append is atomic, so pool threads may record concurrently
        self.spans.append(Span(span_id, parent, self.job, threading.get_ident(),
                               func, layer, start, end, work, extra, wait))

    def _wrap(self, fn, qualname: str, layer: str):
        signature = inspect.signature(fn)
        if layer == "mc":
            return self._wrap_map(fn, qualname, signature)
        count = _WORK_COUNTERS.get(qualname)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else None
            stack.append((span_id, layer))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            work, extra = count(signature.bind(*args, **kwargs).arguments) if count else (0, 0)
            tracer._record(span_id, parent, qualname, layer, start, end, work, extra)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_map(self, fn, qualname: str, signature):
        tracer = self

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            worker, workers = bound.arguments["worker"], int(bound.arguments["workers"])
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else None
            chunk_busy = []

            def timed_worker(*wargs):
                wstack = tracer._stack()
                wparent = span_id if wstack and wstack[-1][0] == span_id else None
                cid = next(tracer._ids)
                wstack.append((cid, "mc.chunk"))
                t0 = time.perf_counter()
                try:
                    return worker(*wargs)
                finally:
                    t1 = time.perf_counter()
                    wstack.pop()
                    chunk_busy.append(t1 - t0)
                    tracer._record(cid, wparent, "_mc.chunk", "mc.chunk", t0, t1)

            bound.arguments["worker"] = timed_worker
            stack.append((span_id, "mc"))
            start = time.perf_counter()
            try:
                result = fn(*bound.args, **bound.kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            share = sum(chunk_busy) / max(min(workers, len(chunk_busy)), 1)
            tracer._record(span_id, parent, qualname, "mc", start, end,
                           len(chunk_busy), workers, (end - start) - share)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def _trajectories(args) -> tuple[int, int]:
    return int(args["cfg"].n_trajectories), 0


def _amplitudes(args) -> tuple[int, int]:
    return 1 << int(args["spec"].n_spins), 0


def _csv(args) -> tuple[int, int]:
    return len(args["rows"]), os.path.getsize(args["path"])


_WORK_COUNTERS = {
    "cli.write_csv": _csv,
    "spinbath.oracle_protocol": _amplitudes,
    "spinbath.oracle_conditional_coherence": _amplitudes,
    **{f"spinbath.{name}": _trajectories for name in SPINBATH_ENSEMBLE},
    **{f"stochastic.{name}": _trajectories for name in (
        "mc_moments", "mc_cpf_semianalytic", "mc_cpf_sampling",
        "mc_conditional_coherence", "ou_path_reference")},
}

SELF_LAYERS = ("cli.main", "cli.parse", "cli.evaluate", "cli.write_csv", "cli.write_manifest",
               "analytic", "core", "spinbath.closed", "spinbath.oracle", "spinbath.ensemble",
               "stochastic", "mc")


def self_times(spans: list[Span]) -> dict[int, float]:
    """span_id -> duration minus the durations of its same-thread children."""
    own = {s.span_id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent_id in own:
            own[s.parent_id] -= s.end - s.start
    return own


def summarize(spans: list[Span], passes: int, main_thread: int) -> dict[str, float]:
    """Per-layer metrics per pass from the spans of ``passes`` traced passes.

    Calls, busy (inclusive) time and work count every thread.  Self times
    count the main thread only, where they add up to the root spans' time;
    chunk spans run inline there at one worker and count towards ``mc``.
    """
    selfs = self_times(spans)
    by_id = {s.span_id: s for s in spans}
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    work: dict[str, int] = defaultdict(int)
    csv_bytes = pool_starts = 0
    chunk_busy = map_capacity = chunk_wait = sampling_post = 0.0
    for s in spans:
        dur = s.end - s.start
        calls[s.layer] += 1
        busy[s.layer] += dur
        work[s.layer] += s.work
        if s.thread == main_thread:
            self_s["mc" if s.layer == "mc.chunk" else s.layer] += selfs[s.span_id]
        if s.layer == "mc.chunk":
            chunk_busy += dur
        elif s.layer == "mc":
            pool_starts += s.extra > 1
            map_capacity += s.extra * dur
            chunk_wait += s.wait
            parent = by_id.get(s.parent_id)
            if parent is not None and parent.func == "stochastic.mc_cpf_sampling":
                sampling_post -= dur
        elif s.func == "stochastic.mc_cpf_sampling":
            sampling_post += dur
        elif s.func == "cli.write_csv":
            csv_bytes += s.extra

    def rate(n, t):
        return n / t if t > 0 else 0.0

    k = float(max(passes, 1))
    out = {
        "cli.parse_s": self_s["cli.parse"] / k,
        "cli.evaluate_s": self_s["cli.evaluate"] / k,
        "cli.write_csv_s": self_s["cli.write_csv"] / k,
        "cli.write_manifest_s": self_s["cli.write_manifest"] / k,
        "cli.main_other_s": self_s["cli.main"] / k,
        "cli.rows": work["cli.write_csv"] / k,
        "cli.csv_bytes": csv_bytes / k,
        "analytic.calls": calls["analytic"] / k,
        "analytic.busy_s": busy["analytic"] / k,
        "core.calls": calls["core"] / k,
        "core.busy_s": busy["core"] / k,
        "spinbath.closed_calls": calls["spinbath.closed"] / k,
        "spinbath.closed_busy_s": busy["spinbath.closed"] / k,
        "spinbath.oracle_calls": calls["spinbath.oracle"] / k,
        "spinbath.oracle_busy_s": busy["spinbath.oracle"] / k,
        "spinbath.oracle_amplitudes": work["spinbath.oracle"] / k,
        "spinbath.ensemble_trajectories": work["spinbath.ensemble"] / k,
        "spinbath.ensemble_busy_s": busy["spinbath.ensemble"] / k,
        "spinbath.ensemble_traj_per_s": rate(work["spinbath.ensemble"], busy["spinbath.ensemble"]),
        "stochastic.trajectories": work["stochastic"] / k,
        "stochastic.busy_s": busy["stochastic"] / k,
        "stochastic.traj_per_s": rate(work["stochastic"], busy["stochastic"]),
        "stochastic.sampling_post_s": sampling_post / k,
        "mc.map_calls": calls["mc"] / k,
        "mc.pool_starts": pool_starts / k,
        "mc.chunks": calls["mc.chunk"] / k,
        "mc.chunk_busy_s": chunk_busy / k,
        "mc.chunk_wait_s": chunk_wait / k,
        "mc.occupancy": rate(chunk_busy, map_capacity),
    }
    for layer in SELF_LAYERS[5:]:
        out[f"self.{layer}_s"] = self_s[layer] / k
    out["trace.self_sum_s"] = sum(self_s[layer] for layer in SELF_LAYERS) / k
    return out
