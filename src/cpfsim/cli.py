"""Config-driven command line front end.

Subcommands:
  run       evaluate one experiment config, write CSV + JSON manifest
  compare   evaluate two configs on a shared grid and check agreement
  sweep     expand a parameter sweep into one run per leg
  selftest  execute the acceptance criteria

Configs are JSON documents (see README for the schema).  Every run writes a
manifest next to the CSV that echoes the fully resolved config; feeding the
manifest back to `run` reproduces the CSV bit for bit.

Exit codes: 0 success, 1 I/O failure, 2 bad config (a file that is not UTF-8
JSON too, or an output path that is the config file, a directory or no file
name at all), bad command-line value (e.g. --threads 0, a negative or
non-finite --sigma-tol/--abs-tol, an unknown --criteria number) or grid
mismatch, 3 runtime model error (impossible postselection, bath too large, a
result that is not finite, ...), 5 `compare` beyond tolerance; `selftest`
exits 1 when a criterion fails.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import errno
import inspect
import itertools
import json
import math
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from functools import cache, partial
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from . import analytic, core, spinbath, stochastic
from ._mc import McConfig, MomentStats, check_count, grid_memo, numeric, shown
from .errors import ConfigError, CpfError, GridMismatch, NonFiniteResult

CSV_HEADER = ("t", "tau", "value", "std_error", "n_samples", "quantity", "model", "method")

METHODS = ("analytic", "montecarlo", "sampling", "oracle")

_TABLE_LABELS = (
    ((+1, +1), "p_z+_x+"),
    ((+1, -1), "p_z+_x-"),
    ((-1, +1), "p_z-_x+"),
    ((-1, -1), "p_z-_x-"),
)


# Most evaluation points of one grid, or of a cpf_surface: a 1024 x 1024 surface.
_MAX_POINTS = 2**20


@dataclass(frozen=True)
class GridSpec:
    """count evenly spaced times from start to stop, both included."""

    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        start, stop = _real(self.start), _real(self.stop)
        if not 0.0 <= start < math.inf:
            raise ValueError(f"start must be finite and >= 0, got {shown(self.start)}")
        if not start <= stop < math.inf:
            raise ValueError(f"stop must be finite and >= start, got {shown(self.stop)}")
        count = check_count(self.count, "count", least=None)
        if count < 1:
            raise ValueError(f"count must be > 0, got {shown(self.count)}")
        if count > 1 and stop == start:
            raise ValueError("count must be 1 when start == stop")
        if count > _MAX_POINTS:
            raise ValueError(f"count must be <= {_MAX_POINTS}, got {shown(self.count)}")
        object.__setattr__(self, "count", count)

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass
class ExperimentConfig:
    model_kind: str
    model: Any
    quantity: str
    method: str
    t_grid: GridSpec
    tau_grid: GridSpec | None
    yx: int
    y_select: int
    mc: McConfig | None
    system_init: spinbath.SystemInit
    output_path: str
    canonical: dict


_Source = core.MomentSet | core.CpfProbabilityTable  # a point's moments, or the oracle's table


def _of_moments(read: Callable[[ExperimentConfig, core.MomentSet], list[np.ndarray]]):
    """read, a reader of a point's moments, as a reader of the moments or of the
    oracle's table."""
    return lambda config, source: read(config, source.moment_set() if isinstance(
        source, core.CpfProbabilityTable) else source)


def _table(config: ExperimentConfig, source: _Source) -> list[np.ndarray]:
    if isinstance(source, core.MomentSet):
        source = core.cpf_probability_table(source, config.y_select)
    return [source.entries[key] for key, _ in _TABLE_LABELS]


_cpf = _of_moments(lambda config, m: [core.cpf_from_moments(m)])


def _mc_cpf(config: ExperimentConfig, stats: MomentStats) -> list[core.Estimate]:
    return [stats.cpf()]


class _Quantity(NamedTuple):
    """One quantity: its row labels, its reader into one array per label, and its
    reader of a Monte Carlo point's MomentStats into one Estimate per label (None:
    no Monte Carlo estimate).  A t-only quantity has no array reader: its family
    computes it from t alone, and its MomentStats hold the f(t) column alone."""

    labels: tuple[str, ...]
    read: Callable[[ExperimentConfig, _Source], list[np.ndarray]] | None = None
    estimates: Callable[[ExperimentConfig, MomentStats], list[core.Estimate]] | None = None


QUANTITIES: dict[str, _Quantity] = {
    "coherence": _Quantity(("coherence",), None, lambda config, stats: [stats.estimate(0)]),
    "conditional_coherence": _Quantity(("conditional_coherence",), _of_moments(
        lambda config, m: [core.conditional_coherence(m, config.yx)]),
        lambda config, stats: [stats.conditional_coherence(config.yx)]),
    "cpf": _Quantity(("cpf",), _cpf, _mc_cpf),
    "cpf_surface": _Quantity(("cpf_surface",), _cpf, _mc_cpf),
    "moments": _Quantity(("f_t", "f_tau", "f_joint"), _of_moments(
        lambda config, m: [m.f_t, m.f_tau, m.f_joint]), lambda config, stats: [*stats.moments()]),
    "rate": _Quantity(("rate",)),
    "probability_table": _Quantity(tuple(label for _, label in _TABLE_LABELS), _table),
}
_T_ONLY = tuple(q for q, entry in QUANTITIES.items() if entry.read is None)


@dataclass(frozen=True)
class RowKeys:
    """The (t, tau, label) keys of a config's CSV rows, known before evaluation.

    CSV row ``k * len(labels) + j`` is point ``k`` under label ``j``.  Point k is
    (t[k], tau[k]), or on a surface (t[k // tau.size], tau[k % tau.size]): a
    surface keeps its two axes, t-major, and no per-point copy of them.
    """

    t: np.ndarray  # (points,), or a surface's t axis
    tau: np.ndarray | None  # (points,), or a surface's tau axis; None for t-only quantities
    labels: tuple[str, ...]
    surface: bool = field(default=False, kw_only=True)

    @property
    def points(self) -> int:
        return self.t.size * self.tau.size if self.surface else self.t.size

    def __len__(self) -> int:
        """Number of CSV rows."""
        return self.points * len(self.labels)

    def axis_indices(self, points):
        """(index into t, index into tau) of point numbers (an int or an array)."""
        return divmod(points, self.tau.size) if self.surface else (points, points)

    def point_times(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(t, tau) of every point; a surface's are built here, for per-point consumers."""
        if not self.surface:
            return self.t, self.tau
        return np.repeat(self.t, self.tau.size), np.tile(self.tau, self.t.size)

    def key(self, row: int) -> tuple[float, float | None, str]:
        """(t, tau, label) of one CSV row."""
        point, j = divmod(row, len(self.labels))
        i, k = self.axis_indices(point)
        tau = None if self.tau is None else float(self.tau[k])
        return float(self.t[i]), tau, self.labels[j]


@dataclass(frozen=True)
class Results(RowKeys):
    """The long-format result rows of one config, held as columns."""

    value: np.ndarray  # (points, labels)
    std_error: np.ndarray | None  # (points, labels); None unless Monte Carlo
    n_samples: np.ndarray | None  # (points, labels); None unless Monte Carlo
    model: str
    method: str


@dataclass(frozen=True)
class _Family:
    """How one family of model kinds is evaluated.

    A family declares what it computes, and methods() derives from that which
    methods serve a quantity: analytic all but a rate the family lacks,
    montecarlo those with a MomentStats reader on a family with mc, sampling
    the CPF on a family with sampling, and oracle the CPF and the table on a
    family with the oracle.  The functions are looked up on their modules at
    call time, so wrappers installed on those modules see every call.
    """

    # (model, t, tau) -> core.MomentSet over broadcast arrays of times
    moments: Callable[[Any, np.ndarray, np.ndarray], core.MomentSet]
    # (model, t) -> real coherence f(t) over an array of times
    coherence: Callable[[Any, np.ndarray], np.ndarray]
    # (config, t, tau, workers) -> the point's MomentStats (tau None: f(t) alone)
    mc: Callable[[ExperimentConfig, float, float | None, int], MomentStats] | None = None
    # whether the sampling method estimates the CPF (stochastic.mc_cpf_sampling)
    sampling: bool = False
    # (model, t) -> dephasing rate over an array of times
    rate: Callable[[Any, np.ndarray], np.ndarray] | None = None
    # whether the statevector oracle replays the protocol on these models
    oracle: bool = False

    def methods(self, quantity: str) -> tuple[str, ...]:
        """The methods that serve quantity, in METHODS order."""
        key = "cpf" if quantity == "cpf_surface" else quantity
        return tuple(method for method, serves in zip(METHODS, (
            key != "rate" or self.rate is not None,
            self.mc is not None and QUANTITIES[quantity].estimates is not None,
            key == "cpf" and self.sampling,
            self.oracle and key in ("cpf", "probability_table"),
        )) if serves)


_NOISE = _Family(
    moments=lambda model, t, tau: analytic.moment_set(model, t, tau),
    coherence=lambda model, t: analytic.first_moment(model, t),
    mc=lambda c, t, tau, w: stochastic.mc_moments(c.model, t, tau, c.mc, w),
    sampling=True,
    rate=lambda model, t: analytic.dephasing_rate(model, t),
)

_BATH = _Family(
    moments=lambda spec, t, tau: spinbath.moment_set(spec, t, tau),
    coherence=lambda spec, t: spinbath.coherence(spec, t).real,
    oracle=True,
)

_ENSEMBLE = _Family(
    moments=lambda spec, t, tau: spinbath.lorentz_moment_set(spec, t, tau),
    coherence=lambda spec, t: spinbath.lorentz_coherence(spec, t).real,
    mc=lambda c, t, tau, w: spinbath.lorentz_mc_moments(c.model, t, tau, c.mc, w),
)

# ---------------------------------------------------------------------------
# config parsing

_REQUIRED = inspect.Parameter.empty  # the default of a field that must be given

# (name, parser, default): parser(value, path) returns the parsed value or
# raises ConfigError, and a default goes through the same parser
_Field = tuple[str, Callable[[Any, str], Any], Any]


def _expect_mapping(doc: Any, path: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'config'}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _section(doc: Any, path: str, fields: tuple[_Field, ...]) -> dict[str, Any]:
    """Parse the fields of the section at path ("" for the top level), in table order.

    Returns field name -> parsed value; any field not in the table is rejected.
    """
    doc = dict(_expect_mapping(doc, path))
    prefix = f"{path}." if path else ""
    values = {}
    for name, parse, default in fields:
        if name not in doc and default is _REQUIRED:
            raise ConfigError(f"{prefix}{name}: required field is missing")
        values[name] = parse(doc.pop(name, default), prefix + name)
    if doc:
        raise ConfigError(f"{prefix}{sorted(doc)[0]}: unknown field")
    return values


def _construct(build: Callable[..., Any], fields: dict[str, Any], path: str) -> Any:
    """build(**fields), its ValueError reported as a ConfigError of the section at path."""
    try:
        return build(**fields)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _real(value: Any) -> float:
    """float(value), with an integer beyond the float range as +-inf and a value
    that is not a number (text, a bool, None, a list) as nan."""
    try:
        return float(numeric(value))
    except OverflowError:
        return math.inf if value > 0 else -math.inf
    except (TypeError, ValueError):
        return math.nan


# A field's JSON type is checked here and its range by its section's constructor.

def _float(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return _real(value)


def _int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _outcome(value: Any, path: str) -> int:
    if type(value) is not int or value not in (1, -1):  # not True, not 1.0
        raise ConfigError(f"{path}: expected +1 or -1, got {value!r}")
    return value


def _complex(value: Any, path: str) -> complex:
    """A number x or an [re, im] pair; finiteness is left to the model's constructor."""
    parts = value if isinstance(value, list) and len(value) == 2 else [value, 0.0]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in parts):
        raise ConfigError(f"{path}: expected a number or [re, im] pair, got {value!r}")
    return complex(_real(parts[0]), _real(parts[1]))


def _output_path(value: Any, path: str) -> str:
    """A CSV path: a non-empty string that can name a file (no NUL, a character
    the file system can encode, a name that with its manifest's suffix is not too
    long) and names no directory (".", "/", "..", an existing one)."""
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{path}: expected a non-empty string, got {value!r}")
    if "\0" in value:
        raise ConfigError(f"{path}: {value!r} cannot name a file: it holds a NUL character")
    try:
        os.fsencode(value)
    except UnicodeEncodeError as exc:
        raise ConfigError(f"{path}: {value!r} cannot name a file: {exc.reason}") from exc
    try:
        if Path(value).name in ("", "..") or Path(value).is_dir():
            raise ConfigError(f"{path}: {value!r} is a directory, not a CSV file name")
        _check_name_lengths(_manifest_path(Path(value)))  # the longer of the two names
    except OSError as exc:
        if exc.errno != errno.ENAMETOOLONG:
            raise
        raise ConfigError(f"{path}: {value!r} cannot name a file: {exc.strerror}") from exc
    return value


def _check_name_lengths(target: Path) -> None:
    """Raise ENAMETOOLONG if a name of target's path does not fit its file system.
    A lookup stops at the first missing directory, so the names below the deepest
    existing one are measured against that directory's limit."""
    base = target.parent
    while not base.exists() and base != base.parent:
        base = base.parent
    try:
        limit = os.pathconf(base, "PC_NAME_MAX")
    except OSError:  # no limit to read; the lookup below is the only check
        limit = 0
    for name in target.parts[len(base.parts):]:
        if 0 < limit < len(os.fsencode(name)):
            raise OSError(errno.ENAMETOOLONG, os.strerror(errno.ENAMETOOLONG), str(target))
    target.exists()  # and the whole path against the system's limit


def _optional(parse: Callable[[Any, str], Any]) -> Callable[[Any, str], Any]:
    """parse, with None (an absent or null field) passed through."""
    return lambda value, path: None if value is None else parse(value, path)


def _list(parse: Callable[[Any, str], Any]) -> Callable[[Any, str], list]:
    """A parser of a non-empty list whose elements parse, element i at path[i]."""
    def parse_list(value: Any, path: str) -> list:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path}: expected a non-empty list")
        return [parse(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return parse_list


def _choice(value: Any, path: str, options: tuple[str, ...]) -> str:
    if value not in options:
        raise ConfigError(f"{path}: unknown {path} {value!r}; expected one of {options}")
    return value


# A constructor parameter's parser, by its annotation: every module that defines a
# constructor uses `from __future__ import annotations`, so annotations are strings.
_PARSERS: dict[str, Callable[[Any, str], Any]] = {
    "float": _float, "int": _int, "complex": _complex,
    "int | None": _optional(_int), "float | None": _optional(_float),
    "list[float]": _list(_float), "list[complex] | None": _optional(_list(_complex))}


def _fields(build: Callable[..., Any]) -> tuple[_Field, ...]:
    """The section fields of build's parameters: names, parsers and defaults, in order."""
    return tuple((p.name, _PARSERS[p.annotation], p.default)
                 for p in inspect.signature(build).parameters.values())


def _object(build: Callable[..., Any]) -> Callable[[Any, str], Any]:
    """Parser of a section into build(**its fields), which build's signature names."""
    fields = _fields(build)
    return lambda doc, path: _construct(build, _section(doc, path, fields), path)


@dataclass(frozen=True)
class _Kind:
    """One model kind: how it is evaluated, built and read from a config."""

    family: _Family
    # parsed fields as keywords -> model object; functions go through a lambda, as in _Family
    build: Callable[..., Any]
    fields: tuple[_Field, ...]


MODEL_KINDS: dict[str, _Kind] = {
    "white": _Kind(_NOISE, analytic.White, _fields(analytic.White)),
    "exp_corr_gauss": _Kind(_NOISE, analytic.ExpCorrGauss, _fields(analytic.ExpCorrGauss)),
    "static_gauss": _Kind(_NOISE, analytic.StaticGauss, _fields(analytic.StaticGauss)),
    "static_lorentz": _Kind(_NOISE, analytic.StaticLorentz, _fields(analytic.StaticLorentz)),
    "spin_bath": _Kind(_BATH, spinbath.SpinBathSpec, _fields(spinbath.SpinBathSpec)),
    "scaled_spin_bath": _Kind(_BATH, lambda **f: spinbath.scaled_gaussian_bath(**f),
                              _fields(spinbath.scaled_gaussian_bath)),
    "lorentz_coupling": _Kind(_ENSEMBLE, spinbath.LorentzCouplingSpec,
                              _fields(spinbath.LorentzCouplingSpec)),
}


def _parse_model(doc: Any, path: str) -> tuple[str, Any, dict[str, Any]]:
    """(kind, model object, the kind and its parsed fields) of the model section."""
    doc = dict(_expect_mapping(doc, path))
    if "kind" not in doc:
        raise ConfigError(f"{path}.kind: required field is missing")
    kind = doc.pop("kind")
    entry = MODEL_KINDS.get(kind) if isinstance(kind, str) else None
    if entry is None:
        raise ConfigError(f"{path}.kind: unknown model kind {kind!r}")
    fields = _section(doc, path, entry.fields)
    model = _construct(entry.build, fields, path)
    # a field left at None echoes what the model made of it (spin_bath's amplitudes)
    echo = {name: getattr(model, name) if v is None else v for name, v in fields.items()}
    return kind, model, {"kind": kind, **echo}


# Most work of one run, 2^_MAX_WORK_BITS: points x trajectories (x spins for the Cauchy
# ensemble), or points x 2^N amplitudes for the oracle.  2^42 is about 30 hours at 4.1e7
# trajectories a second; README, "Work budget", says how it was chosen.
_MAX_WORK_BITS = 42


_CONFIG_FIELDS: tuple[_Field, ...] = (
    ("model", _parse_model, _REQUIRED),
    ("quantity", partial(_choice, options=tuple(QUANTITIES)), _REQUIRED),
    ("method", partial(_choice, options=METHODS), _REQUIRED),
    ("t_grid", _object(GridSpec), _REQUIRED),
    ("tau_grid", _optional(_object(GridSpec)), None),
    ("yx", _outcome, 1),
    ("y_select", _outcome, 1),
    ("mc", _optional(_object(McConfig)), None),  # chunk size pinned for the echo
    ("system_init", _optional(_object(spinbath.SystemInit)), None),
    ("output_path", _output_path, "cpfsim_out.csv"),
)


def _echo(value: Any) -> Any:
    """The JSON form of a parsed value: dataclasses as objects without their
    None fields, arrays as lists, complex numbers as x or [re, im]."""
    if is_dataclass(value):
        value = asdict(value)
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        return {key: _echo(v) for key, v in value.items() if v is not None}
    if isinstance(value, list):
        return [_echo(v) for v in value]
    if isinstance(value, complex):
        return value.real if value.imag == 0.0 else [value.real, value.imag]
    return value


def parse_config(doc: Any) -> ExperimentConfig:
    """Validate a raw JSON document into an ExperimentConfig.

    Accepts a previously written run manifest as well, in which case the
    embedded resolved config is used (that is what makes manifests
    re-executable).
    """
    doc = dict(_expect_mapping(doc, ""))
    if doc.get("kind") == "cpfsim-run-manifest":
        doc = dict(_expect_mapping(doc.get("config"), "config"))
    doc.pop("sweep", None)  # sweep section is consumed by the sweep subcommand
    values = _section(doc, "", _CONFIG_FIELDS)
    kind, model, model_fields = values["model"]
    quantity, method = values["quantity"], values["method"]
    t_grid, tau_grid, mc = values["t_grid"], values["tau_grid"], values["mc"]

    allowed = MODEL_KINDS[kind].family.methods(quantity)
    if method not in allowed:
        raise ConfigError(
            f"method: {method!r} does not support quantity {quantity!r} for model "
            f"kind {kind!r} (allowed: {', '.join(allowed) or 'none'})"
        )
    if tau_grid is not None and quantity in _T_ONLY:
        raise ConfigError(f"tau_grid: not used by t-only quantity {quantity!r}")
    if tau_grid is not None and quantity != "cpf_surface" and tau_grid.count != t_grid.count:
        raise ConfigError(
            f"tau_grid.count: must equal t_grid.count ({t_grid.count}) for pointwise "
            f"quantity {quantity!r}, got {tau_grid.count}"
        )
    tau_stop = (tau_grid or t_grid).stop
    # the closed forms take f at t + tau, and the last sum must not overflow
    if method == "analytic" and quantity not in _T_ONLY and math.isinf(t_grid.stop + tau_stop):
        raise ConfigError(f"t_grid.stop, tau_grid.stop: the last t + tau, {t_grid.stop!r} + "
                          f"{tau_stop!r}, is not finite")
    if kind == "exp_corr_gauss":  # the closed forms' scale, or the samplers' last variances
        g, tc, t_max = model.g, model.tau_c, max(t_grid.stop, tau_stop)
        if not all(map(math.isfinite, (4.0 * (tc * g * (tc * g)),) if method == "analytic" else
                       analytic.phase_covariance(model, t_max, t_max))):
            raise ConfigError(f"model.g, model.tau_c: g = {g!r}, tau_c = {tc!r} overflow the phase"
                              f" variance by time {t_max!r}; tau_c -> inf is kind 'static_gauss'")
    n_tau = (tau_grid or t_grid).count if quantity == "cpf_surface" else 1
    points = t_grid.count * n_tau  # over the limit only on a surface: each grid is within it
    if points > _MAX_POINTS:
        raise ConfigError(f"quantity: {quantity} of {t_grid.count} x {n_tau} points is over the "
                          f"{_MAX_POINTS}-point limit")
    if method in ("montecarlo", "sampling") and mc is None:
        raise ConfigError(f"mc: required for method {method!r}")
    if method not in ("montecarlo", "sampling") and mc is not None:
        raise ConfigError(f"mc: not used by deterministic method {method!r}")
    if values["system_init"] is not None and method != "oracle":
        raise ConfigError("system_init: only used by the oracle method")
    field, each = (("mc.n_trajectories", mc.n_trajectories * getattr(model, "n_spins", 1)) if mc
                   else ("model", 2**model.n_spins) if method == "oracle" else ("", 1))
    if points * each > 1 << _MAX_WORK_BITS:
        raise ConfigError(f"{field}: {points} points x 2^{math.log2(each):.1f} each is "
                          f"2^{math.log2(points * each):.1f} of work, "
                          f"over the 2^{_MAX_WORK_BITS} budget")

    canonical = _echo({**values, "model": model_fields})
    values.update(model=model, system_init=values["system_init"] or spinbath.SystemInit.plus())
    return ExperimentConfig(model_kind=kind, canonical=canonical, **values)


def _read_json(path: str | Path) -> Any:
    """The JSON document in the file at path; a ConfigError unless it is UTF-8 JSON."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, nested too deep, huge integer
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def _write_json(path: Path, doc: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config(_read_json(path))


# ---------------------------------------------------------------------------
# evaluation

def _row_keys(config: ExperimentConfig) -> RowKeys:
    """The (t, tau) points of a config in row order, a surface as its two axes, and
    the row labels."""
    labels = QUANTITIES[config.quantity].labels
    t = config.t_grid.values()
    if config.quantity in _T_ONLY:
        return RowKeys(t, None, labels)
    if config.quantity == "cpf_surface":
        return RowKeys(t, (config.tau_grid or config.t_grid).values(), labels, surface=True)
    return RowKeys(t, t if config.tau_grid is None else config.tau_grid.values(), labels)


def _deterministic_columns(
    config: ExperimentConfig, family: _Family, keys: RowKeys
) -> list[np.ndarray]:
    """Closed-form or oracle values at every point, one array per row label: on a
    surface over (t axis, tau axis), broadcastable to that shape."""
    t, tau, read = keys.t, keys.tau, QUANTITIES[config.quantity].read
    if read is None:  # a t-only quantity: the family's function of the same name
        return [getattr(family, config.quantity)(config.model, t)]
    if config.method == "analytic":  # a surface's closed forms broadcast over its axes
        tt, uu = (t[:, None], tau[None, :]) if keys.surface else (t, tau)
        return read(config, family.moments(config.model, tt, uu))
    # one oracle call per t, with a surface's tau axis or its point's tau, each table
    # read out once
    calls = zip(t, itertools.repeat(tau) if keys.surface else tau)
    parts = [read(config, spinbath.oracle_protocol(
        config.model, config.system_init, t_k, taus, config.y_select)) for t_k, taus in calls]
    return [np.stack(columns) for columns in zip(*parts)]


def evaluate_rows(config: ExperimentConfig, workers: int = 1) -> Results:
    """Produce the long-format result rows for one experiment config.

    numpy's overflow and invalid warnings are silenced: a result that is not
    finite raises NonFiniteResult instead, from its Monte Carlo Estimate or
    from the check of every column (_check_finite).
    """
    family = MODEL_KINDS[config.model_kind].family
    keys = _row_keys(config)
    std_error = n_samples = None
    with np.errstate(over="ignore", invalid="ignore"):
        if config.method in ("analytic", "oracle"):
            shape = (keys.t.size, keys.tau.size) if keys.surface else (keys.points,)
            value = np.stack([np.broadcast_to(c, shape) for c in _deterministic_columns(
                config, family, keys)], axis=-1).reshape(keys.points, -1)
        else:
            read = QUANTITIES[config.quantity].estimates

            def estimates(t_k: float, tau_k: float | None) -> list[core.Estimate]:
                if config.method == "sampling":
                    return [stochastic.mc_cpf_sampling(
                        config.model, t_k, tau_k, config.y_select, config.mc, workers)]
                return read(config, family.mc(config, t_k, tau_k, workers))

            t, tau = keys.point_times()
            taus = [None] * t.size if tau is None else tau.tolist()
            # Monte Carlo points all draw the chunk streams of config.mc: each chunk
            # is drawn once and each per-t stage computed once per t (a single
            # point has nothing to share and would only hold the memo)
            with grid_memo() if t.size > 1 else contextlib.nullcontext():
                grid = [estimates(t_k, tau_k) for t_k, tau_k in zip(t.tolist(), taus)]
            value, std_error, n_samples = (
                np.array([[getattr(e, name) for e in p] for p in grid], dtype) for name, dtype
                in (("value", float), ("std_error", float), ("n_samples", np.int64)))
    rows = Results(keys.t, keys.tau, keys.labels, value, std_error, n_samples,
                   config.model_kind, config.method, surface=keys.surface)
    _check_finite(rows)
    return rows


def _check_finite(rows: Results) -> None:
    """Raise NonFiniteResult, naming the row's label (its quantity) and point, at
    the first value or std_error that is inf or nan.  A column's min and max,
    which propagate nan, decide without a temporary the size of the column."""
    for column in (rows.value, rows.std_error):
        if column is not None and not np.isfinite([column.min(), column.max()]).all():
            row = int(np.argmin(np.isfinite(column.ravel())))
            t, tau, label = rows.key(row)
            at = f"t={t!r}" if tau is None else f"t={t!r}, tau={tau!r}"
            raise NonFiniteResult(f"{label} at {at} is {float(column.flat[row])!r}, not finite")


# ---------------------------------------------------------------------------
# output

# Points whose CSV lines are written at once, and distinct values formatted by
# one % at a time: both bound what is held beside the texts of a grid.
_BLOCK_POINTS = 1024
_FORMAT_BATCH = 4096
# The formats pad each number with spaces to 24 characters, the most that .17g
# takes (-2.2250738585072014e-308); the padding turns into zero bytes.
_PAD_TO_ZERO = bytes.maketrans(b" ", b"\0")


def _distinct_texts(x: np.ndarray, sep: str = ",") -> tuple[np.ndarray, np.ndarray]:
    """(text and sep of each distinct value of x, index of every element's text).

    Integers are written as %d and other values at .17g, told apart by their
    bits, so -0.0 keeps its sign.  Text i is row i of a 2-d array of character
    codes, one byte a character, padded with zeros.
    """
    fmt, dtype = ("%-24d", np.int64) if x.dtype.kind in "iu" else ("%-24.17g", float)
    bits, index = np.unique(np.ascontiguousarray(x, dtype).view(np.int64), return_inverse=True)
    chars = np.empty((bits.size, 24 + len(sep)), dtype=np.uint8)
    for start in range(0, bits.size, _FORMAT_BATCH):
        batch = bits[start:start + _FORMAT_BATCH].view(dtype).tolist()
        text = ((fmt + sep) * len(batch) % tuple(batch)).encode().translate(_PAD_TO_ZERO)
        chars[start:start + len(batch)] = np.frombuffer(text, np.uint8).reshape(len(batch), -1)
    return chars, index.ravel()


def write_csv(rows: Results, path: Path) -> None:
    """Write the CSV of rows: \\r\\n line ends, floats at .17g, empty missing fields.

    Labels, model kinds and methods are plain words, so no field needs
    quoting.  Each distinct value of a column (of an axis for t and tau) is
    formatted once, and a block of lines is written as one array of its
    fields' texts side by side.
    """
    n_labels, mc, n_points = len(rows.labels), rows.std_error is not None, rows.points
    # a missing field is one more comma after the text before it
    per_axis = [_distinct_texts(rows.t, ",," if rows.tau is None else ",")]
    per_axis += [] if rows.tau is None else [_distinct_texts(rows.tau)]
    per_line = [_distinct_texts(rows.value, "," if mc else ",,,")]
    per_line += [_distinct_texts(rows.std_error), _distinct_texts(rows.n_samples)] if mc else []
    tails = np.array([f"{label},{rows.model},{rows.method}\r\n".encode()
                      for label in rows.labels] * min(n_points, _BLOCK_POINTS))
    tails = tails.view(np.uint8).reshape(tails.size, -1)
    with open(path, "wb") as fh:
        fh.write(",".join(CSV_HEADER).encode() + b"\r\n")
        for start in range(0, n_points, _BLOCK_POINTS):
            points = np.arange(start, min(start + _BLOCK_POINTS, n_points))
            lines = slice(start * n_labels, (start + points.size) * n_labels)
            block = np.concatenate(
                [text[np.repeat(index[axis], n_labels)]
                 for (text, index), axis in zip(per_axis, rows.axis_indices(points))]
                + [text[index[lines]] for text, index in per_line]
                + [tails[:points.size * n_labels]], axis=1)
            fh.write(block[block != 0])


# float64 ufuncs whose loop numpy picks by CPU, and whose bits differ between loops
_DISPATCHED = ("tan", "exp", "expm1")


@cache
def _float64_loops() -> dict[str, str | None]:
    try:
        from numpy.lib.introspect import opt_func_info  # numpy >= 2.0
    except ImportError:
        return dict.fromkeys(_DISPATCHED)
    info = opt_func_info(func_name=f"^({'|'.join(_DISPATCHED)})$", signature="^float64$")
    return {name: info.get(name, {}).get("dd", {}).get("current") for name in _DISPATCHED}


def numerics() -> dict:
    """What the output bits rest on besides the config: the numpy version and the
    float64 loop (SIMD target) numpy runs for each of tan, exp and expm1 on this
    CPU, None where this numpy cannot say.  No sum goes through BLAS."""
    return {"numpy": np.__version__, "float64_loops": dict(_float64_loops())}


def write_manifest(config: ExperimentConfig, csv_path: Path, wall_time_s: float,
                   stages: dict[str, float]) -> Path:
    """Write csv_path's manifest: the resolved config, versions, numerics, the
    seconds from the start of evaluation to the written CSV and the seconds of
    each stage (parse_s, evaluate_s, write_csv_s)."""
    manifest = {
        "kind": "cpfsim-run-manifest",
        "config": config.canonical,
        "outputs": [csv_path.name],
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpfsim": __import__("cpfsim").__version__,
        },
        "numerics": numerics(),
        "wall_time_s": wall_time_s,
        "stages": stages,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    path = _manifest_path(csv_path)
    _write_json(path, manifest)
    return path


def _manifest_path(csv_path: Path) -> Path:
    return csv_path.with_name(csv_path.name + ".manifest.json")


def _refuse_overwriting(config_path: str, csv_path: Path) -> None:
    """Raise ConfigError if the CSV or its manifest would be written over the config file."""
    for out in (csv_path, _manifest_path(csv_path)):
        if out.exists() and out.samefile(config_path):
            raise ConfigError(f"output {out} would overwrite the config file {config_path}")


def _apply_overrides(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    if args.seed is not None:
        if config.mc is None:
            raise ConfigError("--seed: config has no mc section to reseed")
        config.mc = replace(config.mc, seed=args.seed)
        config.canonical["mc"]["seed"] = config.mc.seed
    if args.output is not None:
        config.output_path = _output_path(args.output, "--output")
        config.canonical["output_path"] = args.output
    return config


# ---------------------------------------------------------------------------
# subcommands

@contextlib.contextmanager
def _stage(stages: dict[str, float], name: str):
    """The stage timer: the seconds the block takes, as stages[name + "_s"]."""
    start = time.perf_counter()
    yield
    stages[f"{name}_s"] = time.perf_counter() - start


def _run_config(
    config: ExperimentConfig, threads: int, stages: dict[str, float]
) -> tuple[Path, int, Path]:
    """Evaluate one config, write its CSV and manifest; (CSV path, rows, manifest path).
    stages holds the seconds of the config's parse; evaluate and write_csv join it."""
    start = time.perf_counter()
    with _stage(stages, "evaluate"):
        rows = evaluate_rows(config, workers=threads)
    csv_path = Path(config.output_path)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    with _stage(stages, "write_csv"):
        write_csv(rows, csv_path)
    wall_time_s = time.perf_counter() - start
    return csv_path, len(rows), write_manifest(config, csv_path, wall_time_s, stages)


def _cmd_run(args: argparse.Namespace) -> int:
    stages: dict[str, float] = {}
    with _stage(stages, "parse"):
        config = _apply_overrides(load_config(args.config), args)
    _refuse_overwriting(args.config, Path(config.output_path))
    csv_path, n_rows, manifest = _run_config(config, args.threads, stages)
    if not args.quiet:
        print(f"wrote {csv_path} ({n_rows} rows) and {manifest}")
    return 0


def _first_mismatch(keys_a: RowKeys, keys_b: RowKeys) -> int | None:
    """The first row whose (t, tau, label) differs between two key sets of as many rows.
    Rows of equal label counts compare as points and labels, one boolean a point at a
    time; otherwise row by row, and distinct labels differ within lcm(the counts) rows."""
    n = len(keys_a.labels)
    if n != len(keys_b.labels):
        return next((r for r in range(len(keys_a)) if keys_a.key(r) != keys_b.key(r)), None)
    rows = [j for j, (p, q) in enumerate(zip(keys_a.labels, keys_b.labels)) if p != q][:1]
    if (keys_a.tau is None) != (keys_b.tau is None):
        rows.append(0)
    for a, b in zip(keys_a.point_times(), keys_b.point_times()):
        if a is not None and b is not None:
            k = int(np.argmax(a != b))  # 0 where none differs
            rows += [k * n] if a[k] != b[k] else []
    return min(rows, default=None)


def _check_keys(keys_a: RowKeys, keys_b: RowKeys) -> None:
    """Raise GridMismatch unless both result sets have the same rows in the same order."""
    if len(keys_a) != len(keys_b):
        raise GridMismatch(f"result sets have {len(keys_a)} vs {len(keys_b)} rows")
    if (row := _first_mismatch(keys_a, keys_b)) is not None:
        raise GridMismatch(
            "row mismatch: ({}, {}, {}) vs ({}, {}, {})".format(*keys_a.key(row), *keys_b.key(row))
        )


def _std_errors(rows: Results) -> np.ndarray:
    return np.zeros(len(rows)) if rows.std_error is None else rows.std_error.ravel()


def _compare_rows(
    rows_a: Results, rows_b: Results, sigma_tol: float, abs_tol: float
) -> list[str]:
    """Failure lines of rows beyond tolerance; the keys already passed _check_keys."""
    value_a, value_b = rows_a.value.ravel(), rows_b.value.ravel()
    sigma = np.hypot(_std_errors(rows_a), _std_errors(rows_b))
    diff = np.abs(value_a - value_b)
    beyond = np.where(sigma > 0.0, diff > sigma_tol * sigma, diff > abs_tol)
    failures = []
    for row in np.flatnonzero(beyond).tolist():
        t, tau, quantity = rows_a.key(row)
        bound = f"{sigma_tol:g} * {sigma[row]:.3g}" if sigma[row] > 0.0 else f"abs_tol {abs_tol:g}"
        failures.append(
            f"{quantity} at t={t:g}"
            + (f", tau={tau:g}" if tau is not None else "")
            + f": |{value_a[row]:.6g} - {value_b[row]:.6g}| = {diff[row]:.3g} > {bound}"
        )
    return failures


def _cmd_compare(args: argparse.Namespace) -> int:
    config_a = load_config(args.config_a)
    config_b = load_config(args.config_b)
    _check_keys(_row_keys(config_a), _row_keys(config_b))
    rows_a = evaluate_rows(config_a, workers=args.threads)
    rows_b = evaluate_rows(config_b, workers=args.threads)
    failures = _compare_rows(rows_a, rows_b, args.sigma_tol, args.abs_tol)
    n = len(rows_a)
    if failures:
        for line in failures:
            print("FAIL " + line)
        print(f"compare: {n - len(failures)}/{n} points agree; {len(failures)} beyond tolerance")
        return 5
    if not args.quiet:
        print(f"compare: all {n} points agree (sigma_tol={args.sigma_tol:g}, abs_tol={args.abs_tol:g})")
    return 0


def _set_by_path(doc: dict, dotted: str, value: Any) -> None:
    parts = dotted.split(".")
    node = doc
    for part in parts[:-1]:
        if not isinstance(node.get(part), dict):
            raise ConfigError(f"sweep.{dotted}: config has no section {part!r}")
        node = node[part]
    if parts[-1] not in node:
        raise ConfigError(f"sweep.{dotted}: config has no field {parts[-1]!r}")
    node[parts[-1]] = value


def _cmd_sweep(args: argparse.Namespace) -> int:
    base_doc = _expect_mapping(_read_json(args.config), "")
    sweep = base_doc.get("sweep")
    if not isinstance(sweep, dict) or not sweep:
        raise ConfigError("sweep: sweep subcommand needs a non-empty 'sweep' object")
    for key, values in sweep.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep.{key}: expected a non-empty list of values")

    keys = sorted(sweep)
    legs: dict[str, tuple[list[tuple[str, Any]], ExperimentConfig, dict[str, float]]] = {}
    for combo in itertools.product(*(sweep[k] for k in keys)):
        doc = copy.deepcopy(base_doc)
        doc.pop("sweep")
        assignment = list(zip(keys, combo))
        for key, value in assignment:
            _set_by_path(doc, key, value)
        stages: dict[str, float] = {}
        with _stage(stages, "parse"):
            config = _apply_overrides(parse_config(doc), args)
        out = Path(config.output_path)
        # str of a float is its shortest round-tripping repr: distinct values, distinct names
        suffix = "__".join(f"{key}={value}" for key, value in assignment)
        leg_name = f"{out.stem}__{suffix}{out.suffix or '.csv'}"
        try:
            leg_path = str(out.with_name(leg_name))
        except ValueError as exc:  # a swept value with a path separator
            raise ConfigError(f"sweep: leg {dict(assignment)} cannot name a file: {exc}") from exc
        config.output_path = _output_path(leg_path, f"sweep: leg {dict(assignment)}")
        config.canonical["output_path"] = config.output_path
        _refuse_overwriting(args.config, Path(config.output_path))
        if config.output_path in legs:
            raise ConfigError(
                f"sweep: legs {dict(legs[config.output_path][0])} and {dict(assignment)} "
                f"both write {config.output_path}"
            )
        legs[config.output_path] = (assignment, config, stages)

    # the index lists the finished legs, and the failed leg with its error
    written = []
    try:
        with grid_memo():  # legs that draw the same chunk streams draw them once
            for assignment, config, stages in legs.values():
                leg = {"parameters": dict(assignment), "output": Path(config.output_path).name}
                try:
                    csv_path, _, _ = _run_config(config, args.threads, stages)
                except (CpfError, OSError) as exc:
                    written.append({**leg, "error": f"{type(exc).__name__}: {exc}"})
                    raise
                written.append(leg)
                if not args.quiet:
                    label = ", ".join(f"{k}={v}" for k, v in assignment)
                    print(f"wrote {csv_path} ({label})")
    finally:
        index_path = Path(next(iter(legs))).with_name("sweep_manifest.json")
        _write_json(index_path, {"kind": "cpfsim-sweep-manifest", "legs": written})
        if not args.quiet:
            print(f"wrote {index_path}")
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from . import acceptance

    known = [number for number, _, _ in acceptance.CRITERIA]
    try:
        numbers = [int(v) for v in args.criteria.split(",")] if args.criteria else known
    except ValueError:
        numbers = None
    if numbers is None or not set(numbers) <= set(known):
        print(f"selftest: bad --criteria value {args.criteria!r}", file=sys.stderr)
        return 2
    results = acceptance.run_all(workers=args.threads, verbose=args.verbose, numbers=numbers)
    return 0 if all(r.passed for r in results) else 1


def _threads(text: str) -> int:
    """--threads value: at least 1, capped at the number of CPUs."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return min(value, os.cpu_count() or 1)


def _tolerance(text: str) -> float:
    """--sigma-tol and --abs-tol value: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpfsim",
        description="Conditional past-future correlation simulators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate one config, write CSV and manifest")
    run.add_argument("--config", required=True, help="config or manifest JSON path")
    run.add_argument("--output", help="override the config output_path")
    run.add_argument("--seed", type=int, help="override mc.seed")
    run.set_defaults(func=_cmd_run)

    comp = sub.add_parser("compare", help="check two result sets agree on a shared grid")
    comp.add_argument("--config-a", required=True)
    comp.add_argument("--config-b", required=True)
    comp.add_argument("--sigma-tol", type=_tolerance, default=3.0,
                      help="allowed |a-b| in combined std errors (default 3)")
    comp.add_argument("--abs-tol", type=_tolerance, default=1e-9,
                      help="absolute tolerance for deterministic pairs (default 1e-9)")
    comp.set_defaults(func=_cmd_compare)

    sweep = sub.add_parser("sweep", help="expand the config's sweep section into runs")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--output", help="override the base output_path")
    sweep.add_argument("--seed", type=int, help="override mc.seed for every leg")
    sweep.set_defaults(func=_cmd_sweep)

    self_p = sub.add_parser("selftest", help="run the acceptance criteria")
    self_p.add_argument("--criteria", help="comma separated criterion numbers (default all)")
    self_p.add_argument("--verbose", action="store_true", help="print detail lines for passes too")
    self_p.set_defaults(func=_cmd_selftest)

    for command in (run, comp, sweep, self_p):
        command.add_argument("--threads", type=_threads, default=1,
                             help="worker threads, capped at the CPU count (default 1)")
        if command is not self_p:
            command.add_argument("--quiet", action="store_true")
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses: built on the first call, then reused.  parse_args
    keeps no state between calls; the subcommand functions are bound at the build."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GridMismatch as exc:
        print(f"grid mismatch: {exc}", file=sys.stderr)
        return 2
    except CpfError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
