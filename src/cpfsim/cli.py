"""Config-driven command line front end.

Subcommands:
  run       evaluate one experiment config, write CSV + JSON manifest
  compare   evaluate two configs on a shared grid and check agreement
  sweep     expand a parameter sweep into one run per leg
  selftest  execute the acceptance criteria

Configs are JSON documents (see README for the schema).  Every run writes a
manifest next to the CSV that echoes the fully resolved config; feeding the
manifest back to `run` reproduces the CSV bit for bit.

Exit codes: 0 success, 2 config validation failure or bad command-line value
(argparse, e.g. --threads 0), 3 runtime model error (impossible
postselection, bath too large, ...), 1 I/O failure.  `compare`
exits 5 when the result sets disagree beyond tolerance; `selftest` exits 1
when a criterion fails.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import analytic, core, spinbath, stochastic
from ._mc import McConfig
from .errors import (
    ConfigError,
    CpfError,
    GridMismatch,
)

CSV_HEADER = ("t", "tau", "value", "std_error", "n_samples", "quantity", "model", "method")

QUANTITIES = (
    "coherence",
    "conditional_coherence",
    "cpf",
    "cpf_surface",
    "moments",
    "rate",
    "probability_table",
)
METHODS = ("analytic", "montecarlo", "sampling", "oracle")

_T_ONLY = ("coherence", "rate")

_TABLE_LABELS = (
    ((+1, +1), "p_z+_x+"),
    ((+1, -1), "p_z+_x-"),
    ((-1, +1), "p_z-_x+"),
    ((-1, -1), "p_z-_x-"),
)


@dataclass(frozen=True)
class GridSpec:
    start: float
    stop: float
    count: int

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


@dataclass(frozen=True)
class Row:
    t: float
    tau: float | None
    value: float
    std_error: float | None
    n_samples: int | None
    quantity: str
    model: str
    method: str


_MOMENT_LABELS = ("f_t", "f_tau", "f_joint")


@dataclass(frozen=True)
class _Family:
    """How one family of model kinds is evaluated.

    The functions are looked up on their modules at call time, so wrappers
    installed on those modules see every call.
    """

    # (model, t, tau) -> core.MomentSet over broadcast arrays of times
    moments: Callable[[Any, np.ndarray, np.ndarray], core.MomentSet]
    # (model, t) -> real coherence f(t) over an array of times
    coherence: Callable[[Any, np.ndarray], np.ndarray]
    # quantity -> methods; anything absent is rejected
    allowed: dict[str, tuple[str, ...]]
    # quantity, or "sampling" for the sampling method -> per-point estimator
    # (config, t, tau, workers) -> Estimate, or three of them for "moments"
    mc: dict[str, Callable[[ExperimentConfig, float, float | None, int], Any]]


_NOISE = _Family(
    moments=lambda model, t, tau: analytic.moment_set(model, t, tau),
    coherence=lambda model, t: analytic.first_moment(model, t),
    allowed={
        "coherence": ("analytic", "montecarlo"),
        "conditional_coherence": ("analytic", "montecarlo"),
        "cpf": ("analytic", "montecarlo", "sampling"),
        "cpf_surface": ("analytic", "montecarlo", "sampling"),
        "moments": ("analytic", "montecarlo"),
        "rate": ("analytic",),
        "probability_table": ("analytic",),
    },
    mc={
        "coherence": lambda c, t, tau, w: stochastic.mc_moments(c.model, t, 0.0, c.mc, w)[0],
        "conditional_coherence": lambda c, t, tau, w: stochastic.mc_conditional_coherence(
            c.model, t, tau, c.yx, c.mc, w
        ),
        "cpf": lambda c, t, tau, w: stochastic.mc_cpf_semianalytic(c.model, t, tau, c.mc, w),
        "moments": lambda c, t, tau, w: stochastic.mc_moments(c.model, t, tau, c.mc, w),
        "sampling": lambda c, t, tau, w: stochastic.mc_cpf_sampling(
            c.model, t, tau, c.y_select, c.mc, w
        ),
    },
)

_BATH = _Family(
    moments=lambda spec, t, tau: spinbath.moment_set(spec, t, tau),
    coherence=lambda spec, t: spinbath.coherence(spec, t).real,
    allowed={
        "coherence": ("analytic",),
        "conditional_coherence": ("analytic",),
        "cpf": ("analytic", "oracle"),
        "cpf_surface": ("analytic", "oracle"),
        "moments": ("analytic",),
        "probability_table": ("analytic", "oracle"),
    },
    mc={},
)

_ENSEMBLE = _Family(
    moments=lambda spec, t, tau: spinbath.lorentz_moment_set(spec, t, tau),
    coherence=lambda spec, t: spinbath.lorentz_coherence(spec, t).real,
    allowed={
        "coherence": ("analytic", "montecarlo"),
        "conditional_coherence": ("analytic", "montecarlo"),
        "cpf": ("analytic", "montecarlo"),
        "cpf_surface": ("analytic", "montecarlo"),
        "moments": ("analytic", "montecarlo"),
        "probability_table": ("analytic",),
    },
    mc={
        "coherence": lambda c, t, tau, w: spinbath.lorentz_mc_coherence(c.model, t, c.mc, w),
        "conditional_coherence": lambda c, t, tau, w: spinbath.lorentz_mc_conditional_coherence(
            c.model, t, tau, c.yx, c.mc, w
        ),
        "cpf": lambda c, t, tau, w: spinbath.lorentz_mc_cpf(c.model, t, tau, c.mc, w),
        "moments": lambda c, t, tau, w: spinbath.lorentz_mc_moments(c.model, t, tau, c.mc, w),
    },
)

MODEL_FAMILIES: dict[str, _Family] = {
    "white": _NOISE,
    "exp_corr_gauss": _NOISE,
    "static_gauss": _NOISE,
    "static_lorentz": _NOISE,
    "spin_bath": _BATH,
    "scaled_spin_bath": _BATH,
    "lorentz_coupling": _ENSEMBLE,
}


# ---------------------------------------------------------------------------
# config parsing

def _expect_mapping(doc: Any, path: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'config'}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _pop(doc: dict, key: str, path: str, required: bool = False, default: Any = None) -> Any:
    if key in doc:
        return doc.pop(key)
    if required:
        raise ConfigError(f"{path}{key}: required field is missing")
    return default


def _reject_unknown(doc: dict, path: str) -> None:
    if doc:
        raise ConfigError(f"{path}{sorted(doc)[0]}: unknown field")


def _float(value: Any, path: str, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    if positive and out <= 0.0:
        raise ConfigError(f"{path}: must be > 0, got {value!r}")
    return out


def _int(value: Any, path: str, positive: bool = False) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if positive and value <= 0:
        raise ConfigError(f"{path}: must be > 0, got {value!r}")
    return value


def _outcome(value: Any, path: str) -> int:
    if value not in (1, -1):
        raise ConfigError(f"{path}: expected +1 or -1, got {value!r}")
    return int(value)


def _complex(value: Any, path: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(float(value), 0.0)
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(f"{path}: expected a number or [re, im] pair, got {value!r}")


def _c_json(z: complex) -> Any:
    return z.real if z.imag == 0.0 else [z.real, z.imag]


def _parse_grid(doc: Any, path: str) -> GridSpec:
    doc = dict(_expect_mapping(doc, path))
    start = _float(_pop(doc, "start", path + ".", required=True), path + ".start")
    stop = _float(_pop(doc, "stop", path + ".", required=True), path + ".stop")
    count = _int(_pop(doc, "count", path + ".", required=True), path + ".count", positive=True)
    _reject_unknown(doc, path + ".")
    if start < 0.0:
        raise ConfigError(f"{path}.start: must be >= 0, got {start!r}")
    if stop < start:
        raise ConfigError(f"{path}.stop: must be >= start")
    if count > 1 and stop == start:
        raise ConfigError(f"{path}.count: must be 1 when start == stop")
    return GridSpec(start=start, stop=stop, count=count)


def _parse_model(doc: Any) -> tuple[str, Any, dict]:
    doc = dict(_expect_mapping(doc, "model"))
    kind = _pop(doc, "kind", "model.", required=True)
    canon: dict[str, Any] = {"kind": kind}
    try:
        if kind == "white":
            gamma_w = _float(_pop(doc, "gamma_w", "model.", required=True), "model.gamma_w", positive=True)
            _reject_unknown(doc, "model.")
            canon["gamma_w"] = gamma_w
            return kind, analytic.White(gamma_w=gamma_w), canon
        if kind == "exp_corr_gauss":
            g = _float(_pop(doc, "g", "model.", required=True), "model.g", positive=True)
            tau_c = _float(_pop(doc, "tau_c", "model.", required=True), "model.tau_c", positive=True)
            _reject_unknown(doc, "model.")
            canon.update(g=g, tau_c=tau_c)
            return kind, analytic.ExpCorrGauss(g=g, tau_c=tau_c), canon
        if kind == "static_gauss":
            g = _float(_pop(doc, "g", "model.", required=True), "model.g", positive=True)
            _reject_unknown(doc, "model.")
            canon["g"] = g
            return kind, analytic.StaticGauss(g=g), canon
        if kind == "static_lorentz":
            gamma = _float(_pop(doc, "gamma", "model.", required=True), "model.gamma", positive=True)
            omega = _float(_pop(doc, "omega", "model.", default=0.0), "model.omega")
            _reject_unknown(doc, "model.")
            canon.update(gamma=gamma, omega=omega)
            return kind, analytic.StaticLorentz(gamma=gamma, omega=omega), canon
        if kind == "spin_bath":
            raw = _pop(doc, "couplings", "model.", required=True)
            if not isinstance(raw, list) or not raw:
                raise ConfigError("model.couplings: expected a non-empty list")
            couplings = [_float(v, f"model.couplings[{i}]") for i, v in enumerate(raw)]
            n = len(couplings)
            half = 1.0 / math.sqrt(2.0)
            raw_a = _pop(doc, "alphas", "model.", default=None)
            raw_b = _pop(doc, "betas", "model.", default=None)
            if (raw_a is None) != (raw_b is None):
                raise ConfigError("model.alphas: alphas and betas must be given together")
            if raw_a is None:
                alphas = [complex(half, 0.0)] * n
                betas = [complex(half, 0.0)] * n
            else:
                for name, raw_l in (("alphas", raw_a), ("betas", raw_b)):
                    if not isinstance(raw_l, list) or len(raw_l) != n:
                        raise ConfigError(f"model.{name}: expected a list of length {n}")
                alphas = [_complex(v, f"model.alphas[{i}]") for i, v in enumerate(raw_a)]
                betas = [_complex(v, f"model.betas[{i}]") for i, v in enumerate(raw_b)]
            _reject_unknown(doc, "model.")
            canon.update(
                couplings=couplings,
                alphas=[_c_json(a) for a in alphas],
                betas=[_c_json(b) for b in betas],
            )
            return kind, spinbath.SpinBathSpec(couplings=couplings, alphas=alphas, betas=betas), canon
        if kind == "scaled_spin_bath":
            n_spins = _int(_pop(doc, "n_spins", "model.", required=True), "model.n_spins", positive=True)
            g = _float(_pop(doc, "g", "model.", required=True), "model.g", positive=True)
            omega = _float(_pop(doc, "omega", "model.", default=0.0), "model.omega")
            _reject_unknown(doc, "model.")
            canon.update(n_spins=n_spins, g=g, omega=omega)
            return kind, spinbath.scaled_gaussian_bath(n_spins, g, omega), canon
        if kind == "lorentz_coupling":
            gamma = _float(_pop(doc, "gamma", "model.", required=True), "model.gamma", positive=True)
            omega = _float(_pop(doc, "omega", "model.", default=0.0), "model.omega")
            n_spins = _int(_pop(doc, "n_spins", "model.", default=1), "model.n_spins", positive=True)
            half = 1.0 / math.sqrt(2.0)
            alpha = _complex(_pop(doc, "alpha", "model.", default=half), "model.alpha")
            beta = _complex(_pop(doc, "beta", "model.", default=half), "model.beta")
            _reject_unknown(doc, "model.")
            canon.update(gamma=gamma, omega=omega, n_spins=n_spins, alpha=_c_json(alpha), beta=_c_json(beta))
            spec = spinbath.LorentzCouplingSpec(
                gamma=gamma, omega=omega, n_spins=n_spins, alpha=alpha, beta=beta
            )
            return kind, spec, canon
    except CpfError:
        raise
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc
    raise ConfigError(f"model.kind: unknown model kind {kind!r}")


def _parse_mc(doc: Any) -> tuple[McConfig, dict]:
    doc = dict(_expect_mapping(doc, "mc"))
    n = _int(_pop(doc, "n_trajectories", "mc.", required=True), "mc.n_trajectories", positive=True)
    seed = _pop(doc, "seed", "mc.", default=0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"mc.seed: expected an integer, got {seed!r}")
    chunk_size = _pop(doc, "chunk_size", "mc.", default=None)
    if chunk_size is not None:
        chunk_size = _int(chunk_size, "mc.chunk_size", positive=True)
    path_dt = _pop(doc, "path_dt", "mc.", default=None)
    if path_dt is not None:
        path_dt = _float(path_dt, "mc.path_dt", positive=True)
    _reject_unknown(doc, "mc.")
    try:
        cfg = McConfig(n_trajectories=n, seed=seed, chunk_size=chunk_size, path_dt=path_dt)
    except ValueError as exc:
        raise ConfigError(f"mc: {exc}") from exc
    canon: dict[str, Any] = {
        "n_trajectories": cfg.n_trajectories,
        "seed": cfg.seed,
        "chunk_size": cfg.resolved_chunk_size,
    }
    if cfg.path_dt is not None:
        canon["path_dt"] = cfg.path_dt
    return cfg, canon


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

    model_kind, model, model_canon = _parse_model(_pop(doc, "model", "", required=True))

    quantity = _pop(doc, "quantity", "", required=True)
    if quantity not in QUANTITIES:
        raise ConfigError(f"quantity: unknown quantity {quantity!r}; expected one of {QUANTITIES}")
    method = _pop(doc, "method", "", required=True)
    if method not in METHODS:
        raise ConfigError(f"method: unknown method {method!r}; expected one of {METHODS}")

    allowed = MODEL_FAMILIES[model_kind].allowed.get(quantity, ())
    if method not in allowed:
        raise ConfigError(
            f"method: {method!r} does not support quantity {quantity!r} for model "
            f"kind {model_kind!r} (allowed: {', '.join(allowed) or 'none'})"
        )

    t_grid = _parse_grid(_pop(doc, "t_grid", "", required=True), "t_grid")
    raw_tau = _pop(doc, "tau_grid", "", default=None)
    tau_grid = None if raw_tau is None else _parse_grid(raw_tau, "tau_grid")
    if tau_grid is not None and quantity in _T_ONLY:
        raise ConfigError(f"tau_grid: not used by t-only quantity {quantity!r}")
    if (
        tau_grid is not None
        and quantity not in ("cpf_surface",)
        and tau_grid.count != t_grid.count
    ):
        raise ConfigError(
            f"tau_grid.count: must equal t_grid.count ({t_grid.count}) for pointwise "
            f"quantity {quantity!r}, got {tau_grid.count}"
        )

    yx = _outcome(_pop(doc, "yx", "", default=1), "yx")
    y_select = _outcome(_pop(doc, "y_select", "", default=1), "y_select")

    raw_mc = _pop(doc, "mc", "", default=None)
    if method in ("montecarlo", "sampling"):
        if raw_mc is None:
            raise ConfigError(f"mc: required for method {method!r}")
        mc, mc_canon = _parse_mc(raw_mc)
    else:
        if raw_mc is not None:
            raise ConfigError(f"mc: not used by deterministic method {method!r}")
        mc, mc_canon = None, None

    raw_init = _pop(doc, "system_init", "", default=None)
    if raw_init is None:
        system_init = spinbath.SystemInit.plus()
        init_canon = None
    else:
        if method != "oracle":
            raise ConfigError("system_init: only used by the oracle method")
        init_doc = dict(_expect_mapping(raw_init, "system_init"))
        a = _complex(_pop(init_doc, "a", "system_init.", required=True), "system_init.a")
        b = _complex(_pop(init_doc, "b", "system_init.", required=True), "system_init.b")
        _reject_unknown(init_doc, "system_init.")
        try:
            system_init = spinbath.SystemInit(a=a, b=b)
        except ValueError as exc:
            raise ConfigError(f"system_init: {exc}") from exc
        init_canon = {"a": _c_json(system_init.a), "b": _c_json(system_init.b)}

    output_path = _pop(doc, "output_path", "", default="cpfsim_out.csv")
    if not isinstance(output_path, str) or not output_path:
        raise ConfigError(f"output_path: expected a non-empty string, got {output_path!r}")
    _reject_unknown(doc, "")

    canonical: dict[str, Any] = {
        "model": model_canon,
        "quantity": quantity,
        "method": method,
        "t_grid": {"start": t_grid.start, "stop": t_grid.stop, "count": t_grid.count},
    }
    if tau_grid is not None:
        canonical["tau_grid"] = {
            "start": tau_grid.start,
            "stop": tau_grid.stop,
            "count": tau_grid.count,
        }
    canonical.update(yx=yx, y_select=y_select)
    if mc_canon is not None:
        canonical["mc"] = mc_canon
    if init_canon is not None:
        canonical["system_init"] = init_canon
    canonical["output_path"] = output_path

    return ExperimentConfig(
        model_kind=model_kind,
        model=model,
        quantity=quantity,
        method=method,
        t_grid=t_grid,
        tau_grid=tau_grid,
        yx=yx,
        y_select=y_select,
        mc=mc,
        system_init=system_init,
        output_path=output_path,
        canonical=canonical,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return parse_config(doc)


# ---------------------------------------------------------------------------
# evaluation

def _time_points(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray | None]:
    """Flat (t, tau) arrays of the evaluation points in row order; tau is None for t-only."""
    t = config.t_grid.values()
    if config.quantity in _T_ONLY:
        return t, None
    if config.quantity == "cpf_surface":
        tau = (config.tau_grid or config.t_grid).values()
        return np.repeat(t, tau.size), np.tile(tau, t.size)
    return t, t if config.tau_grid is None else config.tau_grid.values()


def _analytic_columns(
    config: ExperimentConfig, family: _Family, t: np.ndarray, tau: np.ndarray | None
) -> list[tuple[str, np.ndarray]]:
    """(row label, values at every point) for the closed forms, in one call per grid."""
    model, q = config.model, config.quantity
    if q == "coherence":
        return [(q, family.coherence(model, t))]
    if q == "rate":
        return [(q, analytic.dephasing_rate(model, t))]
    m = family.moments(model, t, tau)
    if q == "moments":
        return list(zip(_MOMENT_LABELS, (m.f_t, m.f_tau, m.f_joint)))
    if q == "probability_table":
        cells = core.cpf_table_cells(m, config.y_select)
        return [(label, cells[key]) for key, label in _TABLE_LABELS]
    if q == "conditional_coherence":
        return [(q, core.conditional_coherence(m, config.yx))]
    return [(q, core.cpf_from_moments(m))]


def _point_values(
    config: ExperimentConfig, family: _Family, t: float, tau: float | None, workers: int
) -> list[tuple[str, float, float | None, int | None]]:
    """(row label, value, std_error, n_samples) at one point, oracle or Monte Carlo."""
    q = config.quantity
    if config.method == "oracle":
        table = spinbath.oracle_protocol(config.model, config.system_init, t, tau, config.y_select)
        if q == "probability_table":
            return [(label, table.entries[key], None, None) for key, label in _TABLE_LABELS]
        return [(q, core.cpf_from_table(table), None, None)]
    key = "sampling" if config.method == "sampling" else ("cpf" if q == "cpf_surface" else q)
    est = family.mc[key](config, t, tau, workers)
    pairs = zip(_MOMENT_LABELS, est) if q == "moments" else [(q, est)]
    return [(label, e.value, e.std_error, e.n_samples) for label, e in pairs]


def evaluate_rows(config: ExperimentConfig, workers: int = 1) -> list[Row]:
    """Produce the long-format result rows for one experiment config."""
    family = MODEL_FAMILIES[config.model_kind]
    t, tau = _time_points(config)
    ts = t.tolist()
    taus = [None] * len(ts) if tau is None else tau.tolist()
    if config.method == "analytic":
        columns = [
            (label, np.broadcast_to(values, t.shape).tolist())
            for label, values in _analytic_columns(config, family, t, tau)
        ]
        points = ([(label, values[i], None, None) for label, values in columns] for i in range(len(ts)))
    else:
        points = (_point_values(config, family, t_i, tau_i, workers) for t_i, tau_i in zip(ts, taus))
    return [
        Row(t_i, tau_i, value, se, n, label, config.model_kind, config.method)
        for t_i, tau_i, values in zip(ts, taus, points)
        for label, value, se, n in values
    ]


# ---------------------------------------------------------------------------
# output

def _fmt(value: float | int | None) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_csv(rows: list[Row], path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(
                (
                    _fmt(row.t),
                    _fmt(row.tau),
                    _fmt(row.value),
                    _fmt(row.std_error),
                    _fmt(row.n_samples),
                    row.quantity,
                    row.model,
                    row.method,
                )
            )


def _manifest_path(csv_path: Path) -> Path:
    return csv_path.with_name(csv_path.name + ".manifest.json")


def write_manifest(config: ExperimentConfig, csv_path: Path, wall_time_s: float) -> Path:
    manifest = {
        "kind": "cpfsim-run-manifest",
        "config": config.canonical,
        "outputs": [csv_path.name],
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpfsim": __import__("cpfsim").__version__,
        },
        "wall_time_s": wall_time_s,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    path = _manifest_path(csv_path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return path


def _apply_overrides(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    if getattr(args, "seed", None) is not None:
        if config.mc is None:
            raise ConfigError("--seed: config has no mc section to reseed")
        mc = McConfig(
            n_trajectories=config.mc.n_trajectories,
            seed=args.seed,
            chunk_size=config.mc.resolved_chunk_size,
            path_dt=config.mc.path_dt,
        )
        config.mc = mc
        config.canonical["mc"]["seed"] = mc.seed
    if getattr(args, "output", None) is not None:
        config.output_path = args.output
        config.canonical["output_path"] = args.output
    return config


# ---------------------------------------------------------------------------
# subcommands

def _run_config(config: ExperimentConfig, threads: int) -> tuple[Path, int, Path]:
    """Evaluate one config, write its CSV and manifest; (CSV path, rows, manifest path)."""
    start = time.perf_counter()
    rows = evaluate_rows(config, workers=threads)
    csv_path = Path(config.output_path)
    if csv_path.parent != Path("."):
        csv_path.parent.mkdir(parents=True, exist_ok=True)
    write_csv(rows, csv_path)
    return csv_path, len(rows), write_manifest(config, csv_path, time.perf_counter() - start)


def _cmd_run(args: argparse.Namespace) -> int:
    config = _apply_overrides(load_config(args.config), args)
    csv_path, n_rows, manifest = _run_config(config, args.threads)
    if not args.quiet:
        print(f"wrote {csv_path} ({n_rows} rows) and {manifest}")
    return 0


def _compare_rows(
    rows_a: list[Row], rows_b: list[Row], sigma_tol: float, abs_tol: float
) -> list[str]:
    if len(rows_a) != len(rows_b):
        raise GridMismatch(f"result sets have {len(rows_a)} vs {len(rows_b)} rows")
    failures = []
    for ra, rb in zip(rows_a, rows_b):
        if (ra.t, ra.tau, ra.quantity) != (rb.t, rb.tau, rb.quantity):
            raise GridMismatch(
                f"row mismatch: ({ra.t}, {ra.tau}, {ra.quantity}) vs ({rb.t}, {rb.tau}, {rb.quantity})"
            )
        sigma = math.hypot(ra.std_error or 0.0, rb.std_error or 0.0)
        diff = abs(ra.value - rb.value)
        if sigma > 0.0:
            if diff > sigma_tol * sigma:
                failures.append(
                    f"{ra.quantity} at t={ra.t:g}"
                    + (f", tau={ra.tau:g}" if ra.tau is not None else "")
                    + f": |{ra.value:.6g} - {rb.value:.6g}| = {diff:.3g} > {sigma_tol:g} * {sigma:.3g}"
                )
        elif diff > abs_tol:
            failures.append(
                f"{ra.quantity} at t={ra.t:g}"
                + (f", tau={ra.tau:g}" if ra.tau is not None else "")
                + f": |{ra.value:.6g} - {rb.value:.6g}| = {diff:.3g} > abs_tol {abs_tol:g}"
            )
    return failures


def _cmd_compare(args: argparse.Namespace) -> int:
    config_a = load_config(args.config_a)
    config_b = load_config(args.config_b)
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


def _leg_suffix(assignment: list[tuple[str, Any]]) -> str:
    # str of a float is its shortest round-tripping repr, so distinct values
    # give distinct names
    return "__".join(f"{key}={value}" for key, value in assignment)


def _cmd_sweep(args: argparse.Namespace) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            base_doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.config}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    base_doc = _expect_mapping(base_doc, "")
    sweep = base_doc.get("sweep")
    if not isinstance(sweep, dict) or not sweep:
        raise ConfigError("sweep: sweep subcommand needs a non-empty 'sweep' object")
    for key, values in sweep.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep.{key}: expected a non-empty list of values")

    import copy
    import itertools

    keys = sorted(sweep)
    legs: dict[str, tuple[list[tuple[str, Any]], ExperimentConfig]] = {}
    for combo in itertools.product(*(sweep[k] for k in keys)):
        doc = copy.deepcopy(base_doc)
        doc.pop("sweep")
        assignment = list(zip(keys, combo))
        for key, value in assignment:
            _set_by_path(doc, key, value)
        config = _apply_overrides(parse_config(doc), args)
        out = Path(config.output_path)
        leg_name = f"{out.stem}__{_leg_suffix(assignment)}{out.suffix or '.csv'}"
        config.output_path = str(out.with_name(leg_name))
        config.canonical["output_path"] = config.output_path
        if config.output_path in legs:
            raise ConfigError(
                f"sweep: legs {dict(legs[config.output_path][0])} and {dict(assignment)} "
                f"both write {config.output_path}"
            )
        legs[config.output_path] = (assignment, config)

    written = []
    for assignment, config in legs.values():
        csv_path, _, _ = _run_config(config, args.threads)
        written.append({"parameters": dict(assignment), "output": csv_path.name})
        if not args.quiet:
            label = ", ".join(f"{k}={v}" for k, v in assignment)
            print(f"wrote {csv_path} ({label})")

    index_path = Path(next(iter(legs))).with_name("sweep_manifest.json")
    with open(index_path, "w", encoding="utf-8") as fh:
        json.dump({"kind": "cpfsim-sweep-manifest", "legs": written}, fh, indent=2)
        fh.write("\n")
    if not args.quiet:
        print(f"wrote {index_path}")
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from . import acceptance

    if args.criteria:
        try:
            numbers = [int(v) for v in args.criteria.split(",")]
        except ValueError:
            print(f"selftest: bad --criteria value {args.criteria!r}", file=sys.stderr)
            return 2
        results = []
        for number in numbers:
            result = acceptance.run_criterion(number, workers=args.threads)
            results.append(result)
            print(result.line())
            if args.verbose or not result.passed:
                for line in result.details:
                    print("      " + line)
    else:
        results = acceptance.run_all(workers=args.threads, verbose=args.verbose)
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
    run.add_argument("--threads", type=_threads, default=1,
                     help="worker threads, capped at the CPU count (default 1)")
    run.add_argument("--quiet", action="store_true")
    run.set_defaults(func=_cmd_run)

    comp = sub.add_parser("compare", help="check two result sets agree on a shared grid")
    comp.add_argument("--config-a", required=True)
    comp.add_argument("--config-b", required=True)
    comp.add_argument("--sigma-tol", type=float, default=3.0,
                      help="allowed |a-b| in combined std errors (default 3)")
    comp.add_argument("--abs-tol", type=float, default=1e-9,
                      help="absolute tolerance for deterministic pairs (default 1e-9)")
    comp.add_argument("--threads", type=_threads, default=1)
    comp.add_argument("--quiet", action="store_true")
    comp.set_defaults(func=_cmd_compare)

    sweep = sub.add_parser("sweep", help="expand the config's sweep section into runs")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--output", help="override the base output_path")
    sweep.add_argument("--seed", type=int, help="override mc.seed for every leg")
    sweep.add_argument("--threads", type=_threads, default=1)
    sweep.add_argument("--quiet", action="store_true")
    sweep.set_defaults(func=_cmd_sweep)

    self_p = sub.add_parser("selftest", help="run the acceptance criteria")
    self_p.add_argument("--criteria", help="comma separated criterion numbers (default all)")
    self_p.add_argument("--threads", type=_threads, default=1)
    self_p.add_argument("--verbose", action="store_true", help="print detail lines for passes too")
    self_p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
