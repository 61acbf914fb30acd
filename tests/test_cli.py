"""Command line interface: config validation, outputs, manifests, exit codes."""

import contextlib
import copy
import csv
import importlib.util
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cpfsim
from cpfsim import _mc, analytic, cli, core, spinbath, stochastic
from cpfsim.errors import ConfigError
from reruns import assert_bytes_on_the_same_loops, assert_within_1e_12


# a spin_bath config for the oracle method, which alone takes a system_init
ORACLE = {"model": {"kind": "spin_bath", "couplings": [0.5, 1.0]}, "method": "oracle"}


def base_config(**overrides):
    doc = {
        "model": {"kind": "white", "gamma_w": 0.4},
        "quantity": "cpf",
        "method": "analytic",
        "t_grid": {"start": 0.2, "stop": 2.0, "count": 5},
        "output_path": "out.csv",
    }
    doc.update(overrides)
    return doc


def write_json(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_cli(tmp_path, doc, *extra):
    cfg = write_json(tmp_path, doc)
    out = tmp_path / doc["output_path"]
    code = cli.main(["run", "--config", str(cfg), "--output", str(out), "--quiet", *extra])
    return code, out


# ---------------------------------------------------------------------------
# config parsing

def test_parse_config_happy_path():
    config = cli.parse_config(base_config())
    assert config.model == analytic.White(0.4)
    assert config.quantity == "cpf"
    assert config.tau_grid is None
    assert config.canonical["model"] == {"kind": "white", "gamma_w": 0.4}


def test_parse_config_accepts_manifest_document():
    inner = cli.parse_config(base_config()).canonical
    config = cli.parse_config({"kind": "cpfsim-run-manifest", "config": inner})
    assert config.model == analytic.White(0.4)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(quantity="nope"), "unknown quantity"),
        (lambda d: d.update(method="magic"), "unknown method"),
        (lambda d: d.update(method="oracle"), "does not support"),
        (lambda d: d.update(method="sampling", quantity="coherence"), "does not support"),
        (lambda d: d.update(method="montecarlo"), "mc: required"),
        (lambda d: d.update(mc={"n_trajectories": 10}), "not used by deterministic"),
        (lambda d: d.update(quantity="coherence", tau_grid={"start": 0, "stop": 1, "count": 5}),
         "t-only"),
        (lambda d: d.update(tau_grid={"start": 0, "stop": 1, "count": 4}), "must equal"),
        (lambda d: d.update(yx=0), "yx"),
        (lambda d: d.update(yx=True), "yx: expected +1 or -1, got True"),
        (lambda d: d.update(y_select=1.0), "y_select: expected +1 or -1, got 1.0"),
        (lambda d: d.update(system_init={"a": 1.0, "b": 0.0}), "oracle"),
        (lambda d: d.update(model={"kind": "pink"}), "kind"),
        (lambda d: d.update(model={"kind": "white", "gamma_w": -1.0}), "gamma_w"),
        (lambda d: d.update(model={"kind": "white", "gamma_w": 0.4, "extra": 1}), "extra"),
        (lambda d: d.update(surprise=True), "surprise"),
        (lambda d: d.update(t_grid={"start": 1.0, "stop": 0.5, "count": 3}), "t_grid"),
        (lambda d: d.update(output_path=""), "output_path"),
        (lambda d: d.update(t_grid={"start": -1.0, "stop": 0.5, "count": 3}),
         "t_grid: start must be finite and >= 0, got -1.0"),
        # one case per field text of each section
        (lambda d: d.pop("model"), "model: required field is missing"),
        (lambda d: d.update(model=[1]), "model: expected a JSON object, got list"),
        (lambda d: d.update(model={"gamma_w": 1}), "model.kind: required field is missing"),
        (lambda d: d.update(model={"kind": ["white"]}), "model.kind: unknown model kind ['white']"),
        (lambda d: d.update(model={"kind": "white"}), "model.gamma_w: required field is missing"),
        (lambda d: d.update(model={"kind": "white", "gamma_w": "x"}),
         "model.gamma_w: expected a number, got 'x'"),
        (lambda d: d.update(model={"kind": "white", "gamma_w": 0}),
         "model: gamma_w must be finite and > 0, got 0.0"),
        (lambda d: d.update(model={"kind": "white", "gamma_w": 10**400}),
         "model: gamma_w must be finite and > 0, got inf"),
        (lambda d: d.update(model={"kind": "exp_corr_gauss", "g": 0.9}),
         "model.tau_c: required field is missing"),
        (lambda d: d.update(model={"kind": "exp_corr_gauss", "g": 0.9, "tau_c": 0.0}),
         "model: tau_c must be finite and > 0, got 0.0"),
        (lambda d: d.update(model={"kind": "static_gauss", "g": True}),
         "model.g: expected a number, got True"),
        (lambda d: d.update(model={"kind": "static_lorentz", "gamma": 0.6, "omega": math.nan}),
         "model: omega must be finite, got nan"),
        (lambda d: d.update(model={"kind": "static_lorentz", "omega": 0.9}),
         "model.gamma: required field is missing"),
        (lambda d: d.update(model={"kind": "spin_bath", "couplings": 3}),
         "model.couplings: expected a non-empty list"),
        (lambda d: d.update(model={"kind": "spin_bath", "couplings": [0.5, "x"]}),
         "model.couplings[1]: expected a number, got 'x'"),
        (lambda d: d.update(model={"kind": "spin_bath", "couplings": [0.5, 1.0], "alphas": [1, 0]}),
         "model: alphas and betas must be given together"),
        (lambda d: d.update(model={"kind": "spin_bath", "couplings": [0.5, 1.0],
                                   "alphas": [1.0], "betas": [0.0, 0.0]}),
         "model: alphas must hold one amplitude per coupling (2), got shape (1,)"),
        (lambda d: d.update(model={"kind": "spin_bath", "couplings": [0.5, 1.0],
                                   "alphas": [1.0, 1.0], "betas": 0.0}),
         "model.betas: expected a non-empty list"),
        (lambda d: d.update(model={"kind": "spin_bath", "couplings": [0.5, 1.0],
                                   "alphas": [1.0, "x"], "betas": [0.0, 0.0]}),
         "model.alphas[1]: expected a number or [re, im] pair, got 'x'"),
        (lambda d: d.update(model={"kind": "spin_bath", "couplings": [0.5, 1.0],
                                   "alphas": [1.0, 1.0], "betas": [[0, 0, 0], 0.0]}),
         "model.betas[0]: expected a number or [re, im] pair, got [0, 0, 0]"),
        (lambda d: d.update(model={"kind": "spin_bath", "couplings": [0.5, 1.0],
                                   "alphas": [1.0, [10**400, 0]], "betas": [0.0, 0.0]}),
         "model: per-spin amplitudes must satisfy |a|^2+|b|^2=1, got inf"),
        (lambda d: d.update(model={"kind": "scaled_spin_bath", "n_spins": 1.5, "g": 0.9}),
         "model.n_spins: expected an integer, got 1.5"),
        (lambda d: d.update(model={"kind": "scaled_spin_bath", "n_spins": 0, "g": 0.9}),
         "model: n_spins must be >= 1, got 0"),
        (lambda d: d.update(model={"kind": "scaled_spin_bath", "n_spins": 2, "g": 0.9, "omega": "w"}),
         "model.omega: expected a number, got 'w'"),
        (lambda d: d.update(model={"kind": "lorentz_coupling", "gamma": 0.7, "alpha": "a"}),
         "model.alpha: expected a number or [re, im] pair, got 'a'"),
        (lambda d: d.update(model={"kind": "lorentz_coupling", "gamma": 0.7, "beta": 0.5}),
         "model: bath spin amplitudes must satisfy |a|^2+|b|^2=1, got 0.7499999999999999"),
        (lambda d: d.update(model={"kind": "lorentz_coupling", "gamma": 0.7, "alpha": [0, -10**400]}),
         "model: bath spin amplitudes must satisfy |a|^2+|b|^2=1, got inf"),
        (lambda d: d.update(model={"kind": "lorentz_coupling", "gamma": 0.7, "zeta": 1, "aaa": 2}),
         "model.aaa: unknown field"),
        (lambda d: d.update(t_grid=5), "t_grid: expected a JSON object, got int"),
        (lambda d: d.update(t_grid={"start": 0, "stop": 1}), "t_grid.count: required field is missing"),
        (lambda d: d.update(t_grid={"start": 0, "stop": 1, "count": 5.0}),
         "t_grid.count: expected an integer, got 5.0"),
        (lambda d: d.update(t_grid={"start": "0", "stop": 1, "count": 5}),
         "t_grid.start: expected a number, got '0'"),
        (lambda d: d.update(tau_grid={"start": 1, "stop": 1, "count": 5}),
         "tau_grid: count must be 1 when start == stop"),
        (lambda d: d.update(tau_grid={"start": 0, "stop": 1, "count": 5, "step": 0.1}),
         "tau_grid.step: unknown field"),
        (lambda d: d.update(t_grid={"start": 0, "stop": 1, "count": 10**20}),
         "t_grid: count must be <= 1048576, got 100000000000000000000"),
        (lambda d: d.update(quantity="cpf_surface", t_grid={"start": 0, "stop": 1, "count": 1025}),
         "quantity: cpf_surface of 1025 x 1025 points is over the 1048576-point limit"),
        (lambda d: d.update(quantity="cpf_surface", t_grid={"start": 0, "stop": 1, "count": 2**20},
                            tau_grid={"start": 0, "stop": 1, "count": 2}),
         "quantity: cpf_surface of 1048576 x 2 points is over the 1048576-point limit"),
        (lambda d: d.update(method="montecarlo", mc=5), "mc: expected a JSON object, got int"),
        (lambda d: d.update(method="montecarlo", mc={"seed": 1}),
         "mc.n_trajectories: required field is missing"),
        (lambda d: d.update(method="montecarlo", mc={"n_trajectories": 0}),
         "mc: n_trajectories must be >= 1, got 0"),
        (lambda d: d.update(method="montecarlo", mc={"n_trajectories": 10, "seed": "1"}),
         "mc.seed: expected an integer, got '1'"),
        (lambda d: d.update(method="montecarlo", mc={"n_trajectories": 10, "chunk_size": 0}),
         "mc: chunk_size must be in [1, n_trajectories], got 0"),
        (lambda d: d.update(method="montecarlo", mc={"n_trajectories": 10, "chunk_size": 20}),
         "mc: chunk_size must be in [1, n_trajectories], got 20"),
        (lambda d: d.update(method="montecarlo", mc={"n_trajectories": 2**21, "chunk_size": 2**21}),
         "mc: chunk_size must be <= 1048576, got 2097152"),
        (lambda d: d.update(method="montecarlo", mc={"n_trajectories": 2**62}),
         "mc: n_trajectories 4611686018427387904 at chunk_size 65536 makes 70368744177664 "
         "chunks, over the 65536-chunk limit"),
        (lambda d: d.update(method="montecarlo", mc={"n_trajectories": 10, "path_dt": "x"}),
         "mc.path_dt: expected a number, got 'x'"),
        (lambda d: d.update(method="montecarlo", mc={"n_trajectories": 10, "path_dt": 0}),
         "mc: path_dt must be finite and > 0, got 0.0"),
        (lambda d: d.update(method="montecarlo", mc={"n_trajectories": 10, "threads": 2}),
         "mc.threads: unknown field"),
        (lambda d: d.update(ORACLE, system_init=[1, 0]), "system_init: expected a JSON object, got list"),
        (lambda d: d.update(ORACLE, system_init={"a": 1.0}), "system_init.b: required field is missing"),
        (lambda d: d.update(ORACLE, system_init={"a": "1", "b": 0}),
         "system_init.a: expected a number or [re, im] pair, got '1'"),
        (lambda d: d.update(ORACLE, system_init={"a": 1.0, "b": 1.0}),
         "system_init: system amplitudes must satisfy |a|^2+|b|^2=1, got 2.0"),
        (lambda d: d.update(ORACLE, system_init={"a": 1.0, "b": 0.0, "c": 0}),
         "system_init.c: unknown field"),
        (lambda d: d.update(output_path=3), "output_path: expected a non-empty string, got 3"),
        (lambda d: d.update(output_path="a\u0000b.csv"),
         "output_path: 'a\\x00b.csv' cannot name a file: it holds a NUL character"),
        (lambda d: d.update(output_path="a\ud800.csv"),
         "output_path: 'a\\ud800.csv' cannot name a file: surrogates not allowed"),
        pytest.param(lambda d: d.update(output_path="x" * 300 + ".csv"),
                     f"output_path: {'x' * 300 + '.csv'!r} cannot name a file: File name too long",
                     id="output_path-name-too-long"),
        # the name fits, its manifest's does not
        pytest.param(lambda d: d.update(output_path="x" * 245 + ".csv"),
                     f"output_path: {'x' * 245 + '.csv'!r} cannot name a file: File name too long",
                     id="output_path-manifest-name-too-long"),
    ],
)
def test_parse_config_rejects_bad_documents(mutate, fragment):
    doc = base_config()
    mutate(doc)
    with pytest.raises(ConfigError, match=re.escape(fragment)):
        cli.parse_config(doc)


@pytest.mark.parametrize("args, message", [
    ((-1.0, 1.0, 3), "start must be finite and >= 0, got -1.0"),
    ((math.nan, 1.0, 3), "start must be finite and >= 0, got nan"),
    ((1.0, 0.5, 3), "stop must be finite and >= start, got 0.5"),
    ((0.0, math.inf, 3), "stop must be finite and >= start, got inf"),
    ((0.0, 1.0, 0), "count must be > 0, got 0"),
    ((1.0, 1.0, 2), "count must be 1 when start == stop"),
    ((0.0, 1.0, 2**20 + 1), "count must be <= 1048576, got 1048577"),
])
def test_grid_spec_refuses_each_rule_by_field_name(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cli.GridSpec(*args)


def test_grid_spec_builds_at_the_edges_of_its_rules():
    assert cli.GridSpec(0.0, 0.0, 1).values().tolist() == [0.0]
    assert cli.GridSpec(0.0, 1.0, 2**20).values().size == 2**20


def test_parse_config_bath_amplitudes():
    doc = base_config(
        model={
            "kind": "spin_bath",
            "couplings": [0.5, 1.0],
            "alphas": [[0.6, 0.0], 1.0],
            "betas": [0.8, 0.0],
        },
    )
    config = cli.parse_config(doc)
    assert config.model.n_spins == 2
    doc["model"]["betas"] = [0.9, 0.0]
    with pytest.raises(ConfigError):
        cli.parse_config(doc)


def test_spin_bath_echoes_its_default_amplitudes(tmp_path):
    # without alphas and betas, the echo holds the resolved 1/sqrt 2, one per coupling
    doc = base_config(model={"kind": "spin_bath", "couplings": [0.5, 1.0, 0.8]})
    half = 1.0 / math.sqrt(2.0)
    echo = {"kind": "spin_bath", "couplings": [0.5, 1.0, 0.8],
            "alphas": [half] * 3, "betas": [half] * 3}
    assert cli.parse_config(doc).canonical["model"] == echo
    code, _ = run_cli(tmp_path, doc)
    assert code == 0
    manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
    assert manifest["config"]["model"] == echo


def ou_config(g, tau_c, method, t_stop=1.0):
    doc = base_config(model={"kind": "exp_corr_gauss", "g": g, "tau_c": tau_c}, method=method,
                      t_grid={"start": 0.5, "stop": t_stop, "count": 2},
                      tau_grid={"start": 0.5, "stop": 1.0, "count": 2})
    if method != "analytic":
        doc["mc"] = {"n_trajectories": 1_000, "seed": 1}
    return doc


@pytest.mark.parametrize("g, tau_c, method, t_stop", [
    pytest.param(1e200, 1.0, "analytic", 1.0, id="analytic-g"),  # (tau_c g) ** 2 overflowed
    pytest.param(1.0, 1e308, "analytic", 1.0, id="analytic-tau_c"),
    pytest.param(9e153, 1.0, "analytic", 1.0, id="analytic-4-g2-tau_c2"),  # f_joint was NaN
    pytest.param(1.0, 1e308, "montecarlo", 1.0, id="montecarlo-tau_c"),  # variances were NaN
    pytest.param(1e200, 1e-200, "montecarlo", 1.0, id="montecarlo-g-g"),
    pytest.param(1.0, 1e300, "sampling", 1.0, id="sampling-tau_c"),
    pytest.param(1.0, 1.0, "montecarlo", 1e308, id="montecarlo-t_grid"),
    pytest.param(1.0, 1e-300, "montecarlo", 1e10, id="montecarlo-t-over-tau_c"),
])
def test_ou_parameters_whose_phase_variance_overflows_exit_2(tmp_path, monkeypatch, capsys,
                                                             g, tau_c, method, t_stop):
    # these crashed with an OverflowError or a NaN estimate (exit 1) or ended in
    # a model error (exit 3); they are rejected at parse time and named
    _no_evaluation(monkeypatch)
    code, out = run_cli(tmp_path, ou_config(g, tau_c, method, t_stop))
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert err.startswith("config error: model.g, model.tau_c: ")
    assert f"g = {g!r}, tau_c = {tau_c!r}" in err and "kind 'static_gauss'" in err


@pytest.mark.parametrize("model", [
    {"kind": "static_gauss", "g": 0.7},  # a traceback that named "s"
    {"kind": "scaled_spin_bath", "n_spins": 5, "g": 0.9},  # a traceback, "t must be finite"
    {"kind": "lorentz_coupling", "gamma": 0.7},
    {"kind": "static_lorentz", "gamma": 0.6},  # exit 3: "f_joint must be finite, got nan"
    {"kind": "white", "gamma_w": 0.4},  # ran
])
@pytest.mark.parametrize("quantity, tau_grid", [
    ("cpf", None),  # tau = t
    ("moments", {"start": 0.0, "stop": 1e308, "count": 2}),
    ("cpf_surface", {"start": 0.5, "stop": 1.7e308, "count": 3}),
])
def test_analytic_runs_whose_last_t_plus_tau_overflows_exit_2(tmp_path, monkeypatch, capsys,
                                                              model, quantity, tau_grid):
    _no_evaluation(monkeypatch)
    doc = base_config(model=model, quantity=quantity,
                      t_grid={"start": 1.0, "stop": 1e308, "count": 2})
    if tau_grid is not None:
        doc["tau_grid"] = tau_grid
    code, out = run_cli(tmp_path, doc)
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    tau_stop = (tau_grid or doc["t_grid"])["stop"]
    assert err == (f"config error: t_grid.stop, tau_grid.stop: the last t + tau, 1e+308 + "
                   f"{tau_stop!r}, is not finite\n")


def test_t_plus_tau_rule_leaves_t_only_quantities_and_finite_sums_alone(tmp_path):
    for quantity, tau_grid in [("coherence", None), ("cpf", {"start": 0.0, "stop": 1.0,
                                                             "count": 2})]:
        doc = base_config(quantity=quantity, t_grid={"start": 1.0, "stop": 1e308, "count": 2})
        if tau_grid is not None:
            doc["tau_grid"] = tau_grid
        code, out = run_cli(tmp_path, doc)
        assert code == 0
        assert [float(row["t"]) for row in read_rows(out)] == [1.0, 1e308]


@pytest.mark.parametrize("g, tau_c, method, t_stop", [
    (1e200, 1e-200, "analytic", 1.0),  # (tau_c g) ** 2 is 1, though g * g overflows
    (1e-300, 1e300, "analytic", 1.0),
    (1e-300, 1e300, "montecarlo", 1.0),
    (1.0, 1.0, "analytic", 1e308),  # the closed forms decay to 0.0
    (1.0, 1.0, "montecarlo", 8e307),
    (1e100, 1.0, "montecarlo", 1e100),
])
def test_ou_parameters_with_finite_phase_variances_still_run(tmp_path, g, tau_c, method, t_stop):
    code, out = run_cli(tmp_path, ou_config(g, tau_c, method, t_stop))
    assert code == 0
    assert all(math.isfinite(float(row["value"])) for row in read_rows(out))


# ---------------------------------------------------------------------------
# run subcommand

MODELS = {
    "white": {"kind": "white", "gamma_w": 0.4},
    "exp_corr_gauss": {"kind": "exp_corr_gauss", "g": 0.9, "tau_c": 1.3},
    "static_gauss": {"kind": "static_gauss", "g": 0.7},
    "static_lorentz": {"kind": "static_lorentz", "gamma": 0.6, "omega": 0.9},
    "spin_bath": {"kind": "spin_bath", "couplings": [0.5, 1.1, 0.8],
                  "alphas": [[0.6, 0.2], 0.8, 0.6], "betas": [0.7745966692414834, 0.6, 0.8]},
    "scaled_spin_bath": {"kind": "scaled_spin_bath", "n_spins": 12, "g": 0.9, "omega": 0.5},
    "lorentz_coupling": {"kind": "lorentz_coupling", "gamma": 0.7, "omega": 0.4, "n_spins": 3,
                         "alpha": 0.6, "beta": 0.8},
}

DETERMINISTIC = [
    (kind, quantity, method)
    for kind in MODELS
    for quantity in cli.QUANTITIES
    for method in cli.MODEL_KINDS[kind].family.methods(quantity)
    if method in ("analytic", "oracle")
]


def test_deterministic_triples_are_the_52_of_the_support_matrix():
    # every kind by analytic, each quantity it has; the two bath kinds by oracle, three each
    assert len(DETERMINISTIC) == len(set(DETERMINISTIC)) == 52


def library_values(config, t, tau):
    """Row label -> the scalar library value at one point."""
    model, q, kind = config.model, config.quantity, config.model_kind
    if config.method == "oracle":
        table = spinbath.oracle_protocol(model, config.system_init, t, tau, config.y_select)
        if q == "probability_table":
            return {label: table.entries[key] for key, label in cli._TABLE_LABELS}
        return {q: core.cpf_from_moments(table.moment_set())}
    if kind in ("spin_bath", "scaled_spin_bath"):
        if q == "coherence":
            return {q: spinbath.coherence(model, t).real}
        m = spinbath.moment_set(model, t, tau)
    elif kind == "lorentz_coupling":
        if q == "coherence":
            return {q: spinbath.lorentz_coherence(model, t).real}
        m = spinbath.lorentz_moment_set(model, t, tau)
    else:
        if q == "coherence":
            return {q: analytic.first_moment(model, t)}
        if q == "rate":
            return {q: analytic.dephasing_rate(model, t)}
        if q == "conditional_coherence":
            return {q: analytic.conditional_coherence(model, t, tau, config.yx)}
        if q in ("cpf", "cpf_surface"):
            return {q: analytic.cpf(model, t, tau)}
        m = analytic.moment_set(model, t, tau)
    if q == "moments":
        return {"f_t": m.f_t, "f_tau": m.f_tau, "f_joint": m.f_joint}
    if q == "probability_table":
        table = core.cpf_probability_table(m, config.y_select)
        return {label: table.entries[key] for key, label in cli._TABLE_LABELS}
    if q == "conditional_coherence":
        return {q: core.conditional_coherence(m, config.yx)}
    return {q: core.cpf_from_moments(m)}


def grid_points(config):
    """(t, tau) of every point of a two-time config in row order, from its grids:
    a surface t-major, a pointwise quantity t and tau side by side."""
    t = config.t_grid.values().tolist()
    tau = (config.tau_grid or config.t_grid).values().tolist()
    return [(a, b) for a in t for b in tau] if config.quantity == "cpf_surface" else [
        *zip(t, tau)]


@pytest.mark.parametrize("kind, quantity, method", DETERMINISTIC)
def test_run_analytic_cpf_roundtrip(tmp_path, kind, quantity, method):
    doc = base_config(
        model=MODELS[kind], quantity=quantity, method=method,
        t_grid={"start": 0.0, "stop": 2.0, "count": 5}, y_select=-1,
    )
    code, out = run_cli(tmp_path, doc)
    assert code == 0
    rows = read_rows(out)
    assert list(rows[0]) == list(cli.CSV_HEADER)
    config = cli.parse_config(doc)
    n_labels = len(library_values(config, 1.0, 1.0))
    assert len(rows) == (25 if quantity == "cpf_surface" else 5) * n_labels
    for row in rows:
        t = float(row["t"])
        tau = None if row["tau"] == "" else float(row["tau"])
        if quantity in ("coherence", "rate"):
            assert tau is None
        elif quantity != "cpf_surface":
            assert tau == t  # pointwise default is tau = t
        assert float(row["value"]) == library_values(config, t, tau)[row["quantity"]]
        assert row["std_error"] == "" and row["n_samples"] == ""
        assert (row["model"], row["method"]) == (kind, method)
    if (kind, quantity) == ("white", "cpf_surface"):
        assert all(float(row["value"]) == 0.0 for row in rows)

    manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
    assert manifest["kind"] == "cpfsim-run-manifest"
    assert manifest["outputs"] == ["out.csv"]
    assert manifest["config"]["model"]["kind"] == kind
    assert manifest["wall_time_s"] >= 0.0


# a closed form of every family: the noise models, spin baths of balanced, unbalanced
# and complex amplitudes, a precessing scaled bath and a Cauchy ensemble at omega != 0
CLOSED_FORM_MODELS = {
    **{kind: MODELS[kind] for kind in ("white", "exp_corr_gauss", "static_gauss",
                                       "static_lorentz")},
    "balanced_bath": {"kind": "spin_bath", "couplings": [0.5, 1.1, 0.8]},
    "unbalanced_bath": {"kind": "spin_bath", "couplings": [0.5, 1.1],
                        "alphas": [0.6, 0.8], "betas": [0.8, 0.6]},
    "complex_bath": MODELS["spin_bath"],
    "scaled_spin_bath": MODELS["scaled_spin_bath"],
    "lorentz_coupling": MODELS["lorentz_coupling"],
}


@pytest.mark.parametrize("model", CLOSED_FORM_MODELS.values(), ids=CLOSED_FORM_MODELS)
def test_an_analytic_surface_over_its_axes_equals_the_flat_points_bitwise(model):
    # t = 0 and tau = 0 rows, and a tau grid that is not the t grid
    config = cli.parse_config(base_config(
        model=model, quantity="cpf_surface", t_grid={"start": 0.0, "stop": 2.0, "count": 5},
        tau_grid={"start": 0.0, "stop": 1.7, "count": 4}))
    t, tau = np.array(grid_points(config)).T
    want = core.cpf_from_moments(
        cli.MODEL_KINDS[config.model_kind].family.moments(config.model, t, tau))
    rows = cli.evaluate_rows(config)
    assert rows.surface and (rows.t.size, rows.tau.size) == (5, 4)
    assert rows.value.ravel().tobytes() == want.tobytes()


def test_an_analytic_surface_is_held_as_its_axes_from_evaluation_to_the_csv():
    # a 1024 x 1024 OU surface peaked at 81.0 MiB in evaluate_rows and 85.9 MiB in
    # write_csv (its Results held) with per-point t and tau columns, and at 49.0 and
    # 53.9 MiB with the two axes
    grid = {"start": 0.0, "stop": 3.0, "count": 1024}
    config = cli.parse_config(base_config(model=MODELS["exp_corr_gauss"], quantity="cpf_surface",
                                          t_grid=grid))
    tracemalloc.start()
    try:
        rows = cli.evaluate_rows(config)
        evaluate = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        cli.write_csv(rows, Path(os.devnull))
        write = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert evaluate < 65 * 2**20 and write < 70 * 2**20
    assert (rows.t.size, rows.tau.size, rows.value.size) == (1024, 1024, 2**20)


@pytest.mark.parametrize("quantity, moment_sets", [("cpf_surface", 4), ("probability_table", 0)])
def test_oracle_validates_and_reads_out_each_run_table_once(monkeypatch, quantity, moment_sets):
    # four t make four oracle calls, one table each
    calls = {"validations": 0, "moment_sets": 0}
    table_class = core.CpfProbabilityTable
    post_init, moment_set = table_class.__post_init__, table_class.moment_set

    def counted(name, method):
        def wrapper(self):
            calls[name] += 1
            return method(self)
        return wrapper

    monkeypatch.setattr(table_class, "__post_init__", counted("validations", post_init))
    monkeypatch.setattr(table_class, "moment_set", counted("moment_sets", moment_set))
    config = cli.parse_config(base_config(**ORACLE, quantity=quantity,
                                          t_grid={"start": 0.2, "stop": 1.4, "count": 4}))
    rows = cli.evaluate_rows(config)
    assert rows.value.shape == ((16, 1) if quantity == "cpf_surface" else (4, 4))
    assert calls == {"validations": 4, "moment_sets": moment_sets}


def test_run_value_formatting_is_lossless(tmp_path):
    doc = base_config(
        model={"kind": "exp_corr_gauss", "g": 0.9, "tau_c": 1.3},
        quantity="coherence",
    )
    code, out = run_cli(tmp_path, doc)
    assert code == 0
    model = analytic.ExpCorrGauss(0.9, 1.3)
    for row in read_rows(out):
        assert row["tau"] == ""  # t-only quantity
        assert float(row["value"]) == analytic.first_moment(model, float(row["t"]))


def test_run_montecarlo_rerun_from_manifest_is_bit_identical(tmp_path):
    doc = base_config(
        quantity="cpf",
        method="montecarlo",
        model={"kind": "exp_corr_gauss", "g": 0.8, "tau_c": 1.0},
        mc={"n_trajectories": 20_000, "seed": 11},
    )
    code, out = run_cli(tmp_path, doc)
    assert code == 0
    rows = read_rows(out)
    assert all(int(r["n_samples"]) == 20_000 and float(r["std_error"]) > 0 for r in rows)

    manifest_path = tmp_path / "out.csv.manifest.json"
    redo = tmp_path / "redo.csv"
    code = cli.main(
        ["run", "--config", str(manifest_path), "--output", str(redo), "--quiet"]
    )
    assert code == 0
    assert redo.read_bytes() == out.read_bytes()


OU = {"kind": "exp_corr_gauss", "g": 0.9, "tau_c": 1.3}
# 2 x 3 surfaces and a 3-point grid, each in two unequal chunks
SURFACE = {"t_grid": {"start": 0.1, "stop": 1.5, "count": 2},
           "tau_grid": {"start": 0.2, "stop": 2.0, "count": 3}}
TWO_CHUNKS = {"n_trajectories": 3_000, "chunk_size": 2_000, "seed": 5}
# each tau, 0.0 among them, repeated at three t from 0.0
REPEATED_TAU = {"t_grid": {"start": 0.0, "stop": 1.2, "count": 3},
                "tau_grid": {"start": 0.0, "stop": 0.9, "count": 2}}
GRID_VS_POINTS = [
    (dict(SURFACE, model=OU, quantity="cpf_surface", method="montecarlo"),
     stochastic.mc_cpf_semianalytic),
    (dict(SURFACE, model=OU, quantity="cpf_surface", method="sampling", y_select=-1),
     lambda m, t, tau, cfg, w: stochastic.mc_cpf_sampling(m, t, tau, -1, cfg, w)),
    ({"model": {"kind": "static_lorentz", "gamma": 0.7, "omega": 0.3}, "quantity": "moments",
      "method": "montecarlo", "t_grid": {"start": 0.1, "stop": 2.0, "count": 3}},
     stochastic.mc_moments),
    (dict(SURFACE, model={"kind": "lorentz_coupling", "gamma": 1.0, "n_spins": 6},
          quantity="cpf_surface", method="montecarlo"),
     spinbath.lorentz_mc_cpf),
    (dict(SURFACE, model=MODELS["static_gauss"], quantity="cpf_surface", method="montecarlo"),
     stochastic.mc_cpf_semianalytic),
    (dict(SURFACE, model=MODELS["static_gauss"], quantity="cpf_surface", method="sampling"),
     lambda m, t, tau, cfg, w: stochastic.mc_cpf_sampling(m, t, tau, 1, cfg, w)),
    ({"model": MODELS["white"], "quantity": "moments", "method": "montecarlo",
      "t_grid": {"start": 0.1, "stop": 2.0, "count": 3}},
     stochastic.mc_moments),
    ({"model": MODELS["white"], "quantity": "conditional_coherence", "method": "montecarlo",
      "yx": -1, "t_grid": {"start": 0.1, "stop": 2.0, "count": 3},
      "tau_grid": {"start": 0.3, "stop": 1.2, "count": 3}},
     lambda m, t, tau, cfg, w: stochastic.mc_conditional_coherence(m, t, tau, -1, cfg, w)),
    # each t, 0.0 among them, repeated over three tau from 0.0
    (dict(model=OU, quantity="cpf_surface", method="sampling",
          t_grid={"start": 0.0, "stop": 1.5, "count": 2},
          tau_grid={"start": 0.0, "stop": 2.0, "count": 3}),
     lambda m, t, tau, cfg, w: stochastic.mc_cpf_sampling(m, t, tau, 1, cfg, w)),
    *[(dict(REPEATED_TAU, model=MODELS[kind], quantity="cpf_surface", method=method), estimator)
      for kind in ("white", "static_lorentz") for method, estimator in (
          ("montecarlo", stochastic.mc_cpf_semianalytic),
          ("sampling", lambda m, t, tau, cfg, w: stochastic.mc_cpf_sampling(m, t, tau, 1, cfg, w)))],
]


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("doc, estimator", GRID_VS_POINTS)
def test_evaluate_rows_equals_per_point_estimator_calls(monkeypatch, doc, estimator, workers):
    config = cli.parse_config(base_config(**doc, mc=TWO_CHUNKS))
    want = []
    for t, tau in grid_points(config):
        est = estimator(config.model, t, tau, config.mc, workers)
        want.extend(est if config.quantity == "moments" else [est])

    generators = []
    stream = _mc.Chunk.stream
    monkeypatch.setattr(_mc.Chunk, "stream", lambda c, *offset: generators.append(
        (c.seed, c.index, *offset)) or stream(c, *offset))
    rows = cli.evaluate_rows(config, workers)
    # the first point draws each of the two chunks (an ensemble chunk of 2,000
    # trajectories is one tile, at offset 0); every later point reuses them
    assert sorted(g[:2] for g in generators) == [(5, 0), (5, 1)]
    assert all(g[2:] in [(), (0,)] for g in generators)
    for field, column in (("value", rows.value), ("std_error", rows.std_error),
                          ("n_samples", rows.n_samples)):
        expected = np.array([getattr(e, field) for e in want], dtype=column.dtype)
        assert column.ravel().tobytes() == expected.tobytes(), field


@pytest.mark.parametrize("n_spins", [1, 7, 50])
@pytest.mark.parametrize("amplitudes", [{}, {"alpha": 0.8, "beta": 0.6}],
                         ids=["balanced", "unbalanced"])
def test_an_ensemble_grid_that_keeps_some_tiles_of_a_chunk_keeps_every_bit(
        monkeypatch, n_spins, amplitudes):
    # chunks of 9,000 and 4,000 trajectories: tiles of 4,096, 4,096 and 808, then
    # one of 4,000; the memo budget holds the first and the last tile of chunk 0
    # only, so every later point redraws chunk 0's middle tile and all of chunk 1
    model = {"kind": "lorentz_coupling", "gamma": 1.1, "omega": 0.3, "n_spins": n_spins,
             **amplitudes}
    config = cli.parse_config(base_config(
        **SURFACE, model=model, quantity="cpf_surface", method="montecarlo",
        mc={"n_trajectories": 13_000, "chunk_size": 9_000, "seed": 5}))
    want = [spinbath.lorentz_mc_cpf(config.model, t, tau, config.mc)
            for t, tau in grid_points(config)]
    monkeypatch.setattr(_mc, "GRID_MEMO_MAX_BYTES", 8 * n_spins * (4_096 + 808))
    tiles = []
    stream = _mc.Chunk.stream
    monkeypatch.setattr(_mc.Chunk, "stream",
                        lambda c, offset: tiles.append((c.index, offset)) or stream(c, offset))
    rows = cli.evaluate_rows(config)
    for field in ("value", "std_error", "n_samples"):
        expected = np.array([getattr(e, field) for e in want], dtype=getattr(rows, field).dtype)
        assert getattr(rows, field).ravel().tobytes() == expected.tobytes(), field
    points = len(want)
    offsets = [0, 4_096 * n_spins // 4, 8_192 * n_spins // 4]
    assert sorted(tiles) == sorted([(0, k) for k in offsets] + [(1, 0)]
                                   + [(0, offsets[1]), (1, 0)] * (points - 1))


# the white and static grids of GRID_VS_POINTS, whose cos 2 theta2 is a per-tau stage
@pytest.mark.parametrize("doc", [doc for doc, _ in GRID_VS_POINTS[-4:]])
def test_per_tau_stages_past_the_grid_memo_budget_keep_every_bit(monkeypatch, doc):
    config = cli.parse_config(base_config(**doc, mc=TWO_CHUNKS))
    want = cli.evaluate_rows(config)
    held, stages = [], set()
    memo = _mc.Chunk.memo

    def watched(chunk, stage, *args):
        value = memo(chunk, stage, *args)
        held.append(_mc._memo_bytes)
        stages.add(stage.split()[0])
        return value

    monkeypatch.setattr(_mc.Chunk, "memo", watched)
    cli.evaluate_rows(config)
    assert "cos2" in stages
    # half of what the whole grid keeps cannot hold every tau slot
    budget = max(held) // 2
    monkeypatch.setattr(_mc, "GRID_MEMO_MAX_BYTES", budget)
    held.clear()
    rows = cli.evaluate_rows(config)
    assert 0 < max(held) <= budget
    for field in ("value", "std_error", "n_samples"):
        assert getattr(rows, field).tobytes() == getattr(want, field).tobytes(), field


@pytest.mark.parametrize("quantity, tau_grid", [
    ("cpf_surface", {"start": 0.0, "stop": 1.5, "count": 4}),
    ("probability_table", {"start": 0.1, "stop": 0.7, "count": 3}),
    ("cpf", None),
])
def test_evaluate_rows_calls_the_oracle_once_per_t(monkeypatch, quantity, tau_grid):
    doc = base_config(model=MODELS["spin_bath"], quantity=quantity, method="oracle",
                      t_grid={"start": 0.0, "stop": 2.0, "count": 3}, y_select=-1)
    if tau_grid is not None:
        doc["tau_grid"] = tau_grid
    config = cli.parse_config(doc)
    calls = []
    oracle = spinbath.oracle_protocol
    monkeypatch.setattr(spinbath, "oracle_protocol",
                        lambda spec, init, t, tau, y: calls.append(t) or oracle(spec, init, t, tau, y))
    rows = cli.evaluate_rows(config)
    points = grid_points(config)
    assert calls == config.t_grid.values().tolist()  # a pointwise grid's t is its point's
    assert rows.std_error is None and rows.n_samples is None
    assert rows.value.shape == (len(points), 4 if quantity == "probability_table" else 1)
    for k, (t, tau) in enumerate(points):
        assert rows.value[k].tolist() == list(library_values(config, t, tau).values())


def test_run_seed_override_changes_results(tmp_path):
    doc = base_config(
        method="montecarlo",
        mc={"n_trajectories": 10_000, "seed": 1},
        t_grid={"start": 0.5, "stop": 0.5, "count": 1},
    )
    _, out_a = run_cli(tmp_path, doc)
    rows_a = read_rows(out_a)
    doc["output_path"] = "b.csv"
    code, out_b = run_cli(tmp_path, doc, "--seed", "2")
    assert code == 0
    rows_b = read_rows(out_b)
    assert rows_a[0]["value"] != rows_b[0]["value"]
    manifest = json.loads((tmp_path / "b.csv.manifest.json").read_text())
    assert manifest["config"]["mc"]["seed"] == 2


def test_run_probability_table_rows_normalize(tmp_path):
    doc = base_config(
        quantity="probability_table",
        model={"kind": "static_gauss", "g": 0.7},
        t_grid={"start": 0.3, "stop": 0.9, "count": 3},
    )
    code, out = run_cli(tmp_path, doc)
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 12
    by_t = {}
    for row in rows:
        by_t.setdefault(row["t"], []).append(float(row["value"]))
    for values in by_t.values():
        assert math.fsum(values) == pytest.approx(1.0, abs=1e-12)


def test_run_oracle_table(tmp_path):
    doc = base_config(
        quantity="probability_table",
        method="oracle",
        model={
            "kind": "spin_bath",
            "couplings": [0.7, 1.1],
            "alphas": [[0.6, 0.2], 0.8],
            "betas": [0.7745966692414834, 0.6],
        },
        t_grid={"start": 0.5, "stop": 0.5, "count": 1},
        y_select=-1,
    )
    code, out = run_cli(tmp_path, doc)
    assert code == 0
    rows = read_rows(out)
    assert [r["quantity"] for r in rows] == ["p_z+_x+", "p_z+_x-", "p_z-_x+", "p_z-_x-"]
    assert math.fsum(float(r["value"]) for r in rows) == pytest.approx(1.0, abs=1e-12)


def test_run_oracle_surface_from_zero_time(tmp_path):
    # the 7-spin bath whose oracle table at t = tau = 0 rounds one entry to 1 + 2**-52
    # (tests/test_spinbath.py::test_oracle_at_zero_times_clips_an_entry_rounded_above_one)
    rng = np.random.default_rng(366)
    a = rng.normal(size=7) + 1j * rng.normal(size=7)
    b = rng.normal(size=7) + 1j * rng.normal(size=7)
    norm = np.sqrt(np.abs(a) ** 2 + np.abs(b) ** 2)
    doc = base_config(
        quantity="cpf_surface",
        method="oracle",
        model={"kind": "spin_bath", "couplings": rng.uniform(0.1, 2.0, size=7).tolist(),
               "alphas": [[z.real, z.imag] for z in a / norm],
               "betas": [[z.real, z.imag] for z in b / norm]},
        t_grid={"start": 0.0, "stop": 1.0, "count": 2},
    )
    code, out = run_cli(tmp_path, doc)
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 4
    # C(0, tau) = C(t, 0) = 0, the latter to the oracle's rounding
    assert [abs(float(r["value"])) < 1e-15 for r in rows] == [True, True, True, False]


def test_run_moments_emits_three_labeled_rows(tmp_path):
    doc = base_config(quantity="moments", t_grid={"start": 0.4, "stop": 0.8, "count": 2})
    code, out = run_cli(tmp_path, doc)
    assert code == 0
    assert [r["quantity"] for r in read_rows(out)] == ["f_t", "f_tau", "f_joint"] * 2


def test_run_cpf_surface_is_cartesian(tmp_path):
    doc = base_config(
        quantity="cpf_surface",
        model={"kind": "static_gauss", "g": 1.0},
        t_grid={"start": 0.5, "stop": 2.0, "count": 3},
        tau_grid={"start": 0.5, "stop": 3.0, "count": 4},
    )
    code, out = run_cli(tmp_path, doc)
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 12
    import numpy as np

    assert [(r["t"], r["tau"]) for r in rows] == [  # row-major, t outer
        (format(t, ".17g"), format(u, ".17g"))
        for t in np.linspace(0.5, 2.0, 3)
        for u in np.linspace(0.5, 3.0, 4)
    ]


def test_run_surface_of_a_large_scaled_bath_from_zero(tmp_path):
    # 5,000 spins: a product with each spin's rounded norm multiplied in gave
    # f_t = 1.0000000000011102 at t = 0, and the run exited 3 (model error)
    doc = base_config(
        quantity="cpf_surface",
        model={"kind": "scaled_spin_bath", "n_spins": 5_000, "g": 1.0},
        t_grid={"start": 0.0, "stop": 1.0, "count": 5},
    )
    code, out = run_cli(tmp_path, doc)
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 25
    on_axes = [r["value"] for r in rows if "0" in (r["t"], r["tau"])]
    assert len(on_axes) == 9 and set(on_axes) == {"0"}
    assert all(float(r["value"]) > 0.0 for r in rows if "0" not in (r["t"], r["tau"]))


def _number(field, kind):
    return "" if field == "" else format(kind(field), ".17g" if kind is float else "d")


def rerendered(path):
    """The CSV at path written again by csv.writer (default dialect): floats
    at .17g, counts as plain integers, empty fields for missing values."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for t, tau, value, std_error, n_samples, *labels in rows:
        writer.writerow([_number(t, float), _number(tau, float), _number(value, float),
                         _number(std_error, float), _number(n_samples, int), *labels])
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("overrides", [
    {"quantity": "moments"},
    {"quantity": "probability_table", "model": {"kind": "static_gauss", "g": 0.7}},
    {"quantity": "coherence", "model": {"kind": "exp_corr_gauss", "g": 0.9, "tau_c": 1.3}},
    {"method": "montecarlo", "model": {"kind": "exp_corr_gauss", "g": 0.8, "tau_c": 1.0},
     "mc": {"n_trajectories": 5_000, "seed": 3}},
], ids=["moments", "probability_table", "coherence", "montecarlo_cpf"])
def test_run_csv_bytes_match_stdlib_writer(tmp_path, overrides):
    code, out = run_cli(tmp_path, base_config(**overrides))
    assert code == 0
    data = out.read_bytes()
    assert data.startswith(b"t,tau,value,std_error,n_samples,quantity,model,method\r\n")
    assert data == rerendered(out)


def test_run_lorentz_coupling_model(tmp_path):
    doc = base_config(
        model={"kind": "lorentz_coupling", "gamma": 1.0},
        t_grid={"start": 1.0, "stop": 1.0, "count": 1},
    )
    code, out = run_cli(tmp_path, doc)
    assert code == 0
    value = float(read_rows(out)[0]["value"])
    assert value == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# exit codes

def test_exit_code_missing_config(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "absent.json")]) == 1
    assert "io error" in capsys.readouterr().err


def test_exit_code_invalid_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for content, message in [
        (b"{ not json", "invalid JSON at line 1"),
        (b'{"model": "\xff"}', "invalid JSON: 'utf-8' codec can't decode byte 0xff in position 11"),
        (b"[" + b"1" * 5000 + b"]", "invalid JSON: Exceeds the limit"),
        (b"[" * 100_000, "invalid JSON: maximum recursion depth exceeded"),
    ]:
        bad.write_bytes(content)
        for command in ("run", "sweep"):
            assert cli.main([command, "--config", str(bad)]) == 2
            assert capsys.readouterr().err.startswith(f"config error: {bad}: {message}")


def test_exit_code_grid_over_point_limit(tmp_path, capsys):
    # rejected at parse time: neither grid is ever built
    doc = base_config(t_grid={"start": 0.0, "stop": 1.0, "count": 10**20}, output_path="never.csv")
    code, out = run_cli(tmp_path, doc)
    assert code == 2 and not out.exists()
    assert "t_grid: count must be <= 1048576" in capsys.readouterr().err
    # the largest surface still parses
    grid = {"start": 0.0, "stop": 1.0, "count": 1024}
    assert cli.parse_config(base_config(quantity="cpf_surface", t_grid=grid)).t_grid.count == 1024


def test_exit_code_monte_carlo_over_chunk_limit(tmp_path, capsys):
    # rejected at parse time: no chunk list is ever built
    doc = base_config(method="montecarlo", mc={"n_trajectories": 2**62}, output_path="never.csv")
    code, out = run_cli(tmp_path, doc)
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert err.startswith("config error: ") and "over the 65536-chunk limit" in err


def test_exit_code_domain_error(tmp_path, capsys):
    # conditioning on yx = -1 at t = 0 selects a zero-probability branch
    doc = base_config(
        quantity="conditional_coherence",
        yx=-1,
        t_grid={"start": 0.0, "stop": 1.0, "count": 3},
        output_path="never.csv",
    )
    code, _ = run_cli(tmp_path, doc)
    assert code == 3
    assert "model error" in capsys.readouterr().err


def test_exit_code_ensemble_over_memory_budget(tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("the ensemble drew samples")

    monkeypatch.setattr(spinbath, "collect_moments", never)
    doc = base_config(
        model={"kind": "lorentz_coupling", "gamma": 1.0, "n_spins": 10**7},
        quantity="coherence",
        method="montecarlo",
        mc={"n_trajectories": 65_536},
    )
    code, _ = run_cli(tmp_path, doc)
    assert code == 3
    assert "over the 256 MiB budget" in capsys.readouterr().err


def test_a_run_over_the_work_budget_exits_2_before_any_evaluation(tmp_path, monkeypatch, capsys):
    # a 1024 x 1024 OU surface at 2^36 trajectories: 2^56 trajectory evaluations,
    # about 56 years at 4.1e7 a second
    def never(*args, **kwargs):
        raise AssertionError("the run was evaluated")

    monkeypatch.setattr(cli, "evaluate_rows", never)
    doc = base_config(
        model={"kind": "exp_corr_gauss", "g": 1.0, "tau_c": 1.0},
        quantity="cpf_surface",
        method="montecarlo",
        t_grid={"start": 0.0, "stop": 1.0, "count": 1024},
        mc={"n_trajectories": 2**36, "chunk_size": 2**20},
    )
    code, _ = run_cli(tmp_path, doc)
    assert code == 2
    assert ("mc.n_trajectories: 1048576 points x 2^36.0 each is 2^56.0 of work, over the 2^42 "
            "budget") in capsys.readouterr().err


@pytest.mark.parametrize("doc, field", [
    # points x trajectories x spins for the Cauchy ensemble
    (base_config(model={"kind": "lorentz_coupling", "gamma": 1.0, "n_spins": 2**10},
                 t_grid={"start": 0.2, "stop": 2.0, "count": 4}, method="montecarlo",
                 mc={"n_trajectories": 2**30}), "mc.n_trajectories"),
    # points x 2^N amplitudes for the oracle
    (base_config(model={"kind": "spin_bath", "couplings": [0.1] * 40},
                 t_grid={"start": 0.2, "stop": 2.0, "count": 4}, method="oracle"), "model"),
])
def test_work_budget_counts_spins_and_oracle_amplitudes(doc, field):
    cli.parse_config(doc)  # 2^42 exactly: at the budget
    doc = {**doc, "t_grid": {"start": 0.2, "stop": 2.0, "count": 5}}
    with pytest.raises(ConfigError, match=rf"^{field}: 5 points x 2\^40\.0 each is 2\^42\.3 of"):
        cli.parse_config(doc)


def test_stored_and_benchmark_configs_are_under_the_work_budget():
    # every stored manifest, and every run and sweep leg of perfbench's workloads
    # at seeds 1, 2, 3 and 7, read from perfbench/ (nothing there is changed)
    root = Path(__file__).resolve().parents[1]
    docs = {str(p): json.loads(p.read_text(encoding="utf-8"))
            for p in sorted((root / "tests" / "data").glob("manifests_*/*.manifest.json"))}
    spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                                  root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    for name in workloads.WORKLOADS:
        for seed in (1, 2, 3, 7):
            for job in workloads.jobs_for(name, seed):
                sweep = job.config.get("sweep", {})
                for combo in itertools.product(*(sweep[key] for key in sorted(sweep))):
                    doc = copy.deepcopy(job.config)
                    for key, value in zip(sorted(sweep), combo):
                        cli._set_by_path(doc, key, value)
                    docs[f"{name}/{seed}/{job.name}{list(combo)}"] = doc
    assert len(docs) > 80
    for doc in docs.values():
        cli.parse_config(doc)  # raises past the budget


def run_strictly(tmp_path, doc, *extra):
    """run_cli with every warning an error: a run must print nothing numpy says."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run_cli(tmp_path, doc, *extra)


@pytest.mark.parametrize("section, overrides", [
    # an OverflowError traceback (exit 1)
    ("model", {"model": {"kind": "lorentz_coupling", "gamma": 0.7, "alpha": 1e200}}),
    ("system_init", {**ORACLE, "system_init": {"a": 1e200, "b": 0.0}}),
    # exit 2, after numpy's RuntimeWarning
    ("model", {"model": {"kind": "spin_bath", "couplings": [0.5], "alphas": [1e200],
                         "betas": [0.0]}}),
])
def test_amplitudes_whose_norm_overflows_exit_2(tmp_path, monkeypatch, capsys, section, overrides):
    _no_evaluation(monkeypatch)
    code, out = run_strictly(tmp_path, base_config(**overrides))
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert err.startswith(f"config error: {section}: ") and err.count("\n") == 1
    assert err.endswith(" amplitudes must satisfy |a|^2+|b|^2=1, got inf\n")


def test_a_lorentz_ensemble_of_more_spins_than_the_float_range_exits_2(tmp_path, monkeypatch,
                                                                       capsys):
    # its closed form ended in "OverflowError: int too large to convert to float", exit 1
    _no_evaluation(monkeypatch)
    doc = base_config(model={"kind": "lorentz_coupling", "gamma": 0.7, "n_spins": 10**400})
    code, out = run_strictly(tmp_path, doc)
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert err == f"config error: model: n_spins must be finite and > 0, got {10**400}\n"


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("model, quantity, method, t, named", [
    # tracebacks: "ValueError: value must be finite, got nan" (exit 1)
    ({"kind": "static_gauss", "g": 0.5}, "coherence", "montecarlo", 1.7e308, "value"),
    ({"kind": "white", "gamma_w": 1.7e308}, "conditional_coherence", "montecarlo", 3.0, "value"),
    ({"kind": "lorentz_coupling", "gamma": 1.7e308, "n_spins": 2}, "cpf", "montecarlo", 1.0,
     "value"),
    # nan and inf written at exit 0
    ({"kind": "static_lorentz", "gamma": 1e12, "omega": 1e200}, "coherence", "analytic", 1e300,
     "coherence at t=1e+300 is nan"),
    ({"kind": "static_gauss", "g": 1.7e308}, "rate", "analytic", 1.0, "rate at t=1.0 is inf"),
])
def test_runs_whose_results_are_not_finite_exit_3_and_write_nothing(
        tmp_path, capsys, threads, model, quantity, method, t, named):
    doc = base_config(model=model, quantity=quantity, method=method,
                      t_grid={"start": t, "stop": t, "count": 1})
    if method == "montecarlo":  # four chunks, so that two threads map them
        doc["mc"] = {"n_trajectories": 1000, "seed": 1, "chunk_size": 250}
    code, out = run_strictly(tmp_path, doc, "--threads", threads)
    err = capsys.readouterr().err
    assert code == 3 and not out.exists() and not cli._manifest_path(out).exists()
    assert err.startswith("model error: ") and err.count("\n") == 1 and named in err


@pytest.mark.parametrize("y_select", [1, -1])
@pytest.mark.parametrize("model, t", [
    ({"kind": "white", "gamma_w": 1e200}, 1e200),
    ({"kind": "static_gauss", "g": 1e200}, 1e200),
    ({"kind": "static_lorentz", "gamma": 1.0}, 1e306),  # the Cauchy tail overflows some phases
])
def test_a_sampling_run_whose_phases_overflow_exits_3_and_writes_nothing(
        tmp_path, capsys, model, t, y_select):
    # u < nan is False, so a nan cos 2 theta1 counted its trajectory as y = -1: these
    # runs exited 0, or at y_select +1 exited 3 blaming the postselection
    doc = base_config(model=model, method="sampling", y_select=y_select,
                      t_grid={"start": t, "stop": t, "count": 1},
                      tau_grid={"start": 1.0, "stop": 1.0, "count": 1},
                      mc={"n_trajectories": 10_000, "seed": 1})
    code, out = run_strictly(tmp_path, doc)
    assert code == 3 and not out.exists() and not cli._manifest_path(out).exists()
    assert capsys.readouterr().err == (
        f"model error: t = {t!r} overflows a sampled phase: cos 2 theta is nan\n")


def test_a_scaled_bath_over_the_memory_budget_exits_3_before_any_allocation(
        tmp_path, monkeypatch, capsys):
    # 10^9 spins made three 10^9-long arrays (40 GB) while the config was parsed
    def never(*args, **kwargs):
        raise AssertionError("the bath was allocated")

    monkeypatch.setattr(np, "full", never)
    _no_evaluation(monkeypatch)
    doc = base_config(model={"kind": "scaled_spin_bath", "n_spins": 10**9, "g": 0.9})
    code, out = run_cli(tmp_path, doc)
    err = capsys.readouterr().err
    assert code == 3 and not out.exists()
    assert err == ("model error: N = 1000000000 spins take 38146 MiB of couplings and "
                   "amplitudes, over the 256 MiB budget\n")


# Parameters and amplitudes span the positive floats and inf (1.8e308, refused
# with exit 2), and times reach 1e308; values of order 1 are drawn as often, so
# that runs also get through to their CSV.  Counts stay small, so that no example
# allocates much.
_PARAMETER = st.one_of(st.floats(0.1, 3.0), st.floats(min_value=5e-324, max_value=1.8e308))
_TIME = st.one_of(st.floats(0.0, 3.0), st.floats(min_value=0.0, max_value=1e308))
_PAIR = st.one_of(st.tuples(_PARAMETER, _PARAMETER),
                  st.floats(0.0, math.pi / 2).map(lambda x: (math.cos(x), math.sin(x))))


@st.composite
def _grid(draw, count=None):
    start = draw(_TIME)
    stop = draw(st.floats(min_value=start, max_value=1e308))
    count = 1 if start == stop else count or draw(st.integers(1, 3))
    return {"start": start, "stop": stop, "count": count}


@st.composite
def cli_documents(draw):
    """A run config of any kind, quantity and method that _Family.methods allows."""
    kind = draw(st.sampled_from(sorted(cli.MODEL_KINDS)))
    family = cli.MODEL_KINDS[kind].family
    quantity = draw(st.sampled_from([q for q in cli.QUANTITIES if family.methods(q)]))
    method = draw(st.sampled_from(family.methods(quantity)))
    model = {"kind": kind}
    for name, _, default in cli.MODEL_KINDS[kind].fields:
        if default is not cli._REQUIRED and draw(st.booleans()):
            continue  # the default
        if name in ("alpha", "alphas"):  # drawn with beta and betas
            n = len(model.get("couplings", [None]))
            pairs = draw(st.lists(_PAIR, min_size=n, max_size=n))
            a, b = ([p[i] for p in pairs] for i in (0, 1))
            model.update({"alpha": a[0], "beta": b[0]} if name == "alpha" else
                         {"alphas": a, "betas": b})
        elif name not in ("beta", "betas"):
            model[name] = draw({"n_spins": st.integers(1, 64),
                                "couplings": st.lists(_PARAMETER, min_size=1, max_size=64),
                                }.get(name, _PARAMETER))
    t_grid = draw(_grid())
    doc = {"model": model, "quantity": quantity, "method": method, "t_grid": t_grid,
           "yx": draw(st.sampled_from([1, -1])), "y_select": draw(st.sampled_from([1, -1])),
           "output_path": "out.csv"}
    if quantity not in cli._T_ONLY and draw(st.booleans()):
        doc["tau_grid"] = draw(_grid(None if quantity == "cpf_surface" else t_grid["count"]))
    if method in ("montecarlo", "sampling"):
        n = draw(st.integers(1, 2000))
        doc["mc"] = {"n_trajectories": n, "seed": draw(st.integers(0, 2**64 - 1)),
                     "chunk_size": draw(st.integers(-(-n // 16), n))}  # at most 16 chunks
    if method == "oracle" and draw(st.booleans()):
        a, b = draw(_PAIR)
        doc["system_init"] = {"a": a, "b": b}
    return doc


@settings(max_examples=300, derandomize=True)
@given(doc=cli_documents(), threads=st.sampled_from(["1", "2"]))
def test_every_run_exits_0_2_or_3_and_writes_only_finite_values(doc, threads):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        warnings.simplefilter("error", RuntimeWarning)
        config = write_json(Path(tmp), doc)
        out = Path(tmp) / "out.csv"
        code = cli.main(["run", "--config", str(config), "--output", str(out), "--quiet",
                         "--threads", threads])
        assert code in (0, 2, 3), err.getvalue()
        if code == 0:
            for row in read_rows(out):
                assert math.isfinite(float(row["value"])), row
                assert row["std_error"] == "" or math.isfinite(float(row["std_error"])), row
        else:
            assert not out.exists() and err.getvalue().count("\n") == 1


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command", [
    ["run", "--config", "c.json"],
    ["compare", "--config-a", "a.json", "--config-b", "b.json"],
    ["sweep", "--config", "c.json"],
    ["selftest"],
])
def test_threads_below_one_rejected(command, value, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--threads", value])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_a_threads_value_that_is_not_an_integer_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--config", "c.json", "--threads", "x"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "cpfsim run: error: argument --threads: expected an integer, got 'x'")


@pytest.mark.parametrize("command, doc, extra, message", [
    ("run", base_config(quantity="nope"), (),
     "quantity: unknown quantity 'nope'; expected one of ('coherence', 'conditional_coherence', "
     "'cpf', 'cpf_surface', 'moments', 'rate', 'probability_table')"),
    ("run", base_config(method="magic"), (),
     "method: unknown method 'magic'; expected one of ('analytic', 'montecarlo', 'sampling', "
     "'oracle')"),
    ("run", base_config(t_grid={"start": 0.0, "stop": 1.0, "count": 0}), (),
     "t_grid: count must be > 0, got 0"),
    ("run", base_config(), ("--seed", "3"), "--seed: config has no mc section to reseed"),
    ("sweep", base_config(sweep={"model.gamma_w": [0.5]}), ("--seed", "3"),
     "--seed: config has no mc section to reseed"),
    ("sweep", base_config(sweep={"model.gamma_w": 0.5}), (),
     "sweep.model.gamma_w: expected a non-empty list of values"),
    ("sweep", base_config(sweep={"model.gamma_w": []}), (),
     "sweep.model.gamma_w: expected a non-empty list of values"),
], ids=["quantity", "method", "count", "run-seed", "sweep-seed", "sweep-scalar", "sweep-empty"])
def test_a_refusal_is_one_full_config_error_line(tmp_path, monkeypatch, capsys,
                                                 command, doc, extra, message):
    _no_evaluation(monkeypatch)
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path, doc)
    assert cli.main([command, "--config", "config.json", "--quiet", *extra]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_run_and_sweep_print_what_they_wrote(tmp_path, monkeypatch, capsys):
    # without --quiet, stdout names each file written, byte for byte
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path, base_config(sweep={"model.gamma_w": [0.5, 0.7]}))
    assert cli.main(["run", "--config", "config.json"]) == 0
    assert capsys.readouterr().out == "wrote out.csv (5 rows) and out.csv.manifest.json\n"
    assert cli.main(["sweep", "--config", "config.json"]) == 0
    assert capsys.readouterr().out == ("wrote out__model.gamma_w=0.5.csv (model.gamma_w=0.5)\n"
                                       "wrote out__model.gamma_w=0.7.csv (model.gamma_w=0.7)\n"
                                       "wrote sweep_manifest.json\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "x"])
@pytest.mark.parametrize("flag", ["--sigma-tol", "--abs-tol"])
def test_compare_tolerance_must_be_finite_and_nonnegative(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["compare", "--config-a", "a.json", "--config-b", "b.json", flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the parser main reuses, and the stage timer

MC_DOC = base_config(model={"kind": "exp_corr_gauss", "g": 0.9, "tau_c": 1.3},
                     method="montecarlo", mc={"n_trajectories": 2000, "seed": 3})

# one call of each subcommand and a refused argument; the two runs, with and
# without --seed and --output, show a value carried over from one call to the next
PARSER_CALLS = {
    "run_seeded": ["run", "--config", "mc.json", "--seed", "11", "--output", "seeded.csv"],
    "compare": ["compare", "--config-a", "mc.json", "--config-b", "mc.json", "--sigma-tol", "2"],
    "sweep": ["sweep", "--config", "sweep.json", "--quiet"],
    "selftest": ["selftest", "--criteria", "1"],
    "bad_threads": ["run", "--config", "mc.json", "--threads", "0"],
    "run": ["run", "--config", "mc.json"],
}


def main_outcome(cwd, argv, monkeypatch, capsys):
    """(exit code, stdout, stderr, bytes of each CSV and sweep index) of one main
    call in a fresh directory cwd; selftest's elapsed seconds are left out."""
    cwd.mkdir(parents=True)
    write_json(cwd, MC_DOC, "mc.json")
    write_json(cwd, base_config(sweep={"model.gamma_w": [0.5, 0.7]}), "sweep.json")
    monkeypatch.chdir(cwd)
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's refusal
        code = exc.code
    out, err = capsys.readouterr()
    written = {p.name: p.read_bytes() for p in sorted(cwd.iterdir())
               if p.suffix == ".csv" or p.name == "sweep_manifest.json"}
    return code, re.sub(r"\(\d+\.\d s\)", "(s)", out), err, written


@pytest.mark.parametrize("order", [list(PARSER_CALLS), list(PARSER_CALLS)[::-1]],
                         ids=["forward", "reverse"])
def test_main_builds_its_parser_once_and_answers_as_a_fresh_one(
        tmp_path, monkeypatch, capsys, order):
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parser", cli.build_parser)  # a fresh parser a call
        fresh = {name: main_outcome(tmp_path / "fresh" / name, PARSER_CALLS[name],
                                    monkeypatch, capsys) for name in order}
    assert fresh["bad_threads"][0] == 2 and "must be >= 1, got 0" in fresh["bad_threads"][2]
    assert [fresh[name][0] for name in PARSER_CALLS if name != "bad_threads"] == [0] * 5
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    try:
        for name in order:
            assert main_outcome(tmp_path / "reused" / name, PARSER_CALLS[name], monkeypatch,
                                capsys) == fresh[name], name
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1


def test_import_builds_no_parser():
    # the parser is built on the first main call, so importing cli costs nothing more
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import cpfsim.cli; print(cpfsim.cli._parser.cache_info())"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "currsize=0" in proc.stdout


def assert_stages(manifest):
    """The manifest times each stage, and evaluate and write_csv lie within wall_time_s."""
    stages = manifest["stages"]
    assert list(stages) == ["parse_s", "evaluate_s", "write_csv_s"]
    assert all(math.isfinite(s) and s >= 0.0 for s in stages.values())
    assert stages["evaluate_s"] + stages["write_csv_s"] <= manifest["wall_time_s"]


def test_run_and_sweep_leg_manifests_time_each_stage(tmp_path, monkeypatch):
    # each stage's function made 10 ms slower shows up in that stage's seconds
    def slower(name):
        function = getattr(cli, name)
        return lambda *args, **kwargs: time.sleep(0.01) or function(*args, **kwargs)

    for name in ("load_config", "parse_config", "evaluate_rows", "write_csv"):
        monkeypatch.setattr(cli, name, slower(name))
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path, base_config(sweep={"model.gamma_w": [0.5, 0.7]}))
    assert cli.main(["run", "--config", "config.json", "--quiet"]) == 0
    assert cli.main(["sweep", "--config", "config.json", "--quiet"]) == 0
    manifests = sorted(tmp_path.glob("*.manifest.json"))
    assert [p.name for p in manifests] == ["out.csv.manifest.json",
                                           "out__model.gamma_w=0.5.csv.manifest.json",
                                           "out__model.gamma_w=0.7.csv.manifest.json"]
    for path in manifests:
        manifest = json.loads(path.read_text())
        assert_stages(manifest)
        assert min(manifest["stages"].values()) >= 0.01
    # the sweep's index holds no time: its bytes are the same on every run
    index = json.loads((tmp_path / "sweep_manifest.json").read_text())
    assert index == {"kind": "cpfsim-sweep-manifest", "legs": [
        {"parameters": {"model.gamma_w": 0.5}, "output": "out__model.gamma_w=0.5.csv"},
        {"parameters": {"model.gamma_w": 0.7}, "output": "out__model.gamma_w=0.7.csv"}]}


@pytest.mark.parametrize("cpus, want", [(2, 2), (None, 1)])
def test_threads_capped_at_cpu_count(monkeypatch, cpus, want):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    args = cli.build_parser().parse_args(["run", "--config", "c.json", "--threads", "3"])
    assert args.threads == want


# ---------------------------------------------------------------------------
# compare subcommand

@pytest.mark.parametrize("quantity, n_rows", [
    ("cpf", 5), ("moments", 15), ("probability_table", 20), ("coherence", 5),
])
def test_compare_deterministic_pair_agrees(tmp_path, capsys, quantity, n_rows):
    a = write_json(tmp_path, base_config(quantity=quantity), "a.json")
    assert cli.main(["compare", "--config-a", str(a), "--config-b", str(a)]) == 0
    assert capsys.readouterr().out.startswith(f"compare: all {n_rows} points agree")


def test_compare_estimator_cross_check(tmp_path):
    analytic_doc = base_config(
        model={"kind": "static_gauss", "g": 0.8},
        t_grid={"start": 0.5, "stop": 1.5, "count": 3},
    )
    mc_doc = dict(
        analytic_doc,
        method="montecarlo",
        mc={"n_trajectories": 200_000, "seed": 5},
    )
    a = write_json(tmp_path, analytic_doc, "a.json")
    b = write_json(tmp_path, mc_doc, "b.json")
    code = cli.main(
        ["compare", "--config-a", str(a), "--config-b", str(b), "--sigma-tol", "4", "--quiet"]
    )
    assert code == 0


def test_compare_flags_disagreement(tmp_path, capsys):
    a = write_json(tmp_path, base_config(model={"kind": "static_gauss", "g": 0.8}), "a.json")
    b = write_json(tmp_path, base_config(model={"kind": "static_gauss", "g": 1.2}), "b.json")
    code = cli.main(["compare", "--config-a", str(a), "--config-b", str(b)])
    assert code == 5
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "FAIL cpf at t=0.2, tau=0.2: |0.00473672 - 0.0211736| = 0.0164 > abs_tol 1e-09"
    assert lines[-1] == "compare: 0/5 points agree; 5 beyond tolerance"


def _no_evaluation(monkeypatch):
    """Fail the test if a config is evaluated: its checks decide without evaluating."""

    def never(*args, **kwargs):
        raise AssertionError("a config was evaluated")

    monkeypatch.setattr(cli, "evaluate_rows", never)


def test_compare_rejects_mismatched_grids(tmp_path, monkeypatch, capsys):
    _no_evaluation(monkeypatch)
    a = write_json(tmp_path, base_config(), "a.json")
    b = write_json(tmp_path, base_config(
        t_grid={"start": 0.2, "stop": 2.0, "count": 7},
        method="montecarlo",
        mc={"n_trajectories": 100_000},
    ), "b.json")
    assert cli.main(["compare", "--config-a", str(a), "--config-b", str(b)]) == 2
    assert capsys.readouterr().err == "grid mismatch: result sets have 5 vs 7 rows\n"


@pytest.mark.parametrize("overrides, message", [
    ({"t_grid": {"start": 0.2, "stop": 3.0, "count": 5}},
     "(0.65, 0.65, cpf) vs (0.8999999999999999, 0.8999999999999999, cpf)"),
    ({"quantity": "coherence"}, "(0.2, 0.2, cpf) vs (0.2, None, coherence)"),
])
def test_compare_rejects_misaligned_rows(tmp_path, monkeypatch, capsys, overrides, message):
    _no_evaluation(monkeypatch)
    a = write_json(tmp_path, base_config(), "a.json")
    b = write_json(tmp_path, base_config(**overrides), "b.json")
    assert cli.main(["compare", "--config-a", str(a), "--config-b", str(b)]) == 2
    assert capsys.readouterr().err == f"grid mismatch: row mismatch: {message}\n"


def rows_one_by_one(keys):
    """(t, tau, label) of every row, expanded to one entry a row (the reference for the
    check, which holds no such copy): tau is -1 for t-only quantities."""
    n, points = len(keys.labels), len(keys) // len(keys.labels)
    t, tau = keys.t, keys.tau
    if keys.surface:  # t-major
        t, tau = np.repeat(t, tau.size), np.tile(tau, t.size)
    tau = np.full(len(keys), -1.0) if tau is None else np.repeat(tau, n)
    return np.repeat(t, n), tau, np.tile(np.array(keys.labels), points)


@st.composite
def row_key_pairs(draw):
    """Two RowKeys of as many rows, with times, taus and labels that often agree:
    pointwise, t-only, or surfaces of one label whose axes split the points; the
    second is at times the first with one time moved."""
    label_sets = [("cpf",), ("coherence",), cli.QUANTITIES["moments"].labels,
                  cli.QUANTITIES["probability_table"].labels]
    rows = 12 * draw(st.integers(1, 4))
    times = st.sampled_from([0.0, 0.5, 1.0])
    keys = []
    for _ in range(2):
        if draw(st.booleans()):
            n_tau = draw(st.sampled_from([d for d in (1, 2, 3, 4, 6) if rows % d == 0]))
            t = np.array(draw(st.lists(times, min_size=rows // n_tau, max_size=rows // n_tau)))
            tau = np.array(draw(st.lists(times, min_size=n_tau, max_size=n_tau)))
            keys.append(cli.RowKeys(t, tau, ("cpf",), surface=True))
            continue
        labels = draw(st.sampled_from(label_sets))
        t = np.array(draw(st.lists(times, min_size=rows // len(labels),
                                   max_size=rows // len(labels))))
        tau = draw(st.sampled_from([None, t, t[::-1].copy()]))
        keys.append(cli.RowKeys(t, tau, labels))
    if draw(st.booleans()):  # the second the first with one time moved
        first = keys[0]
        t, tau = first.t.copy(), None if first.tau is None else first.tau.copy()
        axis = draw(st.sampled_from([a for a in (t, tau) if a is not None]))
        axis[draw(st.integers(0, axis.size - 1))] += 0.25
        keys[1] = cli.RowKeys(t, tau, first.labels, surface=first.surface)
    return keys


@given(row_key_pairs())
def test_check_keys_names_the_first_row_that_differs(pair):
    # the check compares points and label tuples; the rows, expanded, are the reference
    keys_a, keys_b = pair
    (t_a, tau_a, q_a), (t_b, tau_b, q_b) = rows_one_by_one(keys_a), rows_one_by_one(keys_b)
    differ = (t_a != t_b) | (tau_a != tau_b) | (q_a != q_b)
    if not differ.any():
        cli._check_keys(keys_a, keys_b)
        return
    row = int(np.argmax(differ))
    with pytest.raises(cli.GridMismatch) as info:
        cli._check_keys(keys_a, keys_b)
    assert str(info.value) == "row mismatch: ({}, {}, {}) vs ({}, {}, {})".format(
        *keys_a.key(row), *keys_b.key(row))


def test_check_keys_holds_no_copy_of_the_rows():
    # expanding t, tau and the labels to one entry per row took 360 MiB above the
    # keys of two 2**20-point probability tables
    grid = {"start": 0.0, "stop": 1.0, "count": 2**20}
    doc = base_config(quantity="probability_table", t_grid=grid, tau_grid=grid)
    keys_a = cli._row_keys(cli.parse_config(doc))
    keys_b = cli._row_keys(cli.parse_config(dict(doc, y_select=-1)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cli._check_keys(keys_a, keys_b)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("overrides_a, overrides_b, message", [
    # 4 points of 3 labels against 3 points of 4
    ({"quantity": "moments", "t_grid": {"start": 0.2, "stop": 0.8, "count": 4}},
     {"quantity": "probability_table", "t_grid": {"start": 0.2, "stop": 0.8, "count": 3}},
     "(0.2, 0.2, f_t) vs (0.2, 0.2, p_z+_x+)"),
    # surfaces whose tau axes differ from the second row on
    ({"quantity": "cpf_surface", "t_grid": {"start": 0.0, "stop": 1.0, "count": 32}},
     {"quantity": "cpf_surface", "t_grid": {"start": 0.0, "stop": 1.0, "count": 32},
      "tau_grid": {"start": 0.0, "stop": 1.5, "count": 32}},
     "(0.0, 0.03225806451612903, cpf_surface) vs (0.0, 0.04838709677419355, cpf_surface)"),
])
def test_compare_names_the_first_misaligned_row(tmp_path, monkeypatch, capsys, overrides_a,
                                                 overrides_b, message):
    _no_evaluation(monkeypatch)
    a = write_json(tmp_path, base_config(**overrides_a), "a.json")
    b = write_json(tmp_path, base_config(**overrides_b), "b.json")
    assert cli.main(["compare", "--config-a", str(a), "--config-b", str(b)]) == 2
    assert capsys.readouterr().err == f"grid mismatch: row mismatch: {message}\n"


# ---------------------------------------------------------------------------
# sweep subcommand

@pytest.mark.parametrize("command, name, doc, extra", [
    ("run", "c.json", base_config(output_path="c.json"), []),
    ("run", "c.json", base_config(), ["--output", "c.json"]),
    # the manifest goes next to the CSV as <CSV name>.manifest.json
    ("run", "r.csv.manifest.json", base_config(output_path="r.csv"), []),
    ("sweep", "s__model.gamma_w=0.5.json",
     base_config(output_path="s.json", sweep={"model.gamma_w": [0.5, 0.7]}), []),
    ("sweep", "s__model.gamma_w=0.7.csv.manifest.json",
     base_config(output_path="s.csv", sweep={"model.gamma_w": [0.5, 0.7]}), []),
])
def test_exit_code_output_over_its_own_config(tmp_path, monkeypatch, capsys,
                                              command, name, doc, extra):
    monkeypatch.chdir(tmp_path)
    cfg = write_json(tmp_path, doc, name)
    before = cfg.read_bytes()
    assert cli.main([command, "--config", name, "--quiet", *extra]) == 2
    assert capsys.readouterr().err.startswith(f"config error: output {name} would overwrite")
    assert cfg.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("output", [".", "/", "..", "outdir"])
@pytest.mark.parametrize("in_config", [True, False], ids=["output_path", "--output"])
def test_exit_code_output_path_names_a_directory(tmp_path, monkeypatch, capsys,
                                                command, output, in_config):
    _no_evaluation(monkeypatch)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "outdir").mkdir()
    doc = base_config(output_path=output if in_config else "out.csv")
    if command == "sweep":
        doc["sweep"] = {"model.gamma_w": [0.5, 0.7]}
    write_json(tmp_path, doc)
    extra = [] if in_config else ["--output", output]
    assert cli.main([command, "--config", "config.json", "--quiet", *extra]) == 2
    field = "output_path" if in_config else "--output"
    assert capsys.readouterr().err == (
        f"config error: {field}: {output!r} is a directory, not a CSV file name\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "outdir"]
    assert list((tmp_path / "outdir").iterdir()) == []


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_exit_code_output_override_cannot_name_a_file(tmp_path, monkeypatch, capsys, command):
    _no_evaluation(monkeypatch)
    monkeypatch.chdir(tmp_path)
    doc = base_config(output_path="out.csv")
    if command == "sweep":
        doc["sweep"] = {"model.gamma_w": [0.5, 0.7]}
    write_json(tmp_path, doc)
    args = [command, "--config", "config.json", "--quiet", "--output", "a\0b.csv"]
    assert cli.main(args) == 2
    assert capsys.readouterr().err == (
        "config error: --output: 'a\\x00b.csv' cannot name a file: it holds a NUL character\n")
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("length", [300, 245], ids=["csv", "manifest"])
def test_exit_code_output_override_name_too_long(tmp_path, monkeypatch, capsys, command, length):
    _no_evaluation(monkeypatch)
    monkeypatch.chdir(tmp_path)
    doc = base_config(output_path="out.csv")
    if command == "sweep":
        doc["sweep"] = {"model.gamma_w": [0.5, 0.7]}
    write_json(tmp_path, doc)
    output = "x" * length + ".csv"
    assert cli.main([command, "--config", "config.json", "--quiet", "--output", output]) == 2
    assert capsys.readouterr().err == (
        f"config error: --output: {output!r} cannot name a file: File name too long\n")
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("output", [
    pytest.param("nodir/" + "x" * 300 + ".csv", id="csv"),
    pytest.param("nodir/" + "x" * 245 + ".csv", id="manifest"),
    pytest.param("nodir/" + "d" * 300 + "/out.csv", id="directory"),
])
@pytest.mark.parametrize("in_config", [True, False], ids=["output_path", "--output"])
def test_exit_code_name_too_long_under_a_missing_directory(tmp_path, monkeypatch, capsys,
                                                           output, in_config):
    # the file system's lookup stops at the missing directory, so the names
    # below it are checked against the limit of the deepest one that exists
    _no_evaluation(monkeypatch)
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path, base_config(output_path=output if in_config else "out.csv"))
    extra = [] if in_config else ["--output", output]
    assert cli.main(["run", "--config", "config.json", "--quiet", *extra]) == 2
    field = "output_path" if in_config else "--output"
    assert capsys.readouterr().err == (
        f"config error: {field}: {output!r} cannot name a file: File name too long\n")
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_sweep_leg_name_too_long_exits_2_before_any_evaluation(tmp_path, monkeypatch, capsys):
    # the base name fits with its manifest's suffix; the leg's manifest name does not
    _no_evaluation(monkeypatch)
    monkeypatch.chdir(tmp_path)
    base = "x" * 230
    write_json(tmp_path, base_config(output_path=base + ".csv",
                                     sweep={"model.gamma_w": [0.5, 0.7]}))
    assert cli.main(["sweep", "--config", "config.json", "--quiet"]) == 2
    leg = base + "__model.gamma_w=0.5.csv"
    assert capsys.readouterr().err == (
        f"config error: sweep: leg {{'model.gamma_w': 0.5}}: {leg!r} cannot name a file: "
        "File name too long\n")
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_sweep_leg_that_cannot_name_a_file_exits_2_before_any_evaluation(
        tmp_path, monkeypatch, capsys):
    _no_evaluation(monkeypatch)
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path, base_config(sweep={"output_path": ["a/b.csv"]}))
    assert cli.main(["sweep", "--config", "config.json", "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "config error: sweep: leg {'output_path': 'a/b.csv'} cannot name a file: "
        "Invalid name 'b__output_path=a/b.csv.csv'\n")
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_sweep_expands_cartesian_legs(tmp_path):
    # swept fields must already exist in the document (typo protection)
    doc = base_config(
        model={"kind": "exp_corr_gauss", "g": 1.0, "tau_c": 1.0},
        output_path=str(tmp_path / "scan.csv"),
        yx=1,
        sweep={"model.tau_c": [0.5, 2.0], "yx": [1, -1]},
    )
    cfg = write_json(tmp_path, doc)
    assert cli.main(["sweep", "--config", str(cfg), "--quiet"]) == 0
    index = json.loads((tmp_path / "sweep_manifest.json").read_text())
    assert index["kind"] == "cpfsim-sweep-manifest"
    assert len(index["legs"]) == 4
    for leg in index["legs"]:
        leg_csv = tmp_path / leg["output"]
        assert leg_csv.exists()
        assert (tmp_path / (leg["output"] + ".manifest.json")).exists()
        assert len(read_rows(leg_csv)) == 5
    names = {leg["output"] for leg in index["legs"]}
    assert "scan__model.tau_c=0.5__yx=1.csv" in names


def test_sweep_legs_with_close_float_values_write_distinct_files(tmp_path):
    doc = base_config(
        model={"kind": "exp_corr_gauss", "g": 1.0, "tau_c": 1.0},
        output_path=str(tmp_path / "o.csv"),
        sweep={"model.g": [1.0000001, 1.0000002]},
    )
    cfg = write_json(tmp_path, doc)
    assert cli.main(["sweep", "--config", str(cfg), "--quiet"]) == 0
    index = json.loads((tmp_path / "sweep_manifest.json").read_text())
    outputs = [leg["output"] for leg in index["legs"]]
    assert outputs == ["o__model.g=1.0000001.csv", "o__model.g=1.0000002.csv"]
    a, b = (read_rows(tmp_path / name) for name in outputs)
    assert [r["value"] for r in a] != [r["value"] for r in b]


@pytest.mark.parametrize("model, draws", [(OU, [(5, 0), (5, 1)]),
                                           (MODELS["static_gauss"], [(5, 0), (5, 1)] * 2)])
def test_sweep_legs_share_the_draws_no_model_parameter_scales(tmp_path, monkeypatch, model, draws):
    # the OU legs draw standard normal pairs whatever g is, and draw each chunk
    # once; a static model's draws are scaled by g, so each leg draws its own
    doc = base_config(model=model, quantity="cpf_surface", method="sampling", mc=TWO_CHUNKS,
                      output_path=str(tmp_path / "o.csv"), sweep={"model.g": [0.6, 1.1]},
                      **SURFACE)
    streams = []
    stream = _mc.Chunk.stream
    monkeypatch.setattr(_mc.Chunk, "stream",
                        lambda c: streams.append((c.seed, c.index)) or stream(c))
    assert cli.main(["sweep", "--config", str(write_json(tmp_path, doc)), "--quiet"]) == 0
    assert sorted(streams) == sorted(draws)
    for g in (0.6, 1.1):
        leg = base_config(**{k: v for k, v in doc.items() if k != "sweep"})
        leg["model"] = dict(model, g=g)
        leg["output_path"] = str(tmp_path / f"alone{g}.csv")
        assert cli.main(["run", "--config", str(write_json(tmp_path, leg, f"alone{g}.json")),
                         "--quiet"]) == 0
        assert (tmp_path / f"o__model.g={g}.csv").read_bytes() == \
            (tmp_path / f"alone{g}.csv").read_bytes()


@pytest.mark.parametrize("model, mc, streams, cos2_calls", [
    # 2 chunks x (3 cos 2 theta1 a leg x 2 legs + 3 per-tau cos 2 theta2)
    (MODELS["static_gauss"], TWO_CHUNKS, [(0, 0), (1, 0)], 2 * (3 * 2 + 3)),
    # chunk 0 holds two coupling tiles, the second 4,096 x 3 uniforms into its stream
    (MODELS["lorentz_coupling"], {"n_trajectories": 10_000, "chunk_size": 6_000, "seed": 5},
     [(0, 0), (0, 3_072), (1, 0)], None),
], ids=["static_gauss", "lorentz_coupling"])
def test_sweep_legs_of_one_model_share_its_draws_and_per_tau_stages(
        tmp_path, monkeypatch, model, mc, streams, cos2_calls):
    # legs that differ only in yx run equal models: each chunk or coupling tile is
    # drawn once across the legs, and each per-tau stage computed once; a per-t
    # slot holds one t, so each leg computes its own per-t stages
    doc = base_config(model=model, quantity="conditional_coherence", method="montecarlo",
                      mc=mc, yx=1, t_grid={"start": 0.2, "stop": 1.4, "count": 3},
                      tau_grid={"start": 0.3, "stop": 1.5, "count": 3},
                      output_path=str(tmp_path / "o.csv"), sweep={"yx": [1, -1]})
    drawn, cos2s = [], []
    stream, cos2 = _mc.Chunk.stream, stochastic.cos2
    monkeypatch.setattr(_mc.Chunk, "stream",
                        lambda c, offset=0: drawn.append((c.index, offset)) or stream(c, offset))
    monkeypatch.setattr(stochastic, "cos2", lambda *a: cos2s.append(a) or cos2(*a))
    assert cli.main(["sweep", "--config", str(write_json(tmp_path, doc)), "--quiet"]) == 0
    assert sorted(drawn) == streams
    if cos2_calls is not None:
        assert len(cos2s) == cos2_calls
    for yx in (1, -1):
        leg = dict(base_config(**{k: v for k, v in doc.items() if k != "sweep"}), yx=yx,
                   output_path=str(tmp_path / f"alone{yx}.csv"))
        assert cli.main(["run", "--config", str(write_json(tmp_path, leg, f"alone{yx}.json")),
                         "--quiet"]) == 0
        assert (tmp_path / f"o__yx={yx}.csv").read_bytes() == \
            (tmp_path / f"alone{yx}.csv").read_bytes()


def test_sweep_rejects_legs_that_share_an_output(tmp_path, capsys):
    doc = base_config(output_path=str(tmp_path / "o.csv"), sweep={"model.gamma_w": [0.5, 0.5]})
    cfg = write_json(tmp_path, doc)
    assert cli.main(["sweep", "--config", str(cfg), "--quiet"]) == 2
    assert "both write" in capsys.readouterr().err
    assert not list(tmp_path.glob("o__*"))


def test_sweep_failed_leg_still_writes_index(tmp_path, capsys):
    doc = base_config(
        model={"kind": "scaled_spin_bath", "n_spins": 4, "g": 0.9},
        method="oracle",
        output_path=str(tmp_path / "o.csv"),
        sweep={"model.n_spins": [4, 20]},
    )
    cfg = write_json(tmp_path, doc)
    assert cli.main(["sweep", "--config", str(cfg), "--quiet"]) == 3
    assert "dense oracle limit" in capsys.readouterr().err
    index = json.loads((tmp_path / "sweep_manifest.json").read_text())
    assert index == {"kind": "cpfsim-sweep-manifest", "legs": [
        {"parameters": {"model.n_spins": 4}, "output": "o__model.n_spins=4.csv"},
        {"parameters": {"model.n_spins": 20}, "output": "o__model.n_spins=20.csv",
         "error": "BathTooLarge: N = 20 exceeds the dense oracle limit 14"},
    ]}
    assert len(read_rows(tmp_path / "o__model.n_spins=4.csv")) == 5
    assert not (tmp_path / "o__model.n_spins=20.csv").exists()


@pytest.mark.parametrize("doc, message", [
    (base_config(sweep={"model.gama_w": [0.5, 0.7]}),
     "sweep.model.gama_w: config has no field 'gama_w'"),
    # a field the base config leaves at its default is not spelled out there
    (base_config(quantity="conditional_coherence", sweep={"yx": [1, -1]}),
     "sweep.yx: config has no field 'yx'"),
    (base_config(sweep={"mc.seed": [1, 2]}), "sweep.mc.seed: config has no section 'mc'"),
], ids=["misspelled", "defaulted", "no_section"])
def test_sweep_refuses_a_key_the_base_config_does_not_spell_out(tmp_path, monkeypatch, capsys,
                                                                doc, message):
    _no_evaluation(monkeypatch)
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path, doc)
    assert cli.main(["sweep", "--config", "config.json", "--quiet"]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_sweep_rejects_unknown_field(tmp_path):
    doc = base_config(sweep={"model.nonsense": [1, 2]})
    cfg = write_json(tmp_path, doc)
    assert cli.main(["sweep", "--config", str(cfg)]) == 2


def test_sweep_requires_sweep_section(tmp_path):
    cfg = write_json(tmp_path, base_config())
    assert cli.main(["sweep", "--config", str(cfg)]) == 2


# ---------------------------------------------------------------------------
# selftest subcommand

def test_selftest_single_criterion(capsys):
    assert cli.main(["selftest", "--criteria", "4"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_selftest_verbose_prints_the_detail_lines_of_a_pass(capsys):
    assert cli.main(["selftest", "--criteria", "4", "--verbose"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert re.fullmatch(r"\[ 4\] PASS  Oracle equivalence \(\d+\.\d s\)", lines[0])
    assert re.fullmatch(r"      ok   25 random specs \(N in 1\.\.10\): max table diff "
                        r"\S+ <= 1e-10", lines[1])


def test_selftest_rejects_bad_criteria(capsys):
    for value in ("four", "11", "1,,2", "4,11"):
        assert cli.main(["selftest", "--criteria", value]) == 2
        out = capsys.readouterr()
        assert out.out == ""  # rejected before any criterion runs
        assert out.err == f"selftest: bad --criteria value {value!r}\n"


# ---------------------------------------------------------------------------
# import cost, stored manifests, README

ROOT = Path(__file__).resolve().parents[1]


def test_import_does_not_load_thread_pool():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, cpfsim.cli; print('concurrent.futures' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# Since 0.8.0 the oracle's |psi|^2 and overlaps are numpy pairwise sums, not
# BLAS dot products, and MomentStats sums in numpy and Python floats, not in
# BLAS.  Earlier fixtures that go through either move by rounding alone and
# rerun within 1e-12; sampling keeps its values and counts, only its errors move.

# spin_bath with complex amplitudes (oracle)
@pytest.mark.parametrize("name", ["spin_bath_oracle"])
def test_oracle_manifest_written_by_0_3_0_reruns_within_1e_12(tmp_path, name):
    assert_reruns_within_1e_12(tmp_path, "0.3.0", name)


# an OU Monte Carlo run with mc.path_dt over three chunks.  Since 0.7.0 the
# noise-model estimators also take cos 2 theta from a tan of theta (_mc.cos2).
@pytest.mark.parametrize("name", ["ou_montecarlo"])
def test_montecarlo_manifest_written_by_0_3_0_reruns_within_1e_12(tmp_path, name):
    assert_reruns_within_1e_12(tmp_path, "0.3.0", name)


# closed forms of a scaled spin bath on a square surface (whose values repeat
# across the diagonal) and as a probability table.  Since 0.10.0 the bath's
# spin factors come from a tan of the half angle and leave out each spin's
# rounded norm, as the ensemble's do: the values move by rounding.
@pytest.mark.parametrize("name", ["bath_surface", "bath_table"])
def test_bath_manifest_written_by_0_5_0_reruns_within_1e_12(tmp_path, name):
    assert_reruns_within_1e_12(tmp_path, "0.5.0", name)


# sampling on an OU surface at y_select = -1 over two unequal chunks, and on a
# static Lorentz pair of points whose tau = 0 and 0.8 go through the per-tau
# slots
@pytest.mark.parametrize("name", ["ou_sampling_surface", "static_lorentz_sampling"])
def test_sampling_manifest_written_by_0_5_0_reruns_within_1e_12(tmp_path, name):
    assert_reruns_within_1e_12(tmp_path, "0.5.0", name, moving=("std_error",))


# Cauchy ensembles of 2 chunks: balanced amplitudes (the ensemble kernel's
# real-only path) and unbalanced ones (its general path).  Since 0.6.0 their
# spin factors come from a tan of the half angle, not from cos and sin.
@pytest.mark.parametrize("name", ["lorentz_cpf", "lorentz_conditional_coherence"])
def test_ensemble_manifest_written_by_0_5_0_reruns_within_1e_12(tmp_path, name):
    assert_reruns_within_1e_12(tmp_path, "0.5.0", name)


# the Cauchy ensemble's closed form on a square surface that starts at
# t = tau = 0 with unbalanced amplitudes; the oracle as a table from |+x>,
# whose x = -1 entries are exactly 0.0
@pytest.mark.parametrize("name", ["lorentz_surface", "bath_oracle_plus_x"])
def test_manifest_written_by_0_6_0_reruns_byte_for_byte(tmp_path, name):
    assert_reruns_byte_for_byte(tmp_path, "0.6.0", name)


# the two ensembles above; the oracle on a surface from t = tau = 0
@pytest.mark.parametrize("name", ["lorentz_cpf", "lorentz_conditional_coherence",
                                  "bath_oracle_surface"])
def test_manifest_written_by_0_6_0_reruns_within_1e_12(tmp_path, name):
    assert_reruns_within_1e_12(tmp_path, "0.6.0", name)


# an OU Monte Carlo surface over three unequal chunks, from tau = 0; a static
# Lorentz conditional coherence whose tau = 0, 0.4 and 0.8 go through the
# per-tau slots, over two unequal chunks
@pytest.mark.parametrize("name", ["ou_surface", "static_lorentz_coherence"])
def test_manifest_written_by_0_7_0_reruns_within_1e_12(tmp_path, name):
    assert_reruns_within_1e_12(tmp_path, "0.7.0", name)


# the 0.7.0 pair with new seeds; sampling on an OU surface at y_select = -1
# over two unequal chunks; the oracle on a surface from t = tau = 0, where an
# entry rounds above 1 and is clipped.  Their manifests record the numerics
# they were written on.
@pytest.mark.parametrize("name", ["ou_surface", "static_lorentz_coherence",
                                  "ou_sampling_surface", "bath_oracle_surface"])
def test_manifest_written_by_0_8_0_reruns_byte_for_byte(tmp_path, name):
    assert_reruns_byte_for_byte(tmp_path, "0.8.0", name)


# an unbalanced Cauchy ensemble's CPF over two chunks.  Since 0.9.0 the
# ensemble kernel takes its t +- tau factors from the angle-sum identities:
# f_joint, and with it the CPF, moves by rounding.
@pytest.mark.parametrize("name", ["lorentz_cpf"])
def test_ensemble_manifest_written_by_0_8_0_reruns_within_1e_12(tmp_path, name):
    assert_reruns_within_1e_12(tmp_path, "0.8.0", name)


# Cauchy ensembles through the 0.9.0 kernel: a balanced CPF with t != tau over
# two chunks; an unbalanced conditional coherence (yx = -1) on the diagonal,
# where the t - tau product stays 1.0; the moments of 2,000 spins over chunks
# of 7 trajectories, balanced and unbalanced, so that blocks hold many spins
@pytest.mark.parametrize("name", ["lorentz_cpf", "lorentz_diagonal_coherence",
                                  "lorentz_2000_spins_moments", "lorentz_2000_spins_unbalanced"])
def test_manifest_written_by_0_9_0_reruns_byte_for_byte(tmp_path, name):
    assert_reruns_byte_for_byte(tmp_path, "0.9.0", name)


# spin-bath closed forms through the ensemble's blocked half-angle kernel: a
# scaled bath's CPF surface from t = tau = 0 with omega > 0 (the general path);
# a probability table of four spins with complex amplitudes, from t = tau = 0;
# the CPF surface of 5,000 spins from t = tau = 0, whose rows on the axes are 0
@pytest.mark.parametrize("name", ["bath_surface", "bath_table", "bath_5000_spins_surface"])
def test_manifest_written_by_0_10_0_reruns_byte_for_byte(tmp_path, name):
    assert_reruns_byte_for_byte(tmp_path, "0.10.0", name)


def test_manifest_without_stages_loads_and_reruns_with_them(tmp_path):
    # a manifest written before the stage timer has no stages; its rerun's has them
    redo, stored, manifest = rerun_stored(tmp_path, "0.8.0", "ou_surface")
    assert "stages" not in manifest
    assert_bytes_on_the_same_loops(redo, stored, manifest, cli.numerics()["float64_loops"])
    assert_stages(json.loads((tmp_path / "redo.csv.manifest.json").read_text()))


def rerun_stored(tmp_path, version, name):
    """Rerun a stored manifest into tmp_path: the new and the stored CSV paths."""
    manifest = ROOT / "tests" / "data" / f"manifests_{version}" / f"{name}.csv.manifest.json"
    stored = json.loads(manifest.read_text())
    assert stored["versions"]["cpfsim"] == version
    assert cli.load_config(manifest).canonical == stored["config"]
    redo = tmp_path / "redo.csv"
    assert cli.main(["run", "--config", str(manifest), "--output", str(redo), "--quiet"]) == 0
    rerun = json.loads((tmp_path / "redo.csv.manifest.json").read_text())
    assert rerun["config"] == dict(stored["config"], output_path=str(redo))
    return redo, manifest.with_name(stored["outputs"][0]), stored


def assert_reruns_byte_for_byte(tmp_path, version, name):
    """Bytes on the float64 loops the manifest was written on (X86_V4 for one
    without a numerics block, as every stored fixture was written there), and
    within 1e-12 on others: see reruns.assert_bytes_on_the_same_loops."""
    redo, stored, manifest = rerun_stored(tmp_path, version, name)
    assert_bytes_on_the_same_loops(redo, stored, manifest, cli.numerics()["float64_loops"])


def assert_reruns_within_1e_12(tmp_path, version, name, moving=("value", "std_error")):
    """The rerun's rows keep every field but those named in moving, which move
    by at most 1e-12."""
    redo, stored, _ = rerun_stored(tmp_path, version, name)
    assert_within_1e_12(redo, stored, moving)


def test_package_version_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    if sys.version_info >= (3, 11):
        import tomllib

        version = tomllib.loads(text)["project"]["version"]
    else:
        version = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE).group(1)
    assert cpfsim.__version__ == version


def readme_model_kinds():
    """kind -> field names in order, from the README's "Model kinds:" paragraph."""
    text = (ROOT / "README.md").read_text()
    paragraph = text[text.index("Model kinds:"):].split("\n\n")[0]
    return {
        kind: [name.strip() for name in fields.split(";")[0].split(",")]
        for kind, fields in re.findall(r"`(\w+)`\s*\(([^)]*)\)", paragraph)
    }


# each model kind -> the constructor whose signature is its config section
MODEL_CONSTRUCTORS = {
    "white": analytic.White, "exp_corr_gauss": analytic.ExpCorrGauss,
    "static_gauss": analytic.StaticGauss, "static_lorentz": analytic.StaticLorentz,
    "spin_bath": spinbath.SpinBathSpec, "scaled_spin_bath": spinbath.scaled_gaussian_bath,
    "lorentz_coupling": spinbath.LorentzCouplingSpec,
}


def test_readme_lists_every_model_kind_and_field():
    # every kind's fields are its constructor's parameters, so a renamed parameter
    # renames a config field: the README's "Model kinds:" sentence must follow, in order
    assert set(MODEL_CONSTRUCTORS) == set(cli.MODEL_KINDS)
    for kind, build in MODEL_CONSTRUCTORS.items():
        assert cli.MODEL_KINDS[kind].fields == cli._fields(build), kind
    assert readme_model_kinds() == {kind: [name for name, _, _ in cli._fields(build)]
                                    for kind, build in MODEL_CONSTRUCTORS.items()}


def test_readme_schema_block_names_each_sections_constructor_parameters():
    # the sections' fields come from their constructors' signatures, so a renamed
    # parameter renames a config field: the README's schema block must follow
    text = (ROOT / "README.md").read_text()
    block = text[text.index("Config schema"):].split("```jsonc\n", 1)[1].split("```", 1)[0]
    schema = json.loads(re.sub(r"//.*", "", block))
    assert list(schema) == [name for name, _, _ in cli._CONFIG_FIELDS]
    for section, build in (("t_grid", cli.GridSpec), ("tau_grid", cli.GridSpec),
                           ("mc", _mc.McConfig), ("system_init", spinbath.SystemInit)):
        assert list(schema[section]) == [name for name, _, _ in cli._fields(build)], section


def readme_support_matrix():
    """(kind, quantity) -> methods, from the README's quantity x family table."""
    text = (ROOT / "README.md").read_text()
    lines = text[text.index("| quantity |"):].split("\n\n")[0].splitlines()
    cells = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines]
    families = [re.findall(r"`(\w+)`", cell) for cell in cells[0][1:]]
    matrix = {}
    for row in cells[2:]:
        (quantity,) = re.fullmatch(r"`(\w+)`", row[0]).groups()
        for kinds, methods in zip(families, row[1:], strict=True):
            for kind in kinds:
                matrix[kind, quantity] = () if methods == "—" else tuple(methods.split(", "))
    return matrix


def test_readme_support_matrix_is_the_derived_one():
    matrix = {(kind, q): entry.family.methods(q)
              for kind, entry in cli.MODEL_KINDS.items() for q in cli.QUANTITIES}
    assert readme_support_matrix() == matrix
