"""Command line interface: config validation, outputs, manifests, exit codes."""

import csv
import json
import math
from pathlib import Path

import pytest

from cpfsim import analytic, cli, core, spinbath
from cpfsim.errors import ConfigError


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
        (lambda d: d.update(system_init={"a": 1.0, "b": 0.0}), "oracle"),
        (lambda d: d.update(model={"kind": "pink"}), "kind"),
        (lambda d: d.update(model={"kind": "white", "gamma_w": -1.0}), "gamma_w"),
        (lambda d: d.update(model={"kind": "white", "gamma_w": 0.4, "extra": 1}), "extra"),
        (lambda d: d.update(surprise=True), "surprise"),
        (lambda d: d.update(t_grid={"start": 1.0, "stop": 0.5, "count": 3}), "t_grid"),
        (lambda d: d.update(output_path=""), "output_path"),
        (lambda d: d.update(t_grid={"start": -1.0, "stop": 0.5, "count": 3}), "t_grid.start"),
    ],
)
def test_parse_config_rejects_bad_documents(mutate, fragment):
    doc = base_config()
    mutate(doc)
    with pytest.raises(ConfigError, match=fragment):
        cli.parse_config(doc)


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
    for quantity, methods in cli.MODEL_FAMILIES[kind].allowed.items()
    for method in methods
    if method in ("analytic", "oracle")
]


def library_values(config, t, tau):
    """Row label -> the scalar library value at one point."""
    model, q, kind = config.model, config.quantity, config.model_kind
    if config.method == "oracle":
        table = spinbath.oracle_protocol(model, config.system_init, t, tau, config.y_select)
        if q == "probability_table":
            return {label: table.entries[key] for key, label in cli._TABLE_LABELS}
        return {q: core.cpf_from_table(table)}
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
        (cli._fmt(t), cli._fmt(u))
        for t in np.linspace(0.5, 2.0, 3)
        for u in np.linspace(0.5, 3.0, 4)
    ]


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
    bad.write_text("{ not json")
    assert cli.main(["run", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


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


@pytest.mark.parametrize("cpus, want", [(2, 2), (None, 1)])
def test_threads_capped_at_cpu_count(monkeypatch, cpus, want):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    args = cli.build_parser().parse_args(["run", "--config", "c.json", "--threads", "3"])
    assert args.threads == want


# ---------------------------------------------------------------------------
# compare subcommand

def test_compare_deterministic_pair_agrees(tmp_path, capsys):
    a = write_json(tmp_path, base_config(), "a.json")
    assert cli.main(["compare", "--config-a", str(a), "--config-b", str(a)]) == 0
    assert "agree" in capsys.readouterr().out


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
    assert "FAIL" in capsys.readouterr().out


def test_compare_rejects_mismatched_grids(tmp_path, capsys):
    a = write_json(tmp_path, base_config(), "a.json")
    b = write_json(
        tmp_path, base_config(t_grid={"start": 0.2, "stop": 2.0, "count": 7}), "b.json"
    )
    assert cli.main(["compare", "--config-a", str(a), "--config-b", str(b)]) == 2
    assert "grid mismatch" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep subcommand

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


def test_sweep_rejects_legs_that_share_an_output(tmp_path, capsys):
    doc = base_config(output_path=str(tmp_path / "o.csv"), sweep={"model.gamma_w": [0.5, 0.5]})
    cfg = write_json(tmp_path, doc)
    assert cli.main(["sweep", "--config", str(cfg), "--quiet"]) == 2
    assert "both write" in capsys.readouterr().err
    assert not list(tmp_path.glob("o__*"))


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


def test_selftest_rejects_bad_criteria(capsys):
    assert cli.main(["selftest", "--criteria", "four"]) == 2
