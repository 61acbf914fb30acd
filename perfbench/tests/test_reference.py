"""The benchmark's own closed forms agree with cpfsim's, and the gate catches errors."""

import csv
import math
import random

import numpy as np
import pytest
import reference
import workloads

from cpfsim import analytic, cli, core, spinbath

TOL = 1e-12


def _models(rng):
    n = 6
    amps = []
    for _ in range(n):
        theta, phi = rng.uniform(0.2, 3.0), rng.uniform(0, 2 * math.pi)
        amps.append(([math.cos(theta / 2), 0.0],
                     [math.sin(theta / 2) * math.cos(phi), math.sin(theta / 2) * math.sin(phi)]))
    return [
        {"kind": "white", "gamma_w": rng.uniform(0.1, 1.0)},
        {"kind": "exp_corr_gauss", "g": rng.uniform(0.3, 1.5), "tau_c": rng.uniform(0.2, 3.0)},
        {"kind": "static_gauss", "g": rng.uniform(0.3, 1.5)},
        {"kind": "static_lorentz", "gamma": rng.uniform(0.2, 1.5), "omega": rng.uniform(0, 2)},
        {"kind": "scaled_spin_bath", "n_spins": 20, "g": rng.uniform(0.5, 1.5),
         "omega": rng.uniform(0, 1)},
        {"kind": "spin_bath", "couplings": [rng.uniform(0.1, 1.0) for _ in range(n)],
         "alphas": [a for a, _ in amps], "betas": [b for _, b in amps]},
        {"kind": "lorentz_coupling", "gamma": rng.uniform(0.3, 1.5), "omega": rng.uniform(0, 1),
         "n_spins": 7},
    ]


def _cpfsim_moments(doc, t, tau):
    config = cli.parse_config({"model": doc, "quantity": "cpf", "method": "analytic",
                               "t_grid": {"start": 1.0, "stop": 1.0, "count": 1}})
    model = config.model
    if doc["kind"] in ("white", "exp_corr_gauss", "static_gauss", "static_lorentz"):
        return analytic.moment_set(model, t, tau)
    if doc["kind"] == "lorentz_coupling":
        return spinbath.lorentz_moment_set(model, t, tau)
    return spinbath.moment_set(model, t, tau)


@pytest.mark.parametrize("seed", range(5))
def test_reference_matches_cpfsim_closed_forms(seed):
    rng = random.Random(seed)
    for doc in _models(rng):
        for _ in range(10):
            t, tau = rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)
            m = _cpfsim_moments(doc, t, tau)
            f_t, f_tau, joint = (float(v) for v in reference.moments(doc, t, tau))
            assert f_t == pytest.approx(m.f_t, abs=TOL)
            assert f_tau == pytest.approx(m.f_tau, abs=TOL)
            assert joint == pytest.approx(m.f_joint, abs=TOL)
            assert float(reference.cpf(doc, t, tau)) == pytest.approx(
                core.cpf_from_moments(m), abs=TOL)
            for y in (1, -1):
                table = core.cpf_probability_table(m, y)
                for (z, x), p in table.entries.items():
                    assert float(reference.table_cell(doc, t, tau, y, z, x)) == pytest.approx(
                        p, abs=TOL)


def test_ou_conditional_coherence_matches_cpfsim():
    model = analytic.ExpCorrGauss(g=0.8, tau_c=1.1)
    doc = {"kind": "exp_corr_gauss", "g": 0.8, "tau_c": 1.1}
    for yx in (1, -1):
        assert float(reference.conditional_coherence(doc, 0.7, 1.3, yx)) == pytest.approx(
            analytic.conditional_coherence(model, 0.7, 1.3, yx), abs=TOL)


@pytest.mark.parametrize("t, tau", [(0.02, 0.02), (0.4, 1.1), (2.0, 0.5)])
def test_sampling_std_error_matches_multinomial_spread(t, tau):
    doc = {"kind": "exp_corr_gauss", "g": 0.9, "tau_c": 1.3}
    y, n = 1, 50_000
    cells = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    p = np.array([float(reference.table_cell(doc, t, tau, y, z, x)) for z, x in cells])
    p /= p.sum()
    draws = np.random.default_rng(5).multinomial(n, p, size=4000) / n
    z = np.array([c[0] for c in cells])
    x = np.array([c[1] for c in cells])
    est = draws @ (z * x) - (draws @ z) * (draws @ x)
    exact, _ = reference.sampling_std_error(doc, t, tau, y, n)
    assert np.std(est) == pytest.approx(float(exact), rel=0.1)


def _run(tmp_path, job):
    path = tmp_path / "config.json"
    path.write_text(job.config_text())
    assert cli.main([job.command, "--config", str(path), "--quiet"]) == 0
    return tmp_path / job.config["output_path"]


def test_gate_passes_correct_output_and_flags_a_corrupted_value(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    job = next(j for j in workloads.jobs_for("closed_forms", 3) if j.name == "bath_surface")
    out = _run(tmp_path, job)
    report = reference.Report()
    reference.check_run_output(job.name, job.config, out, report)
    report.finish()
    assert report.failures == []

    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[7][2] = repr(float(rows[7][2]) + 1e-9)
    with open(out, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    report = reference.Report()
    reference.check_run_output(job.name, job.config, out, report)
    assert len(report.failures) == 1 and "exceeds 1e-10" in report.failures[0][1]


def test_gate_flags_a_biased_monte_carlo_row(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    job = workloads.Job("mc", "run", {
        "model": {"kind": "static_gauss", "g": 0.6}, "quantity": "cpf", "method": "montecarlo",
        "t_grid": {"start": 0.5, "stop": 1.5, "count": 3},
        "mc": {"n_trajectories": 20_000, "seed": 4}, "output_path": "mc.csv"}, 1)
    out = _run(tmp_path, job)
    report = reference.Report()
    reference.check_run_output(job.name, job.config, out, report)
    report.finish()
    assert report.failures == []

    rows = reference.read_rows(out)
    report = reference.Report()
    reference.check_run_output(job.name, job.config, out, report)
    report.mc_rows[1].value += 10 * rows.std_error[1]
    report.finish()
    assert [job for job, _ in report.failures] == ["mc"]


def test_one_rare_trajectory_is_not_a_failure_but_a_bias_is():
    """At t = tau = 0.02 a postselected CPF of 10,000 kept trajectories sits near
    0 with a standard error of 1.3e-5, but one trajectory flipping both x and z
    moves it by about 4 / 10,000, thirty standard errors."""
    def verdict(deviation):
        report = reference.Report()
        report.mc_rows.append(reference.McRow("s", "row", 2.8e-7 + deviation, 2.8e-7,
                                              1.29e-5, 6.0, 10_000))
        report.finish()
        return report.failures == []

    assert verdict(4e-4)
    assert not verdict(0.05)


def test_sampling_rows_report_underestimated_errors(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    job = workloads.Job("s", "run", {
        "model": {"kind": "exp_corr_gauss", "g": 0.9, "tau_c": 1.3}, "quantity": "cpf",
        "method": "sampling", "t_grid": {"start": 0.02, "stop": 0.02, "count": 1},
        "mc": {"n_trajectories": 100_000, "seed": 1}, "output_path": "s.csv"}, 1)
    out = _run(tmp_path, job)
    report = reference.Report()
    reference.check_run_output(job.name, job.config, out, report)
    report.finish()
    assert report.failures == []
    rows, under, worst = report.std_errors["sampling"]
    assert (rows, under) == (1, 1) and worst < 0.5
