"""The tracer leaves cpfsim as it found it and does not change any output byte."""

import threading

import pytest
import tracing
import workloads

from cpfsim import _mc, analytic, cli, core, spinbath, stochastic

MODULES = {"cli": cli, "analytic": analytic, "core": core, "spinbath": spinbath,
           "stochastic": stochastic, "_mc": _mc}

JOBS = [
    workloads.Job("sampling", "run", {
        "model": {"kind": "exp_corr_gauss", "g": 0.9, "tau_c": 1.3}, "quantity": "cpf_surface",
        "method": "sampling", "t_grid": {"start": 0.02, "stop": 1.0, "count": 2},
        "mc": {"n_trajectories": 3000, "chunk_size": 1000, "seed": 3},
        "output_path": "sampling.csv"}, 2),
    workloads.Job("ensemble", "run", {
        "model": {"kind": "lorentz_coupling", "gamma": 1.0, "n_spins": 4},
        "quantity": "conditional_coherence", "method": "montecarlo",
        "t_grid": {"start": 0.5, "stop": 0.5, "count": 1},
        "mc": {"n_trajectories": 2000, "chunk_size": 1000, "seed": 3},
        "output_path": "ensemble.csv"}, 1),
    workloads.Job("oracle", "run", {
        "model": {"kind": "scaled_spin_bath", "n_spins": 5, "g": 1.0},
        "quantity": "probability_table", "method": "oracle",
        "t_grid": {"start": 0.2, "stop": 1.0, "count": 2}, "output_path": "oracle.csv"}, 1),
    workloads.Job("analytic", "run", {
        "model": {"kind": "white", "gamma_w": 0.5}, "quantity": "cpf_surface",
        "method": "analytic", "t_grid": {"start": 0.1, "stop": 1.0, "count": 3},
        "output_path": "analytic.csv"}, 1),
]


def _snapshot():
    return {(short, name): obj for short, mod in MODULES.items() for name, obj in vars(mod).items()}


def _run_all(tmp_path, tag):
    outputs = {}
    for job in JOBS:
        cfg = tmp_path / f"{job.name}.json"
        cfg.write_text(job.config_text())
        out = tmp_path / f"{tag}-{job.config['output_path']}"
        argv = ["run", "--config", str(cfg), "--output", str(out), "--quiet",
                "--threads", str(job.threads)]
        assert cli.main(argv) == 0
        outputs[job.name] = out.read_bytes()
    return outputs


def test_tracer_restores_every_wrapped_attribute():
    before = _snapshot()
    tracer = tracing.Tracer(MODULES)
    with tracer:
        during = _snapshot()
        changed = {key for key in before if during[key] is not before[key]}
        assert ("_mc", "map_chunks") in changed
        assert ("stochastic", "map_chunks") in changed
        assert ("spinbath", "collect_moments") not in changed
        assert ("cli", "evaluate_rows") in changed and ("analytic", "cpf") in changed
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_run_writes_identical_csvs_and_accounts_for_its_time(tmp_path):
    plain = _run_all(tmp_path, "plain")
    tracer = tracing.Tracer(MODULES)
    with tracer:
        traced = _run_all(tmp_path, "traced")
    assert traced == plain

    main = threading.main_thread().ident
    m = tracing.summarize(tracer.spans, 1, main)
    roots = sum(s.end - s.start for s in tracer.spans
                if s.parent_id is None and s.thread == main)
    assert m["trace.self_sum_s"] == pytest.approx(roots, rel=1e-9)
    assert m["cli.rows"] == 4 + 1 + 8 + 9
    assert m["spinbath.oracle_calls"] == 2 and m["spinbath.oracle_amplitudes"] == 2 * 2**5
    assert m["spinbath.ensemble_trajectories"] == 2000
    assert m["stochastic.trajectories"] == 4 * 3000
    # four sampling points of three chunks at two workers, one ensemble point of two
    assert m["mc.map_calls"] == 5 and m["mc.pool_starts"] == 4 and m["mc.chunks"] == 14
    assert 0.0 < m["mc.occupancy"] <= 1.0
    assert m["stochastic.sampling_post_s"] > 0.0
