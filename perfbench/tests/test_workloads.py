"""Workload generation is a pure function of the seed and never changes the work."""

import pytest
import workloads

from cpfsim import cli


def _work_shape(job):
    """Everything about a job that sets the amount of work."""
    cfg = job.config
    mc = cfg.get("mc", {})
    sweep = cfg.get("sweep", {})
    size = sorted((k, len(v)) for k, v in sweep.items())
    models = [m.get("kind") if isinstance(m, dict) else m for m in sweep.get("model", [])]
    spins = cfg["model"].get("n_spins", len(cfg["model"].get("couplings", [])))
    return (job.name, job.command, job.threads, cfg["quantity"], cfg["method"],
            cfg["model"]["kind"], spins, cfg["t_grid"]["count"],
            cfg.get("tau_grid", {}).get("count"), mc.get("n_trajectories"),
            mc.get("chunk_size"), tuple(size), tuple(models), tuple(sweep.get("method", ())))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_configs_byte_for_byte(name):
    first = [(j.name, j.command, j.threads, j.config_text()) for j in workloads.jobs_for(name, 7)]
    again = [(j.name, j.command, j.threads, j.config_text()) for j in workloads.jobs_for(name, 7)]
    assert first == again
    other = [j.config_text() for j in workloads.jobs_for(name, 8)]
    assert [text for *_, text in first] != other


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_never_changes_the_amount_of_work(name):
    shapes = {tuple(_work_shape(j) for j in workloads.jobs_for(name, seed)) for seed in range(20)}
    assert len(shapes) == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [0, 1, 2**40 + 3])
def test_generated_configs_are_valid(name, seed):
    for job in workloads.jobs_for(name, seed):
        cli.parse_config(job.config)


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError, match="unknown workload"):
        workloads.jobs_for("nope", 1)
