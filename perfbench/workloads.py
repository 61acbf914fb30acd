"""Workload generation: a pure function from (workload name, seed) to jobs.

The seed fixes the physical parameters and the Monte Carlo seeds only.  Grid
sizes, trajectory counts, chunk sizes, spin counts and thread counts are
constants of each workload, so every seed asks cpfsim for the same amount of
work.  Parameter ranges are chosen so that no job can hit a documented error
(zero-probability postselection, unreachable polarization, values outside
[-1, 1]).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``cpfsim <command> --config <name>.json``."""

    name: str
    command: str  # "run" or "sweep"
    config: dict
    threads: int

    def config_text(self) -> str:
        return json.dumps(self.config, indent=2, sort_keys=True) + "\n"


def _unit_amplitudes(rng: random.Random) -> tuple[list[float], list[float]]:
    """Normalized (alpha, beta) as [re, im] pairs with a random polarization."""
    theta = rng.uniform(0.3, 2.8)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    alpha = [math.cos(0.5 * theta), 0.0]
    s = math.sin(0.5 * theta)
    return alpha, [s * math.cos(phi), s * math.sin(phi)]


def _grid(start: float, stop: float, count: int) -> dict:
    return {"start": start, "stop": stop, "count": count}


def closed_forms(seed: int) -> list[Job]:
    rng = random.Random(f"closed_forms:{seed}")
    ou = {"kind": "exp_corr_gauss", "g": rng.uniform(0.5, 1.2), "tau_c": rng.uniform(0.5, 2.0)}
    n_bath = 50
    g_bath = rng.uniform(0.6, 1.2)
    bath = {
        "kind": "scaled_spin_bath",
        "n_spins": n_bath,
        "g": g_bath,
        # |alpha|^2 - |beta|^2 = omega / (2 g sqrt(N)) stays below 0.2
        "omega": rng.uniform(0.0, 0.4 * g_bath * math.sqrt(n_bath)),
    }
    lorentz = {
        "kind": "lorentz_coupling",
        "gamma": rng.uniform(0.5, 1.5),
        "omega": rng.uniform(0.0, 1.0),
        "n_spins": 8,
    }
    n_oracle = 13
    alphas, betas = zip(*(_unit_amplitudes(rng) for _ in range(n_oracle)))
    oracle_bath = {
        "kind": "spin_bath",
        "couplings": [rng.uniform(0.1, 1.0) / math.sqrt(n_oracle) for _ in range(n_oracle)],
        "alphas": list(alphas),
        "betas": list(betas),
    }
    return [
        Job("ou_surface", "run", {
            "model": ou, "quantity": "cpf_surface", "method": "analytic",
            "t_grid": _grid(0.01, 3.0, 200), "output_path": "ou_surface.csv",
        }, 1),
        Job("bath_surface", "run", {
            "model": bath, "quantity": "cpf_surface", "method": "analytic",
            "t_grid": _grid(0.02, 3.0, 60), "output_path": "bath_surface.csv",
        }, 1),
        Job("bath_table", "run", {
            "model": bath, "quantity": "probability_table", "method": "analytic",
            "t_grid": _grid(0.05, 3.0, 120), "tau_grid": _grid(0.1, 2.5, 120),
            "y_select": -1, "output_path": "bath_table.csv",
        }, 1),
        Job("lorentz_surface", "run", {
            "model": lorentz, "quantity": "cpf_surface", "method": "analytic",
            "t_grid": _grid(0.02, 3.0, 60), "output_path": "lorentz_surface.csv",
        }, 1),
        Job("oracle_surface", "run", {
            "model": oracle_bath, "quantity": "cpf_surface", "method": "oracle",
            "t_grid": _grid(0.1, 3.0, 4), "output_path": "oracle_surface.csv",
        }, 1),
    ]


def mc_surface(seed: int) -> list[Job]:
    rng = random.Random(f"mc_surface:{seed}")
    ou = {"kind": "exp_corr_gauss", "g": rng.uniform(0.5, 1.2), "tau_c": rng.uniform(0.5, 2.0)}
    sg = {"kind": "static_gauss", "g": rng.uniform(0.3, 0.9)}
    return [
        Job("surface_sweep", "sweep", {
            "model": ou, "quantity": "cpf_surface", "method": "montecarlo",
            "t_grid": _grid(0.02, 2.5, 6),
            "mc": {"n_trajectories": 20_000, "seed": rng.getrandbits(63)},
            "output_path": "mcs.csv",
            "sweep": {"model": [ou, sg], "method": ["montecarlo", "sampling"]},
        }, 2),
        # A sweep is a product over its keys, so the 100,000-trajectory legs
        # (two unequal chunks) are a sweep of their own.  Its legs are named
        # from seeded floats, which the check for distinct leg files covers.
        # Every sweep writes sweep_manifest.json next to its legs, hence the
        # directory of its own.
        Job("two_chunk_sweep", "sweep", {
            "model": ou, "quantity": "cpf_surface", "method": "sampling",
            "t_grid": _grid(0.02, 2.5, 2), "y_select": 1,
            "mc": {"n_trajectories": 100_000, "seed": rng.getrandbits(63)},
            "output_path": "two_chunk/two_chunk.csv",
            "sweep": {"model.g": [rng.uniform(0.5, 1.2), rng.uniform(0.5, 1.2)]},
        }, 2),
    ]


def mc_ensemble(seed: int) -> list[Job]:
    rng = random.Random(f"mc_ensemble:{seed}")
    lorentz = {
        "kind": "lorentz_coupling",
        "gamma": rng.uniform(0.5, 1.5),
        "omega": rng.uniform(0.0, 1.0),
        "n_spins": 50,
    }
    ensemble_mc = {"n_trajectories": 8 * 16_384, "chunk_size": 16_384}
    t, tau = rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.5)
    ou = {"kind": "exp_corr_gauss", "g": rng.uniform(0.5, 1.2), "tau_c": rng.uniform(0.5, 2.0)}
    return [
        Job("ensemble_cpf", "run", {
            "model": lorentz, "quantity": "cpf", "method": "montecarlo",
            "t_grid": _grid(t, t, 1), "tau_grid": _grid(tau, tau, 1),
            "mc": {**ensemble_mc, "seed": rng.getrandbits(63)},
            "output_path": "ensemble_cpf.csv",
        }, 1),
        Job("ensemble_coherence", "run", {
            "model": lorentz, "quantity": "conditional_coherence", "method": "montecarlo",
            "t_grid": _grid(tau, tau, 1), "tau_grid": _grid(t, t, 1), "yx": 1,
            "mc": {**ensemble_mc, "seed": rng.getrandbits(63)},
            "output_path": "ensemble_coherence.csv",
        }, 1),
        Job("ou_sampling", "run", {
            "model": ou, "quantity": "cpf", "method": "sampling",
            "t_grid": _grid(t, t, 1), "tau_grid": _grid(tau, tau, 1), "y_select": 1,
            "mc": {"n_trajectories": 1 << 20, "seed": rng.getrandbits(63)},
            "output_path": "ou_sampling.csv",
        }, 1),
    ]


WORKLOADS = {
    "closed_forms": closed_forms,
    "mc_surface": mc_surface,
    "mc_ensemble": mc_ensemble,
}


def jobs_for(workload: str, seed: int) -> list[Job]:
    try:
        make = WORKLOADS[workload]
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")
    return make(int(seed))
