"""Convergence of a balanced spin bath to static Gaussian dephasing.

Scaled baths (per-spin coupling g / sqrt(N)) reproduce the Gaussian
coherence e^{-2 (g t)^2} and its CPF surface as N grows.  The script
tabulates the worst-case deviation of both quantities against N and dumps
the N = 50 diagonal next to the Gaussian curve for plotting.
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from cpfsim import analytic, core, spinbath

N_VALUES = (2, 5, 10, 20, 50, 200, 1_000, 10_000)
G = 1.0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="results")
    ap.add_argument("--t-max", type=float, default=2.0)
    args = ap.parse_args()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    gauss = analytic.StaticGauss(G)
    t_grid = np.linspace(0.0, args.t_max, 81)
    pair_grid = np.linspace(0.05, args.t_max, 21)

    print(f"{'N':>6}  {'max |df|':>10}  {'max |dC|':>10}")
    scaling_rows = []
    for n in N_VALUES:
        spec = spinbath.scaled_gaussian_bath(n, G)
        df = np.max(
            np.abs(spinbath.coherence(spec, t_grid) - analytic.first_moment(gauss, t_grid))
        )
        t, u = np.meshgrid(pair_grid, pair_grid, indexing="ij")
        bath_cpf = core.cpf_from_moments(spinbath.moment_set(spec, t, u))
        dc = np.max(np.abs(bath_cpf - analytic.cpf(gauss, t, u)))
        scaling_rows.append((n, df, dc))
        print(f"{n:6d}  {df:10.2e}  {dc:10.2e}")

    with open(out_dir / "spinbath_scaling.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("n_spins", "max_coherence_dev", "max_cpf_dev"))
        writer.writerows(scaling_rows)

    spec = spinbath.scaled_gaussian_bath(50, G)
    with open(out_dir / "spinbath_diagonal_n50.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("t", "cpf_bath", "cpf_gauss"))
        bath_cpf = core.cpf_from_moments(spinbath.moment_set(spec, pair_grid, pair_grid))
        writer.writerows(zip(pair_grid, bath_cpf, analytic.cpf(gauss, pair_grid, pair_grid)))
    print(f"wrote {out_dir}/spinbath_scaling.csv and spinbath_diagonal_n50.csv")


if __name__ == "__main__":
    main()
