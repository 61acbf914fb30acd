"""Independent reference values and the output checks built on them.

Nothing here calls cpfsim.  Every observable of the protocol is a function
of the real coherence f(s) = Re c(s) of one interval:

    f_t = f(t),  f_tau = f(tau),
    f_joint = [f(t + tau) + f(t - tau)] / 2     (frozen noise, spin baths),
    f_joint = f(t) f(tau) cosh(phi)              (Ornstein-Uhlenbeck noise),
    f_joint = f(t) f(tau)                        (white noise),

and C_pf = f_joint - f_t f_tau, P(z, x | y) = (1 + xy f_t + zy f_tau +
zx f_joint) / 4.  The closed forms are written here from the formulas, in
numpy over whole grids, so they share no code path with the package.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Deterministic rows must agree with the reference to the oracle tolerance
# of the acceptance suite.
DETERMINISTIC_TOL = 1e-10
# Family-wise false-alarm probability of the Monte Carlo check.
FAMILY_ALPHA = 1e-6

CSV_HEADER = ["t", "tau", "value", "std_error", "n_samples", "quantity", "model", "method"]
TABLE_CELLS = {"p_z+_x+": (1, 1), "p_z+_x-": (1, -1), "p_z-_x+": (-1, 1), "p_z-_x-": (-1, -1)}


def _complex(v) -> complex:
    return complex(v[0], v[1]) if isinstance(v, list) else complex(v)


def _cos_product(s: np.ndarray, couplings, w_up, w_dn) -> np.ndarray:
    """Re prod_k (w_up_k e^{2 i g_k s} + w_dn_k e^{-2 i g_k s})."""
    c = np.ones(s.shape, dtype=complex)
    for g, a, b in zip(couplings, w_up, w_dn):
        c = c * (a * np.exp(2j * g * s) + b * np.exp(-2j * g * s))
    return c.real


def coherence(model: dict, s) -> np.ndarray:
    """f(s) = Re c(s) for a model config; even in s."""
    s = np.asarray(s, dtype=float)
    kind = model["kind"]
    if kind == "white":
        return np.exp(-2.0 * model["gamma_w"] * np.abs(s))
    if kind == "exp_corr_gauss":
        g, tc = model["g"], model["tau_c"]
        u = np.abs(s) / tc
        return np.exp(-4.0 * (tc * g) ** 2 * (u + np.expm1(-u)))
    if kind == "static_gauss":
        return np.exp(-2.0 * (model["g"] * s) ** 2)
    if kind == "static_lorentz":
        return np.exp(-model["gamma"] * np.abs(s)) * np.cos(model.get("omega", 0.0) * s)
    if kind == "scaled_spin_bath":
        n, g, omega = model["n_spins"], model["g"], model.get("omega", 0.0)
        pol = omega / (2.0 * g * math.sqrt(n))
        gk = g / math.sqrt(n)
        return _cos_product(s, [gk] * n, [0.5 * (1 + pol)] * n, [0.5 * (1 - pol)] * n)
    if kind == "spin_bath":
        half = 1.0 / math.sqrt(2.0)
        n = len(model["couplings"])
        alphas = [_complex(a) for a in model.get("alphas", [half] * n)]
        betas = [_complex(b) for b in model.get("betas", [half] * n)]
        return _cos_product(
            s, model["couplings"], [abs(a) ** 2 for a in alphas], [abs(b) ** 2 for b in betas]
        )
    if kind == "lorentz_coupling":
        half = 1.0 / math.sqrt(2.0)
        n, omega = model.get("n_spins", 1), model.get("omega", 0.0)
        w_up = abs(_complex(model.get("alpha", half))) ** 2
        w_dn = abs(_complex(model.get("beta", half))) ** 2
        bracket = w_up * np.exp(1j * omega * s / n) + w_dn * np.exp(-1j * omega * s / n)
        return (np.exp(-model["gamma"] * np.abs(s)) * bracket**n).real
    raise ValueError(f"no reference for model kind {kind!r}")


def moments(model: dict, t, tau) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f_t, f_tau, f_joint) on broadcast arrays t, tau."""
    t = np.asarray(t, dtype=float)
    tau = np.asarray(tau, dtype=float)
    f_t, f_tau = coherence(model, t), coherence(model, tau)
    kind = model["kind"]
    if kind == "white":
        joint = f_t * f_tau
    elif kind == "exp_corr_gauss":
        a = (model["tau_c"] * model["g"]) ** 2
        phi = 4.0 * a * np.expm1(-t / model["tau_c"]) * np.expm1(-tau / model["tau_c"])
        joint = f_t * f_tau * np.cosh(phi)
    else:
        joint = 0.5 * (coherence(model, t + tau) + coherence(model, t - tau))
    return f_t, f_tau, joint


def cpf(model: dict, t, tau) -> np.ndarray:
    f_t, f_tau, joint = moments(model, t, tau)
    return joint - f_t * f_tau


def conditional_coherence(model: dict, t, tau, yx: int) -> np.ndarray:
    f_t, f_tau, joint = moments(model, t, tau)
    return (f_tau + yx * joint) / (1.0 + yx * f_t)


def table_cell(model: dict, t, tau, y: int, z: int, x: int) -> np.ndarray:
    f_t, f_tau, joint = moments(model, t, tau)
    return 0.25 * (1.0 + x * y * f_t + z * y * f_tau + z * x * joint)


def sampling_std_error(model: dict, t, tau, y: int, n_kept) -> tuple[np.ndarray, np.ndarray]:
    """Exact first-order standard error of the postselected CPF estimator,
    and the largest swing one trajectory can give its linearization.

    The estimator is sum zx p - (sum z p)(sum x p) over the empirical cell
    frequencies p of the n_kept trajectories with middle outcome y, which are
    multinomial with the exact table probabilities.
    """
    cells = [(z, x) for z in (1, -1) for x in (1, -1)]
    p = np.stack([table_cell(model, t, tau, y, z, x) for z, x in cells])
    shape = (len(cells),) + (1,) * (p.ndim - 1)
    zs = np.array([z for z, _ in cells], dtype=float).reshape(shape)
    xs = np.array([x for _, x in cells], dtype=float).reshape(shape)
    mean_z = (zs * p).sum(axis=0)
    mean_x = (xs * p).sum(axis=0)
    grad = zs * xs - xs * mean_z - zs * mean_x
    var = (p * grad**2).sum(axis=0) - ((p * grad).sum(axis=0)) ** 2
    swing = 2.0 * np.abs(grad).max(axis=0)
    return np.sqrt(np.maximum(var, 0.0) / np.asarray(n_kept, dtype=float)), swing


NOISE_KINDS = ("white", "exp_corr_gauss", "static_gauss", "static_lorentz")


def _phase_char(model: dict, u, v, t, tau) -> np.ndarray:
    """E cos(u theta1 + v theta2) for the integrated phases of a noise model."""
    kind = model["kind"]
    if kind == "static_lorentz":
        # theta_i = gtilde t_i with gtilde ~ Cauchy(omega / 2, gamma / 2)
        s = u * t + v * tau
        return np.exp(-0.5 * model["gamma"] * np.abs(s)) * np.cos(0.5 * model.get("omega", 0.0) * s)
    if kind == "white":
        var1, var2, cov = model["gamma_w"] * t, model["gamma_w"] * tau, 0.0 * t
    elif kind == "static_gauss":
        g2 = model["g"] ** 2
        var1, var2, cov = g2 * t * t, g2 * tau * tau, g2 * t * tau
    elif kind == "exp_corr_gauss":
        tc = model["tau_c"]
        a = (model["g"] * tc) ** 2
        var1 = 2.0 * a * (t / tc + np.expm1(-t / tc))
        var2 = 2.0 * a * (tau / tc + np.expm1(-tau / tc))
        cov = a * np.expm1(-t / tc) * np.expm1(-tau / tc)
    else:
        raise ValueError(f"no phase law for model kind {kind!r}")
    return np.exp(-0.5 * (u * u * var1 + v * v * var2 + 2.0 * u * v * cov))


def _noise_column_moments(model: dict, t, tau):
    """Means and second moments of the columns (cos 2th1, cos 2th2, their product).

    Each column is a sum of c cos(u th1 + v th2) terms, and a product of two
    cosines is half the sum of the cosines of the sum and the difference.
    """
    cols = [[(1.0, 2, 0)], [(1.0, 0, 2)], [(0.5, 2, 2), (0.5, 2, -2)]]
    mean = [sum(c * _phase_char(model, u, v, t, tau) for c, u, v in col) for col in cols]
    second = [[sum(cx * cy * 0.5 * (_phase_char(model, ux + uy, vx + vy, t, tau)
                                    + _phase_char(model, ux - uy, vx - vy, t, tau))
                   for cx, ux, vx in x for cy, uy, vy in y) for y in cols] for x in cols]
    return mean, second


def _ensemble_column_moments(model: dict, t, tau):
    """Means and second moments of Re c(s), s in (t, tau, t + tau, t - tau),
    over the Cauchy-coupling ensemble.

    With psi(x) = E exp(2 i g_k x) = exp(i omega x / N - gamma |x| / N) for one
    spin, E c(s1) c(s2) = (sum_{a,b = +-1} w_a w_b psi(a s1 + b s2))^N, and
    Re c(s1) Re c(s2) = Re[c(s1) c(s2) + c(s1) c(-s2)] / 2.
    """
    half = 1.0 / math.sqrt(2.0)
    n, gamma, omega = model.get("n_spins", 1), model["gamma"], model.get("omega", 0.0)
    w = {1: abs(_complex(model.get("alpha", half))) ** 2,
         -1: abs(_complex(model.get("beta", half))) ** 2}

    def psi(x):
        return np.exp(1j * omega * x / n - gamma * np.abs(x) / n)

    def pair(s1, s2):
        return sum(w[a] * w[b] * psi(a * s1 + b * s2) for a in (1, -1) for b in (1, -1)) ** n

    lags = [t, tau, t + tau, t - tau]
    mean = [coherence(model, s) for s in lags]
    second = [[0.5 * (pair(s1, s2) + pair(s1, -s2)).real for s2 in lags] for s1 in lags]
    return mean, second


def moment_std_error(model: dict, quantity: str, t, tau, yx: int, n) -> tuple[np.ndarray, np.ndarray]:
    """Exact first-order standard error of cpfsim's moment-based estimators,
    and the largest swing one trajectory can give their linearization.

    Noise models average (cos 2th1, cos 2th2, product); the Cauchy ensemble
    averages Re c at the lags (t, tau, t + tau, t - tau).  Either way the
    estimate is a smooth function of the column means, whose gradient at the
    exact means is contracted with the exact column covariance.
    """
    t = np.asarray(t, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if model["kind"] == "lorentz_coupling":
        mean, second = _ensemble_column_moments(model, t, tau)
        m_t, m_tau, m_joint = mean[0], mean[1], 0.5 * (mean[2] + mean[3])
        joint_grad = [0.5, 0.5]
    elif model["kind"] in NOISE_KINDS:
        mean, second = _noise_column_moments(model, t, tau)
        m_t, m_tau, m_joint = mean
        joint_grad = [1.0]
    else:
        raise ValueError(f"no Monte Carlo estimator for model kind {model['kind']!r}")
    if quantity == "conditional_coherence":
        den = 1.0 + yx * m_t
        num = m_tau + yx * m_joint
        grad = [-yx * num / den**2, 1.0 / den] + [yx * g / den for g in joint_grad]
    else:
        grad = [-m_tau, -m_t] + [g + 0.0 * t for g in joint_grad]
    k = len(grad)
    var = sum(grad[i] * grad[j] * (second[i][j] - mean[i] * mean[j])
              for i in range(k) for j in range(k))
    swing = 2.0 * sum(np.abs(g) for g in grad)  # every column lies in [-1, 1]
    return np.sqrt(np.maximum(var, 0.0) / np.asarray(n, dtype=float)), swing


def grid_values(spec: dict) -> np.ndarray:
    return np.linspace(spec["start"], spec["stop"], spec["count"])


def expected_points(config: dict) -> tuple[np.ndarray, np.ndarray]:
    """The (t, tau) pairs a run config evaluates, in CSV order."""
    ts = grid_values(config["t_grid"])
    tau_spec = config.get("tau_grid")
    if config["quantity"] == "cpf_surface":
        taus = grid_values(tau_spec or config["t_grid"])
        return np.repeat(ts, taus.size), np.tile(taus, ts.size)
    return ts, ts if tau_spec is None else grid_values(tau_spec)


@dataclass
class Rows:
    t: np.ndarray
    tau: np.ndarray
    value: np.ndarray
    std_error: np.ndarray
    n_samples: np.ndarray
    quantity: list[str]
    model: list[str]
    method: list[str]


def read_rows(path: Path) -> Rows:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_HEADER:
            raise ValueError(f"{path.name}: unexpected header {header}")
        cols = list(zip(*reader)) or [()] * len(CSV_HEADER)

    def num(col, empty=math.nan):
        return np.array([float(v) if v else empty for v in col], dtype=float)

    return Rows(num(cols[0]), num(cols[1]), num(cols[2]), num(cols[3]), num(cols[4]),
                list(cols[5]), list(cols[6]), list(cols[7]))


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class McRow:
    """One Monte Carlo row, kept until the Bonferroni bound is known."""

    job: str
    where: str
    value: float
    exact: float
    scale: float  # exact standard error of the estimate
    swing: float  # largest change one trajectory makes to the linearized estimate
    n: float  # trajectories behind the estimate


@dataclass
class Report:
    """Failed checks, by job, over the outputs of one pass."""

    failures: list[tuple[str, str]] = field(default_factory=list)
    mc_rows: list[McRow] = field(default_factory=list)
    # estimator -> [rows, rows whose reported error is under half the exact one,
    #               lowest reported / exact error]
    std_errors: dict[str, list] = field(default_factory=dict)

    def fail(self, job: str, message: str) -> None:
        self.failures.append((job, message))

    def note_std_errors(self, estimator: str, reported: np.ndarray, exact: np.ndarray) -> None:
        ratio = reported / exact
        rows, under, worst = self.std_errors.get(estimator, (0, 0, math.inf))
        self.std_errors[estimator] = [rows + ratio.size, under + int(np.sum(ratio < 0.5)),
                                      min(worst, float(np.min(ratio)))]

    def allowed_error(self, row: McRow) -> float:
        """Bernstein bound on |estimate - exact| at the Bonferroni level.

        At small t the estimators hinge on a few rare trajectories and are
        far from normal: one extra rare outcome moves a postselected CPF by
        tens of standard errors.  Bernstein's inequality for a mean of n
        terms that each deviate by at most ``swing`` holds for any law,
        and reduces to about 6 standard errors when the rows are normal.
        """
        log_term = math.log(2.0 * max(len(self.mc_rows), 1) / FAMILY_ALPHA)
        rare = row.swing * log_term / (3.0 * row.n)
        return rare + math.sqrt(rare * rare + 2.0 * log_term * row.scale**2)

    def finish(self) -> None:
        """Apply the bound once every Monte Carlo row is in."""
        for r in self.mc_rows:
            allowed = self.allowed_error(r)
            if not abs(r.value - r.exact) <= allowed:
                self.fail(r.job, f"{r.where}: |value - exact| = {abs(r.value - r.exact):.3g} "
                          f"exceeds {allowed:.3g} (value {r.value!r}, exact {r.exact!r}, "
                          f"standard error {r.scale:.3g})")


def check_run_output(job: str, config: dict, path: Path, report: Report) -> None:
    """Check one CSV written for a (non-sweep) run config against the reference."""
    name = Path(path).name

    def fail(message: str) -> None:
        report.fail(job, f"{name}: {message}")

    try:
        rows = read_rows(path)
    except (OSError, ValueError) as exc:
        fail(f"unreadable ({exc})")
        return
    model, quantity, method = config["model"], config["quantity"], config["method"]
    t, tau = expected_points(config)
    per_point = 4 if quantity == "probability_table" else 1
    if rows.value.size != t.size * per_point:
        fail(f"{rows.value.size} rows, expected {t.size * per_point}")
        return
    t, tau = np.repeat(t, per_point), np.repeat(tau, per_point)
    if not (np.array_equal(rows.t, t) and np.array_equal(rows.tau, tau)):
        fail("(t, tau) columns differ from the configured grid")
        return
    if set(rows.model) != {model["kind"]} or set(rows.method) != {method}:
        fail(f"model/method columns {set(rows.model)}/{set(rows.method)}")
        return

    if quantity == "probability_table":
        y = config.get("y_select", 1)
        expected_labels = list(TABLE_CELLS) * (rows.value.size // 4)
        if rows.quantity != expected_labels:
            fail("table labels out of order")
            return
        zx = np.array([TABLE_CELLS[q] for q in rows.quantity])
        exact = table_cell(model, t, tau, y, zx[:, 0], zx[:, 1])
    else:
        if set(rows.quantity) != {quantity}:
            fail(f"quantity column {set(rows.quantity)}")
            return
        if quantity == "conditional_coherence":
            exact = conditional_coherence(model, t, tau, config.get("yx", 1))
        else:
            exact = cpf(model, t, tau)

    if method in ("analytic", "oracle"):
        err = np.abs(rows.value - exact)
        worst = int(np.argmax(err)) if err.size else 0
        if not np.all(err <= DETERMINISTIC_TOL):
            fail(f"|value - reference| = {err[worst]:.3g} at "
                 f"t={t[worst]!r}, tau={tau[worst]!r} exceeds {DETERMINISTIC_TOL:g}")
        if not (np.all(np.isnan(rows.std_error)) and np.all(np.isnan(rows.n_samples))):
            fail("deterministic rows carry std_error/n_samples")
        return

    n_traj = config["mc"]["n_trajectories"]
    if np.any(~np.isfinite(rows.std_error)) or np.any(rows.std_error < 0):
        fail("std_error missing or negative")
        return
    if method == "sampling":
        if np.any(rows.n_samples < 1) or np.any(rows.n_samples > n_traj):
            fail(f"kept-sample counts outside [1, {n_traj}]")
            return
        scale, swing = sampling_std_error(model, t, tau, config.get("y_select", 1),
                                          rows.n_samples)
        estimator = "sampling"
    else:
        if np.any(rows.n_samples != n_traj):
            fail(f"n_samples differs from {n_traj}")
            return
        scale, swing = moment_std_error(model, quantity, t, tau, config.get("yx", 1), n_traj)
        estimator = "ensemble" if model["kind"] == "lorentz_coupling" else "semianalytic"
    report.note_std_errors(estimator, rows.std_error, scale)
    swing = np.broadcast_to(swing, rows.value.shape)
    for i in range(rows.value.size):
        report.mc_rows.append(McRow(job, f"{name} t={t[i]!r} tau={tau[i]!r}",
                                    float(rows.value[i]), float(exact[i]), float(scale[i]),
                                    float(swing[i]), float(rows.n_samples[i])))
