"""Executable acceptance checks shared by the test suite and `cpfsim selftest`.

Each criterion is a function that records its checks on the checker it is
given; run_criterion turns them into a CriterionResult with a pass flag and
per-check detail lines.  Statistical checks use fixed seeds so the whole
suite is deterministic; tolerances are part of the package contract and are
not tunable from the outside.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import analytic, core, spinbath, stochastic
from ._mc import McConfig, grid_memo


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: list[str] = field(default_factory=list)
    elapsed_s: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{self.number:2d}] {status}  {self.name} ({self.elapsed_s:.1f} s)"


class _Checker:
    def __init__(self) -> None:
        self.ok = True
        self.details: list[str] = []

    def check(self, condition: bool, message: str) -> None:
        self.ok &= bool(condition)
        self.details.append(("ok   " if condition else "FAIL ") + message)


def _within(value: float, target: float, sigma: float, n_sigma: float) -> bool:
    return abs(value - target) <= n_sigma * sigma


def criterion_1_markovian_nullity(c: _Checker, workers: int = 1) -> None:
    """Analytic white-noise CPF is exactly zero; the sampling estimator agrees."""
    model = analytic.White(1.0)
    grid = np.linspace(0.0, 2.5, 50)
    vals = analytic.cpf(model, *np.meshgrid(grid, grid, indexing="ij"))
    c.check(bool(np.all(vals == 0.0)), "analytic cpf identically 0.0 on 50x50 grid")
    est = stochastic.mc_cpf_sampling(
        model, 0.25, 0.25, +1, McConfig(n_trajectories=1_000_000, seed=20250801), workers
    )
    c.check(
        abs(est.value) <= 4.0 * est.std_error,
        f"sampling estimator {est} within 4 sigma of 0",
    )


def criterion_2_gaussian_plateau(c: _Checker, workers: int = 1) -> None:
    """Static-Gaussian diagonal CPF sits on the 1/2 plateau for gt >= 2."""
    model = analytic.StaticGauss(1.0)
    ts = np.linspace(2.0, 6.0, 17)
    vals = analytic.cpf(model, ts, ts)
    c.check(
        all(0.499 <= v <= 0.5 + 5e-16 for v in vals),
        f"plateau range [{min(vals):.6f}, {max(vals):.6f}] inside [0.499, 0.5] for gt in [2, 6]",
    )
    target = analytic.cpf(model, 2.0, 2.0)
    est = stochastic.mc_cpf_semianalytic(
        model, 2.0, 2.0, McConfig(n_trajectories=1_000_000, seed=20250802), workers
    )
    c.check(
        _within(est.value, target, est.std_error, 3.0),
        f"MC at gt=2: {est} vs analytic {target:.6f} (3 sigma)",
    )


def criterion_3_spinbath_gaussian_fit(c: _Checker, workers: int = 1) -> None:
    """N=50 scaled bath matches the Gaussian closed forms at stated tolerances."""
    spec = spinbath.scaled_gaussian_bath(50, 1.0)
    gauss = analytic.StaticGauss(1.0)
    ts = np.linspace(0.0, 2.0, 81)
    dc = max(
        abs(spinbath.coherence(spec, t) - analytic.first_moment(gauss, t)) for t in ts
    )
    c.check(dc <= 0.01, f"max |c_t - exp(-2(gt)^2)| = {dc:.5f} <= 0.01 on gt in [0, 2]")
    grid = np.linspace(0.0, 2.0, 41)
    t, tau = np.meshgrid(grid, grid, indexing="ij")
    dcpf = np.max(np.abs(_bath_cpf(spec, t, tau) - analytic.cpf(gauss, t, tau)))
    c.check(dcpf <= 0.02, f"max |CPF - Gaussian closed form| = {dcpf:.5f} <= 0.02")
    plateau = _bath_cpf(spec, 2.0, 2.0)
    c.check(abs(plateau - 0.5) <= 0.02, f"diagonal plateau at gt=2: {plateau:.4f} ~ 1/2")


def _bath_cpf(spec: spinbath.SpinBathSpec, t, tau):
    return core.cpf_from_moments(spinbath.moment_set(spec, t, tau))


def _random_spec(rng: np.random.Generator, n: int) -> spinbath.SpinBathSpec:
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    norm = np.sqrt(np.abs(a) ** 2 + np.abs(b) ** 2)
    return spinbath.SpinBathSpec(
        couplings=rng.uniform(0.1, 2.0, size=n), alphas=a / norm, betas=b / norm
    )


def _table_distance(a: core.CpfProbabilityTable, b: core.CpfProbabilityTable) -> float:
    """Largest difference of the entries and of the marginals P(x|y) and P(z|y)."""
    def cells(e):
        return [*e.values(), *(e[(+1, s)] + e[(-1, s)] for s in core.OUTCOMES),
                *(e[(s, +1)] + e[(s, -1)] for s in core.OUTCOMES)]
    return max(abs(p - q) for p, q in zip(cells(a.entries), cells(b.entries)))


def criterion_4_oracle_equivalence(c: _Checker, workers: int = 1) -> None:
    """Statevector oracle reproduces the product-formula table on random baths."""
    rng = np.random.default_rng(20250804)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(1, 11))
        spec = _random_spec(rng, n)
        t, tau = rng.uniform(0.0, 3.0, size=2)
        y = +1 if rng.random() < 0.5 else -1
        oracle = spinbath.oracle_protocol(spec, spinbath.SystemInit.plus(), t, tau, y)
        closed = core.cpf_probability_table(spinbath.moment_set(spec, t, tau), y)
        worst = max(worst, _table_distance(oracle, closed))
    c.check(worst <= 1e-10, f"25 random specs (N in 1..10): max table diff {worst:.2e} <= 1e-10")


def criterion_5_lorentz_lindblad(c: _Checker, workers: int = 1) -> None:
    """Cauchy-coupling ensemble: exponential coherence yet nonzero CPF."""
    spec50 = spinbath.LorentzCouplingSpec(gamma=1.0, n_spins=50)
    ts = np.linspace(0.0, 4.0, 41)
    dmax = max(
        abs(spinbath.lorentz_coherence(spec50, t) - math.exp(-t)) for t in ts
    )
    c.check(dmax <= 1e-12, f"lorentz_coherence(omega=0) = exp(-gamma t) exactly ({dmax:.1e})")

    est_c = spinbath.lorentz_mc_coherence(
        spec50, 2.0, McConfig(n_trajectories=300_000, seed=20250805), workers
    )
    c.check(
        _within(est_c.value, math.exp(-2.0), est_c.std_error, 3.0),
        f"Cauchy MC coherence at t=2: {est_c} vs {math.exp(-2.0):.5f} (3 sigma)",
    )

    spec1 = spinbath.LorentzCouplingSpec(gamma=1.0)
    target_cpf = core.cpf_from_moments(spinbath.lorentz_moment_set(spec1, 1.0, 1.0))
    est_cpf = spinbath.lorentz_mc_cpf(
        spec1, 1.0, 1.0, McConfig(n_trajectories=1_000_000, seed=20250806), workers
    )
    c.check(
        _within(est_cpf.value, target_cpf, est_cpf.std_error, 3.0),
        f"table-first ensemble MC CPF {est_cpf} vs closed form {target_cpf:.5f} (3 sigma)",
    )

    target_cc = core.conditional_coherence(spinbath.lorentz_moment_set(spec1, 1.0, 1.0), +1)
    est_cc = stochastic.mc_conditional_coherence(
        analytic.StaticLorentz(1.0),
        1.0,
        1.0,
        +1,
        McConfig(n_trajectories=1_000_000, seed=20250807),
        workers,
    )
    c.check(
        _within(est_cc.value, target_cc, est_cc.std_error, 3.0),
        f"conditioned MC coherence {est_cc} vs corrected closed form {target_cc:.5f} (3 sigma)",
    )

    grid = np.linspace(0.08, 4.0, 50)
    m = spinbath.lorentz_moment_set(spec1, *np.meshgrid(grid, grid, indexing="ij"))
    bound_ok = all(
        np.all(np.abs(core.conditional_coherence(m, yx)) <= 1.0 + 1e-12) for yx in (+1, -1)
    )
    c.check(bound_ok, "corrected conditional coherence stays in [-1, 1] on 50x50 grid, both yx")

    # The journal display without the 1/2 on the yx term is unphysical here.
    printed = (math.exp(-1.0) + (math.exp(-2.0) + 1.0)) / (1.0 + math.exp(-1.0))
    c.check(
        printed > 1.0,
        f"un-halved printed variant = {printed:.4f} > 1 at gamma t = gamma tau = 1 "
        "(recorded as the expected failure of the printed form)",
    )


def criterion_6_random_frequency_equivalence(c: _Checker, workers: int = 1) -> None:
    """StaticLorentz noise model equals the Cauchy spin-bath closed forms."""
    model = analytic.StaticLorentz(1.0)
    ensemble = spinbath.LorentzCouplingSpec(gamma=1.0)
    grid = np.linspace(0.0, 3.0, 20)
    worst_f = np.max(np.abs(analytic.first_moment(model, grid) - np.exp(-grid)))
    t, tau = np.meshgrid(grid, grid, indexing="ij")
    bath = spinbath.lorentz_moment_set(ensemble, t, tau)
    worst_cpf = np.max(np.abs(analytic.cpf(model, t, tau) - core.cpf_from_moments(bath)))
    # yx = -1 cannot be conditioned on at t = 0, the first row of the grid
    worst_cc = max(
        np.max(np.abs(
            analytic.conditional_coherence(model, t[k:], tau[k:], yx)
            - core.conditional_coherence(spinbath.lorentz_moment_set(ensemble, t[k:], tau[k:]), yx)
        ))
        for yx, k in ((+1, 0), (-1, 1))
    )
    c.check(worst_f <= 1e-12, f"first moments agree to {worst_f:.1e}")
    c.check(worst_cpf <= 1e-12, f"CPF surfaces agree to {worst_cpf:.1e}")
    c.check(worst_cc <= 1e-12, f"conditional coherences agree to {worst_cc:.1e}")


def criterion_7_ou_limits(c: _Checker, workers: int = 1) -> None:
    """OU noise interpolates white -> static Gaussian; MC matches analytic."""
    for t in (0.5, 1.0, 2.0):
        tau_c = 1e-4 * t
        g = math.sqrt(1.0 / (2.0 * tau_c))  # keeps gamma_w = 2 g^2 tau_c = 1
        diff = abs(
            analytic.first_moment(analytic.ExpCorrGauss(g, tau_c), t) - math.exp(-2.0 * t)
        )
        c.check(diff < 1e-3, f"white limit at t={t}: |f_exp - f_white| = {diff:.1e} < 1e-3")
    for t in (0.5, 1.0, 2.0):
        tau_c = 1e4 * t
        model = analytic.ExpCorrGauss(1.0, tau_c)
        static = analytic.StaticGauss(1.0)
        a, b = (analytic.moment_set(m, t, t) for m in (model, static))
        d1, d2 = abs(a.f_t - b.f_t), abs(a.f_joint - b.f_joint)
        c.check(
            max(d1, d2) < 1e-3,
            f"static limit at t={t}: |df| = {d1:.1e}, |djoint| = {d2:.1e} < 1e-3",
        )

    points = [(0.25, 0.25), (0.5, 0.5), (1.0, 1.0), (1.5, 1.5), (2.0, 2.0)]
    peaks = []
    for i, tau_c in enumerate((0.2, 1.0, 5.0, 100.0)):
        g = math.sqrt(1.0 / (2.0 * tau_c))
        model = analytic.ExpCorrGauss(g, tau_c)
        ok = True
        for j, (t, tau) in enumerate(points):
            # independent seed per point; sharing one stream across points
            # would replay the same normal draws at every (t, tau)
            cfg = McConfig(n_trajectories=200_000, seed=20250810 + 100 * i + j)
            with grid_memo():  # both estimators draw the same chunks of cfg
                f1, f2, fj = stochastic.mc_moments(model, t, tau, cfg, workers)
                est = stochastic.mc_cpf_semianalytic(model, t, tau, cfg, workers)
            ok &= _within(f1.value, analytic.first_moment(model, t), f1.std_error, 3.0)
            ok &= _within(f2.value, analytic.first_moment(model, tau), f2.std_error, 3.0)
            ok &= _within(fj.value, analytic.moment_set(model, t, tau).f_joint, fj.std_error, 3.0)
            ok &= _within(est.value, analytic.cpf(model, t, tau), est.std_error, 3.0)
        c.check(ok, f"tau_c={tau_c}: MC moments and CPF within 3 sigma at 5 diagonal points")
        # the diagonal maximum sits near g t ~ 2, i.e. t ~ 2 sqrt(2 tau_c)
        diag = np.linspace(0.0, 10.0 * math.sqrt(tau_c) + 5.0, 400)
        peaks.append(np.max(analytic.cpf(model, diag, diag)))
    c.check(
        all(a < b for a, b in zip(peaks, peaks[1:])),
        f"diagonal CPF peak grows with tau_c at fixed gamma_w: {[f'{p:.3f}' for p in peaks]}",
    )


def criterion_8_rate_formulas(c: _Checker, workers: int = 1) -> None:
    """Closed-form dephasing rates match finite differences of ln f."""
    rng = np.random.default_rng(20250808)
    h = 1e-6
    for model in (
        analytic.White(1.5),
        analytic.StaticGauss(0.8),
        analytic.ExpCorrGauss(1.1, 0.7),
    ):
        worst = 0.0
        for t in rng.uniform(0.05, 3.0, size=20):
            fd = (
                math.log(analytic.first_moment(model, t - h))
                - math.log(analytic.first_moment(model, t + h))
            ) / (2.0 * h)
            rate = analytic.dephasing_rate(model, t)
            worst = max(worst, abs(fd - rate) / abs(rate))
        c.check(
            worst <= 1e-5,
            f"{analytic.model_tag(model)}: max rel. FD mismatch {worst:.1e} <= 1e-5 at 20 points",
        )


def criterion_9_estimator_cross_validation(c: _Checker, workers: int = 1) -> None:
    """Postselected sampling and semianalytic CPF estimators agree at 3 sigma."""
    points = [(0.25, 0.25), (0.5, 0.5), (1.0, 1.0), (0.5, 1.0), (2.0, 0.5)]
    models = (
        analytic.White(1.0),
        analytic.StaticGauss(1.0),
        analytic.ExpCorrGauss(1.0, 5.0),
        analytic.StaticLorentz(1.0),
    )
    for i, model in enumerate(models):
        ok = True
        worst = 0.0
        for j, (t, tau) in enumerate(points):
            cfg_a = McConfig(n_trajectories=1_000_000, seed=20250820 + 10 * i + j)
            cfg_b = McConfig(n_trajectories=1_000_000, seed=20250920 + 10 * i + j)
            samp = stochastic.mc_cpf_sampling(model, t, tau, +1, cfg_a, workers)
            semi = stochastic.mc_cpf_semianalytic(model, t, tau, cfg_b, workers)
            sigma = math.hypot(samp.std_error, semi.std_error)
            pull = abs(samp.value - semi.value) / sigma if sigma > 0 else 0.0
            worst = max(worst, pull)
            ok &= pull <= 3.0
        c.check(ok, f"{analytic.model_tag(model)}: worst |pull| = {worst:.2f} <= 3 at 5 points")


def criterion_10_property_suite(c: _Checker, workers: int = 1) -> None:
    """Spot checks of the structural properties the pytest suite covers in full."""
    rng = np.random.default_rng(20250809)

    models = [
        analytic.White(0.8),
        analytic.ExpCorrGauss(1.2, 0.9),
        analytic.StaticGauss(1.1),
        analytic.StaticLorentz(0.7, 0.4),
    ]
    norm_ok = True
    for _ in range(40):
        model = models[int(rng.integers(len(models)))]
        t, tau = rng.uniform(0.0, 4.0, size=2)
        y = +1 if rng.random() < 0.5 else -1
        table = core.cpf_probability_table(analytic.moment_set(model, t, tau), y)
        norm_ok &= abs(sum(table.entries.values()) - 1.0) <= 1e-12
    c.check(norm_ok, "probability tables normalized for random models and times")

    coh_ok = True
    for _ in range(100):
        spec = _random_spec(rng, int(rng.integers(1, 8)))
        coh_ok &= abs(spinbath.coherence(spec, rng.uniform(0, 10))) <= 1.0 + 1e-12
    c.check(coh_ok, "|coherence| <= 1 on random baths")

    edge_ok = True
    for model in models:
        for s in rng.uniform(0.0, 3.0, size=5):
            edge_ok &= analytic.cpf(model, s, 0.0) == 0.0
            edge_ok &= analytic.cpf(model, 0.0, s) == 0.0
    spec = _random_spec(rng, 4)
    for s in rng.uniform(0.0, 3.0, size=5):
        # 0.0 exactly: f(0) == 1.0 (the tests assert it); the bound is headroom
        edge_ok &= abs(_bath_cpf(spec, s, 0.0)) <= 1e-13
        edge_ok &= abs(_bath_cpf(spec, 0.0, s)) <= 1e-13
    c.check(edge_ok, "C_pf(t,0) = C_pf(0,tau) = 0 (exact for noise models)")

    y_ok = True
    for _ in range(40):
        f_t, f_tau = rng.uniform(-1, 1, size=2)
        lo, hi = core.joint_moment_bounds(f_t, f_tau)
        fj = rng.uniform(lo, hi)
        m = core.MomentSet(f_t, f_tau, fj)
        y_ok &= (
            core.cpf_from_moments(core.cpf_probability_table(m, +1).moment_set())
            == core.cpf_from_moments(core.cpf_probability_table(m, -1).moment_set())
        )
    c.check(y_ok, "CPF from the table is y-independent")

    n1_ok = True
    for _ in range(30):
        spec = _random_spec(rng, 1)
        t, tau = rng.uniform(0.0, 5.0, size=2)
        n1_ok &= abs(_bath_cpf(spec, t, tau)) <= 1e-14
    c.check(n1_ok, "single-spin bath CPF vanishes identically")

    model = analytic.StaticGauss(1.0)
    cfg = McConfig(n_trajectories=150_000, seed=20250811)
    base = stochastic.mc_cpf_semianalytic(model, 1.0, 1.0, cfg, workers=1)
    rep_ok = all(
        stochastic.mc_cpf_semianalytic(model, 1.0, 1.0, cfg, workers=w) == base
        for w in (2, 4)
    )
    base_s = stochastic.mc_cpf_sampling(model, 1.0, 1.0, +1, cfg, workers=1)
    rep_ok &= all(
        stochastic.mc_cpf_sampling(model, 1.0, 1.0, +1, cfg, workers=w) == base_s
        for w in (2, 4)
    )
    c.check(rep_ok, "estimates bit-identical for 1, 2, 4 workers")


CRITERIA = (
    (1, "Markovian nullity", criterion_1_markovian_nullity),
    (2, "Gaussian plateau", criterion_2_gaussian_plateau),
    (3, "Spin-bath Gaussian fit", criterion_3_spinbath_gaussian_fit),
    (4, "Oracle equivalence", criterion_4_oracle_equivalence),
    (5, "Lorentz/Lindblad non-Markovianity", criterion_5_lorentz_lindblad),
    (6, "Random-frequency/spin-bath equivalence", criterion_6_random_frequency_equivalence),
    (7, "OU limits", criterion_7_ou_limits),
    (8, "Rate formulas", criterion_8_rate_formulas),
    (9, "Estimator cross-validation", criterion_9_estimator_cross_validation),
    (10, "Property suite", criterion_10_property_suite),
)


def run_criterion(number: int, workers: int = 1) -> CriterionResult:
    for num, name, fn in CRITERIA:
        if num == number:
            c = _Checker()
            start = time.perf_counter()
            fn(c, workers)
            return CriterionResult(num, name, c.ok, c.details, time.perf_counter() - start)
    raise ValueError(f"no acceptance criterion numbered {number}")


def run_all(
    workers: int = 1, verbose: bool = False, numbers: list[int] | None = None
) -> list[CriterionResult]:
    """Run the numbered criteria (default all, in order), one verdict line each."""
    results = []
    for num in [num for num, _, _ in CRITERIA] if numbers is None else numbers:
        result = run_criterion(num, workers)
        results.append(result)
        print(result.line(), flush=True)
        if verbose or not result.passed:
            for line in result.details:
                print("      " + line, flush=True)
    return results
