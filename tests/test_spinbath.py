"""Finite spin baths: product formula, statevector oracle, Cauchy ensembles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpfsim import _mc, analytic, core, spinbath
from cpfsim._mc import McConfig
from cpfsim.errors import (
    BathTooLarge,
    CpfError,
    UnreachablePolarization,
    ZeroProbabilityPostselection,
)

PLUS = spinbath.SystemInit.plus()


def bath_cpf(spec, t, tau):
    return core.cpf_from_moments(spinbath.moment_set(spec, t, tau))


def ensemble(gamma, n_spins=1):
    """Moments of the Cauchy-coupling ensemble with balanced amplitudes."""
    spec = spinbath.LorentzCouplingSpec(gamma=gamma, n_spins=n_spins)
    return lambda t, tau: spinbath.lorentz_moment_set(spec, t, tau)


def random_spec(rng, n):
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    norm = np.sqrt(np.abs(a) ** 2 + np.abs(b) ** 2)
    return spinbath.SpinBathSpec(
        couplings=rng.uniform(0.1, 2.0, size=n), alphas=a / norm, betas=b / norm
    )


# ---------------------------------------------------------------------------
# spec validation

def test_spec_validation():
    half = 1.0 / math.sqrt(2.0)
    spec = spinbath.SpinBathSpec([1.0], [half], [half])
    assert spec.n_spins == 1
    with pytest.raises(ValueError):
        spinbath.SpinBathSpec([1.0], [1.0], [1.0])  # unnormalized pair
    with pytest.raises(ValueError):
        spinbath.SpinBathSpec([1.0, 2.0], [half], [half])  # length mismatch
    with pytest.raises(ValueError):
        spinbath.SpinBathSpec([math.inf], [half], [half])
    assert not spec.couplings.flags.writeable


def test_system_init():
    init = spinbath.SystemInit.plus()
    assert init.a == 1.0 and init.b == 0.0
    with pytest.raises(ValueError):
        spinbath.SystemInit(1.0, 1.0)


# ---------------------------------------------------------------------------
# coherence of the product formula

def test_single_spin_balanced_coherence_is_cosine():
    half = 1.0 / math.sqrt(2.0)
    g = 0.8
    spec = spinbath.SpinBathSpec([g], [half], [half])
    for t in (0.0, 0.3, 1.7):
        assert spinbath.coherence(spec, t) == pytest.approx(
            math.cos(2.0 * g * t), abs=1e-14
        )


def test_coherence_conjugate_symmetry():
    rng = np.random.default_rng(3)
    spec = random_spec(rng, 5)
    for t in (0.4, 1.2, 2.7):
        assert spinbath.coherence(spec, -t) == pytest.approx(
            spinbath.coherence(spec, t).conjugate(), abs=1e-15
        )


def test_uniform_coupling_periodicity():
    half = 1.0 / math.sqrt(2.0)
    g = 0.6
    spec = spinbath.SpinBathSpec([g] * 4, [half] * 4, [half] * 4)
    period = math.pi / g
    for t in (0.2, 0.9):
        assert spinbath.coherence(spec, t + period) == pytest.approx(
            spinbath.coherence(spec, t), abs=1e-12
        )


@given(st.integers(1, 7), st.floats(0.0, 8.0))
def test_coherence_bounded(n, t):
    spec = random_spec(np.random.default_rng(n * 1000 + 17), n)
    assert abs(spinbath.coherence(spec, t)) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# single-spin baths carry no conditional past-future correlation

@given(st.floats(0.05, 2.5), st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi),
       st.floats(0.0, 5.0), st.floats(0.0, 5.0))
def test_single_spin_cpf_vanishes(g, pop, phase, t, tau):
    alpha = math.sqrt(pop)
    beta = math.sqrt(1.0 - pop) * complex(math.cos(phase), math.sin(phase))
    spec = spinbath.SpinBathSpec([g], [alpha], [beta])
    assert abs(bath_cpf(spec, t, tau)) <= 1e-13


def test_two_spin_cpf_does_not_vanish():
    half = 1.0 / math.sqrt(2.0)
    spec = spinbath.SpinBathSpec([0.7, 1.3], [half, half], [half, half])
    assert abs(bath_cpf(spec, 0.8, 0.6)) > 1e-3


# ---------------------------------------------------------------------------
# statevector oracle vs product formula

def _assert_tables_close(a, b, tol):
    for key in a.entries:
        assert a.entries[key] == pytest.approx(b.entries[key], abs=tol)
    for x in core.OUTCOMES:
        assert a.marginal_x[x] == pytest.approx(b.marginal_x[x], abs=tol)
        assert a.marginal_z[z := x] == pytest.approx(b.marginal_z[z], abs=tol)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
@pytest.mark.parametrize("y", [+1, -1])
def test_oracle_matches_product_formula(n, y):
    rng = np.random.default_rng(100 + n)
    spec = random_spec(rng, n)
    t, tau = rng.uniform(0.1, 2.5, size=2)
    closed = core.cpf_probability_table(spinbath.moment_set(spec, t, tau), y)
    oracle = spinbath.oracle_protocol(spec, PLUS, t, tau, y)
    _assert_tables_close(oracle, closed, 1e-12)


@pytest.mark.parametrize("y", [+1, -1])
def test_oracle_at_zero_times_clips_an_entry_rounded_above_one(y):
    # this bath's renormalized state reads P(z = y, x = y | y) as 1 + 2**-52
    spec = random_spec(np.random.default_rng(307), 7)
    table = spinbath.oracle_protocol(spec, PLUS, 0.0, 0.0, y)
    assert table.entries[(y, y)] == 1.0
    assert all(0.0 <= p <= 1.0 for p in table.entries.values())
    assert core.cpf_from_table(table) == 0.0


def test_oracle_propagators_agree():
    rng = np.random.default_rng(11)
    spec = random_spec(rng, 6)
    a = spinbath.oracle_protocol(spec, PLUS, 0.9, 1.4, +1, propagator="diagonal")
    b = spinbath.oracle_protocol(spec, PLUS, 0.9, 1.4, +1, propagator="gatewise")
    _assert_tables_close(a, b, 1e-13)
    with pytest.raises(ValueError):
        spinbath.oracle_protocol(spec, PLUS, 0.9, 1.4, +1, propagator="trotter")


def test_oracle_rejects_large_baths():
    spec = spinbath.scaled_gaussian_bath(15, 1.0)
    with pytest.raises(BathTooLarge):
        spinbath.oracle_protocol(spec, PLUS, 0.5, 0.5, +1)


def test_oracle_conditional_coherence_matches_closed_form():
    rng = np.random.default_rng(13)
    for n in (1, 3, 6):
        spec = random_spec(rng, n)
        t, tau = rng.uniform(0.1, 2.0, size=2)
        c = lambda u: spinbath.coherence(spec, u)
        for x in (+1, -1):
            for y in (+1, -1):
                got = spinbath.oracle_conditional_coherence(spec, PLUS, t, tau, x, y)
                real = core.conditional_coherence(spinbath.moment_set(spec, t, tau), y * x)
                assert got.real == pytest.approx(real, abs=1e-12)
                # c^{yx} = [c_tau + yx (c_{t+tau} + conj(c_{t-tau}))/2] / [1 + yx Re c_t]
                want = (c(tau) + y * x * 0.5 * (c(t + tau) + np.conj(c(t - tau)))) / (
                    1.0 + y * x * c(t).real
                )
                assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("n", range(1, 15))
def test_bath_levels_equal_the_bit_loop_formula(n):
    rng = np.random.default_rng(200 + n)
    spec = random_spec(rng, n)
    spec = spinbath.SpinBathSpec(spec.couplings * rng.choice([-1.0, 1.0], n), spec.alphas, spec.betas)
    idx = np.arange(1 << n)
    want = np.zeros(1 << n)
    for k in range(n):
        want += spec.couplings[k] * (1.0 - 2.0 * ((idx >> k) & 1))
    assert np.array_equal(spinbath._bath_levels(spec), want)


def _oracle_outcome(call, tau):
    """call(tau), or the type and message of the CpfError it raises."""
    try:
        return call(tau)
    except CpfError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("propagator", ["diagonal", "gatewise"])
@pytest.mark.parametrize("y", [+1, -1])
@pytest.mark.parametrize("n", range(1, 10))
def test_array_tau_oracle_equals_per_tau_scalar_calls(n, y, propagator):
    rng = np.random.default_rng(300 + n)
    spec = random_spec(rng, n)
    plus_x = spinbath.SystemInit(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    taus = np.array([0.0, *rng.uniform(0.0, 3.0, size=3), 0.0])
    taus = np.append(taus, taus[1])
    # |+x> has P(x = -1) = 0, and at t = 0 also P(y = -1) = 0
    for init, t in ((PLUS, rng.uniform(0.0, 3.0)), (PLUS, 0.0), (plus_x, 1.3), (plus_x, 0.0)):
        call = lambda tau: spinbath.oracle_protocol(spec, init, t, tau, y, propagator=propagator)
        tables = _oracle_outcome(call, taus)
        empty = _oracle_outcome(call, np.array([]))
        if init is plus_x and t == 0.0 and y == -1:
            want = ("ZeroProbabilityPostselection", "P(y=-1) = 0 for this protocol")
            assert tables == empty == _oracle_outcome(call, 0.5) == want
            continue
        assert empty == []
        singles = [_oracle_outcome(call, float(tau)) for tau in taus]
        errors = [one for one in singles if isinstance(one, tuple)]
        if errors:
            # an entry rounded above 1 (t = tau = 0): the first failing tau's error
            assert tables == errors[0]
            continue
        assert len(tables) == taus.size
        for table, one in zip(tables, singles):
            assert table.y == one.y and table.entries == one.entries
        if init is plus_x:
            assert all(table.marginal_x[-1] == 0.0 for table in tables)


def test_oracle_rejects_two_dimensional_tau():
    spec = random_spec(np.random.default_rng(17), 2)
    with pytest.raises(ValueError, match="1-d"):
        spinbath.oracle_protocol(spec, PLUS, 0.5, np.ones((2, 2)), +1)


def test_conditional_coherence_impossible_postselection():
    half = 1.0 / math.sqrt(2.0)
    spec = spinbath.SpinBathSpec([1.0], [half], [half])
    with pytest.raises(ZeroProbabilityPostselection):
        core.conditional_coherence(spinbath.moment_set(spec, 0.0, 0.4), -1)


# ---------------------------------------------------------------------------
# scaled Gaussian baths

def test_scaled_bath_polarization():
    spec = spinbath.scaled_gaussian_bath(9, 1.5, omega=0.9)
    # per-spin coupling g/sqrt(N), population difference omega/(2 g sqrt(N))
    assert spec.couplings == pytest.approx(np.full(9, 0.5))
    pol = np.abs(spec.alphas) ** 2 - np.abs(spec.betas) ** 2
    assert pol == pytest.approx(np.full(9, 0.9 / (2 * 1.5 * 3)))


def test_scaled_bath_unreachable_polarization():
    with pytest.raises(UnreachablePolarization):
        spinbath.scaled_gaussian_bath(4, 0.1, omega=10.0)


def test_scaled_bath_approaches_static_gauss():
    gauss = analytic.StaticGauss(1.0)
    err_small = max(
        abs(spinbath.coherence(spinbath.scaled_gaussian_bath(10, 1.0), t)
            - analytic.first_moment(gauss, t))
        for t in np.linspace(0.0, 2.0, 21)
    )
    err_large = max(
        abs(spinbath.coherence(spinbath.scaled_gaussian_bath(200, 1.0), t)
            - analytic.first_moment(gauss, t))
        for t in np.linspace(0.0, 2.0, 21)
    )
    assert err_large < err_small
    assert err_large < 1e-3


# ---------------------------------------------------------------------------
# Cauchy-distributed couplings: closed forms

def test_lorentz_coherence_balanced_is_exponential():
    for n in (1, 3, 50):
        spec = spinbath.LorentzCouplingSpec(gamma=0.9, n_spins=n)
        for t in (0.0, 0.5, 2.0):
            assert spinbath.lorentz_coherence(spec, t) == pytest.approx(
                math.exp(-0.9 * t), abs=1e-13
            )


def test_lorentz_coherence_detuned():
    spec = spinbath.LorentzCouplingSpec(gamma=0.9, omega=1.2, n_spins=1)
    for t in (0.3, 1.1):
        want = math.exp(-0.9 * t) * complex(math.cos(1.2 * t), math.sin(1.2 * t)) * 0.5 * 2
        # balanced alpha, beta: bracket = cos(omega t / N) for N = 1 spins
        want = math.exp(-0.9 * t) * math.cos(1.2 * t)
        assert spinbath.lorentz_coherence(spec, t) == pytest.approx(want, abs=1e-13)


def test_lorentz_cpf_diagonal_value():
    # [e^{-2 gamma t} + 1]/2 - e^{-2 gamma t} = (1 - e^{-2 gamma t})/2
    got = core.cpf_from_moments(ensemble(1.0)(1.0, 1.0))
    assert got == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, rel=1e-14)
    assert got == pytest.approx(0.43233235838169365, rel=1e-12)


def test_lorentz_cpf_vanishes_on_axes():
    moments = ensemble(1.3)
    for s in (0.0, 0.7, 2.2):
        assert core.cpf_from_moments(moments(s, 0.0)) == pytest.approx(0.0, abs=1e-15)
        assert core.cpf_from_moments(moments(0.0, s)) == pytest.approx(0.0, abs=1e-15)


def test_lorentz_conditional_coherence_anchor():
    got = core.conditional_coherence(ensemble(1.0)(1.0, 1.0), +1)
    want = (math.exp(-1) + 0.5 * (math.exp(-2) + 1)) / (1 + math.exp(-1))
    assert got == pytest.approx(want, rel=1e-14)
    assert got == pytest.approx(0.68394, abs=5e-6)


def test_lorentz_conditional_coherence_bounded():
    grid = np.linspace(0.05, 4.0, 40)
    m = ensemble(1.0)(*np.meshgrid(grid, grid, indexing="ij"))
    for yx in (+1, -1):
        assert np.max(np.abs(core.conditional_coherence(m, yx))) <= 1.0 + 1e-12


def test_unhalved_variant_breaks_the_bound():
    # the same ratio without the 1/2 on the yx term exceeds 1: kept as the
    # documented failure of the uncorrected expression
    t = tau = 1.0
    unhalved = (math.exp(-tau) + (math.exp(-(t + tau)) + math.exp(-abs(t - tau)))) / (
        1.0 + math.exp(-t)
    )
    assert unhalved > 1.0


def test_lorentz_ensemble_reduces_to_scalar_forms():
    # for omega = 0 every bath size gives the scalar-gamma closed forms
    moments = ensemble(0.8, n_spins=12)
    for t, tau in ((0.4, 0.9), (1.5, 1.5)):
        e_sum, e_diff = math.exp(-0.8 * (t + tau)), math.exp(-0.8 * abs(t - tau))
        assert core.cpf_from_moments(moments(t, tau)) == pytest.approx(
            0.5 * (e_sum + e_diff) - e_sum, abs=1e-14
        )
        for yx in (+1, -1):
            want = (math.exp(-0.8 * tau) + yx * 0.5 * (e_sum + e_diff)) / (
                1.0 + yx * math.exp(-0.8 * t)
            )
            assert core.conditional_coherence(moments(t, tau), yx) == pytest.approx(
                want, abs=1e-14
            )


def test_static_lorentz_model_equals_single_spin_ensemble():
    model = analytic.StaticLorentz(0.7)
    for t in (0.3, 1.1):
        for tau in (0.6, 1.7):
            assert analytic.cpf(model, t, tau) == pytest.approx(
                core.cpf_from_moments(ensemble(0.7)(t, tau)), abs=1e-14
            )


# ---------------------------------------------------------------------------
# Cauchy-distributed couplings: Monte Carlo over realizations

def test_lorentz_mc_coherence_matches_closed_form():
    cfg = McConfig(n_trajectories=200_000, seed=2024)
    for n in (1, 50):
        spec = spinbath.LorentzCouplingSpec(gamma=1.0, n_spins=n)
        est = spinbath.lorentz_mc_coherence(spec, 1.3, cfg)
        want = math.exp(-1.3)
        assert abs(est.value - want) <= 4.0 * est.std_error


def test_lorentz_mc_cpf_table_first_matches_closed_form():
    spec = spinbath.LorentzCouplingSpec(gamma=1.0)
    cfg = McConfig(n_trajectories=400_000, seed=2025)
    est = spinbath.lorentz_mc_cpf(spec, 1.0, 1.0, cfg)
    assert abs(est.value - 0.43233235838169365) <= 4.0 * est.std_error
    assert est.std_error < 2e-3


def test_lorentz_mc_moments_match_moment_set():
    spec = spinbath.LorentzCouplingSpec(gamma=0.9, omega=0.7, n_spins=3)
    cfg = McConfig(n_trajectories=300_000, seed=2026)
    want = spinbath.lorentz_moment_set(spec, 0.8, 0.5)
    f_t, f_tau, f_joint = spinbath.lorentz_mc_moments(spec, 0.8, 0.5, cfg)
    assert abs(f_t.value - want.f_t) <= 4.0 * f_t.std_error
    assert abs(f_tau.value - want.f_tau) <= 4.0 * f_tau.std_error
    assert abs(f_joint.value - want.f_joint) <= 4.0 * f_joint.std_error


def test_ensemble_memory_budget_rejects_before_any_draw(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the ensemble drew samples")

    monkeypatch.setattr(spinbath, "collect_moments", never)
    spec = spinbath.LorentzCouplingSpec(gamma=1.0, n_spins=10**7)
    cfg = McConfig(n_trajectories=65_536, chunk_size=65_536)
    assert spinbath._ensemble_chunk_bytes(spec, cfg) == 8 * 65_536 * (10**7 + 40)
    with pytest.raises(BathTooLarge, match="lower mc.chunk_size"):
        spinbath.lorentz_mc_coherence(spec, 0.5, cfg)
    # the benchmark's ensemble points (N = 50, chunks of 16,384) stay far below
    points = spinbath._ensemble_chunk_bytes(
        spinbath.LorentzCouplingSpec(gamma=1.0, n_spins=50),
        McConfig(n_trajectories=16_384, chunk_size=16_384),
    )
    assert points == 11_796_480 < spinbath.ENSEMBLE_MAX_BYTES / 10


@pytest.mark.parametrize("n_spins, chunk", [(50, 16_384), (200, 2_000), (1, 4_096)])
def test_ensemble_draw_peak_within_counted_bytes(n_spins, chunk):
    # the budget has to count every array one draw holds at its peak
    spec = spinbath.LorentzCouplingSpec(gamma=1.0, omega=0.4, n_spins=n_spins)
    sample = spinbath._ensemble_cols(spec, 0.7, 1.1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sample(_mc.Chunk(3, 0, chunk))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    counted = spinbath._ensemble_chunk_bytes(
        spec, McConfig(n_trajectories=chunk, chunk_size=chunk)
    )
    assert 8 * chunk * n_spins < peak <= counted


def test_lorentz_mc_conditional_coherence():
    spec = spinbath.LorentzCouplingSpec(gamma=1.0)
    cfg = McConfig(n_trajectories=300_000, seed=2027)
    est = spinbath.lorentz_mc_conditional_coherence(spec, 1.0, 1.0, +1, cfg)
    want = core.conditional_coherence(ensemble(1.0)(1.0, 1.0), +1)
    assert abs(est.value - want) <= 4.0 * est.std_error


def test_lorentz_mc_reproducible_across_workers():
    spec = spinbath.LorentzCouplingSpec(gamma=1.0, n_spins=5)
    cfg = McConfig(n_trajectories=64_000, seed=31, chunk_size=8_000)
    base = spinbath.lorentz_mc_cpf(spec, 0.9, 1.1, cfg, workers=1)
    assert spinbath.lorentz_mc_cpf(spec, 0.9, 1.1, cfg, workers=3) == base
