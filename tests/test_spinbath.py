"""Finite spin baths: product formula, statevector oracle, Cauchy ensembles."""

import collections
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpfsim import _mc, analytic, core, spinbath, stochastic
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
    with pytest.raises(ValueError, match="^need at least one bath spin$"):
        spinbath.SpinBathSpec([], [], [])
    assert not spec.couplings.flags.writeable


def test_spec_amplitudes_default_to_one_over_root_two_per_coupling():
    g = [0.5, 1.0, 0.8]
    half = [1.0 / math.sqrt(2.0)] * len(g)
    default, explicit = spinbath.SpinBathSpec(g), spinbath.SpinBathSpec(g, half, half)
    for name in ("couplings", "alphas", "betas"):
        got, want = getattr(default, name), getattr(explicit, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    t = np.array([0.0, 0.3, 1.1, 2.5])
    assert spinbath.coherence(default, t).tobytes() == spinbath.coherence(explicit, t).tobytes()
    got, want = (spinbath.moment_set(s, t[:, None], t[None, :]) for s in (default, explicit))
    for name in ("f_t", "f_tau", "f_joint"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize("amplitudes", [dict(alphas=[1.0, 1.0]), dict(betas=[0.0, 0.0])])
def test_spec_refuses_one_amplitude_array_without_the_other(amplitudes):
    with pytest.raises(ValueError, match="^alphas and betas must be given together$"):
        spinbath.SpinBathSpec([0.5, 1.0], **amplitudes)


def test_spec_names_the_amplitude_array_of_the_wrong_length():
    with pytest.raises(ValueError, match=re.escape(
            "betas must hold one amplitude per coupling (2), got shape (1,)")):
        spinbath.SpinBathSpec([0.5, 1.0], [1.0, 1.0], [0.0])
    with pytest.raises(ValueError, match=re.escape(
            "alphas must hold one amplitude per coupling (1), got shape (2, 1)")):
        spinbath.SpinBathSpec([0.5], [[1.0], [1.0]], [0.0])
    with pytest.raises(ValueError, match=re.escape("couplings must be 1-d, got shape (1, 2)")):
        spinbath.SpinBathSpec([[0.5, 1.0]])


def test_system_init():
    init = spinbath.SystemInit.plus()
    assert init.a == 1.0 and init.b == 0.0
    with pytest.raises(ValueError):
        spinbath.SystemInit(1.0, 1.0)


@pytest.mark.parametrize("make, what", [
    (lambda a: spinbath.SystemInit(a, 0.0), "system"),
    (lambda a: spinbath.LorentzCouplingSpec(1.0, alpha=a, beta=0.0), "bath spin"),
    (lambda a: spinbath.SpinBathSpec([0.5, 0.5], [1.0, a], [0.0, 0.0]), "per-spin"),
])
@pytest.mark.parametrize("a, norm", [
    (1e200, "inf"),  # |a|^2 overflows: an OverflowError, or numpy's RuntimeWarning
    (complex(0.0, -math.inf), "inf"),
    (complex(math.nan, 0.0), "nan"),
    (0.5, "0.25"),
])
def test_one_amplitude_rule_for_scalar_and_per_spin_pairs(make, what, a, norm):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(
                f"{what} amplitudes must satisfy |a|^2+|b|^2=1, got {norm}")):
            make(a)


def test_scaled_bath_arrays_are_bounded_before_they_are_allocated(monkeypatch):
    # 40 bytes a spin: the couplings and both amplitudes
    monkeypatch.setattr(spinbath, "ENSEMBLE_MAX_BYTES", 400)
    assert spinbath.scaled_gaussian_bath(10, 0.9).n_spins == 10
    monkeypatch.setattr(np, "full", None)  # not called past the bound
    with pytest.raises(BathTooLarge, match=r"^N = 11 spins take 0 MiB of couplings and "
                                           r"amplitudes, over the 0 MiB budget$"):
        spinbath.scaled_gaussian_bath(11, 0.9)


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


def test_large_bath_coherence_is_exactly_one_at_zero():
    # each spin's norm |alpha|^2 + |beta|^2 rounds to 1 + 2^-52 here; a product
    # that multiplied it in would reach (1 + 2^-52)^N, over MomentSet's bound
    # of 1 + 1e-12 from N = 4,600 on
    spec = spinbath.scaled_gaussian_bath(10**4, 1.0)
    assert spinbath.coherence(spec, 0.0) == 1.0
    assert spinbath.moment_set(spec, 0.0, 0.0).f_joint == 1.0


@given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.floats(0.0, 10.0))
def test_bath_cpf_is_exactly_zero_at_a_zero_lag(seed, n, s):
    spec = random_spec(np.random.default_rng(seed), n)
    assert bath_cpf(spec, s, 0.0) == 0.0 and bath_cpf(spec, 0.0, s) == 0.0


@pytest.mark.parametrize("balanced", [True, False])
def test_coherence_keeps_the_shape_of_its_times(balanced):
    spec = random_spec(np.random.default_rng(5), 3)
    if balanced:
        half = np.full(3, 1.0 / math.sqrt(2.0))
        spec = spinbath.SpinBathSpec(spec.couplings, half, 1j * half)
    for t in (0.3, np.array([]), np.zeros((2, 0)), np.full((2, 3), 0.3)):
        got = spinbath.coherence(spec, t)
        assert np.shape(got) == np.shape(t) and np.all(got == spinbath.coherence(spec, 0.3))


@pytest.mark.parametrize("balanced", [True, False])
def test_coherence_over_many_spin_blocks_is_the_spin_loop(balanced):
    # 3,000 spins at 40 lags go through the kernel in blocks of 819 spins
    # (balanced) or 270 (general); the plain loop takes them one at a time
    rng = np.random.default_rng(23)
    spec = random_spec(rng, 3_000)
    if balanced:
        half = np.full(3_000, 1.0 / math.sqrt(2.0))
        spec = spinbath.SpinBathSpec(spec.couplings, half, 1j * half)
    lags = rng.uniform(-3.0, 3.0, 40)
    pol = np.abs(spec.alphas) ** 2 - np.abs(spec.betas) ** 2
    re, im = np.ones(40), np.zeros(40)
    for g_k, pol_k in zip(spec.couplings, pol):
        h = np.tan(g_k * lags)
        w = 2.0 / (h * h + 1.0)
        c, d = w - 1.0, pol_k * (h * w)
        re, im = re * c - im * d, re * d + im * c
    got = spinbath.coherence(spec, lags)
    assert np.all(got.real == re) and np.all(got.imag == (0.0 if balanced else im))
    # a point has its grid element's bits: at 1 lag the spins go in one block of
    # 3,000, at 200 lags in blocks of 54 (general) or 163 (balanced)
    for size in (1, 200):
        grid = rng.uniform(-3.0, 3.0, size)
        got = spinbath.coherence(spec, grid)
        for k in sorted({0, size // 2, size - 1}):
            assert np.asarray(spinbath.coherence(spec, grid[k])).tobytes() == got[k].tobytes()


def test_a_balanced_bath_at_many_times_folds_one_spin_per_block():
    # past 16,384 times two spins' factors overflow _ENSEMBLE_BLOCK_VALUES, so each block
    # holds one spin, folded by the same copy-and-reduce: the left fold in spin order
    rng = np.random.default_rng(29)
    couplings = rng.uniform(-2.0, 2.0, 5)
    half = np.full(5, 1.0 / math.sqrt(2.0))
    spec = spinbath.SpinBathSpec(couplings, half, 1j * half)
    times = rng.uniform(0.0, 3.0, 40_000)
    want = np.ones(times.size)
    for g_k in couplings:
        h = np.tan(g_k * times)
        want = want * (2.0 / (h * h + 1.0) - 1.0)
    got = spinbath.coherence(spec, times)
    assert np.all(got.real == want) and np.all(got.imag == 0.0)


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

def _marginals(entries):
    """P(x|y) and P(z|y) of a table's entries, as one list."""
    return [entries[(+1, s)] + entries[(-1, s)] for s in core.OUTCOMES] + [
        entries[(s, +1)] + entries[(s, -1)] for s in core.OUTCOMES]


def _assert_tables_close(a, b, tol):
    for key in a.entries:
        assert a.entries[key] == pytest.approx(b.entries[key], abs=tol)
    for p, q in zip(_marginals(a.entries), _marginals(b.entries)):
        assert p == pytest.approx(q, abs=tol)


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
def test_oracle_at_zero_times_clips_an_entry_rounded_above_one(y, monkeypatch):
    # this bath's renormalized state reads P(z = y, x = y | y) as 1 + 2**-52
    raw = []
    table_type = core.CpfProbabilityTable
    monkeypatch.setattr(core, "CpfProbabilityTable",
                        lambda y, entries: raw.append(entries) or table_type(y, entries))
    spec = random_spec(np.random.default_rng(366), 7)
    table = spinbath.oracle_protocol(spec, PLUS, 0.0, 0.0, y)
    assert raw[0][(y, y)] > 1.0
    assert table.entries[(y, y)] == 1.0
    assert all(0.0 <= p <= 1.0 for p in table.entries.values())
    assert core.cpf_from_moments(table.moment_set()) == 0.0


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
        table = _oracle_outcome(call, taus)
        empty = _oracle_outcome(call, np.array([]))
        if init is plus_x and t == 0.0 and y == -1:
            want = ("ZeroProbabilityPostselection", "P(y=-1) = 0 for this protocol")
            assert table == empty == _oracle_outcome(call, 0.5) == want
            continue
        assert empty.y == y and all(p.shape == (0,) for p in empty.entries.values())
        singles = [_oracle_outcome(call, float(tau)) for tau in taus]
        errors = [one for one in singles if isinstance(one, tuple)]
        if errors:
            # a bad entry at some tau (none on these inputs: entries are clipped) fails the
            # array call with an error of its kind
            assert isinstance(table, tuple) and table[0] == errors[0][0]
            continue
        assert table.y == y
        for key, p in table.entries.items():
            assert p.dtype == np.float64 and p.shape == taus.shape
            assert [v.hex() for v in p.tolist()] == [one.entries[key].hex() for one in singles]
        assert all(np.ndim(p) == 0 for one in singles for p in one.entries.values())
        if init is plus_x:
            # the x = -1 branch is never populated: its entries, and P(x = -1|y), are 0.0
            for one in [table, *singles]:
                assert np.all(one.entries[(+1, -1)] == 0.0)
                assert np.all(one.entries[(-1, -1)] == 0.0)
                assert np.all(_marginals(one.entries)[1] == 0.0)


@pytest.mark.parametrize("t, tau", [(-1.0, -0.5), (math.nan, 0.5), (0.5, -0.5),
                                    (0.5, math.inf)])
def test_oracle_conditional_coherence_rejects_bad_times(t, tau):
    spec = random_spec(np.random.default_rng(19), 3)
    name = "tau" if t == 0.5 else "t"  # the first bad argument is named
    with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0, got"):
        spinbath.oracle_conditional_coherence(spec, PLUS, t, tau, +1, +1)


@pytest.mark.parametrize("a, b, x, y, message", [
    (1.0, -1.0, +1, +1, "P(x=+1) = 0"),  # an x = -1 eigenstate never gives x = +1
    (1.0, 1.0, -1, -1, "P(x=-1) = 0"),
    (1.0, 0.0, +1, -1, "P(y=-1|x=+1) = 0"),  # at t = 0, y = x
])
def test_oracle_conditional_coherence_refuses_a_branch_of_zero_probability(a, b, x, y, message):
    init = spinbath.SystemInit(a / math.hypot(a, b), b / math.hypot(a, b))
    with pytest.raises(ZeroProbabilityPostselection, match=f"^{re.escape(message)}$"):
        spinbath.oracle_conditional_coherence(random_spec(np.random.default_rng(19), 3), init,
                                              0.0, 0.5, x, y)


@pytest.mark.parametrize("t, tau", [(-1.0, 0.5), (0.5, -1.0), (math.nan, 0.5), (0.5, math.inf)])
def test_every_moment_entry_point_rejects_a_bad_time_and_names_it(t, tau):
    # the bath closed forms returned moments at t = -1.0 (their check took any finite
    # lag), and analytic.moment_set named "s", an argument the caller never passed
    name = "t" if tau == 0.5 else "tau"
    bath = spinbath.scaled_gaussian_bath(4, 1.0, 0.5)
    ensemble_spec = spinbath.LorentzCouplingSpec(gamma=1.0, n_spins=3)
    model, cfg = analytic.StaticGauss(1.0), McConfig(n_trajectories=10)
    for call in [
        lambda: analytic.moment_set(model, t, tau),
        lambda: analytic.phase_covariance(model, t, tau),
        lambda: spinbath.moment_set(bath, t, tau),
        lambda: spinbath.lorentz_moment_set(ensemble_spec, t, tau),
        lambda: stochastic.mc_moments(model, t, tau, cfg),
        lambda: stochastic.mc_cpf_sampling(model, t, tau, +1, cfg),
        lambda: spinbath.lorentz_mc_moments(ensemble_spec, t, tau, cfg),
        lambda: spinbath.oracle_protocol(bath, PLUS, t, tau, +1),
        lambda: spinbath.oracle_conditional_coherence(bath, PLUS, t, tau, +1, +1),
    ]:
        with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0, got"):
            call()
    # the coherences take lags, which may be negative: c_{-t} = conj(c_t)
    assert spinbath.coherence(bath, -0.5) == np.conj(spinbath.coherence(bath, 0.5))
    assert spinbath.lorentz_coherence(ensemble_spec, -0.5) == np.conj(
        spinbath.lorentz_coherence(ensemble_spec, 0.5))
    with pytest.raises(ValueError, match="^t must be finite, got nan"):
        spinbath.coherence(bath, [0.5, math.nan])


def test_each_moment_set_checks_its_times_once_and_runs_its_kernel_once(monkeypatch):
    # an OU moment set checked its times 8 times (its joint moment and that moment's
    # fallback took the first moments again), and a bath or ensemble moment set ran
    # its overlap once per lag: t, tau, t + tau and t - tau; now t, tau and the
    # derived lag t + tau are checked once each
    calls = collections.Counter()

    def count(module, name):
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            calls[module.__name__, name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in [(analytic, "check_times"), (spinbath, "_spin_blocks"),
                         (spinbath, "lorentz_coherence")]:
        count(module, name)
    t, tau = np.meshgrid(np.linspace(0.0, 2.0, 5), np.linspace(0.0, 1.5, 4), indexing="ij")
    for call, want in [
        (lambda: analytic.moment_set(analytic.ExpCorrGauss(0.9, 1.3), t, tau),
         {("cpfsim.analytic", "check_times"): 3}),
        (lambda: spinbath.moment_set(spinbath.scaled_gaussian_bath(4, 1.0, 0.5), t, tau),
         {("cpfsim.spinbath", "_spin_blocks"): 1}),
        (lambda: spinbath.moment_set(spinbath.scaled_gaussian_bath(4, 1.0), t[0, 0], tau),
         {("cpfsim.spinbath", "_spin_blocks"): 1}),
        (lambda: spinbath.lorentz_moment_set(spinbath.LorentzCouplingSpec(1.0, 0.4, 3), t, tau),
         {("cpfsim.spinbath", "lorentz_coherence"): 1}),
    ]:
        calls.clear()
        call()
        assert calls == want


def test_oracle_entry_points_check_their_arguments_before_building_the_state():
    # a bath past the dense limit would raise BathTooLarge once its state is built
    spec = spinbath.scaled_gaussian_bath(15, 1.0)
    for bad in [dict(t=math.nan), dict(tau=-1.0), dict(y=0)]:
        args = {**dict(t=0.5, tau=0.5, y=+1), **bad}
        with pytest.raises(ValueError):
            spinbath.oracle_protocol(spec, PLUS, args["t"], args["tau"], args["y"])
    for bad in [dict(t=-1.0), dict(tau=math.nan), dict(x=2), dict(y=0)]:
        args = {**dict(t=0.5, tau=0.5, x=+1, y=+1), **bad}
        with pytest.raises(ValueError):
            spinbath.oracle_conditional_coherence(spec, PLUS, *args.values())


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


# balanced amplitudes whose |alpha|^2 + |beta|^2 rounds to 1 - 2^-52 and to
# 1 + 2^-52, and unbalanced ones whose norm rounds to 1 - 2^-52 and to 1
ZERO_LAG_AMPLITUDES = [(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)), (2**-0.5, 2**-0.5),
                       (0.633, math.sqrt(1.0 - 0.633**2)), (0.8, 0.6)]


@pytest.mark.parametrize("alpha, beta", ZERO_LAG_AMPLITUDES)
def test_lorentz_closed_forms_are_exact_at_a_zero_lag(alpha, beta):
    spec = spinbath.LorentzCouplingSpec(gamma=1.3, omega=0.4, n_spins=50, alpha=alpha, beta=beta)
    assert spinbath.lorentz_coherence(spec, 0.0) == 1.0
    for t, tau in ((0.0, 0.9), (0.9, 0.0)):
        assert core.cpf_from_moments(spinbath.lorentz_moment_set(spec, t, tau)) == 0.0


@pytest.mark.parametrize("alpha, beta", ZERO_LAG_AMPLITUDES)
def test_lorentz_mc_cpf_is_exactly_zero_at_a_zero_lag(alpha, beta):
    spec = spinbath.LorentzCouplingSpec(gamma=1.3, omega=0.4, n_spins=50, alpha=alpha, beta=beta)
    cfg = McConfig(n_trajectories=3_000, seed=17, chunk_size=1_000)
    for t, tau in ((0.0, 0.9), (0.9, 0.0)):
        est = spinbath.lorentz_mc_moments(spec, t, tau, cfg).cpf()
        assert est.value == 0.0 and est.std_error == 0.0


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
        est = spinbath.lorentz_mc_moments(spec, 1.3, None, cfg).estimate(0)
        want = math.exp(-1.3)
        assert abs(est.value - want) <= 4.0 * est.std_error


def test_lorentz_mc_cpf_table_first_matches_closed_form():
    spec = spinbath.LorentzCouplingSpec(gamma=1.0)
    cfg = McConfig(n_trajectories=400_000, seed=2025)
    est = spinbath.lorentz_mc_moments(spec, 1.0, 1.0, cfg).cpf()
    assert abs(est.value - 0.43233235838169365) <= 4.0 * est.std_error
    assert est.std_error < 2e-3


@pytest.mark.parametrize("moment_set", [
    lambda t, tau: spinbath.moment_set(spinbath.scaled_gaussian_bath(5, 0.9), t, tau),
    lambda t, tau: spinbath.lorentz_moment_set(spinbath.LorentzCouplingSpec(0.6, 0.3, 4), t, tau),
    lambda t, tau: analytic.moment_set(analytic.StaticLorentz(0.6), t, tau),
    lambda t, tau: analytic.moment_set(analytic.StaticGauss(0.9), t, tau),
    lambda t, tau: analytic.moment_set(analytic.ExpCorrGauss(0.9, 1.3), t, tau),
    lambda t, tau: analytic.moment_set(analytic.White(0.4), t, tau),
], ids=["bath", "ensemble", "static_lorentz", "static_gauss", "ou", "white"])
def test_moment_sets_name_an_overflowing_t_plus_tau(moment_set):
    # the bath said "t must be finite, got inf" and StaticLorentz raised
    # InvalidMomentSet (f_joint nan), each after numpy's overflow warning, which
    # the test configuration turns into an error
    for t, tau in [(1e308, 1e308), (np.array([0.5, 1e308]), 1e308)]:
        with pytest.raises(ValueError, match=r"^t \+ tau must be finite and >= 0, got inf$"):
            moment_set(t, tau)
    # a huge finite sum still passes
    assert np.isfinite(moment_set(1e150, 2e150).f_joint)


def test_lorentz_mc_moments_match_moment_set():
    spec = spinbath.LorentzCouplingSpec(gamma=0.9, omega=0.7, n_spins=3)
    cfg = McConfig(n_trajectories=300_000, seed=2026)
    want = spinbath.lorentz_moment_set(spec, 0.8, 0.5)
    f_t, f_tau, f_joint = spinbath.lorentz_mc_moments(spec, 0.8, 0.5, cfg).moments()
    assert abs(f_t.value - want.f_t) <= 4.0 * f_t.std_error
    assert abs(f_tau.value - want.f_tau) <= 4.0 * f_tau.std_error
    assert abs(f_joint.value - want.f_joint) <= 4.0 * f_joint.std_error


def test_ensemble_memory_budget_rejects_before_any_draw(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the ensemble drew samples")

    monkeypatch.setattr(spinbath, "collect_moments", never)
    spec = spinbath.LorentzCouplingSpec(gamma=1.0, n_spins=10**7)
    cfg = McConfig(n_trajectories=65_536, chunk_size=65_536)
    # 7 values per trajectory of the chunk; one tile of 4,096 trajectories'
    # couplings and 33 values per trajectory of the tile; one block of the draw
    # is one trajectory's 10**7 uniforms; the kernel's blocks of several spins
    # 2**16 values and numpy's ufunc buffers 3 * 8192; 4 kB of small objects
    assert np.getbufsize() == 8192
    assert (spinbath._ensemble_chunk_bytes(spec, cfg)
            == 8 * (65_536 * 7 + 4_096 * (10**7 + 33) + 10**7 + 2**16 + 3 * 8192) + 4096)
    with pytest.raises(BathTooLarge, match="lower mc.chunk_size"):
        spinbath.lorentz_mc_moments(spec, 0.5, None, cfg).estimate(0)
    # the benchmark's ensemble points (N = 50, chunks of 16,384) stay far below
    points = spinbath._ensemble_chunk_bytes(
        spinbath.LorentzCouplingSpec(gamma=1.0, n_spins=50),
        McConfig(n_trajectories=16_384, chunk_size=16_384),
    )
    # one block of the draw is 655 trajectories of 50 uniforms
    assert (points == 8 * (16_384 * 7 + 4_096 * (50 + 33) + 655 * 50 + 2**16 + 3 * 8192) + 4096
            == 4_624_240)
    assert points < spinbath.ENSEMBLE_MAX_BYTES / 10
    # a chunk shorter than a tile is one tile; a one-spin tile is one block of uniforms
    assert (spinbath._ensemble_chunk_bytes(spinbath.LorentzCouplingSpec(gamma=1.0),
                                           McConfig(n_trajectories=100_000))
            == 8 * (65_536 * 7 + 4_096 * (1 + 33) + 4_096 + 2**16 + 3 * 8192) + 4096)
    assert (spinbath._ensemble_chunk_bytes(spinbath.LorentzCouplingSpec(1.0, n_spins=70),
                                           McConfig(n_trajectories=300))
            == 8 * (300 * 7 + 300 * (70 + 33) + 300 * 70 + 2**16 + 3 * 8192) + 4096)


def test_ensemble_budget_counts_one_tile_so_large_baths_pass(monkeypatch):
    # N = 2,000 at the default chunk counted 65,536 x 2,000 couplings (1,021 MiB)
    # and raised BathTooLarge; one tile of them is 62.5 MiB, 68.0 MiB in all
    drawn = []
    monkeypatch.setattr(spinbath, "collect_moments",
                        lambda sample, cfg, workers: drawn.append(cfg) or _mc.MomentStats(
                            2, np.zeros(1), np.zeros((1, 1))))
    spec = spinbath.LorentzCouplingSpec(gamma=1.0, n_spins=2_000)
    cfg = McConfig(n_trajectories=65_536)
    assert cfg.chunk_size == 65_536
    assert (spinbath._ensemble_chunk_bytes(spec, cfg)
            == 8 * (65_536 * 7 + 4_096 * (2_000 + 33) + 16 * 2_000 + 2**16 + 3 * 8192) + 4096)
    spinbath.lorentz_mc_moments(spec, 0.5, None, cfg).estimate(0)
    assert drawn == [cfg]


def test_ensemble_budget_counts_a_chunk_longer_than_a_tile_by_what_a_tile_holds(monkeypatch):
    # 40 values per trajectory of a 2**20 chunk counted 321 MiB at N = 1 and
    # raised BathTooLarge, where the draw peaks at 56 MiB: only the chunk's
    # columns and MomentStats' rows are as long as the chunk
    drawn = []
    monkeypatch.setattr(spinbath, "collect_moments",
                        lambda sample, cfg, workers: drawn.append(cfg) or _mc.MomentStats(
                            2, np.zeros(1), np.zeros((1, 1))))
    spec = spinbath.LorentzCouplingSpec(gamma=1.0)
    cfg = McConfig(n_trajectories=2**20, chunk_size=2**20)
    spinbath.lorentz_mc_moments(spec, 0.5, None, cfg).estimate(0)
    assert drawn == [cfg]
    assert spinbath._ensemble_chunk_bytes(spec, cfg) < 58 * 2**20


@pytest.mark.parametrize("amplitudes", [{}, {"alpha": 0.8, "beta": 0.6}],
                         ids=["balanced", "unbalanced"])
def test_an_ensemble_point_at_the_default_chunk_holds_one_tile(amplitudes):
    # a point of 50 spins and 65,536 trajectories held all 26 MB of its chunk's
    # couplings (a 29 MB peak); a tile of them is 1.6 MB
    spec = spinbath.LorentzCouplingSpec(gamma=0.9, n_spins=50, **amplitudes)
    cfg = McConfig(n_trajectories=65_536, seed=3)
    _mc.Chunk(3, 0, 1).stream()  # a process's first stream imports numpy.random (0.76 MB)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        spinbath.lorentz_mc_moments(spec, 0.7, 1.1, cfg).cpf()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


@pytest.mark.parametrize("n_spins, chunk, amplitudes", [
    pytest.param(n_spins, chunk, amplitudes, id=f"{n_spins}-{chunk}{label}")
    for n_spins, chunk in [(50, 16_384), (200, 2_000), (1, 4_096),
                           (200, 200), (50, 100), (200, 5_000),
                           (100_000, 3), (100_000, 1), (1, 1), (7, 5),
                           (1, 100_000), (50, 100_000)]
    for label, amplitudes in [("", {}), ("-unbalanced", {"alpha": 0.8, "beta": 0.6})]
])
def test_ensemble_draw_peak_within_counted_bytes(n_spins, chunk, amplitudes):
    # the budget has to count every array one draw holds at its peak, on the
    # kernel's balanced path and on its general one, MomentStats' rows of a
    # chunk longer than a tile, and the draw's small objects, which weigh on
    # chunks of a few trajectories
    spec = spinbath.LorentzCouplingSpec(gamma=1.0, omega=0.4, n_spins=n_spins, **amplitudes)
    sample = spinbath._ensemble_cols(spec, 0.7, 1.1)
    _mc.Chunk(3, 0, chunk).stream()  # a process's first stream imports numpy.random (0.76 MB)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _mc.MomentStats.from_samples(sample(_mc.Chunk(3, 0, chunk)))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    counted = spinbath._ensemble_chunk_bytes(
        spec, McConfig(n_trajectories=chunk, chunk_size=chunk)
    )
    assert 8 * min(chunk, spinbath._ENSEMBLE_TILE) * n_spins < peak <= counted


@pytest.mark.parametrize("n_spins, chunk", [
    pytest.param(n_spins, size, id=f"{n_spins}-{size}")
    for n_spins in (1, 7, 50, 200, 40_000)
    for rows in [max(1, 2**15 // n_spins)]
    for size in (rows - 1, rows, rows + 1, 3 * rows + 17) if size >= 1
] + [
    # chunks that are no multiple of the block; 1,000 x 70,001 couplings (560 MB) are left out
    pytest.param(n_spins, size, id=f"{n_spins}-{size}")
    for n_spins in (1, 50, 1_000) for size in (1, 7, 70_001) if n_spins * size < 10**7
])
@pytest.mark.parametrize("amplitudes", [{}, {"alpha": 0.8, "beta": 0.6}],
                         ids=["balanced", "unbalanced"])
def test_ensemble_draw_is_bit_identical_to_the_one_shot_draw(n_spins, chunk, amplitudes,
                                                            monkeypatch):
    # the draw as one (m, N) block of uniforms and the kernel spin by spin over
    # its strided columns: the blocked, spin-major draw, tile by tile, each tile
    # from its own stream offset, keeps every bit across block and tile edges, and
    # the couplings are those of 0.10.0's inline blocked draw of the whole chunk
    spec = spinbath.LorentzCouplingSpec(gamma=1.3, omega=0.4, n_spins=n_spins, **amplitudes)
    t, tau = 0.7, 1.1
    g = one_shot_couplings(spec, _mc.Chunk(5, 2, chunk))
    re = spin_by_spin(g, t, tau, polarization(spec))
    want = (re[0], re[1], 0.5 * (re[2] + re[3]))
    monkeypatch.setattr(_mc, "GRID_MEMO_MAX_BYTES", 2**30)  # keeps 50 x 70,001 couplings
    with _mc.grid_memo():
        got = spinbath._ensemble_cols(spec, t, tau)(_mc.Chunk(5, 2, chunk))
        tiles = [f"couplings {k}" for k in range(-(-chunk // 4_096))]
        assert sorted(_mc._memo) == sorted((5, 2, stage) for stage in tiles)
        kept = np.concatenate([_mc._memo[(5, 2, stage)][2][0] for stage in tiles], axis=1)
    assert [col.tobytes() for col in got] == [col.tobytes() for col in want]
    old = blocked_couplings(spec, _mc.Chunk(5, 2, chunk))
    assert kept.tobytes() == old.tobytes() == np.ascontiguousarray(g).tobytes()


def blocked_couplings(spec, chunk):
    """A chunk's (N, m) couplings as 0.10.0 drew them inline: blocks of
    max(1, 2**15 // N) trajectories, each transformed in place and stored transposed."""
    stream, n = chunk.stream(), spec.n_spins
    rows = max(1, 2**15 // n)
    g = np.empty((n, chunk.size))
    for lo in range(0, chunk.size, rows):
        u = stream.random((min(rows, chunk.size - lo), n))
        u -= 0.5
        u *= math.pi
        np.tan(u, out=u)
        u *= 0.5 * spec.gamma
        u += 0.5 * spec.omega
        u /= n
        g[:, lo:lo + rows] = u.T
    return g


def one_shot_couplings(spec, chunk):
    """A chunk's (N, m) couplings, drawn as one (m, N) block of uniforms."""
    g = chunk.stream().random((chunk.size, spec.n_spins))
    g -= 0.5
    g *= math.pi
    np.tan(g, out=g)
    g *= 0.5 * spec.gamma
    g += 0.5 * spec.omega
    g /= spec.n_spins
    return g.T


def polarization(spec):
    """The kernel's pol: None for balanced amplitudes."""
    return abs(spec.alpha) ** 2 - abs(spec.beta) ** 2 or None


def spin_by_spin(g, t, tau, pol):
    """Re of the ensemble product at the lags t, tau, t + tau and t - tau, spin
    by spin: f_t and f_tau by one tan of each lag's half angle (the formula of
    0.8.0), the t +- tau factors by the angle-sum identities on those at t and
    tau, and the re/im recurrence of 0.8.0."""
    re, im = np.ones((4, g.shape[1])), np.zeros((4, g.shape[1]))
    for g_k in g:
        h = np.tan(g_k * np.array([[t], [tau]]))
        w = 2.0 / (1.0 + h * h)
        (c_a, c_b), (s_a, s_b) = w - 1.0, h * w
        c = np.array([c_a, c_b, c_a * c_b - s_a * s_b, c_a * c_b + s_a * s_b])
        if pol is None:
            re *= c
            continue
        d = pol * np.array([s_a, s_b, s_a * c_b + c_a * s_b, s_a * c_b - c_a * s_b])
        re, im = re * c - im * d, re * d + im * c
    return re


@pytest.mark.parametrize("n_spins, chunk", [(50, 1_000), (2_000, 7), (1, 5), (7, 3)])
@pytest.mark.parametrize("amplitudes", [{}, {"alpha": 0.8, "beta": 0.6}],
                         ids=["balanced", "unbalanced"])
def test_ensemble_draw_on_the_diagonal_keeps_a_t_minus_tau_product_of_one(
        n_spins, chunk, amplitudes):
    # at t == tau the t - tau factor is never formed: f_joint is 0.5 (P(2t) +
    # 1.0) bit for bit, with P(2t) the t + tau product, and the kernel's t - tau
    # row is exactly 1.0
    spec = spinbath.LorentzCouplingSpec(gamma=1.1, omega=0.3, n_spins=n_spins, **amplitudes)
    g, pol = one_shot_couplings(spec, _mc.Chunk(9, 1, chunk)), polarization(spec)
    p_2t = spin_by_spin(g, 0.8, 0.8, pol)[2]
    f_t, f_tau, f_joint = spinbath._ensemble_cols(spec, 0.8, 0.8)(_mc.Chunk(9, 1, chunk))
    assert f_joint.tobytes() == (0.5 * (p_2t + 1.0)).tobytes()
    assert f_t.tobytes() == f_tau.tobytes()
    re, _ = spinbath._spin_blocks(np.ascontiguousarray(g), 0.8, 0.8, pol)
    assert np.all(re[3] == 1.0) and re[2].tobytes() == p_2t.tobytes()


@pytest.mark.parametrize("n_spins, chunk", [(50, 1_000), (2_000, 7), (1, 5)])
@pytest.mark.parametrize("amplitudes", [{}, {"alpha": 0.8, "beta": 0.6}],
                         ids=["balanced", "unbalanced"])
def test_two_time_draw_keeps_the_bits_of_the_t_only_draws(n_spins, chunk, amplitudes):
    # f_t and f_tau of a draw at (t, tau) are the t-only draws at t and at tau
    spec = spinbath.LorentzCouplingSpec(gamma=0.9, omega=-0.5, n_spins=n_spins, **amplitudes)
    f_t, f_tau, _ = spinbath._ensemble_cols(spec, 0.45, 1.3)(_mc.Chunk(4, 0, chunk))
    (at_t,) = spinbath._ensemble_cols(spec, 0.45, None)(_mc.Chunk(4, 0, chunk))
    (at_tau,) = spinbath._ensemble_cols(spec, 1.3, None)(_mc.Chunk(4, 0, chunk))
    assert f_t.tobytes() == at_t.tobytes() and f_tau.tobytes() == at_tau.tobytes()


def test_ensemble_couplings_are_kept_spin_major():
    # one slot a tile of 4,096 trajectories; the last tile may be shorter
    spec = spinbath.LorentzCouplingSpec(gamma=1.0, n_spins=50)
    for chunk, tiles in [(1_000, [1_000]), (10_000, [4_096, 4_096, 1_808])]:
        with _mc.grid_memo():
            spinbath._ensemble_cols(spec, 0.7, 1.1)(_mc.Chunk(3, 0, chunk))
            kept = [_mc._memo[(3, 0, f"couplings {k}")][2] for k in range(len(tiles))]
            assert len(_mc._memo) == len(tiles)
        for (g,), size in zip(kept, tiles):
            assert g.shape == (50, size) and g.flags.c_contiguous


def adversarial_half_angles(seed: int) -> np.ndarray:
    """Signed zeros, subnormal and tiny half angles, Cauchy tails and log-uniform
    magnitudes up to an angle of 1e15."""
    rng = np.random.default_rng(seed)
    return np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-160, 1e-20, 1e-8, 5e14, -5e14],
        10.0 ** rng.uniform(-320.0, -3.0, 20_000),
        0.5 * np.tan(np.pi * (rng.random(200_000) - 0.5)),
        rng.choice([-1.0, 1.0], 200_000) * 10.0 ** rng.uniform(-3.0, np.log10(5e14), 200_000),
    ])


def test_half_angle_factors_match_libm():
    half = adversarial_half_angles(41)  # half angles g lag
    cos, sin = (v[0] for v in spinbath._spin_blocks(half[None, :], 1.0, None, 1.0))
    assert np.all(cos[:2] == 1.0) and np.all(sin[:2] == 0.0)
    assert np.all(np.abs(cos) <= 1.0)
    assert np.max(np.abs(cos - np.cos(2.0 * half))) <= 2 * 2.0**-52
    assert np.max(np.abs(sin - np.sin(2.0 * half))) <= 2 * 2.0**-52
    # the balanced path's factor is the same cosine
    balanced, _ = spinbath._spin_blocks(half[None, :], 1.0, None, None)
    assert balanced[0].tobytes() == cos.tobytes()
    # the factors are _mc.cos2's (the sine times pol = 1, so sin 2 * -0.0 is +0.0),
    # which runs the ufunc sequence of 0.10.0's inline half_angles
    sin_2 = np.empty_like(half)
    assert _mc.cos2(half.copy(), sin_2).tobytes() == cos.tobytes() and np.all(sin_2 == sin)
    h = np.tan(half)
    w = np.divide(2.0, np.add(np.square(h), 1.0))
    assert (w - 1.0).tobytes() == cos.tobytes() and (h * w).tobytes() == sin_2.tobytes()


@pytest.mark.parametrize("tau", [1.0 + 2.0**-52, 0.37, 3.0, 2.0**-30, 1e-300, 7e5])
def test_angle_sum_factors_match_the_libm_identity(tau):
    # one spin of coupling a at t = 1: half angles a and b = a tau, the kernel's
    # own product.  Its t + tau and t - tau factors (Re, and Im at pol = 1)
    # against cos 2a cos 2b -+ sin 2a sin 2b and sin 2a cos 2b +- cos 2a sin 2b
    # from libm.  Every factor is bounded, so the error is absolute: the
    # identity has no pole, unlike a tan of the rounded sum a + b.
    a = adversarial_half_angles(41)
    b = a * tau
    ca, sa, cb, sb = np.cos(2.0 * a), np.sin(2.0 * a), np.cos(2.0 * b), np.sin(2.0 * b)
    re, im = spinbath._spin_blocks(a[None, :], 1.0, tau, 1.0)
    assert np.max(np.abs(re[2] - (ca * cb - sa * sb))) <= 4 * 2.0**-52
    assert np.max(np.abs(re[3] - (ca * cb + sa * sb))) <= 4 * 2.0**-52
    assert np.max(np.abs(im[2] - (sa * cb + ca * sb))) <= 4 * 2.0**-52
    assert np.max(np.abs(im[3] - (sa * cb - ca * sb))) <= 4 * 2.0**-52
    assert np.max(np.abs(np.concatenate([re, im]))) <= 1.0 + 4 * 2.0**-52
    # a zero half angle gives the other factor exactly; the balanced path's
    # factors are the same cosines
    assert np.all(re[2:, :2] == re[1, :2])  # a = +-0.0
    assert np.all(re[2:, b == 0.0] == re[0, b == 0.0])
    balanced, _ = spinbath._spin_blocks(a[None, :], 1.0, tau, None)
    assert balanced.tobytes() == re.tobytes()


@pytest.mark.parametrize("m", [1, 3, 1_000])
def test_multiply_reduce_over_a_block_is_the_spin_order_fold(m):
    # the balanced kernel folds a block of b spins by multiply.reduce along axis
    # 1 of its lag-major (slots, b + 1, m) stack, whose column 0 holds the
    # running product; that has to be the left fold in spin order, bit for bit,
    # for the C-contiguous stack (axis 0 of a (b + 1, L, m) one too)
    rng = np.random.default_rng(m)
    for b in range(1, 301):
        stack = np.cos(3.0 * rng.standard_normal((4, b + 1, m)))
        want = stack[:2, 0].copy()
        for k in range(1, b + 1):
            want *= stack[:2, k]
        got = np.empty((2, m))
        np.multiply.reduce(stack[:2], axis=1, out=got)
        assert got.tobytes() == want.tobytes()
        spin_major = np.ascontiguousarray(stack.swapaxes(0, 1))
        assert np.multiply.reduce(spin_major, axis=0)[:2].tobytes() == want.tobytes()


def test_lorentz_mc_conditional_coherence():
    spec = spinbath.LorentzCouplingSpec(gamma=1.0)
    cfg = McConfig(n_trajectories=300_000, seed=2027)
    est = spinbath.lorentz_mc_moments(spec, 1.0, 1.0, cfg).conditional_coherence(+1)
    want = core.conditional_coherence(ensemble(1.0)(1.0, 1.0), +1)
    assert abs(est.value - want) <= 4.0 * est.std_error


def test_lorentz_mc_reproducible_across_workers():
    spec = spinbath.LorentzCouplingSpec(gamma=1.0, n_spins=5)
    cfg = McConfig(n_trajectories=64_000, seed=31, chunk_size=8_000)
    base = spinbath.lorentz_mc_moments(spec, 0.9, 1.1, cfg, workers=1).cpf()
    assert spinbath.lorentz_mc_moments(spec, 0.9, 1.1, cfg, workers=3).cpf() == base
