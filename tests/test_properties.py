"""Properties of the array moment spine and the shared spin product, over random models."""

import functools
import math

import numpy as np
from hypothesis import example, given, strategies as st

from cpfsim import _mc, analytic, core, spinbath, stochastic
from cpfsim.stochastic import McConfig

times = st.floats(0.0, 4.0)
time_lists = st.lists(times, min_size=1, max_size=6)


def noise_models():
    return st.one_of(
        st.builds(analytic.White, st.floats(0.05, 3.0)),
        st.builds(analytic.ExpCorrGauss, st.floats(0.05, 3.0), st.floats(0.05, 5.0)),
        st.builds(analytic.StaticGauss, st.floats(0.05, 3.0)),
        st.builds(analytic.StaticLorentz, st.floats(0.05, 3.0), st.floats(-2.0, 2.0)),
    )


def amplitudes():
    """A normalized (alpha, beta) pair with a random polarization and phase."""
    def pair(theta, phi):
        return math.cos(0.5 * theta), math.sin(0.5 * theta) * complex(math.cos(phi), math.sin(phi))

    return st.builds(pair, st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi))


@st.composite
def spin_baths(draw):
    pairs = draw(st.lists(amplitudes(), min_size=1, max_size=6))
    couplings = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(pairs), max_size=len(pairs)))
    alphas, betas = zip(*pairs)
    return spinbath.SpinBathSpec(couplings, alphas, betas)


@st.composite
def lorentz_specs(draw):
    alpha, beta = draw(amplitudes())
    return spinbath.LorentzCouplingSpec(
        gamma=draw(st.floats(0.05, 3.0)),
        omega=draw(st.floats(-2.0, 2.0)),
        n_spins=draw(st.integers(1, 8)),
        alpha=alpha,
        beta=beta,
    )


def moment_functions():
    """(t, tau) -> MomentSet of a random model from each of the three families."""
    return st.one_of(
        noise_models().map(lambda m: functools.partial(analytic.moment_set, m)),
        spin_baths().map(lambda s: functools.partial(spinbath.moment_set, s)),
        lorentz_specs().map(lambda s: functools.partial(spinbath.lorentz_moment_set, s)),
    )


@given(moment_functions(), time_lists, time_lists)
# a 0-d numpy power of g*s rounds this square one ulp away from the array path
@example(functools.partial(analytic.moment_set, analytic.StaticGauss(2.4041748643320244)),
         [0.0], [1.670568826759594])
def test_array_moment_set_equals_pointwise_calls(moments, ts, taus):
    grid = moments(np.array(ts)[:, None], np.array(taus)[None, :])
    shape = (len(ts), len(taus))
    for name in ("f_t", "f_tau", "f_joint"):
        values = np.broadcast_to(getattr(grid, name), shape)
        for i, t in enumerate(ts):
            for j, tau in enumerate(taus):
                assert values[i, j] == getattr(moments(t, tau), name)


@given(st.floats(0.05, 3.0), time_lists, time_lists)
def test_white_noise_cpf_is_exactly_zero(gamma_w, ts, taus):
    t, tau = np.array(ts)[:, None], np.array(taus)[None, :]
    model = analytic.White(gamma_w)
    assert np.all(analytic.cpf(model, t, tau) == 0.0)
    assert np.all(core.cpf_from_moments(analytic.moment_set(model, t, tau)) == 0.0)


@given(noise_models(), times, st.integers(0, 2**32 - 1))
def test_monte_carlo_cpf_on_the_axes_is_exactly_zero(model, s, seed):
    # a zero-length interval gives cos 2theta == 1 on every trajectory
    cfg = McConfig(n_trajectories=300, seed=seed, chunk_size=128)
    for t, tau in ((s, 0.0), (0.0, s)):
        assert stochastic.mc_cpf_semianalytic(model, t, tau, cfg).value == 0.0


@given(moment_functions(), times, times)
def test_table_cpf_is_bitwise_independent_of_y(moments, t, tau):
    m = moments(t, tau)
    plus = core.cpf_from_table(core.cpf_probability_table(m, +1))
    minus = core.cpf_from_table(core.cpf_probability_table(m, -1))
    assert plus == minus


@given(lorentz_specs(), st.integers(0, 2**32 - 1), times, times)
def test_ensemble_realizations_follow_the_spin_bath_product_formula(spec, seed, t, tau):
    # the couplings the sampler draws, rebuilt from the same stream
    m = 5
    u = _mc.chunk_stream(seed, 0).random((m, spec.n_spins))
    g = (0.5 * spec.omega + 0.5 * spec.gamma * np.tan(math.pi * (u - 0.5))) / spec.n_spins
    lags = np.array([t, tau, t + tau, t - tau])[:, None]
    re, im = spinbath._spin_product(g.T, [(spec.alpha, spec.beta)] * spec.n_spins, lags)
    cols = spinbath._ensemble_cols(spec, t, tau)(_mc.chunk_stream(seed, 0), m)
    for j in range(m):
        bath = spinbath.SpinBathSpec(
            g[j], np.full(spec.n_spins, spec.alpha), np.full(spec.n_spins, spec.beta)
        )
        c = spinbath.coherence(bath, lags[:, 0])
        assert np.all(re[:, j] == c.real) and np.all(im[:, j] == c.imag)
        want = spinbath.moment_set(bath, t, tau)
        assert cols[j, 0] == want.f_t and cols[j, 1] == want.f_tau
        assert cols[j, 2] == want.f_joint


@given(st.lists(st.integers(0, 2_000), min_size=4, max_size=4).filter(any))
def test_moment_stats_from_counts_equals_from_samples_of_the_expanded_rows(counts):
    # a random 2x2 (z, x) count table, cells in the order of stochastic._ZX_ROWS
    rows, counts = stochastic._ZX_ROWS, np.array(counts)
    got = _mc.MomentStats.from_counts(rows, counts)
    want = _mc.MomentStats.from_samples(np.repeat(rows.astype(float), counts, axis=0))
    assert got.n == want.n and np.all(got.s == want.s)
    np.testing.assert_allclose(got.m2, want.m2, rtol=1e-9, atol=1e-9 * want.n)


@given(lorentz_specs(), st.integers(0, 2**32 - 1), st.integers(1, 40), times, times)
def test_ensemble_coherence_draw_is_the_first_lag_of_the_four_lag_draw(spec, seed, m, t, tau):
    one = spinbath._ensemble_cols(spec, t, None)(_mc.chunk_stream(seed, 0), m)
    four = spinbath._ensemble_cols(spec, t, tau)(_mc.chunk_stream(seed, 0), m)
    assert one.shape == (m, 1)
    assert np.all(one[:, 0] == four[:, 0])
