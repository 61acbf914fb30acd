"""Properties of the array moment spine and the shared spin product, over random models."""

import functools
import math
import weakref

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


@st.composite
def row_key_grids(draw):
    """Flat (t, tau) like cli.RowKeys: a t-major surface (np.repeat / np.tile)
    or a pointwise pair of linspaces, with 0.0, -0.0 and duplicate entries."""
    def axis():
        grid = np.linspace(draw(times), draw(times), draw(st.integers(1, 5)))
        extra = st.sampled_from([0.0, -0.0, *grid.tolist()])
        return np.array(draw(st.permutations([*grid, *draw(st.lists(extra, max_size=3))])))

    ts, taus = axis(), axis()
    if draw(st.booleans()):
        return np.repeat(ts, taus.size), np.tile(taus, ts.size)
    k = min(ts.size, taus.size)
    return ts[:k], taus[:k]


@given(
    st.one_of(
        spin_baths().map(lambda s: (spinbath.moment_set, spinbath.coherence, s)),
        lorentz_specs().map(lambda s: (spinbath.lorentz_moment_set, spinbath.lorentz_coherence, s)),
    ),
    row_key_grids(),
)
def test_flat_row_moment_sets_equal_pointwise_calls_bitwise(family, grid):
    moment_set, coherence, spec = family
    t, tau = grid
    points = [moment_set(spec, a, b) for a, b in zip(t.tolist(), tau.tolist())]
    # the moments written out from the overlap, point by point
    f = lambda u: coherence(spec, u).real
    direct = {
        "f_t": [f(a) for a in t.tolist()],
        "f_tau": [f(b) for b in tau.tolist()],
        "f_joint": [0.5 * (f(a + b) + f(a - b)) for a, b in zip(t.tolist(), tau.tolist())],
    }
    first_t = moment_set(spec, t[0], tau)
    for name in ("f_t", "f_tau", "f_joint"):
        values = getattr(moment_set(spec, t, tau), name)
        assert values.shape == t.shape
        for want in ([getattr(m, name) for m in points], direct[name]):
            assert np.array_equal(values.view(np.int64), np.array(want).view(np.int64))
        # a scalar lag keeps its 0-d shape
        assert np.shape(getattr(first_t, name)) == (() if name == "f_t" else tau.shape)


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


def plain_spin_product(couplings, amplitudes, t):
    """The spin product's complex recurrence as plain expressions, no buffers."""
    re, im = 1.0, 0.0
    for g_k, (a_k, b_k) in zip(couplings, amplitudes):
        up, dn = abs(a_k) ** 2, abs(b_k) ** 2
        theta = 2.0 * g_k * t
        c, d = (up + dn) * np.cos(theta), (up - dn) * np.sin(theta)
        re, im = re * c - im * d, re * d + im * c
    return re, im


@st.composite
def spin_products(draw, balanced):
    """(couplings (n, m), amplitudes, lags (4, m)) for the spin product kernel.

    Balanced amplitudes have |a_k| == |b_k| bit for bit: b_k is a_k or its
    conjugate times one of +-1, +-i, all exact, so the relative phase is random.
    """
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    couplings = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n * m, max_size=n * m)))
    lags = np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=4 * m, max_size=4 * m)))
    if balanced:
        def pair(phi, conj, turn):
            a = complex(math.cos(phi), math.sin(phi)) / math.sqrt(2.0)
            return a, (a.conjugate() if conj else a) * turn

        pairs = st.builds(pair, st.floats(0.0, 2.0 * math.pi), st.booleans(),
                          st.sampled_from([1, -1, 1j, -1j]))
    else:
        pairs = amplitudes()
    amps = draw(st.lists(pairs, min_size=n, max_size=n))
    return couplings.reshape(n, m), amps, lags.reshape(4, m)


@given(spin_products(balanced=True))
def test_balanced_spin_product_keeps_the_general_paths_real_part(case):
    couplings, amps, lags = case
    assert all(abs(a) ** 2 == abs(b) ** 2 for a, b in amps)
    re, im = spinbath._spin_product(couplings, amps, lags)
    assert np.all(im == 0.0)
    # a first spin that is uncoupled and fully up is unbalanced, which sends the
    # kernel down its general path, and multiplies the product by exactly 1 + 0i
    up_spin = np.zeros((1, couplings.shape[1]))
    general = spinbath._spin_product(np.vstack([up_spin, couplings]), [(1.0, 0.0)] + amps, lags)
    assert np.all(re == general[0]) and np.all(general[1] == 0.0)
    assert np.all(re == plain_spin_product(couplings, amps, lags)[0])
    # a 0-d lag gives the bits of its element of the grid
    for i, j in np.ndindex(lags.shape):
        point = spinbath._spin_product(couplings[:, j], amps, lags[i, j])
        assert point[0].shape == () and point[0] == re[i, j] and point[1] == 0.0


@given(spin_products(balanced=False))
def test_general_spin_product_equals_the_plain_recurrence(case):
    couplings, amps, lags = case
    re, im = spinbath._spin_product(couplings, amps, lags)
    want_re, want_im = plain_spin_product(couplings, amps, lags)
    assert np.all(re == want_re) and np.all(im == want_im)
    for i, j in np.ndindex(lags.shape):
        point = spinbath._spin_product(couplings[:, j], amps, lags[i, j])
        assert point[0] == re[i, j] and point[1] == im[i, j]


# call sequences on a chunk stream: the two methods cpfsim calls, int and tuple sizes
draw_calls = st.lists(
    st.tuples(
        st.sampled_from(["random", "standard_normal"]),
        st.one_of(st.integers(0, 40), st.tuples(st.integers(0, 20), st.integers(1, 3))),
    ),
    min_size=1,
    max_size=5,
)


def draws(rng, calls):
    return [getattr(rng, method)(size) for method, size in calls]


def live_draws(seed, index, calls):
    return draws(np.random.Generator(np.random.Philox(key=seed, counter=index << 128)), calls)


def assert_bit_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@given(st.integers(0, 2**64 - 1), st.integers(0, 3), draw_calls, draw_calls, st.data())
def test_shared_draws_are_bit_equal_to_live_draws(seed, index, calls, tail, data):
    # points 1 and 2 make the same calls, point 3 parts from them after k calls
    k = data.draw(st.integers(0, len(calls)), label="calls before the sequences part")
    budget = data.draw(
        st.one_of(st.just(_mc.SHARED_DRAWS_MAX_BYTES), st.integers(0, 2_000)), label="budget"
    )
    raise_in_body = data.draw(st.booleans(), label="raise in body")
    parted = calls[:k] + tail
    want, want_parted = live_draws(seed, index, calls), live_draws(seed, index, parted)
    old_budget = _mc.SHARED_DRAWS_MAX_BYTES
    _mc.SHARED_DRAWS_MAX_BYTES = budget
    try:
        with _mc.shared_draws():
            for point in range(3):
                got = draws(_mc.chunk_stream(seed, index), calls)
                assert_bit_equal(got, want)
                for a in got:  # writes into a returned array never reach a replay
                    a[...] = -1.0
            assert_bit_equal(draws(_mc.chunk_stream(seed, index), parted), want_parted)
            store = weakref.ref(_mc._store)
            held = [e[2].nbytes for r in store().records.values() for e in r]
            assert sum(held) == store().nbytes <= budget
            if raise_in_body:
                raise KeyError("body")
    except KeyError:
        assert raise_in_body
    finally:
        _mc.SHARED_DRAWS_MAX_BYTES = old_budget
    assert _mc._store is None and store() is None  # freed without waiting for the gc
    assert isinstance(_mc.chunk_stream(seed, index), np.random.Generator)


@given(st.integers(0, 2**64 - 1), draw_calls)
def test_nested_shared_draws_share_the_outer_records(seed, calls):
    with _mc.shared_draws():
        with _mc.shared_draws():
            draws(_mc.chunk_stream(seed, 0), calls)
        assert len(_mc._store.records[seed, 0]) == len(calls)
        assert_bit_equal(draws(_mc.chunk_stream(seed, 0), calls), live_draws(seed, 0, calls))
    assert _mc._store is None
