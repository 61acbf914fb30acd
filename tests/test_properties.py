"""Properties of the array moment spine and the shared spin product, over random models."""

import functools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from cpfsim import _mc, analytic, cli, core, spinbath, stochastic
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
    plus = core.cpf_from_moments(core.cpf_probability_table(m, +1).moment_set())
    minus = core.cpf_from_moments(core.cpf_probability_table(m, -1).moment_set())
    assert plus == minus


def half_angle_product(g, t, tau, pol):
    """The ensemble kernel as plain expressions, no buffers: one tan of each half
    angle g_k t and g_k tau gives cos and sin of the angles at t and tau, the
    angle-sum identities those at t + tau and t - tau (none at t == tau, where
    that product stays 1.0), and the factors fold spin by spin."""
    re, im = np.ones((4, g.shape[0])), np.zeros((4, g.shape[0]))
    for g_k in g.T:
        h = np.tan(g_k * np.array([[t], [tau]]))
        w = 2.0 / (h * h + 1.0)
        (ca, cb), (sa, sb) = w - 1.0, h * w
        c = np.array([ca, cb, ca * cb - sa * sb, ca * cb + sa * sb])
        s = np.array([sa, sb, sa * cb + ca * sb, sa * cb - ca * sb])
        if t == tau:
            c[3], s[3] = 1.0, 0.0
        if pol is None:
            re = re * c
        else:
            d = pol * s
            re, im = re * c - im * d, re * d + im * c
    return re


@given(lorentz_specs(), st.integers(0, 2**32 - 1), times, times)
def test_ensemble_realizations_follow_the_spin_bath_product_formula(spec, seed, t, tau):
    # the couplings the sampler draws, rebuilt from the same stream
    m, n = 5, spec.n_spins
    u = _mc.Chunk(seed, 0, m).stream().random((m, n))
    g = (0.5 * spec.omega + 0.5 * spec.gamma * np.tan(math.pi * (u - 0.5))) / n
    lags = np.array([t, tau, t + tau, t - tau])
    pol = abs(spec.alpha) ** 2 - abs(spec.beta) ** 2
    re = half_angle_product(g, t, tau, pol or None)
    cols = spinbath._ensemble_cols(spec, t, tau)(_mc.Chunk(seed, 0, m))
    assert cols[0].tobytes() == re[0].tobytes() and cols[1].tobytes() == re[1].tobytes()
    assert cols[2].tobytes() == (0.5 * (re[2] + re[3])).tobytes()
    # the kernel's balanced path keeps the bits of its general path's real part
    g_spins = np.ascontiguousarray(g.T)
    assert (spinbath._spin_blocks(g_spins, t, tau, None)[0].tobytes()
            == spinbath._spin_blocks(g_spins, t, tau, 0.0)[0].tobytes())
    # and every realization is the spin bath of its couplings, to a few ulp a
    # spin.  At t +- tau the two angles differ by rounding too: the bath's
    # 2 g_k fl(t +- tau) rounds the lag and the product, the kernel's angles
    # 2 fl(g_k t) and 2 fl(g_k tau) their half angles, three roundings of at
    # most half an ulp of |2 g_k| (t + tau) each
    bound = 4 * n * 2.0**-52
    for j in range(m):
        bath = spinbath.SpinBathSpec(g[j], np.full(n, spec.alpha), np.full(n, spec.beta))
        lag_rounding = 1.5 * np.sum(np.abs(2.0 * g[j])) * (t + tau) * 2.0**-52
        err = np.abs(re[:, j] - spinbath.coherence(bath, lags).real)
        assert np.all(err[:2] <= bound) and np.all(err[2:] <= bound + lag_rounding)
        want = spinbath.moment_set(bath, t, tau)
        assert abs(cols[0][j] - want.f_t) <= bound and abs(cols[1][j] - want.f_tau) <= bound
        assert abs(cols[2][j] - want.f_joint) <= bound + lag_rounding


@st.composite
def sample_columns(draw):
    """1 to 3 columns of 1 to 70,000 samples: constant, of mixed magnitude, or
    cosines; contiguous, or strided rows of a transposed (n, dim) array."""
    n, dim = draw(st.integers(1, 70_000)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["constant", "mixed", "cos"]))
    if kind == "constant":
        cols = [np.full(n, draw(st.floats(-1e6, 1e6))) for _ in range(dim)]
    elif kind == "mixed":
        cols = [rng.standard_normal(n) * 10.0 ** rng.integers(-12, 13, n) for _ in range(dim)]
    else:
        cols = [np.cos(3.0 * rng.standard_normal(n)) for _ in range(dim)]
    return list(np.column_stack(cols).T) if draw(st.booleans()) else cols


def size_examples(test):
    for n in (1, 2, 5, 7, 3_000, 20_000, 34_464, 65_536):
        a = np.cos(0.37 * np.arange(n))
        test = example([a, a[::-1].copy(), a * a[::-1]])(example([a])(test))
    return test


@size_examples
@example([np.full(3, -0.0), np.full(3, -0.0)])  # numpy sums from +0.0
@given(sample_columns())
def test_moment_stats_from_columns_keeps_the_bits_of_the_stacked_form(cols):
    # numpy's pairwise sums along the last axis of the contiguous (dim, n) stack
    # and of the (dim, dim, n) products: no BLAS call
    rows = np.array(cols)
    n = rows.shape[1]
    s = rows.sum(axis=1)
    d = rows - (s / n)[:, None]
    got = _mc.MomentStats.from_samples(cols)
    assert got.n == n
    assert got.s.tobytes() == s.tobytes()
    assert got.m2.tobytes() == (d[:, None, :] * d[None, :, :]).sum(axis=2).tobytes()


@given(st.lists(st.integers(0, 2_000), min_size=4, max_size=4).filter(any))
def test_moment_stats_from_counts_equals_from_samples_of_the_expanded_rows(counts):
    # a random 2x2 (z, x) count table, cells in the order of stochastic._ZX_ROWS
    rows, counts = stochastic._ZX_ROWS, np.array(counts)
    got = _mc.MomentStats.from_counts(rows, counts)
    want = _mc.MomentStats.from_samples(np.repeat(rows.astype(float), counts, axis=0).T)
    assert got.n == want.n and np.all(got.s == want.s)
    np.testing.assert_allclose(got.m2, want.m2, rtol=1e-9, atol=1e-9 * want.n)


@given(lorentz_specs(), st.integers(0, 2**32 - 1), st.integers(1, 40), times, times)
def test_ensemble_coherence_draw_is_the_first_lag_of_the_four_lag_draw(spec, seed, m, t, tau):
    one = spinbath._ensemble_cols(spec, t, None)(_mc.Chunk(seed, 0, m))
    four = spinbath._ensemble_cols(spec, t, tau)(_mc.Chunk(seed, 0, m))
    assert len(one) == 1 and one[0].shape == (m,)
    assert np.all(one[0] == four[0])


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


# One-point estimators whose chunks have memo stages, the models they run on
# (two of each kind differ only in parameters) and run layouts that share
# seeds and chunk indices but not chunk sizes.
MEMO_ESTIMATORS = {
    "moments": lambda model, t, tau, cfg: stochastic.mc_moments(model, t, tau, cfg),
    "sampling": lambda model, t, tau, cfg: (stochastic.mc_cpf_sampling(model, t, tau, 1, cfg),),
    "ensemble": lambda spec, t, tau, cfg: spinbath.lorentz_mc_moments(spec, t, tau, cfg),
}
MEMO_MODELS = [analytic.White(0.35), analytic.ExpCorrGauss(0.9, 1.3),
               analytic.ExpCorrGauss(0.4, 2.0), analytic.StaticGauss(0.8),
               analytic.StaticGauss(0.3), analytic.StaticLorentz(0.6, 0.4)]
MEMO_SPECS = [spinbath.LorentzCouplingSpec(gamma=1.0, n_spins=3),
              spinbath.LorentzCouplingSpec(gamma=0.5, omega=0.7, n_spins=3)]
MEMO_CONFIGS = [McConfig(300, seed=1, chunk_size=100), McConfig(300, seed=1, chunk_size=150),
                McConfig(250, seed=1, chunk_size=100), McConfig(300, seed=2, chunk_size=100)]


@st.composite
def memo_calls(draw):
    kind = draw(st.sampled_from(sorted(MEMO_ESTIMATORS)))
    model = draw(st.sampled_from(MEMO_SPECS if kind == "ensemble" else MEMO_MODELS))
    t, tau = draw(st.sampled_from([0.0, 0.4, 1.3])), draw(st.sampled_from([0.0, 0.7]))
    return kind, model, t, tau, draw(st.sampled_from(MEMO_CONFIGS))


def estimate_bits(estimates):
    return [(e.value.hex(), e.std_error.hex(), e.n_samples) for e in estimates]


@given(st.lists(memo_calls(), min_size=1, max_size=8),
       st.one_of(st.just(0), st.integers(1, 12_000), st.just(_mc.GRID_MEMO_MAX_BYTES)),
       st.booleans())
def test_grid_memo_keeps_every_bit_across_models_seeds_and_budgets(calls, budget, raise_in_body):
    # a budget from 1 to 12,000 bytes holds part of one point's stages (the
    # sampling draws of a 100-trajectory chunk take 4,000); consecutive calls
    # that differ in model, seed or chunk size meet the same slots
    want = [estimate_bits(MEMO_ESTIMATORS[kind](model, t, tau, cfg))
            for kind, model, t, tau, cfg in calls]
    old_budget = _mc.GRID_MEMO_MAX_BYTES
    _mc.GRID_MEMO_MAX_BYTES = budget
    try:
        with _mc.grid_memo():
            slots = _mc._memo
            for (kind, model, t, tau, cfg), bits in zip(calls, want):
                assert estimate_bits(MEMO_ESTIMATORS[kind](model, t, tau, cfg)) == bits
                held = [a for _, _, value, _ in slots.values() for a in value]
                assert sum(a.nbytes for a in held) == _mc._memo_bytes <= budget
                for a in held:
                    with pytest.raises(ValueError, match="read-only"):
                        a[...] = 0
            if raise_in_body:
                raise KeyError("body")
    except KeyError:
        assert raise_in_body
    finally:
        _mc.GRID_MEMO_MAX_BYTES = old_budget
    assert _mc._memo is None and slots == {}


def test_nested_grid_memo_shares_the_outer_slots(monkeypatch):
    streams = []
    stream = _mc.Chunk.stream
    monkeypatch.setattr(_mc.Chunk, "stream",
                        lambda c: streams.append((c.seed, c.index)) or stream(c))
    model, cfg = analytic.ExpCorrGauss(0.9, 1.3), McConfig(300, seed=4, chunk_size=100)
    with _mc.grid_memo():
        with _mc.grid_memo():
            first = stochastic.mc_moments(model, 0.4, 0.7, cfg)
        assert sorted(_mc._memo) == [(4, i, stage) for i in range(3) for stage in ("cos1", "phase")]
        assert stochastic.mc_moments(model, 0.4, 1.3, cfg) != first
    assert streams == [(4, 0), (4, 1), (4, 2)]
    assert _mc._memo is None


def test_a_sweep_legs_entry_drops_the_earlier_legs_per_t_and_per_tau_slots():
    # leg 1 keeps draws ("phase", "outcomes"), per-t stages ("cos1", "kept +1")
    # and white noise's per-tau stage; leg 2, whose models are other objects,
    # can share only the draws
    cfg = McConfig(300, seed=4, chunk_size=100)
    with _mc.grid_memo():
        with _mc.grid_memo():
            stochastic.mc_moments(analytic.ExpCorrGauss(0.9, 1.3), 0.4, 0.7, cfg)
            stochastic.mc_cpf_sampling(analytic.White(0.4), 0.4, 0.7, 1, cfg)
            first = dict(_mc._memo)
        assert {stage for _, _, stage in first} == {
            "phase", "cos1", "outcomes", "kept +1", f"cos2 {(0.7).hex()}"}
        with _mc.grid_memo():
            draws = {key: slot for key, slot in first.items()
                     if key[2] in ("phase", "outcomes")}
            assert _mc._memo == draws
            assert _mc._memo_bytes == sum(a.nbytes for _, _, v, _ in draws.values() for a in v)


def test_an_earlier_scopes_slots_give_way_to_a_stage_past_the_budget(monkeypatch):
    # each inner scope is a sweep leg on its own seed; the budget holds one leg's
    # stages, which give way to the next leg's, while within a leg another
    # seed's stages never push out the leg's own
    model = analytic.ExpCorrGauss(0.9, 1.3)
    cfgs = [McConfig(300, seed=seed, chunk_size=100) for seed in (1, 2, 3)]
    want = [estimate_bits(stochastic.mc_moments(model, 0.4, 0.7, cfg)) for cfg in cfgs]
    with _mc.grid_memo():
        stochastic.mc_moments(model, 0.4, 0.7, cfgs[0])
        monkeypatch.setattr(_mc, "GRID_MEMO_MAX_BYTES", _mc._memo_bytes)
    with _mc.grid_memo():
        for cfg, bits in zip(cfgs, want):
            with _mc.grid_memo():
                assert estimate_bits(stochastic.mc_moments(model, 0.4, 0.7, cfg)) == bits
                assert {seed for seed, _, _ in _mc._memo} == {cfg.seed}
                assert estimate_bits(stochastic.mc_moments(model, 0.4, 0.7, cfgs[0])) == want[0]
                assert {seed for seed, _, _ in _mc._memo} == {cfg.seed}
            assert len(_mc._memo) == 6 and _mc._memo_bytes == _mc.GRID_MEMO_MAX_BYTES


def test_a_replaced_stage_is_dropped_before_its_successor_is_computed():
    # a per-t stage at a new t: the old one would otherwise be held beside the new
    chunk = _mc.Chunk(1, 0, 10)
    with _mc.grid_memo():
        chunk.memo("cos1", "model", 0.1, lambda: (np.zeros(10),))
        held = []
        chunk.memo("cos1", "model", 0.2, lambda: held.append(dict(_mc._memo)) or (np.ones(10),))
        assert held == [{}] and _mc._memo_bytes == 80


# the floats at the edges of .17g text, and a zero of each sign
EDGE_FLOATS = [0.0, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               math.nan, math.inf, -math.inf]


@st.composite
def csv_results(draw):
    """Results whose columns draw from a small pool of floats, so that values repeat."""
    n = draw(st.sampled_from([1, 2, 1023, 1024, 1025, 2049]))
    labels = draw(st.sampled_from([("cpf",), tuple(label for _, label in cli._TABLE_LABELS)]))
    pool = np.array(EDGE_FLOATS + draw(st.lists(st.floats(), max_size=20)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    shape = (n, len(labels))
    tau = draw(st.sampled_from([None, rng.choice(pool, n)]))
    std_error = n_samples = None
    if draw(st.booleans()):
        std_error = rng.choice(pool, shape)
        n_samples = rng.choice(np.array([0, 1, 7, -3, 2**62, 2**20]), shape)
    return cli.Results(rng.choice(pool, n), tau, labels, rng.choice(pool, shape), std_error,
                       n_samples, draw(st.sampled_from(["white", "spin_bath"])), "analytic")


def csv_one_line_at_a_time(rows):
    """The CSV of rows, each line formatted by itself: .17g floats, %d counts."""
    lines = [",".join(cli.CSV_HEADER)]
    for k in range(rows.t.size):
        tau = "" if rows.tau is None else "%.17g" % rows.tau[k]
        for j, label in enumerate(rows.labels):
            mc = (",," if rows.std_error is None
                  else "%.17g,%d," % (rows.std_error[k, j], rows.n_samples[k, j]))
            lines.append("%.17g,%s,%.17g,%s%s,%s,%s" % (
                rows.t[k], tau, rows.value[k, j], mc, label, rows.model, rows.method))
    return "".join(line + "\r\n" for line in lines).encode()


@given(csv_results())
def test_write_csv_bytes_equal_a_writer_of_one_line_at_a_time(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        cli.write_csv(rows, path)
        assert path.read_bytes() == csv_one_line_at_a_time(rows)
