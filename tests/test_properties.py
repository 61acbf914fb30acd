"""Properties of the array moment spine and the shared spin product, over random models."""

import functools
import inspect
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cpfsim import _mc, analytic, cli, core, spinbath, stochastic
from cpfsim.errors import CpfError
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
        assert stochastic.mc_moments(model, t, tau, cfg).cpf().value == 0.0


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


def plain_spin_product(couplings, pol, lags):
    """The spin product's half-angle recurrence as plain expressions, no buffers or
    blocks: per spin h = tan(g_k lag), w = 2/(1+h^2), cos = w - 1, sin = h w and
    (re, im) <- (re cos - im pol_k sin, re pol_k sin + im cos), at (lags, m)."""
    re, im = np.ones((lags.size, couplings.shape[1])), np.zeros((lags.size, couplings.shape[1]))
    for g_k, pol_k in zip(couplings, pol):
        h = np.tan(g_k * lags[:, None])
        w = 2.0 / (h * h + 1.0)
        c, d = w - 1.0, pol_k * (h * w)
        re, im = re * c - im * d, re * d + im * c
    return re, im


@st.composite
def spin_products(draw, balanced):
    """(couplings (n, m), per-spin pol, 1-d lags) for the spin product kernel.

    pol is |a_k|^2 - |b_k|^2 of random amplitudes, as spinbath.coherence takes
    it.  Balanced amplitudes have |a_k| == |b_k| bit for bit: b_k is a_k or its
    conjugate times one of +-1, +-i, all exact, so the relative phase is random.
    """
    n, m, n_lags = draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    couplings = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n * m, max_size=n * m)))
    lags = np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=n_lags, max_size=n_lags)))
    if balanced:
        def pair(phi, conj, turn):
            a = complex(math.cos(phi), math.sin(phi)) / math.sqrt(2.0)
            return a, (a.conjugate() if conj else a) * turn

        pairs = st.builds(pair, st.floats(0.0, 2.0 * math.pi), st.booleans(),
                          st.sampled_from([1, -1, 1j, -1j]))
    else:
        pairs = amplitudes()
    alphas, betas = np.array(draw(st.lists(pairs, min_size=n, max_size=n))).T
    return couplings.reshape(n, m), np.abs(alphas) ** 2 - np.abs(betas) ** 2, lags


@given(spin_products(balanced=True))
def test_balanced_spin_product_keeps_the_general_paths_real_part(case):
    couplings, pol, lags = case
    assert not pol.any()
    re, im = spinbath._spin_blocks(couplings, lags, None, None)
    assert im is None and re.shape == (lags.size, couplings.shape[1])
    # a first spin that is uncoupled and fully up (pol 1) sends the kernel down
    # its general path, and multiplies the product by exactly 1 + 0i
    up_spin = np.zeros((1, couplings.shape[1]))
    general = spinbath._spin_blocks(np.vstack([up_spin, couplings]), lags, None,
                                    np.append(1.0, pol))
    assert np.all(re == general[0]) and np.all(general[1] == 0.0)
    assert np.all(re == plain_spin_product(couplings, pol, lags)[0])
    # a 0-d lag gives the bits of its element of the grid
    for i, lag in enumerate(lags):
        point, point_im = spinbath._spin_blocks(couplings, lag, None, None)
        assert point_im is None and point.tobytes() == re[i].tobytes()


@given(spin_products(balanced=False))
def test_general_spin_product_equals_the_plain_recurrence(case):
    couplings, pol, lags = case
    re, im = spinbath._spin_blocks(couplings, lags, None, pol)
    want_re, want_im = plain_spin_product(couplings, pol, lags)
    assert re.tobytes() == want_re.tobytes() and im.tobytes() == want_im.tobytes()
    for i, lag in enumerate(lags):
        point = spinbath._spin_blocks(couplings, lag, None, pol)
        assert point[0].tobytes() == re[i].tobytes() and point[1].tobytes() == im[i].tobytes()


# One-point estimators whose chunks have memo stages, the models they run on
# (two of each kind differ only in parameters) and run layouts that share
# seeds and chunk indices but not chunk sizes.
MEMO_ESTIMATORS = {
    "moments": lambda model, t, tau, cfg: stochastic.mc_moments(model, t, tau, cfg).moments(),
    "sampling": lambda model, t, tau, cfg: (stochastic.mc_cpf_sampling(model, t, tau, 1, cfg),),
    "ensemble": lambda spec, t, tau, cfg: (
        spinbath.lorentz_mc_moments(spec, t, tau, cfg).moments()),
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
            first = stochastic.mc_moments(model, 0.4, 0.7, cfg).moments()
        assert sorted(_mc._memo) == [(4, i, stage) for i in range(3) for stage in ("cos1", "phase")]
        assert stochastic.mc_moments(model, 0.4, 1.3, cfg).moments() != first
    assert streams == [(4, 0), (4, 1), (4, 2)]
    assert _mc._memo is None


def counting_memo(monkeypatch):
    """The stages Chunk.memo computes, in order; after every call the memo's slots
    hold _memo_bytes, within the budget."""
    computed = []
    memo = _mc.Chunk.memo

    def counted(chunk, stage, owner, t, compute):
        value = memo(chunk, stage, owner, t, lambda: computed.append(stage) or compute())
        held = sum(a.nbytes for _, _, v, _ in _mc._memo.values() for a in v)
        assert held == _mc._memo_bytes <= _mc.GRID_MEMO_MAX_BYTES
        return value

    monkeypatch.setattr(_mc.Chunk, "memo", counted)
    return computed


def test_a_sweep_leg_reuses_an_equal_models_slots_and_recomputes_an_unequal_ones(monkeypatch):
    # leg 1 keeps draws ("phase", "outcomes"), per-t stages ("cos1", "kept +1")
    # and white noise's per-tau stage; leg 2's models are other objects equal to
    # leg 1's and compute nothing, leg 3's are unequal and share only the draws
    # that no parameter scales
    cfg = McConfig(300, seed=4, chunk_size=100)

    def point(ou, white):
        return [estimate_bits(stochastic.mc_moments(ou, 0.4, 0.7, cfg).moments()),
                estimate_bits([stochastic.mc_cpf_sampling(white, 0.4, 0.7, 1, cfg)])]

    equal = (analytic.ExpCorrGauss(0.9, 1.3), analytic.White(0.4))
    unequal = (analytic.ExpCorrGauss(0.9, 1.4), analytic.White(0.5))
    want = {models: point(*models) for models in (equal, unequal)}  # outside any scope
    computed = counting_memo(monkeypatch)

    def leg(ou, white):
        computed.clear()
        with _mc.grid_memo():
            assert point(ou, white) == want[ou, white]
        return sorted(computed)

    draws, stages = ["phase", "outcomes"], ["cos1", "kept +1", f"cos2 {(0.7).hex()}"]
    with _mc.grid_memo():
        assert leg(*equal) == sorted((draws + stages) * 3)
        first = dict(_mc._memo)
        assert leg(analytic.ExpCorrGauss(0.9, 1.3), analytic.White(0.4)) == []
        assert _mc._memo == first
        assert leg(*unequal) == sorted(stages * 3)


def test_a_yx_sweep_keeps_its_reuse_at_a_budget_of_one_legs_stages(monkeypatch):
    # a reused slot keeps its leg's generation; at a budget of one leg's stages the
    # next leg's per-t stage takes the room its predecessor frees, so no reused
    # slot is evicted and each leg computes only its per-t stages
    cfg = McConfig(300, seed=4, chunk_size=100)
    points = [(0.2, 0.3), (0.5, 0.9), (1.1, 1.4)]

    def leg(yx):
        with _mc.grid_memo():
            return [estimate_bits([stochastic.mc_moments(
                analytic.StaticGauss(0.7), t, tau, cfg).conditional_coherence(yx)])
                for t, tau in points]

    want = {yx: leg(yx) for yx in (1, -1)}  # each in a scope of its own
    with _mc.grid_memo():
        leg(1)
        monkeypatch.setattr(_mc, "GRID_MEMO_MAX_BYTES", _mc._memo_bytes)
    computed = counting_memo(monkeypatch)
    per_t = ["cos1"] * 9  # 3 points x 3 chunks
    first = per_t + (["phase"] + [f"cos2 {tau.hex()}" for _, tau in points]) * 3
    with _mc.grid_memo():
        for yx, stages in [(1, first), (-1, per_t), (1, per_t)]:
            computed.clear()
            assert leg(yx) == want[yx]
            assert sorted(computed) == sorted(stages)


@pytest.mark.parametrize("sampler", [
    lambda omega, cfg: stochastic.mc_moments(
        analytic.StaticLorentz(1.0, omega), 0.4, 0.7, cfg).moments(),
    lambda omega, cfg: [stochastic.mc_cpf_sampling(analytic.StaticLorentz(1.0, omega), 0.4, 0.7,
                                                   -1, cfg)],
    lambda omega, cfg: spinbath.lorentz_mc_moments(
        spinbath.LorentzCouplingSpec(1.0, omega, 3, 0.8, 0.6), 0.4, 0.7, cfg).moments(),
], ids=["montecarlo", "sampling", "ensemble"])
def test_models_equal_up_to_a_signed_zero_give_the_same_bits(sampler):
    # a slot serves every model equal to its owner, and 0.0 == -0.0: the two
    # models' draws and stages must be the same bits, alone and from each
    # other's slots
    cfg = McConfig(5_000, seed=6, chunk_size=2_000)
    alone = {omega: estimate_bits(sampler(omega, cfg)) for omega in (0.0, -0.0)}
    assert alone[0.0] == alone[-0.0]
    for first, second in [(0.0, -0.0), (-0.0, 0.0)]:
        with _mc.grid_memo():
            assert estimate_bits(sampler(first, cfg)) == alone[first]
            held = dict(_mc._memo)
            assert estimate_bits(sampler(second, cfg)) == alone[second]
            assert _mc._memo == held  # served from the first model's slots


def test_an_earlier_scopes_slots_give_way_to_a_stage_past_the_budget(monkeypatch):
    # each inner scope is a sweep leg on its own seed; the budget holds one leg's
    # stages, which give way to the next leg's, while within a leg another
    # seed's stages never push out the leg's own
    model = analytic.ExpCorrGauss(0.9, 1.3)
    cfgs = [McConfig(300, seed=seed, chunk_size=100) for seed in (1, 2, 3)]
    want = [estimate_bits(stochastic.mc_moments(model, 0.4, 0.7, cfg).moments())
            for cfg in cfgs]
    with _mc.grid_memo():
        stochastic.mc_moments(model, 0.4, 0.7, cfgs[0])
        monkeypatch.setattr(_mc, "GRID_MEMO_MAX_BYTES", _mc._memo_bytes)
    with _mc.grid_memo():
        for cfg, bits in zip(cfgs, want):
            with _mc.grid_memo():
                stats = stochastic.mc_moments(model, 0.4, 0.7, cfg)
                assert estimate_bits(stats.moments()) == bits
                assert {seed for seed, _, _ in _mc._memo} == {cfg.seed}
                stats = stochastic.mc_moments(model, 0.4, 0.7, cfgs[0])
                assert estimate_bits(stats.moments()) == want[0]
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


# every edge of the parameter checks: zeros of each sign, integers past the float range
# and past repr's 4,300 digits, the smallest and largest floats, inf and nan, and values
# that are not numbers: a string, a list, None, a ragged list (SpinBathSpec's arrays),
# and text and a bool that float() reads as a number
PARAMETER_EDGES = [sign * v for v in (0, 1, 3, 10**400, 10**5000, 0.0, 5e-324, 1.5, 1.8e308,
                                      math.inf) for sign in (1, -1)] + [
    math.nan, "x", [1.0], None, [[1.0], [1.0, 2.0]], "1.5", b"1", True]
# each owner of parameter checks -> its argument names, and how many it requires
PARAMETER_OWNERS = {
    analytic.White: (("gamma_w",), 1),
    analytic.ExpCorrGauss: (("g", "tau_c"), 2),
    analytic.StaticGauss: (("g",), 1),
    analytic.StaticLorentz: (("gamma", "omega"), 1),
    spinbath.LorentzCouplingSpec: (("gamma", "omega", "n_spins", "alpha", "beta"), 1),
    spinbath.scaled_gaussian_bath: (("n_spins", "g", "omega"), 2),
    spinbath.SystemInit: (("a", "b"), 2),
    spinbath.SpinBathSpec: (("couplings", "alphas", "betas"), 1),
    McConfig: (("n_trajectories", "seed", "chunk_size", "path_dt"), 1),
    cli.GridSpec: (("start", "stop", "count"), 3),
}


@st.composite
def owner_calls(draw):
    owner = draw(st.sampled_from(list(PARAMETER_OWNERS)))
    names, required = PARAMETER_OWNERS[owner]
    edge = st.sampled_from(range(len(PARAMETER_EDGES)))  # indices: repr of 10**5000 fails
    given_args = draw(st.lists(edge, min_size=required, max_size=len(names)))
    return owner, [PARAMETER_EDGES[k] for k in given_args]


@settings(max_examples=300, derandomize=True)
@given(owner_calls())
def test_every_parameter_owner_builds_or_refuses_by_argument(call):
    # a refusal's str() works, and a ValueError starts with the name of an argument
    # the caller gave (defaults pass) or names the amplitude pair it refuses
    owner, args = call
    names = PARAMETER_OWNERS[owner][0][:len(args)]
    try:
        owner(*args)
    except CpfError as exc:
        assert str(exc)
    except ValueError as exc:
        text = str(exc)
        amplitudes = {"a", "b", "alpha", "beta", "alphas", "betas"} & set(names)
        assert (text.split(" ", 1)[0] in names
                or (amplitudes and " amplitudes must satisfy " in text)), text


# text and bools, which float(), complex() and numpy read as numbers, as a scalar
# parameter or an element of a per-spin list -> the named refusal
TEXT_AND_BOOLS = [
    (lambda: analytic.White("1.5"), "gamma_w must be finite and > 0, got '1.5'"),
    (lambda: analytic.White(True), "gamma_w must be finite and > 0, got True"),
    (lambda: analytic.White(np.True_), "gamma_w must be finite and > 0, got np.True_"),
    (lambda: analytic.ExpCorrGauss(b"1", 1.0), "g must be finite and > 0, got b'1'"),
    (lambda: analytic.StaticLorentz(1.0, np.str_("0.5")),
     "omega must be finite, got np.str_('0.5')"),
    (lambda: McConfig(True), "n_trajectories must be an integer, got True"),
    (lambda: McConfig(10, seed=False), "seed must be an integer, got False"),
    (lambda: McConfig(10, chunk_size=True), "chunk_size must be an integer, got True"),
    (lambda: McConfig(10, path_dt="0.1"), "path_dt must be finite and > 0, got '0.1'"),
    (lambda: spinbath.LorentzCouplingSpec(1.0, n_spins=True),
     "n_spins must be an integer, got True"),
    (lambda: spinbath.LorentzCouplingSpec(1.0, alpha=True, beta=0.0),
     "bath spin amplitudes must satisfy |a|^2+|b|^2=1, got nan"),
    (lambda: spinbath.scaled_gaussian_bath(3, "0.5"), "g must be finite and > 0, got '0.5'"),
    (lambda: spinbath.SystemInit("1", 0), "system amplitudes must satisfy |a|^2+|b|^2=1, got nan"),
    (lambda: spinbath.SpinBathSpec(["1.0"], ["0.6"], ["0.8"]), "couplings must be finite"),
    (lambda: spinbath.SpinBathSpec(np.array([True]), [1.0], [0.0]), "couplings must be finite"),
    (lambda: spinbath.SpinBathSpec([1.0], [True], [0.0]),
     "per-spin amplitudes must satisfy |a|^2+|b|^2=1, got nan"),
    (lambda: spinbath.SpinBathSpec([1.0], [0.6], [np.array(b"0.8")]),
     "per-spin amplitudes must satisfy |a|^2+|b|^2=1, got nan"),
    # in a list of several spins, the refusal still names the array that holds it
    (lambda: spinbath.SpinBathSpec(["1.0", "0.5"], [0.6, 0.6], [0.8, 0.8]),
     "couplings must be finite"),
    (lambda: spinbath.SpinBathSpec(np.array([1.0, "x"], dtype=object), [1.0, 1.0], [0.0, 0.0]),
     "couplings must be finite"),
    (lambda: spinbath.SpinBathSpec([1.0, 1.0], [0.6, True], [0.8, 0.8]),
     "per-spin amplitudes must satisfy |a|^2+|b|^2=1, got nan"),
    (lambda: spinbath.SpinBathSpec([1.0, 1.0], [0.6, 0.6], [0.8, b"0.8"]),
     "per-spin amplitudes must satisfy |a|^2+|b|^2=1, got nan"),
]


@pytest.mark.parametrize("build, message", TEXT_AND_BOOLS)
def test_every_parameter_owner_refuses_text_and_bools_by_argument(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


_TIME_MODEL, _TIME_CFG = analytic.StaticGauss(0.9), McConfig(10)
_TIME_BATH, _TIME_ENSEMBLE = spinbath.SpinBathSpec([0.3, -0.7]), spinbath.LorentzCouplingSpec(1.0)
_PLUS = spinbath.SystemInit.plus()
# each public function that takes a time -> its other arguments, and each of its times
# with what it takes: "one" point's time, "one" or None (a t-only call), an "array" of
# times (a scalar too), or an array of "lags", which may be negative
TIME_TAKERS = {
    analytic.phase_covariance: (dict(model=_TIME_MODEL), dict(t="one", tau="one")),
    analytic.first_moment: (dict(model=_TIME_MODEL), dict(s="array")),
    analytic.moment_set: (dict(model=_TIME_MODEL), dict(t="array", tau="array")),
    analytic.cpf: (dict(model=_TIME_MODEL), dict(t="array", tau="array")),
    analytic.conditional_coherence: (dict(model=_TIME_MODEL, yx=-1), dict(t="array", tau="array")),
    analytic.dephasing_rate: (dict(model=_TIME_MODEL), dict(t="array")),
    spinbath.coherence: (dict(spec=_TIME_BATH), dict(t="lags")),
    spinbath.moment_set: (dict(spec=_TIME_BATH), dict(t="array", tau="array")),
    spinbath.lorentz_coherence: (dict(spec=_TIME_ENSEMBLE), dict(t="lags")),
    spinbath.lorentz_moment_set: (dict(spec=_TIME_ENSEMBLE), dict(t="array", tau="array")),
    spinbath.lorentz_mc_moments: (dict(spec=_TIME_ENSEMBLE, cfg=_TIME_CFG),
                                  dict(t="one", tau="one or None")),
    spinbath.oracle_protocol: (dict(spec=_TIME_BATH, init=_PLUS, y=1), dict(t="one", tau="array")),
    spinbath.oracle_conditional_coherence: (dict(spec=_TIME_BATH, init=_PLUS, x=1, y=-1),
                                            dict(t="one", tau="one")),
    stochastic.mc_moments: (dict(model=_TIME_MODEL, cfg=_TIME_CFG), dict(t="one", tau="one or None")),
    stochastic.mc_cpf_sampling: (dict(model=_TIME_MODEL, y_select=-1, cfg=_TIME_CFG),
                                 dict(t="one", tau="one")),
    stochastic.ou_path_reference: (dict(model=analytic.ExpCorrGauss(0.9, 1.3), cfg=_TIME_CFG),
                                   dict(t="one", tau="one")),
}
# times every entry refuses: text, bytes and bools, which float() and numpy read as
# numbers, a ragged list, integers past the float range and past repr's 4,300 digits
BAD_TIMES = ["0.5", np.str_("0.5"), b"0.5", True, np.True_, [[1.0], [1.0, 2.0]],
             10**400, -10**400, 10**5000, math.nan, math.inf, -math.inf]


def bad_times(kind: str) -> list:
    """BAD_TIMES, and what an argument of the kind refuses besides: None but for a
    t-only call's tau, a negative time but for lags, and several times at a point."""
    return BAD_TIMES + ([None] if kind != "one or None" else []) + (
        [-0.5] if kind != "lags" else []) + (
        [np.array([0.5, 1.0]), [0.5]] if kind.startswith("one") else [])


@st.composite
def time_calls(draw):
    """(function, the name of one of its times, its other arguments, valid times drawn)."""
    function = draw(st.sampled_from(list(TIME_TAKERS)))
    given_args, takes = TIME_TAKERS[function]
    name = draw(st.sampled_from(sorted(takes)))
    times = {n: draw(st.lists(st.floats(-4.0 if k == "lags" else 0.0, 4.0), min_size=1,
                              max_size=3) if k in ("array", "lags") else st.floats(0.0, 4.0))
             for n, k in takes.items() if n != name}
    return function, name, {**given_args, **times}


@settings(max_examples=150, derandomize=True)
@given(time_calls())
def test_every_time_taker_refuses_a_bad_time_by_argument(call):
    # "1.5" and True read as times, 10**400 raised a bare OverflowError, a ragged list
    # numpy's shape error, and [0.5] at a point's entry a bare TypeError
    function, name, kwargs = call
    for bad in bad_times(TIME_TAKERS[function][1][name]):
        with pytest.raises(ValueError) as exc:
            function(**kwargs, **{name: bad})
        assert str(exc.value).startswith(f"{name} "), str(exc.value)  # "t + tau" counts as t


def test_every_public_function_that_takes_a_time_is_a_time_taker():
    # a new entry that takes t, tau or s joins TIME_TAKERS, and so the property above
    found = sorted(f"{module.__name__}.{name}" for module in (analytic, spinbath, stochastic)
                   for name, f in vars(module).items()
                   if inspect.isfunction(f) and not name.startswith("_")
                   and f.__module__ == module.__name__
                   and {"t", "tau", "s"} & set(inspect.signature(f).parameters))
    assert found == sorted(f"{f.__module__}.{f.__name__}" for f in TIME_TAKERS)


# the floats at the edges of .17g text, and a zero of each sign
EDGE_FLOATS = [0.0, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               math.nan, math.inf, -math.inf]


@st.composite
def csv_results(draw):
    """Results whose columns draw from a small pool of floats, so that values repeat:
    pointwise, t-only, or a surface of a t and a tau axis."""
    n = draw(st.sampled_from([1, 2, 1023, 1024, 1025, 2049]))
    labels = draw(st.sampled_from([("cpf",), tuple(label for _, label in cli._TABLE_LABELS)]))
    pool = np.array(EDGE_FLOATS + draw(st.lists(st.floats(), max_size=20)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    surface = draw(st.booleans())
    # a surface of n points: a t axis of n // n_tau, a tau axis of n_tau
    n_tau = draw(st.sampled_from([d for d in (1, 2, 3, 5, 41, 1023, 1024) if n % d == 0]))
    t, tau = ((rng.choice(pool, n // n_tau), rng.choice(pool, n_tau)) if surface
              else (rng.choice(pool, n), draw(st.sampled_from([None, rng.choice(pool, n)]))))
    shape = (n, len(labels))
    std_error = n_samples = None
    if draw(st.booleans()):
        std_error = rng.choice(pool, shape)
        n_samples = rng.choice(np.array([0, 1, 7, -3, 2**62, 2**20]), shape)
    return cli.Results(t, tau, labels, rng.choice(pool, shape), std_error, n_samples,
                       draw(st.sampled_from(["white", "spin_bath"])), "analytic",
                       surface=surface)


def csv_one_line_at_a_time(rows):
    """The CSV of rows, each line formatted by itself: .17g floats, %d counts."""
    lines = [",".join(cli.CSV_HEADER)]
    for k in range(rows.value.shape[0]):
        # point k of a surface is (t[k // n_tau], tau[k % n_tau])
        i, m = divmod(k, rows.tau.size) if rows.surface else (k, k)
        tau = "" if rows.tau is None else "%.17g" % rows.tau[m]
        for j, label in enumerate(rows.labels):
            mc = (",," if rows.std_error is None
                  else "%.17g,%d," % (rows.std_error[k, j], rows.n_samples[k, j]))
            lines.append("%.17g,%s,%.17g,%s%s,%s,%s" % (
                rows.t[i], tau, rows.value[k, j], mc, label, rows.model, rows.method))
    return "".join(line + "\r\n" for line in lines).encode()


@given(csv_results())
def test_write_csv_bytes_equal_a_writer_of_one_line_at_a_time(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        cli.write_csv(rows, path)
        assert path.read_bytes() == csv_one_line_at_a_time(rows)
