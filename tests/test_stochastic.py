"""Monte Carlo estimators: distributional correctness, error bars, streams."""

import contextlib
import math
import multiprocessing
import os
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

from cpfsim import _mc, analytic, core, spinbath, stochastic
from cpfsim.errors import (BathTooLarge, EmptyPostselection, NonFiniteResult, StepTooCoarse,
                           ZeroProbabilityPostselection)
from cpfsim.stochastic import McConfig

WHITE = analytic.White(0.35)
GAUSS = analytic.StaticGauss(0.8)
OU = analytic.ExpCorrGauss(0.9, 1.3)
LORENTZ = analytic.StaticLorentz(0.6, 0.4)
ALL_MODELS = [WHITE, GAUSS, OU, LORENTZ]


def _pull(est: core.Estimate, truth: float) -> float:
    return (est.value - truth) / est.std_error


# ---------------------------------------------------------------------------
# the sampler behind the estimators

def test_sample_phase_pair_matches_model_law():
    # static Gaussian noise: theta2/theta1 = tau/t on every draw
    d = stochastic._phase_draws(GAUSS, np.random.default_rng(5), 20)
    th1, th2 = stochastic._theta1(GAUSS, d, 2.0), stochastic._theta2(GAUSS, d, 2.0, 0.5)
    assert th2 == pytest.approx(th1 * 0.25, rel=1e-12)


@pytest.mark.parametrize("t, tau", [(0.0, 0.0), (0.0, 0.7), (1.3, 0.0), (1.3, 0.7)])
def test_white_theta2_is_the_scaled_second_draw(t, tau):
    # White's cov = 0: the two-step Cholesky gives b = 0 and c = sqrt(Var theta2), the
    # bits of the shortcut it replaced, sqrt(Var theta2) d[1]
    d = stochastic._phase_draws(WHITE, np.random.default_rng(5), 1_000)
    var2 = analytic.phase_covariance(WHITE, t, tau)[1]
    want = _mc.cos2(math.sqrt(var2) * d[1])
    assert _mc.cos2(stochastic._theta2(WHITE, d, t, tau)).tobytes() == want.tobytes()


def test_cos2_matches_libm():
    # angles theta: signed zeros, subnormal and tiny ones, Cauchy tails and
    # log-uniform magnitudes up to 1e300, and ones whose double overflows
    rng = np.random.default_rng(43)
    theta = np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-160, 1e-20, 1e-8, 5e14, -5e14,
         1e300, -1e300, 8.9e307, -8.9e307],
        10.0 ** rng.uniform(-320.0, -3.0, 20_000),
        0.5 * np.tan(np.pi * (rng.random(200_000) - 0.5)),
        rng.choice([-1.0, 1.0], 200_000) * 10.0 ** rng.uniform(-3.0, 300.0, 200_000),
    ])
    got = _mc.cos2(theta.copy())
    assert np.all(got[:2] == 1.0)
    assert np.all(np.abs(got) <= 1.0)
    assert np.max(np.abs(got - np.cos(2.0 * theta))) <= 2 * 2.0**-52
    # with a sin buffer: the same cosines, and sin 2 theta as closely
    sin = np.empty_like(theta)
    assert _mc.cos2(theta.copy(), sin).tobytes() == got.tobytes()
    assert np.all(sin[:2] == 0.0) and np.all(np.abs(sin) <= 1.0)
    assert np.max(np.abs(sin - np.sin(2.0 * theta))) <= 2 * 2.0**-52
    overflow = np.array([1e308, -1e308, sys.float_info.max, -sys.float_info.max])
    assert np.all(np.abs(overflow) > sys.float_info.max / 2.0)  # 2 theta is inf
    assert np.all(np.abs(_mc.cos2(overflow.copy())) <= 1.0)  # finite, no NaN
    # a static model's cos 2 theta1 stage and the balanced ensemble's factor at
    # couplings d and lag t are the same bits
    d = stochastic._phase_draws(GAUSS, np.random.default_rng(44), 50_000)
    stage = stochastic.cos2(stochastic._theta1(GAUSS, d, 0.9))
    factor, _ = spinbath._spin_blocks(d[None, :], 0.9, None, None)
    assert stage.tobytes() == factor[0].tobytes()


def eight_cells(model, t, tau, cfg, workers=1):
    """Counts[y_idx, z_idx, x_idx] of one seed's triples (index 0 is +1), from the
    kept counts at y_select = +1 and -1: both calls draw the same x and y."""
    return np.stack([stochastic._kept_counts(model, t, tau, y, cfg, workers)
                     for y in core.OUTCOMES]).reshape(2, 2, 2)


def test_sample_outcome_triple_is_valid():
    # every trajectory lands in exactly one of the eight (y, z, x) cells
    counts = eight_cells(OU, 1.0, 0.7, McConfig(n_trajectories=1_000, seed=6))
    assert counts.shape == (2, 2, 2)
    assert counts.min() >= 0 and counts.sum() == 1_000


def where_pipeline_counts(u, cos1, cos2):
    """Cell counts, p_y and p_z of the np.where pipeline the sampling stages replaced."""
    x = np.where(u[:, 0] < 0.5, 1, -1)
    p_y = 0.5 * (1.0 + x * cos1)
    y = np.where(u[:, 1] < p_y, 1, -1)
    p_z = 0.5 * (1.0 + y * cos2)
    z = np.where(u[:, 2] < p_z, 1, -1)
    return np.bincount(2 * (1 - y) + (1 - x) // 2 + (1 - z), minlength=8), p_y, p_z


def staged_counts(u, cos1, cos2, keep_cos2):
    """The eight cells from the kept-only stages at y_select = +1 and -1, with cos 2
    theta2 gathered from a chunk-wide array as a static model's per-tau slot."""
    c = cos2.copy()
    c.flags.writeable = not keep_cos2  # a kept per-tau stage is read-only
    counts = []
    for y_select in core.OUTCOMES:
        cell, u_z, idx = stochastic._kept_stage(GAUSS, np.zeros(len(u)), u, cos1.copy(), y_select)
        counts.append(stochastic._z_counts(cell, u_z, c[idx], y_select))
    assert np.all(c == cos2)
    return np.concatenate(counts)


@given(st.integers(1, 300), st.integers(0, 2**32 - 1), st.booleans())
def test_sampling_stages_count_like_the_where_pipeline_with_ties(m, seed, keep_cos2):
    rng = np.random.default_rng(seed)
    # cosines at random phases and at t = 0 or tau = 0 (exactly 1), plus -1 and 0
    cos1, cos2 = (np.where(rng.random(m) < 0.3, rng.choice([1.0, -1.0, 0.0], m),
                           np.cos(2.0 * rng.standard_normal(m))) for _ in range(2))
    u = rng.random((m, 3))
    # ties u == p: x at u = 0.5, then y and z at the pipeline's own p_y and p_z
    tie = [rng.random(m) < 0.3 for _ in range(3)]
    u[tie[0], 0] = 0.5
    _, p_y, _ = where_pipeline_counts(u, cos1, cos2)
    u[tie[1], 1] = p_y[tie[1]]
    _, _, p_z = where_pipeline_counts(u, cos1, cos2)
    u[tie[2], 2] = p_z[tie[2]]
    want, _, _ = where_pipeline_counts(u, cos1, cos2)
    assert np.array_equal(staged_counts(u, cos1, cos2, keep_cos2), want)


def where_pipeline_estimate(model, t, tau, y_select, cfg):
    """mc_cpf_sampling's estimate from the where pipeline's counts on the same chunk draws."""
    counts = 0
    for i, m in enumerate(_mc.chunk_sizes(cfg)):
        rng = _mc.Chunk(cfg.seed, i, m).stream()
        d = stochastic._phase_draws(model, rng, m)
        u = rng.random((m, 3))
        cos1 = np.cos(2.0 * stochastic._theta1(model, d, t))
        cos2 = np.cos(2.0 * stochastic._theta2(model, d, t, tau))
        counts = counts + where_pipeline_counts(u, cos1, cos2)[0]
    kept = counts.reshape(2, 4)[(1 - y_select) // 2]
    return _mc.MomentStats.from_counts(stochastic._ZX_ROWS, kept).cpf()


@pytest.mark.parametrize("model", ALL_MODELS)
@pytest.mark.parametrize("t", [0.0, 0.9])
def test_outcome_counts_equal_the_where_pipeline_on_the_chunk_draws(model, t):
    m, tau = 5_000, 0.6
    rng = _mc.Chunk(8, 0, m).stream()
    d = stochastic._phase_draws(model, rng, m)
    u = rng.random((m, 3))
    cos1 = np.cos(2.0 * stochastic._theta1(model, d, t))
    cos2 = np.cos(2.0 * stochastic._theta2(model, d, t, tau))
    want, _, _ = where_pipeline_counts(u, cos1, cos2)
    got = eight_cells(model, t, tau, McConfig(n_trajectories=m, seed=8))
    assert np.array_equal(got.ravel(), want)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ALL_MODELS),
       st.lists(st.tuples(st.sampled_from([0.0, 0.3, 1.4]), st.sampled_from([0.0, 0.6, 2.2])),
                min_size=1, max_size=4),
       st.sampled_from(core.OUTCOMES),
       st.sampled_from([McConfig(700, seed=11), McConfig(700, seed=11, chunk_size=400)]),
       st.sampled_from([1, 2]), st.booleans())
def test_sampling_estimate_is_the_where_pipeline_on_the_chunk_draws(
        model, points, y_select, cfg, workers, in_grid):
    want = [where_pipeline_estimate(model, t, tau, y_select, cfg) for t, tau in points]
    with _mc.grid_memo() if in_grid else contextlib.nullcontext():
        got = [stochastic.mc_cpf_sampling(model, t, tau, y_select, cfg, workers)
               for t, tau in points]
    assert [(e.value.hex(), e.std_error.hex(), e.n_samples) for e in got] == \
        [(e.value.hex(), e.std_error.hex(), e.n_samples) for e in want]


def whole_chunk_counts(model, t, tau, y_select, cfg):
    """_kept_counts with every stage on a whole chunk, as a chunk ran before tiles."""
    counts = 0
    for i, m in enumerate(_mc.chunk_sizes(cfg)):
        rng = _mc.Chunk(cfg.seed, i, m).stream()
        d, u = stochastic._phase_draws(model, rng, m), rng.random((m, 3))
        cell, u_z, r = stochastic._kept_stage(
            model, d, u, _mc.cos2(stochastic._theta1(model, d, t)), y_select)
        if r.ndim == 2:
            b = _mc.cos2(stochastic._theta2(model, r, t, tau))
        else:
            b = _mc.cos2(stochastic._theta2(model, d, t, tau))[r]
        counts = counts + stochastic._z_counts(cell, u_z, b, y_select)
    return counts


@pytest.mark.parametrize("model", ALL_MODELS)
@pytest.mark.parametrize("y_select", core.OUTCOMES)
@pytest.mark.parametrize("chunk", [1, 8_191, 8_192, 8_193, 34_464, 65_536])
def test_tiled_counts_are_the_whole_chunk_counts(monkeypatch, model, y_select, chunk):
    # two chunks, the second one trajectory short (one chunk at chunk size 1)
    cfg = McConfig(n_trajectories=max(1, 2 * chunk - 1), seed=21, chunk_size=chunk)
    t, tau = 0.8, 1.3
    want = whole_chunk_counts(model, t, tau, y_select, cfg)
    readouts = []
    z_counts = stochastic._z_counts
    monkeypatch.setattr(stochastic, "_z_counts",
                        lambda *args: readouts.append(args[0]) or z_counts(*args))
    for in_grid in (False, True):
        for workers in (1, 2):
            readouts.clear()
            with _mc.grid_memo() if in_grid else contextlib.nullcontext():
                got = stochastic._kept_counts(model, t, tau, y_select, cfg, workers)
            assert np.array_equal(got, want)
            # a lone point reads out tile by tile, a grid's point a chunk at a time
            tile = chunk if in_grid else _mc.POINT_TILE
            assert len(readouts) == sum(-(-m // tile) for m in _mc.chunk_sizes(cfg))


@pytest.mark.parametrize("y_select", core.OUTCOMES)
def test_a_lone_sampling_point_at_the_default_chunk_holds_one_tile(y_select):
    # a lone OU point of 65,536 trajectories held its chunk's temporaries
    # (a 4.46 MB peak); past its draws d and u it now holds one tile's
    m = 65_536
    cfg = McConfig(n_trajectories=m, seed=3)
    assert cfg.chunk_size == m
    _mc.Chunk(3, 0, 1).stream()  # a process's first stream imports numpy.random (0.76 MB)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stochastic.mc_cpf_sampling(OU, 0.7, 1.1, y_select, cfg)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # d: two normals a trajectory, u: three uniforms; a tile: 8 float64 arrays
    assert peak < 8 * (5 * m + 8 * _mc.POINT_TILE)


@pytest.mark.parametrize("model", ALL_MODELS)
@pytest.mark.parametrize("y_select", core.OUTCOMES)
def test_sampling_grid_reads_z_out_on_the_kept_trajectories_only(monkeypatch, model, y_select):
    # two unequal chunks; in a grid a full chunk's cos 2 theta is built once per t
    # (cos 2 theta1) and, off the OU model, once per tau (the per-tau slot)
    cfg = McConfig(n_trajectories=5_000, seed=12, chunk_size=3_000)
    ts, taus = (0.0, 0.5, 1.2), (0.3, 0.9)
    full, readouts = [], []
    cos2, z_counts = stochastic.cos2, stochastic._z_counts

    def spy_cos2(theta):
        full.append(theta.size in (3_000, 2_000))
        return cos2(theta)

    def spy_z_counts(cell, u_z, c, y):
        readouts.append((cell.size, u_z.size, c.size))
        return z_counts(cell, u_z, c, y)

    monkeypatch.setattr(stochastic, "cos2", spy_cos2)
    monkeypatch.setattr(stochastic, "_z_counts", spy_z_counts)
    with _mc.grid_memo():
        for t in ts:
            for tau in taus:
                readouts.clear()
                est = stochastic.mc_cpf_sampling(model, t, tau, y_select, cfg)
                assert len(readouts) == 2
                assert all(a == b == c for a, b, c in readouts)
                assert sum(a for a, _, _ in readouts) == est.n_samples
                assert all(a < m for (a, _, _), m in zip(readouts, (3_000, 2_000)))
    per_tau = not isinstance(model, analytic.ExpCorrGauss)
    assert sum(full) == 2 * (len(ts) + per_tau * len(taus))


@pytest.mark.parametrize("m", [1, 7, 4_095, 4_096, 4_097, 16_384, 16_385, 20_000, 70_001])
def test_gaussian_pair_draws_are_the_rows_of_one_m_by_2_draw(m):
    a, b, c = (_mc.Chunk(3, 1, m).stream() for _ in range(3))
    rows = stochastic._phase_draws(OU, a, m)
    assert rows.flags.c_contiguous and rows.tobytes() == b.standard_normal((m, 2)).T.tobytes()
    assert a.random(3).tobytes() == b.random(3).tobytes()  # the stream goes on as after one draw
    # and as the draw of 0.10.0, in blocks of 4,096 pairs (_mc.draw_rows takes 16,384)
    old = np.empty((2, m))
    for k in range(0, m, 4096):
        old[:, k:k + 4096] = c.standard_normal((min(4096, m - k), 2)).T
    assert rows.tobytes() == old.tobytes()


# ---------------------------------------------------------------------------
# the sampled triples follow the analytic eight-cell law
#
# eight_cells puts together the kept counts of mc_cpf_sampling's sampler at
# y_select = +1 and -1 on one seed, indexed [y, z, x] with index 0 for +1.

def _cell_counts(model, t, tau, n, seed):
    return eight_cells(model, t, tau, McConfig(n_trajectories=n, seed=seed))


def _cell_expected(model, t, tau, n):
    expected = np.zeros((2, 2, 2))
    for y in core.OUTCOMES:
        table = core.cpf_probability_table(analytic.moment_set(model, t, tau), y)
        for (z, x), p in table.entries.items():
            expected[(1 - y) // 2, (1 - z) // 2, (1 - x) // 2] = 0.5 * p * n  # P(y) = 1/2
    return expected


@pytest.mark.parametrize("model", [WHITE, OU])
def test_triple_frequencies_chi_squared(model):
    n = 40_000
    counts = _cell_counts(model, 0.9, 0.6, n, seed=71)
    expected = _cell_expected(model, 0.9, 0.6, n)
    chi2, p = sps.chisquare(counts.ravel(), expected.ravel())
    assert p > 1e-4, f"chi2 = {chi2}, p = {p}"


def test_triple_frequencies_reject_wrong_model():
    # negative control: the same counts against a misspecified law
    n = 40_000
    counts = _cell_counts(WHITE, 0.9, 0.6, n, seed=71)
    expected = _cell_expected(analytic.White(1.4), 0.9, 0.6, n)
    _, p = sps.chisquare(counts.ravel(), expected.ravel())
    assert p < 1e-6


# ---------------------------------------------------------------------------
# moment estimators vs closed forms

@pytest.mark.parametrize("model", ALL_MODELS)
def test_mc_moments_match_analytic(model):
    cfg = McConfig(n_trajectories=400_000, seed=90)
    want = analytic.moment_set(model, 1.1, 0.8)
    f_t, f_tau, f_joint = stochastic.mc_moments(model, 1.1, 0.8, cfg).moments()
    assert abs(_pull(f_t, want.f_t)) < 4.0
    assert abs(_pull(f_tau, want.f_tau)) < 4.0
    assert abs(_pull(f_joint, want.f_joint)) < 4.0


def test_mc_moments_stationarity_at_equal_times():
    # both intervals have the same marginal law when t = tau
    cfg = McConfig(n_trajectories=300_000, seed=91)
    f_t, f_tau, _ = stochastic.mc_moments(OU, 1.4, 1.4, cfg).moments()
    want = analytic.first_moment(OU, 1.4)
    assert abs(_pull(f_t, want)) < 4.0
    assert abs(_pull(f_tau, want)) < 4.0


@pytest.mark.parametrize("model", ALL_MODELS)
def test_mc_cpf_semianalytic_matches_analytic(model):
    cfg = McConfig(n_trajectories=400_000, seed=92)
    want = analytic.cpf(model, 0.9, 1.2)
    est = stochastic.mc_moments(model, 0.9, 1.2, cfg).cpf()
    assert abs(_pull(est, want)) < 4.0


def test_mc_conditional_coherence_matches_analytic():
    cfg = McConfig(n_trajectories=400_000, seed=93)
    for model in (GAUSS, OU):
        for yx in (+1, -1):
            want = analytic.conditional_coherence(model, 1.0, 0.7, yx)
            est = stochastic.mc_moments(model, 1.0, 0.7, cfg).conditional_coherence(yx)
            assert abs(_pull(est, want)) < 4.0


def test_mc_conditional_coherence_white_is_memoryless():
    cfg = McConfig(n_trajectories=300_000, seed=94)
    want = analytic.first_moment(WHITE, 0.7)
    for yx in (+1, -1):
        est = stochastic.mc_moments(WHITE, 1.0, 0.7, cfg).conditional_coherence(yx)
        assert abs(_pull(est, want)) < 4.0


def test_mc_cpf_sampling_matches_analytic():
    cfg = McConfig(n_trajectories=400_000, seed=95)
    for model, t, tau, want in (
        (WHITE, 1.0, 0.8, 0.0),
        (GAUSS, 4.0, 4.0, analytic.cpf(GAUSS, 4.0, 4.0)),
        (OU, 1.3, 0.9, analytic.cpf(OU, 1.3, 0.9)),
    ):
        for y_select in (+1, -1):
            est = stochastic.mc_cpf_sampling(model, t, tau, y_select, cfg)
            assert abs(_pull(est, want)) < 4.0
            assert 0 < est.n_samples < cfg.n_trajectories


def test_mc_cpf_sampling_n_samples_is_kept_count():
    cfg = McConfig(n_trajectories=100_000, seed=96)
    est = stochastic.mc_cpf_sampling(WHITE, 0.4, 0.4, +1, cfg)
    # P(y = +1) = 1/2 exactly, so the kept count sits near n/2
    assert abs(est.n_samples - 50_000) < 4 * math.sqrt(25_000)


def _kept_rows(kept: np.ndarray) -> np.ndarray:
    """The (z, x, zx) rows of the kept trajectories, expanded from their 2x2 counts."""
    cells = [(z, x, z * x) for z in core.OUTCOMES for x in core.OUTCOMES]
    return np.repeat(np.array(cells, dtype=float), kept.ravel(), axis=0)


# one chunk, and two unequal chunks (30,000 + 20,000)
@pytest.mark.parametrize("n, chunk_size", [(20_000, None), (50_000, 30_000)])
@pytest.mark.parametrize("workers", [1, 2])
def test_sampling_estimate_is_the_moment_accumulator_of_the_kept_rows(n, chunk_size, workers):
    cfg = McConfig(n_trajectories=n, seed=17, chunk_size=chunk_size)
    for model, t, tau, y_select in ((OU, 1.0, 0.8, +1), (GAUSS, 0.5, 1.5, -1), (WHITE, 0.3, 0.3, +1)):
        kept = stochastic._kept_counts(model, t, tau, y_select, cfg, workers)
        want = _mc.MomentStats.from_samples(_kept_rows(kept).T).cpf()
        got = stochastic.mc_cpf_sampling(model, t, tau, y_select, cfg, workers)
        assert got.n_samples == want.n_samples == kept.sum()
        assert abs(got.value - want.value) <= 1e-15
        assert got.std_error == pytest.approx(want.std_error, rel=1e-9)


# ---------------------------------------------------------------------------
# error bars are honest

def test_semianalytic_pulls_are_standard_normal():
    truth = analytic.cpf(OU, 1.0, 1.0)
    pulls = []
    for seed in range(40):
        cfg = McConfig(n_trajectories=20_000, seed=500 + seed)
        pulls.append(_pull(stochastic.mc_moments(OU, 1.0, 1.0, cfg).cpf(), truth))
    pulls = np.asarray(pulls)
    within2 = np.mean(np.abs(pulls) < 2.0)
    assert within2 >= 0.8
    assert 0.6 < pulls.std(ddof=1) < 1.45
    assert abs(pulls.mean()) < 3.0 / math.sqrt(len(pulls))


def test_semianalytic_error_bar_survives_nearly_constant_columns():
    # at t = tau = 0.02 every column lies within about 1e-4 of 1, and a
    # one-pass covariance cancelled the CPF's error bar to 0 at most seeds
    model, t, n = analytic.StaticGauss(0.3), 0.02, 20_000
    for seed in range(40):
        est = stochastic.mc_moments(model, t, t, McConfig(n_trajectories=n, seed=seed)).cpf()
        # the same draws (a single chunk), linearized about their means in a second pass
        d = stochastic._phase_draws(model, _mc.Chunk(seed, 0, n).stream(), n)
        th1, th2 = stochastic._theta1(model, d, t), stochastic._theta2(model, d, t, t)
        a, b = np.cos(2.0 * th1), np.cos(2.0 * th2)
        cols = np.column_stack([a, b, a * b])
        m = cols.mean(axis=0)
        lin = (cols - m) @ np.array([-m[1], -m[0], 1.0])
        two_pass = math.sqrt(lin @ lin / ((n - 1) * n))
        assert est.std_error > 0.0
        assert est.std_error == pytest.approx(two_pass, rel=0.1)


def test_sampling_error_bar_is_honest():
    truth = analytic.cpf(GAUSS, 1.0, 1.0)
    pulls = []
    for seed in range(40):
        cfg = McConfig(n_trajectories=20_000, seed=800 + seed)
        est = stochastic.mc_cpf_sampling(GAUSS, 1.0, 1.0, +1, cfg)
        pulls.append((est.value - truth) / est.std_error)
    pulls = np.asarray(pulls)
    assert np.mean(np.abs(pulls) < 2.0) >= 0.8
    assert 0.6 < pulls.std(ddof=1) < 1.45


def test_standard_error_scales_as_inverse_sqrt_n():
    small = stochastic.mc_moments(OU, 1.0, 1.0, McConfig(n_trajectories=40_000, seed=7)).cpf()
    large = stochastic.mc_moments(OU, 1.0, 1.0, McConfig(n_trajectories=400_000, seed=7)).cpf()
    ratio = small.std_error / large.std_error
    assert ratio == pytest.approx(math.sqrt(10.0), rel=0.2)


# ---------------------------------------------------------------------------
# reproducibility contract

@pytest.mark.parametrize("entry, model", [
    *[(stochastic.mc_moments, model) for model in ALL_MODELS],
    (spinbath.lorentz_mc_moments, spinbath.LorentzCouplingSpec(1.1, 0.3, 7)),
    (spinbath.lorentz_mc_moments, spinbath.LorentzCouplingSpec(1.1, 0.3, 7, 0.8, 0.6)),
], ids=["white", "static_gauss", "exp_corr_gauss", "static_lorentz", "ensemble_balanced",
        "ensemble_unbalanced"])
@pytest.mark.parametrize("chunk_size", [1_000, 2_500])
@pytest.mark.parametrize("workers", [1, 2])
def test_a_t_only_point_is_the_f_t_column_of_its_tau_zero_point(entry, model, chunk_size, workers):
    # tau None samples the f(t) column alone; its estimate keeps every bit of the
    # f(t) of the three columns at tau = 0, as a coherence row needs
    cfg = McConfig(n_trajectories=6_000, seed=13, chunk_size=chunk_size)
    for t in (0.0, 0.7, 2.3):
        alone = entry(model, t, None, cfg, workers)
        assert alone.s.shape == (1,)
        got, want = alone.estimate(0), entry(model, t, 0.0, cfg, workers).moments()[0]
        assert (got.value.hex(), got.std_error.hex(), got.n_samples) == (
            want.value.hex(), want.std_error.hex(), want.n_samples)


def test_worker_count_does_not_change_results():
    cfg = McConfig(n_trajectories=96_000, seed=41, chunk_size=16_000)
    for fn in (
        lambda w: stochastic.mc_moments(OU, 1.0, 0.8, cfg, workers=w).cpf(),
        lambda w: stochastic.mc_cpf_sampling(OU, 1.0, 0.8, -1, cfg, workers=w),
        lambda w: stochastic.ou_path_reference(OU, 0.6, 0.4, cfg, workers=w),
    ):
        base = fn(1)
        assert fn(2) == base
        assert fn(4) == base


def test_grid_memo_on_racing_pool_threads_keeps_every_point_exact(monkeypatch):
    # 64 chunks at 8 workers (the caller and every thread of the pool, one fewer than
    # the CPUs) on threads that switch every microsecond, with a budget that
    # holds about 3/5 of one point's stages, so slots fill up mid-point; the
    # rows are t-major, so each t's stage is replaced while chunks race
    cfg = McConfig(n_trajectories=64 * 50, seed=9, chunk_size=50)
    points = [(0.3, 0.5), (0.3, 0.2), (0.0, 0.2), (1.1, 1.4), (1.1, 0.0)]
    want = [stochastic.mc_cpf_sampling(OU, t, tau, 1, cfg) for t, tau in points]
    budget = 64 * 50 * 8 * 7 * 3 // 5
    monkeypatch.setattr(_mc, "GRID_MEMO_MAX_BYTES", budget)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    got = []
    try:
        with _mc.grid_memo():
            for t, tau in points:
                got.append(stochastic.mc_cpf_sampling(OU, t, tau, 1, cfg, workers=8))
                held = sum(a.nbytes for _, _, value, _ in _mc._memo.values() for a in value)
                assert held == _mc._memo_bytes <= budget
                assert 0 < len(_mc._memo) < 2 * 64
    finally:
        sys.setswitchinterval(interval)
    assert got == want


@pytest.mark.parametrize("model", [WHITE, LORENTZ])
def test_per_tau_slots_on_racing_pool_threads_keep_every_point_exact(monkeypatch, model):
    # as above, for the models whose cos 2 theta2 a grid keeps per tau: each tau
    # recurs at every t, and the budget holds about half of what a sampling grid
    # keeps (draws 5, the kept stage about 1.5 and two tau slots per trajectory)
    cfg = McConfig(n_trajectories=64 * 50, seed=9, chunk_size=50)
    points = [(t, tau) for t in (0.0, 0.3, 1.1) for tau in (0.5, 0.2)]
    estimators = [lambda t, tau, w: stochastic.mc_cpf_sampling(model, t, tau, 1, cfg, w),
                  lambda t, tau, w: stochastic.mc_moments(model, t, tau, cfg, w).moments()]
    want = [est(t, tau, 1) for est in estimators for t, tau in points]
    budget = 64 * 50 * 8 * 9 // 2
    monkeypatch.setattr(_mc, "GRID_MEMO_MAX_BYTES", budget)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    got = []
    try:
        for est in estimators:
            with _mc.grid_memo():
                for t, tau in points:
                    got.append(est(t, tau, 8))
                    held = sum(a.nbytes for _, _, value, _ in _mc._memo.values() for a in value)
                    assert held == _mc._memo_bytes <= budget
                    assert any(stage.startswith("cos2") for _, _, stage in _mc._memo)
    finally:
        sys.setswitchinterval(interval)
    assert got == want


@pytest.mark.parametrize("workers", [1, 2])
def test_map_chunks_runs_every_chunk_under_the_callers_error_state(workers):
    # numpy's error state is per thread (a context variable), and pool threads
    # started with the default "warn"
    with np.errstate(over="ignore", invalid="raise"):
        states = _mc.map_chunks(lambda chunk: np.geterr(), McConfig(4, chunk_size=1), workers)
    assert [(s["over"], s["invalid"]) for s in states] == [("ignore", "raise")] * 4


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_map_chunks_raises_the_error_of_the_lowest_chunk_that_failed(workers):
    # chunk 1 fails last in time: at 2 and 4 workers chunk 3 has failed while it
    # sleeps, and the serial run's error still wins
    def worker(chunk):
        if chunk.index == 1:
            time.sleep(0.05)
        if chunk.index in (1, 3):
            raise ValueError(f"chunk {chunk.index}")
        return chunk.index

    with pytest.raises(ValueError, match="^chunk 1$"):
        _mc.map_chunks(worker, McConfig(4, chunk_size=1), workers)


def test_a_keyboard_interrupt_in_the_callers_chunk_propagates_at_once():
    # the caller raises while the helper's chunk still runs, and the helper, once
    # released, takes no further chunk
    caller, ran = threading.get_ident(), []
    started, release = threading.Event(), threading.Event()

    def worker(chunk):
        ran.append(chunk.index)
        if threading.get_ident() != caller:
            started.set()
            release.wait(timeout=30)
            return
        started.wait(timeout=30)  # the helper runs its chunk
        raise KeyboardInterrupt

    begin = time.perf_counter()
    try:
        with pytest.raises(KeyboardInterrupt):
            _mc.map_chunks(worker, McConfig(8, chunk_size=1), 2)
        assert time.perf_counter() - begin < 10.0
    finally:
        release.set()
    time.sleep(0.1)
    assert sorted(ran) == [0, 1]


def test_maps_on_two_threads_at_once_each_get_their_serial_bits():
    # two callers share the one pool, on threads that switch every microsecond
    cfg = McConfig(n_trajectories=8 * 200, seed=13, chunk_size=200)
    models = (OU, GAUSS)
    want = {m: stochastic.mc_moments(m, 0.7, 0.4, cfg).moments() for m in models}
    got, barrier = {}, threading.Barrier(len(models))

    def run(model):
        barrier.wait()
        got[model] = [stochastic.mc_moments(model, 0.7, 0.4, cfg, 2).moments()
                      for _ in range(10)]

    threads = [threading.Thread(target=run, args=(m,)) for m in models]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == {m: [want[m]] * 10 for m in models}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_fork_child_maps_on_a_pool_of_its_own():
    # the parent's pool threads do not exist in a fork child: a helper task the child
    # gave the parent's pool never ran, and its caller took every chunk alone
    cfg = McConfig(n_trajectories=4 * 200, seed=2, chunk_size=200)
    want = stochastic.mc_moments(OU, 0.7, 0.4, cfg, 2).moments()  # the parent's pool runs
    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)

    def child():
        both = threading.Barrier(2, timeout=10)

        def on_two_threads(chunk):
            both.wait()  # each of the two chunks waits for the other one's thread
            return threading.get_ident()

        threads = _mc.map_chunks(on_two_threads, McConfig(2, chunk_size=1), 2)
        writer.send((len(set(threads)), stochastic.mc_moments(OU, 0.7, 0.4, cfg, 2).moments()))

    # Python 3.12 warns that a fork of a process with threads may deadlock the child
    warns = pytest.warns(DeprecationWarning) if sys.version_info >= (3, 12) else (
        contextlib.nullcontext())
    with warns:
        proc = context.Process(target=child)
        proc.start()
    try:
        proc.join(timeout=30)
        assert proc.exitcode == 0, "the fork child's map failed or did not finish"
        assert reader.recv() == (2, want)
    finally:
        proc.kill()
        proc.join(timeout=10)
    assert not proc.is_alive()


def test_chunk_size_is_part_of_the_stream_layout():
    a = stochastic.mc_moments(
        OU, 1.0, 0.8, McConfig(n_trajectories=64_000, seed=4, chunk_size=8_000)
    ).cpf()
    b = stochastic.mc_moments(
        OU, 1.0, 0.8, McConfig(n_trajectories=64_000, seed=4, chunk_size=16_000)
    ).cpf()
    c = stochastic.mc_moments(
        OU, 1.0, 0.8, McConfig(n_trajectories=64_000, seed=4, chunk_size=8_000)
    ).cpf()
    assert a != b
    assert a == c


def test_mc_config_validation():
    with pytest.raises(ValueError):
        McConfig(n_trajectories=0)
    with pytest.raises(ValueError):
        McConfig(n_trajectories=10, chunk_size=11)
    with pytest.raises(ValueError):
        McConfig(n_trajectories=10, path_dt=-0.1)
    assert McConfig(n_trajectories=10).chunk_size == 10  # the default, stored
    assert McConfig(n_trajectories=10**6).chunk_size == _mc.DEFAULT_CHUNK_SIZE


@pytest.mark.parametrize("make, name", [
    (lambda: McConfig(10.7), "n_trajectories"),
    (lambda: McConfig(100, chunk_size=10.5), "chunk_size"),
    (lambda: spinbath.LorentzCouplingSpec(1.0, n_spins=2.9), "n_spins"),
    (lambda: spinbath.scaled_gaussian_bath(3.5, 1.0), "n_spins"),
    (lambda: McConfig(10, seed=1.5), "seed"),
    (lambda: McConfig(10, seed=1.9), "seed"),
    (lambda: McConfig(10, seed=math.nan), "seed"),
])
def test_a_count_that_is_not_an_integer_is_rejected_and_named(make, name):
    # these were truncated: 10 trajectories, chunks of 10, 2 spins and 3 spins,
    # and seeds 1.5 and 1.9 both ran seed 1
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got"):
        make()


@pytest.mark.parametrize("make, name, rule", [
    (analytic.White, "gamma_w", "finite and > 0"),
    (lambda v: analytic.ExpCorrGauss(v, 1.0), "g", "finite and > 0"),
    (lambda v: analytic.ExpCorrGauss(1.0, v), "tau_c", "finite and > 0"),
    (analytic.StaticGauss, "g", "finite and > 0"),
    (analytic.StaticLorentz, "gamma", "finite and > 0"),
    (lambda v: analytic.StaticLorentz(1.0, v), "omega", "finite"),
    (lambda v: spinbath.LorentzCouplingSpec(v), "gamma", "finite and > 0"),
    (lambda v: spinbath.LorentzCouplingSpec(1.0, v), "omega", "finite"),
    (lambda v: spinbath.scaled_gaussian_bath(5, v), "g", "finite and > 0"),
    (lambda v: spinbath.scaled_gaussian_bath(5, 1.0, v), "omega", "finite"),
    (lambda v: McConfig(10, path_dt=v), "path_dt", "finite and > 0"),
])
@pytest.mark.parametrize("sign", [1, -1])
def test_an_integer_beyond_the_float_range_is_refused_and_named(make, name, rule, sign):
    # float(10**400) raised a bare "OverflowError: int too large to convert to float"
    with pytest.raises(ValueError, match=f"^{name} must be {rule}, got {'-' * (sign < 0)}10+$"):
        make(sign * 10**400)


def test_a_lorentz_ensemble_of_more_spins_than_the_float_range_is_refused():
    # it was built, and its closed form raised a bare OverflowError
    with pytest.raises(ValueError, match="^n_spins must be finite and > 0, got 10+$"):
        spinbath.LorentzCouplingSpec(1.0, 0.5, n_spins=10**400)
    # the largest integer that converts still has a finite closed form
    n = int(sys.float_info.max) + 2**969
    assert float(n) == sys.float_info.max
    spec = spinbath.LorentzCouplingSpec(1.0, 0.5, n_spins=n, alpha=0.8, beta=0.6)
    assert np.all(np.isfinite(spinbath.lorentz_coherence(spec, np.array([0.0, 1.0, 2.0]))))


@pytest.mark.parametrize("make, error, message", [
    # repr of an integer past 4,300 digits raised "Exceeds the limit (4300 digits)
    # for integer string conversion", which names no argument
    (lambda: analytic.White(10**5000), ValueError,
     "gamma_w must be finite and > 0, got 1.00e+5000"),
    (lambda: analytic.White(-10**5000), ValueError,
     "gamma_w must be finite and > 0, got -1.00e+5000"),
    (lambda: McConfig(10**5000), ValueError,
     "n_trajectories 1.00e+5000 at chunk_size 65536 makes 1.53e+4995 chunks, "
     "over the 65536-chunk limit"),
    (lambda: McConfig(3, chunk_size=10**5000), ValueError,
     "chunk_size must be in [1, n_trajectories], got 1.00e+5000"),
    (lambda: spinbath.LorentzCouplingSpec(10**5000), ValueError,
     "gamma must be finite and > 0, got 1.00e+5000"),
    (lambda: spinbath.scaled_gaussian_bath(10**5000, 1.0), BathTooLarge,
     "N = 1.00e+5000 spins take 3.81e+4995 MiB of couplings and amplitudes, "
     "over the 256 MiB budget"),
    # complex() raised a bare "OverflowError: int too large to convert to float"
    (lambda: spinbath.SystemInit(10**400, 0), ValueError,
     "system amplitudes must satisfy |a|^2+|b|^2=1, got inf"),
    (lambda: spinbath.LorentzCouplingSpec(1.0, alpha=10**400), ValueError,
     "bath spin amplitudes must satisfy |a|^2+|b|^2=1, got inf"),
])
def test_a_refused_integer_too_long_for_repr_or_float_is_named(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()


def test_integral_seeds_keep_the_64_bit_mask():
    assert McConfig(10, seed=0).seed == 0
    assert McConfig(10, seed=3.0).seed == 3 and type(McConfig(10, seed=3.0).seed) is int
    assert McConfig(10, seed=np.int64(7)).seed == 7
    assert McConfig(10, seed=-1).seed == 2**64 - 1
    assert McConfig(10, seed=2**64 + 5).seed == 5


def test_integral_counts_pass_and_counts_below_one_keep_their_messages():
    assert McConfig(10.0, chunk_size=5.0).n_trajectories == 10
    assert type(McConfig(10.0, chunk_size=5.0).chunk_size) is int
    assert spinbath.LorentzCouplingSpec(1.0, n_spins=np.int64(3)).n_spins == 3
    assert spinbath.scaled_gaussian_bath(4.0, 1.0).n_spins == 4
    for make, message in [
        (lambda: McConfig(0), "n_trajectories must be >= 1, got 0"),
        (lambda: McConfig(10, chunk_size=0), "chunk_size must be in [1, n_trajectories], got 0"),
        (lambda: spinbath.LorentzCouplingSpec(1.0, n_spins=0), "n_spins must be >= 1, got 0"),
        (lambda: spinbath.scaled_gaussian_bath(-2, 1.0), "n_spins must be >= 1, got -2"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()


def test_mc_config_bounds_the_chunk_layout():
    most = _mc.MAX_CHUNK_SIZE * _mc.MAX_CHUNKS
    cfg = McConfig(n_trajectories=most, chunk_size=_mc.MAX_CHUNK_SIZE)
    assert len(_mc.chunk_sizes(cfg)) == _mc.MAX_CHUNKS
    with pytest.raises(ValueError, match="chunk_size must be <= 1048576"):
        McConfig(n_trajectories=most, chunk_size=_mc.MAX_CHUNK_SIZE + 1)
    with pytest.raises(ValueError, match="over the 65536-chunk limit"):
        McConfig(n_trajectories=most + 1, chunk_size=_mc.MAX_CHUNK_SIZE)


# ---------------------------------------------------------------------------
# failure modes

def test_empty_postselection_raises():
    # with a single trajectory some seed leaves the y = +1 bin empty
    raised = False
    for seed in range(64):
        try:
            stochastic.mc_cpf_sampling(
                WHITE, 0.5, 0.5, +1, McConfig(n_trajectories=1, seed=seed)
            )
        except EmptyPostselection:
            raised = True
            break
    assert raised


@pytest.mark.parametrize("in_grid", [False, True])
@pytest.mark.parametrize("y_select", core.OUTCOMES)
@pytest.mark.parametrize("model, t, tau, name", [
    (analytic.White(1e200), 1e200, 1.0, "t"),
    (analytic.White(1e200), 1.0, 1e200, "tau"),
    (analytic.StaticGauss(1e200), 1e200, 1.0, "t"),
    (analytic.StaticLorentz(1.0), 1e306, 1.0, "t"),
    (analytic.StaticLorentz(1.0), 1.0, 1e306, "tau"),
])
def test_sampling_refuses_a_phase_that_overflows(model, t, tau, name, y_select, in_grid):
    # u < nan is False: a nan cos 2 theta1 counted its trajectory as y = -1, and a nan
    # cos 2 theta2 its z as -1, silently
    value = t if name == "t" else tau
    with (np.errstate(invalid="ignore", over="ignore"),
          _mc.grid_memo() if in_grid else contextlib.nullcontext(),
          pytest.raises(NonFiniteResult, match=re.escape(
              f"{name} = {value!r} overflows a sampled phase: cos 2 theta is nan"))):
        stochastic.mc_cpf_sampling(model, t, tau, y_select, McConfig(10_000, seed=1))


@pytest.mark.parametrize("call", [
    lambda model: analytic.phase_covariance(model, 1.0, 1.0),
    lambda model: analytic.first_moment(model, 1.0),
    lambda model: analytic.dephasing_rate(model, 1.0),
    lambda model: stochastic.mc_moments(model, 1.0, 1.0, McConfig(10)),
], ids=["phase_covariance", "first_moment", "dephasing_rate", "mc_moments"])
def test_an_object_that_is_no_noise_model_is_refused_by_type(call):
    with pytest.raises(TypeError, match=r"^unknown noise model 'white'$"):
        call("white")


def test_conditional_coherence_rejects_dead_branch():
    # t = 0 pins the middle outcome to y = x, so yx = -1 has zero weight
    cfg = McConfig(n_trajectories=1_000, seed=3)
    with pytest.raises(ZeroProbabilityPostselection):
        stochastic.mc_moments(WHITE, 0.0, 0.5, cfg).conditional_coherence(-1)


def test_negative_times_rejected():
    cfg = McConfig(n_trajectories=100, seed=0)
    with pytest.raises(ValueError):
        stochastic.mc_moments(WHITE, -1.0, 0.5, cfg)
    with pytest.raises(ValueError):
        stochastic.mc_cpf_sampling(WHITE, 0.5, -0.5, +1, cfg)


def test_ou_path_reference_input_checks():
    with pytest.raises(TypeError):
        stochastic.ou_path_reference(WHITE, 1.0, 1.0, McConfig(n_trajectories=10))
    with pytest.raises(StepTooCoarse):
        stochastic.ou_path_reference(
            OU, 1.0, 1.0, McConfig(n_trajectories=10, path_dt=OU.tau_c)
        )


# ---------------------------------------------------------------------------
# discretized-path reference vs its exact discrete law
#
# The one-step update is distributionally exact on the grid, so the phase
# integrals are Gaussian with covariance w^T K w computed from the trapezoid
# weights and the OU kernel on the very grid the sampler uses.  That gives a
# sharp target (MC error only); the continuum formulas then quantify the
# O(dt^2) quadrature bias separately.

def _discrete_moments(model, t, tau, dt):
    g, tc = model.g, model.tau_c

    def seg(length):
        if length == 0.0:
            return 0, 0.0
        n = max(1, math.ceil(length / dt))
        return n, length / n

    n1, dt1 = seg(t)
    n2, dt2 = seg(tau)
    s = np.concatenate([
        np.linspace(0.0, t, n1 + 1),
        t + dt2 * np.arange(1, n2 + 1),
    ])
    w1 = np.zeros(len(s))
    w1[: n1 + 1] = dt1
    w1[0] *= 0.5
    w1[n1] *= 0.5
    w2 = np.zeros(len(s))
    w2[n1:] = dt2
    w2[n1] *= 0.5
    w2[-1] *= 0.5
    kernel = g * g * np.exp(-np.abs(s[:, None] - s[None, :]) / tc)
    v1 = float(w1 @ kernel @ w1)
    v2 = float(w2 @ kernel @ w2)
    cov = float(w1 @ kernel @ w2)
    joint = 0.5 * (
        math.exp(-2.0 * (v1 + v2 + 2.0 * cov)) + math.exp(-2.0 * (v1 + v2 - 2.0 * cov))
    )
    return math.exp(-2.0 * v1), math.exp(-2.0 * v2), joint


def test_ou_path_reference_matches_exact_discrete_law():
    t, tau, dt = 1.0, 0.8, 0.02
    cfg = McConfig(n_trajectories=400_000, seed=61, path_dt=dt)
    want = _discrete_moments(OU, t, tau, dt)
    got = stochastic.ou_path_reference(OU, t, tau, cfg)
    for est, target in zip(got, want):
        assert abs(_pull(est, target)) < 4.0


def test_ou_path_quadrature_bias_is_second_order():
    t, tau = 1.0, 0.8
    cont = analytic.moment_set(OU, t, tau).f_joint
    bias = abs(_discrete_moments(OU, t, tau, 0.02)[2] - cont)
    bias_half = abs(_discrete_moments(OU, t, tau, 0.01)[2] - cont)
    assert bias / bias_half == pytest.approx(4.0, rel=0.15)
    # default step keeps the bias well under the MC error of a typical run
    default_dt = min(OU.tau_c, 1.0 / OU.g) / 50.0
    assert abs(_discrete_moments(OU, t, tau, default_dt)[2] - cont) < 1e-4


def test_ou_path_reference_agrees_with_analytic_moments():
    cfg = McConfig(n_trajectories=200_000, seed=62)
    want = analytic.moment_set(OU, 1.0, 0.8)
    f_t, f_tau, f_joint = stochastic.ou_path_reference(OU, 1.0, 0.8, cfg)
    assert abs(f_t.value - want.f_t) < 4.0 * f_t.std_error + 1e-4
    assert abs(f_tau.value - want.f_tau) < 4.0 * f_tau.std_error + 1e-4
    assert abs(f_joint.value - want.f_joint) < 4.0 * f_joint.std_error + 1e-4


def test_ou_path_reference_zero_time_segments():
    cfg = McConfig(n_trajectories=50_000, seed=63)
    f_t, f_tau, f_joint = stochastic.ou_path_reference(OU, 0.0, 0.5, cfg)
    assert f_t.value == 1.0 and f_t.std_error == 0.0
    assert abs(f_tau.value - analytic.first_moment(OU, 0.5)) < 4.0 * f_tau.std_error + 1e-4
    assert f_joint.value == f_tau.value
