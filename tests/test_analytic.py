"""Closed-form noise models against independent numerical oracles.

The Gaussian-family moments are checked against direct quadrature over the
phase distribution (Gauss-Hermite for static disorder, double integration of
the correlation kernel for the phase variance) and the Cauchy-disorder
moments against a frozen-seed Monte Carlo over the frequency distribution.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from cpfsim import analytic, core
from cpfsim.errors import UndefinedCorrelation

ALL_MODELS = (
    analytic.White(0.8),
    analytic.ExpCorrGauss(1.2, 0.7),
    analytic.StaticGauss(0.9),
    analytic.StaticLorentz(0.6, 1.1),
)


def models_strategy():
    whites = st.builds(analytic.White, st.floats(0.05, 3.0))
    ous = st.builds(analytic.ExpCorrGauss, st.floats(0.05, 3.0), st.floats(0.05, 5.0))
    gauss = st.builds(analytic.StaticGauss, st.floats(0.05, 3.0))
    lorentz = st.builds(
        analytic.StaticLorentz, st.floats(0.05, 3.0), st.floats(-2.0, 2.0)
    )
    return st.one_of(whites, ous, gauss, lorentz)


# ---------------------------------------------------------------------------
# parameter validation

def test_model_parameter_validation():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            analytic.White(bad)
        with pytest.raises(ValueError):
            analytic.StaticGauss(bad)
        with pytest.raises(ValueError):
            analytic.ExpCorrGauss(bad, 1.0)
        with pytest.raises(ValueError):
            analytic.ExpCorrGauss(1.0, bad)
        with pytest.raises(ValueError):
            analytic.StaticLorentz(bad)
    with pytest.raises(ValueError):
        analytic.first_moment(analytic.White(1.0), -0.5)


@pytest.mark.parametrize("g, tau_c", [(1e100, 1e100), (1.0, 1e154), (1e200, 1e-40)])
def test_ou_closed_forms_name_a_scale_that_overflows(g, tau_c):
    # (tau_c g)^2 raised a bare "OverflowError: (34, 'Numerical result out of
    # range')" at the first pair; 4 (tau_c g)^2 was -inf (a NaN f at s = 0) at
    # the second, and g * g was inf at the third
    model = analytic.ExpCorrGauss(g, tau_c)
    message = "^" + re.escape(f"g = {g!r}, tau_c = {tau_c!r} overflow the OU scale 4 (tau_c g)^2; ")
    for evaluate in (lambda: analytic.moment_set(model, 1.0, 1.0),
                     lambda: analytic.first_moment(model, 0.0),
                     lambda: analytic.cpf(model, 1.0, 0.5)):
        with pytest.raises(ValueError, match=message):
            evaluate()
    # below the limit the closed forms run
    assert analytic.first_moment(analytic.ExpCorrGauss(1.0, 1e153), 0.0) == 1.0


# ---------------------------------------------------------------------------
# phase covariance vs direct kernel integration

@pytest.mark.parametrize("t,tau", [(0.4, 0.9), (1.3, 0.2), (2.0, 2.0)])
def test_ou_phase_covariance_against_kernel_quadrature(t, tau):
    g, tau_c = 1.1, 0.8
    model = analytic.ExpCorrGauss(g, tau_c)

    def kernel(a, b):
        return g * g * math.exp(-abs(a - b) / tau_c)

    def var_quad(a, b):
        # fold the |s - s'| kink away: 2 * integral over the ordered wedge
        ordered = lambda sp, s: g * g * math.exp(-(s - sp) / tau_c)
        val, _ = integrate.dblquad(ordered, a, b, a, lambda s: s, epsabs=1e-12)
        return 2.0 * val

    var1_q = var_quad(0.0, t)
    var2_q = var_quad(t, t + tau)
    cov_q, _ = integrate.dblquad(kernel, 0.0, t, t, t + tau, epsabs=1e-12)
    var1, var2, cov = analytic.phase_covariance(model, t, tau)
    assert var1 == pytest.approx(var1_q, abs=1e-10)
    assert var2 == pytest.approx(var2_q, abs=1e-10)
    assert cov == pytest.approx(cov_q, abs=1e-10)


def test_white_phase_covariance():
    model = analytic.White(0.7)
    var1, var2, cov = analytic.phase_covariance(model, 1.5, 0.5)
    assert var1 == pytest.approx(0.7 * 1.5)  # gamma_w t
    assert var2 == pytest.approx(0.7 * 0.5)
    assert cov == 0.0


def test_static_gauss_phase_covariance():
    model = analytic.StaticGauss(0.9)
    var1, var2, cov = analytic.phase_covariance(model, 1.5, 0.5)
    assert var1 == pytest.approx(0.81 * 1.5**2)
    assert var2 == pytest.approx(0.81 * 0.5**2)
    assert cov == pytest.approx(0.81 * 1.5 * 0.5)


def test_lorentz_phase_covariance_undefined():
    with pytest.raises(UndefinedCorrelation):
        analytic.phase_covariance(analytic.StaticLorentz(1.0), 1.0, 1.0)


def test_first_moment_equals_gaussian_phase_average():
    # E[cos 2 theta] = exp(-2 Var theta) for centered Gaussian theta
    for model in (analytic.White(0.8), analytic.ExpCorrGauss(1.2, 0.7), analytic.StaticGauss(0.9)):
        for t in (0.3, 1.0, 2.4):
            var1, _, _ = analytic.phase_covariance(model, t, 1.0)
            assert analytic.first_moment(model, t) == pytest.approx(
                math.exp(-2.0 * var1), rel=1e-12
            )


# ---------------------------------------------------------------------------
# static Gaussian joint moment vs Gauss-Hermite quadrature

def _hermite_joint(g, t, tau):
    # E[cos(2 xi t) cos(2 xi tau)] with xi ~ N(0, g^2)
    nodes, weights = np.polynomial.hermite_e.hermegauss(120)
    xi = g * nodes
    vals = np.cos(2.0 * xi * t) * np.cos(2.0 * xi * tau)
    return float(weights @ vals / math.sqrt(2.0 * math.pi))


@pytest.mark.parametrize("t,tau", [(0.3, 0.3), (0.7, 0.4), (1.1, 0.9)])
def test_static_gauss_joint_matches_quadrature(t, tau):
    g = 0.9
    model = analytic.StaticGauss(g)
    quad = _hermite_joint(g, t, tau)
    assert analytic.moment_set(model, t, tau).f_joint == pytest.approx(quad, abs=1e-12)


def test_static_gauss_joint_needs_the_half():
    # Without the 1/2 in [f(t+tau) + f(t-tau)]/2 the quadrature is missed
    # by a wide margin; this pins the corrected closed form.
    g, t, tau = 0.9, 0.7, 0.4
    quad = _hermite_joint(g, t, tau)
    unhalved = analytic.first_moment(analytic.StaticGauss(g), t + tau) + analytic.first_moment(
        analytic.StaticGauss(g), abs(t - tau)
    )
    assert abs(unhalved - quad) > 0.4
    assert abs(analytic.moment_set(analytic.StaticGauss(g), t, tau).f_joint - quad) < 1e-12


# ---------------------------------------------------------------------------
# static Lorentzian moments vs frozen Cauchy Monte Carlo

def _cauchy_mc_moments(gamma, omega, t, tau, n=2_000_000, seed=42):
    rng = np.random.default_rng(seed)
    xi = 0.5 * omega + 0.5 * gamma * np.tan(math.pi * (rng.random(n) - 0.5))
    a = np.cos(2.0 * xi * t)
    b = np.cos(2.0 * xi * tau)
    def stat(v):
        return float(v.mean()), float(v.std(ddof=1) / math.sqrt(n))
    return stat(a), stat(b), stat(a * b)


def test_static_lorentz_moments_match_cauchy_average():
    gamma, omega, t, tau = 0.6, 1.1, 0.8, 0.5
    model = analytic.StaticLorentz(gamma, omega)
    (fa, sa), (fb, sb), (fj, sj) = _cauchy_mc_moments(gamma, omega, t, tau)
    assert analytic.first_moment(model, t) == pytest.approx(fa, abs=4 * sa)
    assert analytic.first_moment(model, tau) == pytest.approx(fb, abs=4 * sb)
    assert analytic.moment_set(model, t, tau).f_joint == pytest.approx(fj, abs=4 * sj)


def test_static_lorentz_first_moment_form():
    model = analytic.StaticLorentz(0.6, 1.1)
    for t in (0.0, 0.4, 2.3):
        assert analytic.first_moment(model, t) == pytest.approx(
            math.exp(-0.6 * t) * math.cos(1.1 * t), rel=1e-14
        )


# ---------------------------------------------------------------------------
# limits and structure of the OU family

def test_ou_white_noise_limit():
    # tau_c -> 0 at fixed gamma_w = 2 g^2 tau_c
    t = 1.3
    for tau_c in (1e-3, 1e-5):
        g = math.sqrt(0.5 / tau_c)
        f = analytic.first_moment(analytic.ExpCorrGauss(g, tau_c), t)
        assert f == pytest.approx(math.exp(-2.0 * t), abs=2e-3 * tau_c / 1e-3 + 1e-7)


def test_ou_static_limit():
    t, tau = 0.9, 0.6
    model = analytic.ExpCorrGauss(1.0, 1e6)
    static = analytic.StaticGauss(1.0)
    assert analytic.first_moment(model, t) == pytest.approx(
        analytic.first_moment(static, t), abs=1e-5
    )
    assert analytic.moment_set(model, t, tau).f_joint == pytest.approx(
        analytic.moment_set(static, t, tau).f_joint, abs=1e-5
    )


def test_ou_joint_moment_log_space_stability():
    # deep-decay regime where f underflows to ~1e-290: no overflow, no nan
    model = analytic.ExpCorrGauss(4.0, 20.0)
    val = analytic.moment_set(model, 30.0, 30.0).f_joint
    assert math.isfinite(val) and 0.0 <= val <= 1.0


# ---------------------------------------------------------------------------
# assembled quantities

@given(models_strategy(), st.floats(0.0, 4.0), st.floats(0.0, 4.0))
def test_moment_set_within_joint_bounds(model, t, tau):
    m = analytic.moment_set(model, t, tau)
    lo, hi = core.joint_moment_bounds(m.f_t, m.f_tau)
    assert lo - 1e-12 <= m.f_joint <= hi + 1e-12


@given(models_strategy(), st.floats(0.0, 4.0), st.floats(0.0, 4.0),
       st.sampled_from([+1, -1]))
def test_cpf_consistent_with_table(model, t, tau, y):
    table = core.cpf_probability_table(analytic.moment_set(model, t, tau), y)
    assert analytic.cpf(model, t, tau) == pytest.approx(
        core.cpf_from_moments(table.moment_set()), abs=1e-12
    )


@given(models_strategy(), st.floats(0.0, 4.0))
def test_cpf_vanishes_on_axes(model, s):
    assert analytic.cpf(model, s, 0.0) == 0.0
    assert analytic.cpf(model, 0.0, s) == 0.0
    # the same points inside an array evaluation
    grid = np.array([0.0, s, 2.0 * s + 0.5])
    assert np.all(analytic.cpf(model, grid, 0.0) == 0.0)
    assert np.all(analytic.cpf(model, 0.0, grid) == 0.0)


def test_white_cpf_identically_zero():
    model = analytic.White(1.0)
    t, tau = np.meshgrid(np.linspace(0.0, 3.0, 40), np.linspace(0.0, 3.0, 7), indexing="ij")
    assert np.all(analytic.cpf(model, t, tau) == 0.0)
    for i, j in ((0, 0), (13, 4), (39, 6)):
        assert analytic.cpf(model, t[i, j], tau[i, j]) == 0.0


def test_gaussian_family_cpf_nonnegative():
    for model in (analytic.ExpCorrGauss(1.0, 1.0), analytic.StaticGauss(1.0),
                  analytic.StaticLorentz(1.0)):
        for t in np.linspace(0.0, 3.0, 15):
            for tau in np.linspace(0.0, 3.0, 15):
                assert analytic.cpf(model, t, tau) >= -1e-15


def test_static_gauss_plateau_value():
    model = analytic.StaticGauss(1.0)
    assert analytic.cpf(model, 3.0, 3.0) == pytest.approx(0.5, abs=1e-7)


def test_conditional_coherence_white_is_memoryless():
    model = analytic.White(0.9)
    for yx in (+1, -1):
        got = analytic.conditional_coherence(model, 0.8, 0.5, yx)
        assert got == pytest.approx(analytic.first_moment(model, 0.5), rel=1e-12)


def test_conditional_coherence_impossible_postselection():
    from cpfsim.errors import ZeroProbabilityPostselection

    with pytest.raises(ZeroProbabilityPostselection):
        analytic.conditional_coherence(analytic.StaticGauss(1.0), 0.0, 0.5, -1)


# ---------------------------------------------------------------------------
# dephasing rates vs finite differences of -d/dt ln f

def _fd_rate(model, t, h=1e-6):
    lo = analytic.first_moment(model, t - h)
    hi = analytic.first_moment(model, t + h)
    return (math.log(lo) - math.log(hi)) / (2.0 * h)


@pytest.mark.parametrize("model", [
    analytic.White(1.3),
    analytic.ExpCorrGauss(1.1, 0.7),
    analytic.StaticGauss(0.8),
    analytic.StaticLorentz(0.7),
])
def test_rate_matches_finite_difference(model):
    rng = np.random.default_rng(7)
    for t in rng.uniform(0.05, 2.5, size=20):
        assert analytic.dephasing_rate(model, t) == pytest.approx(
            _fd_rate(model, float(t)), rel=1e-5
        )


def test_lorentz_rate_with_detuning():
    # f = e^{-gamma t} cos(omega t) while cos > 0, so
    # -d/dt ln f = gamma + omega tan(omega t)
    model = analytic.StaticLorentz(0.7, 0.9)
    for t in (0.2, 0.8, 1.4):
        assert analytic.dephasing_rate(model, t) == pytest.approx(
            _fd_rate(model, t), rel=1e-5
        )


def test_rate_limits():
    assert analytic.dephasing_rate(analytic.White(1.3), 2.0) == pytest.approx(2.6)
    # OU rate saturates at 4 g^2 tau_c = 2 gamma_w_equivalent for t >> tau_c
    model = analytic.ExpCorrGauss(1.1, 0.4)
    assert analytic.dephasing_rate(model, 50.0) == pytest.approx(
        4 * 1.1**2 * 0.4, rel=1e-6
    )
    # and grows linearly (static-like) for t << tau_c
    assert analytic.dephasing_rate(model, 1e-4) == pytest.approx(
        4 * 1.1**2 * 1e-4, rel=1e-3
    )
