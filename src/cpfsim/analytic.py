"""Closed-form dephasing moments for stationary classical noise models.

A dephasing qubit driven by stationary noise xi(t) accumulates the random
phase theta = integral of xi between measurements.  Every observable of the
three-measurement protocol reduces to three noise averages,

    f(t)     = E[cos 2 theta1]               first-interval moment,
    f'(tau)  = E[cos 2 theta2] = f(tau)      second interval (stationarity),
    f(t,tau) = E[cos 2 theta1 cos 2 theta2]  joint moment,

with theta1 = int_0^t xi dt' and theta2 = int_t^{t+tau} xi dt'.  Models:

    White(gamma_w)         chi(dt) = gamma_w delta(dt)
        f(t) = exp(-2 gamma_w t),   f(t,tau) = f(t) f(tau)
    ExpCorrGauss(g, tau_c) chi(dt) = g^2 exp(-|dt|/tau_c)   (OU noise)
        f(t) = exp{-4 (tau_c g)^2 [t/tau_c - (1 - e^{-t/tau_c})]}
        f(t,tau) = f(t) f(tau) cosh(phi),
        phi = 4 (tau_c g)^2 (1 - e^{-t/tau_c})(1 - e^{-tau/tau_c})
    StaticGauss(g)         chi(dt) = g^2   (frozen Gaussian frequency)
        f(t) = exp(-2 (g t)^2),     f(t,tau) = [f(t+tau) + f(t-tau)] / 2
    StaticLorentz(gamma, omega)   frozen Cauchy frequency; chi undefined
        f(t) = exp(-gamma |t|) cos(omega t)
        f(t,tau) = [e^{-gamma|t+tau|} cos(omega (t+tau))
                    + e^{-gamma|t-tau|} cos(omega (t-tau))] / 2

From the moments: C_pf = f(t,tau) - f(t) f(tau) and the post-measurement
conditional coherence c^{yx} = [f(tau) + yx f(t,tau)] / [1 + yx f(t)].

All operations are pure functions of the frozen model dataclasses.  The
moment functions and everything built on them take scalar or array times
that broadcast against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from ._mc import check_real, check_times
from .errors import UndefinedCorrelation


@dataclass(frozen=True)
class White:
    """Delta-correlated (Markovian) noise with rate weight gamma_w."""

    gamma_w: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma_w", check_real(self.gamma_w, "gamma_w"))


@dataclass(frozen=True)
class ExpCorrGauss:
    """Gaussian noise with exponential autocorrelation (OU process).

    g is the stationary amplitude (chi(0) = g^2), tau_c the correlation time.
    """

    g: float
    tau_c: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "g", check_real(self.g, "g"))
        object.__setattr__(self, "tau_c", check_real(self.tau_c, "tau_c"))


@dataclass(frozen=True)
class StaticGauss:
    """Frozen Gaussian random frequency: xi constant per realization."""

    g: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "g", check_real(self.g, "g"))


@dataclass(frozen=True)
class StaticLorentz:
    """Frozen Cauchy random frequency with half-width gamma/2, center omega/2.

    The frequency 2*gtilde of the accumulated phase is distributed so that
    E exp(2 i gtilde t) = exp(i omega t) exp(-gamma |t|).
    """

    gamma: float
    omega: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", check_real(self.gamma, "gamma"))
        object.__setattr__(self, "omega", check_real(self.omega, "omega", positive=False))


NoiseModel = White | ExpCorrGauss | StaticGauss | StaticLorentz


def _h(u):
    # h(u) = u - (1 - e^{-u}) = u + expm1(-u), accurate for small u.
    return u + np.expm1(-u)


def phase_covariance(model: NoiseModel, t: float, tau: float) -> tuple[float, float, float]:
    """(Var theta1, Var theta2, Cov) of the two integrated phases.

    theta1 integrates the noise over [0, t], theta2 over [t, t + tau].  These
    are the double integrals of chi over the corresponding rectangles:

        White:        (gamma_w t, gamma_w tau, 0)
        ExpCorrGauss: Var = 2 g^2 tau_c^2 h(s/tau_c), h(u) = u - 1 + e^{-u}
                      Cov = g^2 tau_c^2 (1-e^{-t/tau_c})(1-e^{-tau/tau_c})
        StaticGauss:  (g^2 t^2, g^2 tau^2, g^2 t tau)

    The Gaussian moments follow as E cos 2theta1 = exp(-2 Var theta1) and
    E cos 2theta1 cos 2theta2
        = [exp(-2 Var(theta1+theta2)) + exp(-2 Var(theta1-theta2))] / 2.

    Raises UndefinedCorrelation for StaticLorentz.
    """
    t, tau = float(check_times(t, "t")), float(check_times(tau, "tau"))
    match model:
        case White(gamma_w=gw):
            return gw * t, gw * tau, 0.0
        case ExpCorrGauss(g=g, tau_c=tc):
            # math.expm1 rather than _h: the Monte Carlo samplers draw with
            # these variances, and their output bits must not move
            a = g * g * tc * tc
            var1 = 2.0 * a * (t / tc + math.expm1(-t / tc))
            var2 = 2.0 * a * (tau / tc + math.expm1(-tau / tc))
            cov = a * (-math.expm1(-t / tc)) * (-math.expm1(-tau / tc))
            return var1, var2, cov
        case StaticGauss(g=g):
            return g * g * t * t, g * g * tau * tau, g * g * t * tau
        case StaticLorentz():
            raise UndefinedCorrelation(
                "Cauchy-distributed frequency has no phase covariance"
            )
    raise TypeError(f"unknown noise model {model!r}")


def first_moment(model: NoiseModel, s):
    """f(s) = E[cos 2 theta] over one interval of length s; f(0) = 1.

    Takes a scalar or an array of times and returns the same shape.
    """
    return _first_moment(model, check_times(s, "s"))


def _first_moment(model: NoiseModel, s):
    # s is checked by the caller; the static models also take s = t - tau < 0 (f is even)
    match model:
        case White(gamma_w=gw):
            return np.exp(-2.0 * gw * s)
        case ExpCorrGauss(g=g, tau_c=tc):
            with np.errstate(over="ignore"):  # -inf at huge s: f -> 0, as intended
                return np.exp(-4.0 * (tc * g) ** 2 * _h(s / tc))
        case StaticGauss(g=g):
            # np.square: a 0-d ** 2 can round differently from the array path
            return np.exp(-2.0 * np.square(g * s))
        case StaticLorentz(gamma=gamma, omega=omega):
            s = np.abs(s)
            return np.exp(-gamma * s) * np.cos(omega * s)
    raise TypeError(f"unknown noise model {model!r}")


def moment_set(model: NoiseModel, t, tau) -> core.MomentSet:
    """The protocol MomentSet (f_t, f_tau, f_joint) for this model.

    t and tau are scalars or arrays that broadcast against each other.  The
    joint moment f(t, tau) is built from f(t) and f(tau) (White: their literal
    product, so the connected combination cancels to exactly 0.0; OU: its
    log-space form) or, for the static models, from f at t + tau and t - tau.
    """
    t, tau = check_times(t, "t"), check_times(tau, "tau")
    with np.errstate(over="ignore"):  # an overflowing sum raises, named, instead
        t_plus_tau = check_times(t + tau, "t + tau")
    f_t, f_tau = _first_moment(model, t), _first_moment(model, tau)
    match model:
        case White():
            f_joint = f_t * f_tau
        case ExpCorrGauss(g=g, tau_c=tc):
            a = (tc * g) ** 2
            phi = 4.0 * a * (-np.expm1(-t / tc)) * (-np.expm1(-tau / tc))
            # log-space combination avoids 0 * inf from underflow * cosh overflow
            with np.errstate(over="ignore"):  # -inf at huge times, as in _first_moment
                log_ff = -4.0 * a * (_h(t / tc) + _h(tau / tc))
            joint = 0.5 * (np.exp(log_ff + phi) + np.exp(log_ff - phi))
            # t = 0 or tau = 0: factorize exactly so cpf cancels to 0.0
            f_joint = np.where(phi == 0.0, f_t * f_tau, joint)[()]
        case StaticGauss() | StaticLorentz():
            f_joint = 0.5 * (_first_moment(model, t_plus_tau) + _first_moment(model, t - tau))
    return core.MomentSet(f_t=f_t, f_tau=f_tau, f_joint=f_joint)


def cpf(model: NoiseModel, t, tau):
    """Conditional past-future correlation C_pf(t, tau) = f(t,tau) - f(t) f(tau).

    Identically zero for White; non-negative for the other three models with
    omega = 0 (their joint moments dominate the factorized product).
    """
    return core.cpf_from_moments(moment_set(model, t, tau))


def conditional_coherence(model: NoiseModel, t, tau, yx: int):
    """Coherence after the second measurement, conditioned on the product yx.

    c^{yx}(t,tau) = [f(tau) + yx f(t,tau)] / [1 + yx f(t)].  The deviation
    from the unconditional f(tau) is the measurement back action; it vanishes
    for White noise, where this returns exactly f(tau) for both yx.
    """
    return core.conditional_coherence(moment_set(model, t, tau), yx)


def dephasing_rate(model: NoiseModel, t):
    """Instantaneous dephasing rate gamma(t) = -d/dt ln f(t), scalar or array t.

    White: 2 gamma_w.  StaticGauss: 4 g^2 t.  ExpCorrGauss:
    4 g^2 tau_c (1 - e^{-t/tau_c}).  StaticLorentz: gamma + omega tan(omega t)
    (constant gamma for omega = 0; diverges where the cosine envelope crosses
    zero, i.e. where the coherence itself vanishes).
    """
    t = check_times(t, "t")
    match model:
        case White(gamma_w=gw):
            return np.full_like(t, 2.0 * gw)[()]
        case ExpCorrGauss(g=g, tau_c=tc):
            return 4.0 * g * g * tc * (-np.expm1(-t / tc))
        case StaticGauss(g=g):
            return 4.0 * g * g * t
        case StaticLorentz(gamma=gamma, omega=omega):
            return gamma + omega * np.tan(omega * t)
    raise TypeError(f"unknown noise model {model!r}")
