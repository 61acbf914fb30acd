"""Conditional past-future (CPF) correlations of a dephasing qubit.

Subpackages:
    core        moment sets, probability tables, C_pf and coherence combinators
    analytic    closed-form moments for four stationary noise models
    spinbath    exact finite-N spin bath, Cauchy ensemble, statevector oracle
    stochastic  exact-phase Monte Carlo estimators and the OU path oracle
    cli         JSON-config command line front end (cpfsim run/compare/...)
"""

from . import analytic, core, errors, spinbath, stochastic

__version__ = "0.9.0"

__all__ = ["analytic", "core", "errors", "spinbath", "stochastic", "__version__"]
