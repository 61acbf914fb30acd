"""Model-independent table and moment machinery."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cpfsim import _mc, analytic, core, spinbath, stochastic
from cpfsim.errors import (
    CpfError,
    InvalidMomentSet,
    InvalidProbabilityTable,
    NonFiniteResult,
    ZeroProbabilityPostselection,
)


def moments_strategy():
    """Valid (f_t, f_tau, f_joint) triples, biased toward the boundary."""

    @st.composite
    def build(draw):
        f_t = draw(st.floats(-1.0, 1.0))
        f_tau = draw(st.floats(-1.0, 1.0))
        lo, hi = core.joint_moment_bounds(f_t, f_tau)
        frac = draw(st.floats(0.0, 1.0))
        return core.MomentSet(f_t, f_tau, lo + frac * (hi - lo))

    return build()


def test_outcome_validation():
    assert core.validate_outcome(1, "x") == 1
    assert core.validate_outcome(-1, "x") == -1
    for bad in (0, 2, -2, 0.5):
        with pytest.raises(ValueError):
            core.validate_outcome(bad, "x")


# every caller of validate_outcome, with its argument name
OUTCOME_CALLERS = [
    ("y_select", lambda v: stochastic.mc_cpf_sampling(
        analytic.White(0.5), 0.4, 0.3, v, _mc.McConfig(10))),
    ("y", lambda v: spinbath.oracle_protocol(
        spinbath.SpinBathSpec([0.5]), spinbath.SystemInit.plus(), 0.4, 0.3, v)),
    ("y", lambda v: core.cpf_probability_table(core.MomentSet(0.5, 0.5, 0.5), v)),
    ("yx", lambda v: _mc.MomentStats(2, np.array([1.0, 1.0, 1.0]), np.zeros((3, 3)))
     .conditional_coherence(v)),
]


CALLER_IDS = ["mc_cpf_sampling", "oracle_protocol", "cpf_probability_table",
              "MomentStats.conditional_coherence"]
# None, nan, inf, lists and bools, and numbers that are not +-1, as their messages show them
NO_OUTCOMES = [(v, repr(v)) for v in (None, math.nan, math.inf, -math.inf, [1], [1, -1], True,
                                      False, np.True_, "1", 0, 2, 0.5)] + [(10**5000, "1.00e+5000")]


@pytest.mark.parametrize("name, call", OUTCOME_CALLERS, ids=CALLER_IDS)
@pytest.mark.parametrize("bad, shown", NO_OUTCOMES, ids=[shown for _, shown in NO_OUTCOMES])
def test_each_caller_refuses_a_value_that_is_no_outcome_by_name(name, call, bad, shown):
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be +1 or -1, got {shown}')}$"):
        call(bad)


@pytest.mark.parametrize("name, call", OUTCOME_CALLERS, ids=CALLER_IDS)
def test_each_caller_takes_an_outcome_as_an_int_or_a_float(name, call):
    # 1.0 and -1.0 are the outcomes; so are numpy's integers
    for outcome in (1, -1.0, np.int64(1)):
        call(outcome)


def test_joint_moment_bounds_known_values():
    assert core.joint_moment_bounds(0.0, 0.0) == (-1.0, 1.0)
    assert core.joint_moment_bounds(1.0, 1.0) == (1.0, 1.0)
    assert core.joint_moment_bounds(1.0, -1.0) == (-1.0, -1.0)
    lo, hi = core.joint_moment_bounds(0.5, 0.25)
    assert lo == -1.0 + 0.75 and hi == 1.0 - 0.25


@given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_joint_moment_bounds_ordered_and_within_unit(f_t, f_tau):
    lo, hi = core.joint_moment_bounds(f_t, f_tau)
    assert -1.0 <= lo <= hi <= 1.0


def test_moment_set_rejects_out_of_range():
    with pytest.raises(InvalidMomentSet):
        core.MomentSet(1.5, 0.0, 0.0)
    with pytest.raises(InvalidMomentSet):
        core.MomentSet(0.0, math.nan, 0.0)
    with pytest.raises(InvalidMomentSet):
        core.MomentSet(0.0, 0.0, -2.0)
    with pytest.raises(InvalidMomentSet, match="1.5"):
        core.MomentSet(np.array([0.2, 1.5]), 0.0, 0.0)


def test_table_requires_consistent_moments():
    # f_joint far outside the compatibility window implies a negative entry
    m = core.MomentSet(0.9, 0.9, -0.9)
    with pytest.raises(InvalidMomentSet):
        core.cpf_probability_table(m, +1)


def marginals(entries):
    """P(x|y) and P(z|y) of a table's entries, each as outcome -> probability."""
    marginal_x = {x: entries[(+1, x)] + entries[(-1, x)] for x in core.OUTCOMES}
    marginal_z = {z: entries[(z, +1)] + entries[(z, -1)] for z in core.OUTCOMES}
    return marginal_x, marginal_z


def table_cpf(table):
    return core.cpf_from_moments(table.moment_set())


@given(moments_strategy(), st.sampled_from([+1, -1]))
def test_table_normalized_and_in_range(m, y):
    table = core.cpf_probability_table(m, y)
    assert abs(sum(table.entries.values()) - 1.0) <= core.NORMALIZATION_TOL
    assert all(0.0 <= p <= 1.0 for p in table.entries.values())
    marginal_x, marginal_z = marginals(table.entries)
    for marginal in (marginal_x, marginal_z):
        assert all(0.0 <= p <= 1.0 + 1e-15 for p in marginal.values())
        assert abs(marginal[+1] + marginal[-1] - 1.0) <= core.NORMALIZATION_TOL
    # the recovered f_t and f_tau are y times the marginals' differences, bitwise
    got = table.moment_set()
    assert got.f_t == y * (marginal_x[+1] - marginal_x[-1])
    assert got.f_tau == y * (marginal_z[+1] - marginal_z[-1])


@given(moments_strategy(), st.sampled_from([+1, -1]))
def test_moment_recovery_round_trip(m, y):
    got = core.cpf_probability_table(m, y).moment_set()
    assert got.f_t == pytest.approx(m.f_t, abs=1e-14)
    assert got.f_tau == pytest.approx(m.f_tau, abs=1e-14)
    assert got.f_joint == pytest.approx(m.f_joint, abs=1e-14)


@given(moments_strategy())
def test_cpf_invariant_under_y_relabeling(m):
    plus = table_cpf(core.cpf_probability_table(m, +1))
    minus = table_cpf(core.cpf_probability_table(m, -1))
    assert plus == minus  # bitwise, by construction of the recovery


@given(moments_strategy(), st.sampled_from([+1, -1]))
def test_table_cpf_matches_moment_form(m, y):
    table = core.cpf_probability_table(m, y)
    recovered = table.moment_set()
    assert table_cpf(table) == recovered.f_joint - recovered.f_t * recovered.f_tau
    assert table_cpf(table) == pytest.approx(core.cpf_from_moments(m), abs=1e-14)


@given(st.lists(moments_strategy(), min_size=1, max_size=6), st.sampled_from([+1, -1]))
def test_array_table_equals_scalar_tables(ms, y):
    stacked = core.MomentSet(
        *(np.array([getattr(m, name) for m in ms]) for name in ("f_t", "f_tau", "f_joint"))
    )
    table = core.cpf_probability_table(stacked, y)
    recovered = table.moment_set()
    cpf = core.cpf_from_moments(stacked)
    for i, m in enumerate(ms):
        one = core.cpf_probability_table(m, y)
        assert all(table.entries[key].shape == (len(ms),) for key in one.entries)
        assert all(table.entries[key][i].hex() == p.hex() for key, p in one.entries.items())
        for name in ("f_t", "f_tau", "f_joint"):
            assert getattr(recovered, name)[i].hex() == getattr(one.moment_set(), name).hex()
        assert table_cpf(table)[i] == table_cpf(one)
        assert cpf[i] == core.cpf_from_moments(m)


def test_conditional_coherence_rejects_any_dead_point():
    m = core.MomentSet(np.array([0.5, -1.0]), np.array([0.2, 0.1]), np.array([0.1, -0.1]))
    assert list(core.conditional_coherence(m, -1)) == [(0.2 - 0.1) / 0.5, (0.1 + 0.1) / 2.0]
    with pytest.raises(ZeroProbabilityPostselection):
        core.conditional_coherence(m, +1)


def test_cpf_from_moments_value():
    m = core.MomentSet(0.5, 0.25, 0.4)
    assert core.cpf_from_moments(m) == 0.4 - 0.5 * 0.25


def test_table_constructor_validation():
    good = {(+1, +1): 0.25, (+1, -1): 0.25, (-1, +1): 0.25, (-1, -1): 0.25}
    core.CpfProbabilityTable(y=+1, entries=good)
    with pytest.raises(InvalidProbabilityTable):
        core.CpfProbabilityTable(y=+1, entries={(+1, +1): 1.0})
    bad_sum = {**good, (+1, +1): 0.5}
    with pytest.raises(InvalidProbabilityTable):
        core.CpfProbabilityTable(y=+1, entries=bad_sum)
    negative = {**good, (+1, +1): -0.25, (+1, -1): 0.75}
    with pytest.raises(InvalidProbabilityTable):
        core.CpfProbabilityTable(y=+1, entries=negative)
    # rounding just past [0, 1] is clipped, as in cpf_probability_table; past ENTRY_TOL it is
    # an error
    over = {(+1, +1): 1.0 + 2**-52, (+1, -1): 0.0, (-1, +1): -1e-17, (-1, -1): 0.0}
    table = core.CpfProbabilityTable(y=+1, entries=over)
    assert table.entries == {(+1, +1): 1.0, (+1, -1): 0.0, (-1, +1): 0.0, (-1, -1): 0.0}
    for key, bad in [((+1, +1), 1.0 + 2e-9), ((-1, +1), -2e-9), ((-1, +1), math.nan)]:
        with pytest.raises(InvalidProbabilityTable, match="out of"):
            core.CpfProbabilityTable(y=+1, entries={**over, key: bad})
    # entries inside [0, 1] keep their bits, the sign of a zero included
    inside = {(+1, +1): 0.1 + 0.2, (+1, -1): -0.0, (-1, +1): 0.7 - 2**-53, (-1, -1): 0.0}
    kept = core.CpfProbabilityTable(y=-1, entries=inside).entries
    assert [v.hex() for v in kept.values()] == [v.hex() for v in inside.values()]


def test_array_table_constructor_validation():
    # the same checks pointwise on arrays: points 0 and 2 are good, point 1 is clipped
    over = {(+1, +1): [0.25, 1.0 + 2**-52, 0.1 + 0.2], (+1, -1): [0.25, 0.0, -0.0],
            (-1, +1): [0.25, -1e-17, 0.7 - 2**-53], (-1, -1): [0.25, 0.0, 0.0]}
    table = core.CpfProbabilityTable(y=+1, entries=over)
    want = {(+1, +1): [0.25, 1.0, 0.1 + 0.2], (+1, -1): [0.25, 0.0, -0.0],
            (-1, +1): [0.25, 0.0, 0.7 - 2**-53], (-1, -1): [0.25, 0.0, 0.0]}
    for key, values in want.items():
        assert table.entries[key].dtype == np.float64 and table.entries[key].shape == (3,)
        assert [v.hex() for v in table.entries[key].tolist()] == [v.hex() for v in values]
    # the first bad value of an entry is named, NaN included
    for key, bad, text in [((+1, +1), [0.25, 1.0 + 2e-9, 2.0], "1.000000002"),
                           ((-1, +1), [-3e-9, 0.0, -2e-9], "-3e-09"),
                           ((-1, +1), [0.25, math.nan, -1.0], "nan")]:
        message = re.escape(f"P(z={key[0]:+d}, x={key[1]:+d} | y=+1) = {text}, out of [0, 1]")
        with pytest.raises(InvalidProbabilityTable, match=message):
            core.CpfProbabilityTable(y=+1, entries={**over, key: bad})
    with pytest.raises(InvalidProbabilityTable, match=re.escape("entries sum to 1.25, not 1")):
        core.CpfProbabilityTable(y=+1, entries={**over, (-1, -1): [0.25, 0.0, 0.25]})
    with pytest.raises(ValueError):  # entries of two shapes
        core.CpfProbabilityTable(y=+1, entries={**over, (-1, -1): [0.25, 0.0]})
    # moments that imply a bad entry at one point name it
    m = core.MomentSet(np.array([0.0, 0.9]), np.array([0.0, 0.9]), np.array([0.0, -0.9]))
    with pytest.raises(InvalidMomentSet, match=re.escape("P(z=-1, x=-1 | y=+1) = -0.425")):
        core.cpf_probability_table(m, +1)


def test_estimate_validation_and_repr():
    est = core.Estimate(0.5, 0.01, 1000)
    assert "0.5" in str(est) and "n=1000" in str(est)
    with pytest.raises(ValueError):
        core.Estimate(math.inf, 0.0, 1)
    with pytest.raises(ValueError):
        core.Estimate(0.0, -1.0, 1)
    with pytest.raises(ValueError):
        core.Estimate(0.0, 0.0, 0)


@pytest.mark.parametrize("value, std_error, message", [
    (math.nan, 0.0, "value must be finite, got nan"),
    (-math.inf, 0.0, "value must be finite, got -inf"),
    (0.5, math.inf, "std_error must be finite and >= 0, got inf"),
])
def test_a_non_finite_estimate_is_a_domain_error_and_a_value_error(value, std_error, message):
    # a ValueError alone, which the CLI did not catch: a traceback, exit 1
    assert issubclass(NonFiniteResult, CpfError) and issubclass(NonFiniteResult, ValueError)
    with pytest.raises(NonFiniteResult, match=f"^{re.escape(message)}$"):
        core.Estimate(value, std_error, 10)
    with pytest.raises(ValueError) as info:
        core.Estimate(0.0, -1.0, 1)  # a negative std_error is no domain error
    assert type(info.value) is ValueError


@pytest.mark.parametrize("make", [
    lambda: core.MomentSet(0.1, 0.2, 0.3),
    lambda: core.MomentSet(np.array([0.1, 0.2]), 0.0, 0.0),
    lambda: core.cpf_probability_table(core.MomentSet(np.array([0.1, 0.2]), 0.0, 0.0), +1),
    lambda: spinbath.SpinBathSpec([0.5, 1.0], [0.6, 0.8], [0.8, 0.6]),
], ids=["scalar_moments", "array_moments", "array_table", "bath_spec"])
def test_array_field_dataclasses_compare_by_identity(make):
    # value equality over array fields would raise on == and on hash
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a) and isinstance(hash(b), int)
