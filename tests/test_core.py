"""Model-independent table and moment machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cpfsim import core
from cpfsim.errors import InvalidMomentSet, InvalidProbabilityTable, ZeroProbabilityPostselection


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


@given(moments_strategy(), st.sampled_from([+1, -1]))
def test_table_normalized_and_in_range(m, y):
    table = core.cpf_probability_table(m, y)
    assert abs(sum(table.entries.values()) - 1.0) <= core.NORMALIZATION_TOL
    assert all(0.0 <= p <= 1.0 for p in table.entries.values())
    for x in core.OUTCOMES:
        assert table.marginal_x[x] == table.entries[(+1, x)] + table.entries[(-1, x)]
    for z in core.OUTCOMES:
        assert table.marginal_z[z] == table.entries[(z, +1)] + table.entries[(z, -1)]


@given(moments_strategy(), st.sampled_from([+1, -1]))
def test_moment_recovery_round_trip(m, y):
    got = core.cpf_probability_table(m, y).moment_set()
    assert got.f_t == pytest.approx(m.f_t, abs=1e-14)
    assert got.f_tau == pytest.approx(m.f_tau, abs=1e-14)
    assert got.f_joint == pytest.approx(m.f_joint, abs=1e-14)


@given(moments_strategy())
def test_cpf_invariant_under_y_relabeling(m):
    plus = core.cpf_from_table(core.cpf_probability_table(m, +1))
    minus = core.cpf_from_table(core.cpf_probability_table(m, -1))
    assert plus == minus  # bitwise, by construction of the recovery


@given(moments_strategy(), st.sampled_from([+1, -1]))
def test_cpf_from_table_matches_moment_form(m, y):
    table = core.cpf_probability_table(m, y)
    direct = core.cpf_from_moments(table.moment_set())
    assert core.cpf_from_table(table) == direct


@given(st.lists(moments_strategy(), min_size=1, max_size=6), st.sampled_from([+1, -1]))
def test_array_cells_equal_scalar_tables(ms, y):
    stacked = core.MomentSet(
        *(np.array([getattr(m, name) for m in ms]) for name in ("f_t", "f_tau", "f_joint"))
    )
    cells = core.cpf_table_cells(stacked, y)
    cpf = core.cpf_from_moments(stacked)
    for i, m in enumerate(ms):
        table = core.cpf_probability_table(m, y)
        assert all(cells[key][i] == p for key, p in table.entries.items())
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
    # rounding just past [0, 1] is clipped, as cpf_table_cells does; past ENTRY_TOL it is an error
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


def test_estimate_validation_and_repr():
    est = core.Estimate(0.5, 0.01, 1000)
    assert "0.5" in str(est) and "n=1000" in str(est)
    with pytest.raises(ValueError):
        core.Estimate(math.inf, 0.0, 1)
    with pytest.raises(ValueError):
        core.Estimate(0.0, -1.0, 1)
    with pytest.raises(ValueError):
        core.Estimate(0.0, 0.0, 0)
