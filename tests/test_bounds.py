"""Closed-form cost expressions: worked examples, exact-rational
identities, and parameter validation."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from selbroadcast import (
    SystemConfig,
    bit_cost_ratio,
    detectable_cost_bits,
    honest_messages,
    make_strategy,
    message_lower_bound,
    static_db_lower_bound_bits,
    run_algorithm2,
    run_byzantine_broadcast,
    total_bb_cost_bits,
)


def test_detectable_cost_examples():
    assert detectable_cost_bits(4, 1, 6) == 15
    assert detectable_cost_bits(7, 2, 9) == 27
    # D + (n-1)D/(n-2t) at a non-integer point stays exact
    assert detectable_cost_bits(7, 2, 3) == 3 + Fraction(18, 3)


def test_total_cost_examples():
    assert total_bb_cost_bits(4, 1, 12) == 30
    assert total_bb_cost_bits(7, 2, 18) == 54
    assert total_bb_cost_bits(10, 3, 160) == 520


def test_bit_cost_ratio_examples():
    assert bit_cost_ratio(4, 1) == Fraction(5, 2)
    assert 2 < bit_cost_ratio(4, 1) < 4


def test_ratio_in_open_interval_over_parameter_region():
    for t in range(1, 6):
        for n in range(3 * t + 1, 3 * t + 11):
            assert 2 < bit_cost_ratio(n, t) < 4, (n, t)


def test_static_lower_bound_examples():
    assert static_db_lower_bound_bits(4, 1, 6) == 12
    assert static_db_lower_bound_bits(7, 2, 15) == 33
    # at most 2L whenever at most one node may fail
    for n, L in ((4, 6), (7, 15), (10, 40)):
        assert static_db_lower_bound_bits(n, 1, L) <= 2 * L


def test_message_lower_bound():
    assert message_lower_bound(0) == 1
    assert message_lower_bound(1) == 2
    assert message_lower_bound(5) == 6


def test_honest_messages_examples():
    assert honest_messages(10, 3, 160, "algo2") == 288
    assert honest_messages(31, 3, 8, "algo2") == 288  # independent of n and L
    assert honest_messages(10, 3, 160, "dispute_bb") == 500  # 10 generations of 10 * 5
    assert honest_messages(4, 1, 12, "dispute_bb") == 24
    assert honest_messages(4, 1, 16, "dispute_bb", c=4) == 24  # D = 8: two generations of 4 * 3


@pytest.mark.parametrize("n, t, c", [(3, 0, 2), (4, 1, 3), (7, 2, 3), (10, 3, 4)])
@pytest.mark.parametrize("generations", [1, 2])
@pytest.mark.parametrize("algorithm, run", [("dispute_bb", run_byzantine_broadcast), ("algo2", run_algorithm2)])
def test_honest_run_sends_the_closed_form_message_count(n, t, c, generations, algorithm, run):
    config = SystemConfig(n=n, t=t, c=c, L=generations * c * (n - 2 * t))
    x = "10" * (config.L // 2) + "1" * (config.L % 2)
    outcome = run(x, config, make_strategy("honest", config))
    assert outcome.meter.honest_messages == honest_messages(n, t, config.L, algorithm, c)


def test_validation_errors():
    for bound in (bit_cost_ratio, lambda n, t: total_bb_cost_bits(n, t, 12)):
        with pytest.raises(ValueError, match="n >= 3t"):
            bound(3, 1)
    with pytest.raises(ValueError):
        detectable_cost_bits(3, 1, 6)  # n < 3t + 1
    with pytest.raises(ValueError):
        detectable_cost_bits(4, 1, 7)  # D not a multiple of n - 2t
    with pytest.raises(ValueError):
        total_bb_cost_bits(4, 1, 0)
    with pytest.raises(ValueError):
        static_db_lower_bound_bits(4, 4, 6)  # f >= n
    with pytest.raises(ValueError):
        message_lower_bound(-1)
    with pytest.raises(ValueError):
        honest_messages(4, 1, 16, "dispute_bb")  # L not a multiple of D = 6
    with pytest.raises(ValueError):
        honest_messages(6, 2, 8, "algo2")  # n < 3t + 1
    with pytest.raises(ValueError):
        honest_messages(4, 1, 12, "unknown")


@given(st.integers(1, 8), st.integers(0, 20), st.integers(1, 40))
def test_per_generation_cost_sums_to_total(t, extra, gens):
    # L/D generations of one D-bit detectable broadcast equal the total
    n = 3 * t + 1 + extra
    D = n - 2 * t  # c = 1 symbol-width keeps the identity generic
    L = gens * D
    assert detectable_cost_bits(n, t, D) * Fraction(L, D) == total_bb_cost_bits(n, t, L)


@given(st.integers(1, 8), st.integers(0, 20))
def test_ratio_bounds_hold_generally(t, extra):
    n = 3 * t + 1 + extra
    assert 2 < bit_cost_ratio(n, t) < 4
