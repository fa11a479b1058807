"""Closed-form communication-cost expressions and lower bounds, plus
checkers that compare them against measured traffic.

Everything is evaluated in exact rational arithmetic so that comparisons
against integer meters never suffer rounding.
"""

from __future__ import annotations

from fractions import Fraction

from .channel import BbOutcome, generation_size, min_symbol_bits


def bit_cost_ratio(n: int, t: int) -> Fraction:
    """Detectable-Broadcast bits per input bit, (2n-2t-1)/(n-2t): the
    source's bit plus (n-1)/(n-2t) bits of coded symbols.  Strictly
    between 2 and 4 for n >= 3t+1, t >= 1."""
    if t < 0 or n < 3 * t + 1:
        raise ValueError("need n >= 3t + 1")
    return Fraction(2 * n - 2 * t - 1, n - 2 * t)


def detectable_cost_bits(n: int, t: int, D: int) -> Fraction:
    """Worst-case bits of one D-bit Detectable Broadcast instance:
    D from the source plus one coded symbol from each of n-1 peers."""
    ratio = bit_cost_ratio(n, t)
    if D <= 0 or D % (n - 2 * t):
        raise ValueError("D must be a positive multiple of n - 2t")
    return D * ratio


def total_bb_cost_bits(n: int, t: int, L: int) -> Fraction:
    """Detectable-Broadcast bits over all generations of an L-bit input."""
    ratio = bit_cost_ratio(n, t)
    if L <= 0:
        raise ValueError("L must be positive")
    return L * ratio


def static_db_lower_bound_bits(n: int, f: int, L: int) -> Fraction:
    """Bit-complexity floor for static-schedule Detectable Broadcast."""
    if not 0 <= f < n:
        raise ValueError("need 0 <= f < n")
    if L <= 0:
        raise ValueError("L must be positive")
    return L + Fraction((n - 1) * L, n - f)


def message_lower_bound(t: int) -> int:
    """More than t messages are needed: with only t, all transmitters
    could be faulty."""
    if t < 0:
        raise ValueError("t must be non-negative")
    return t + 1


def honest_messages(n: int, t: int, L: int, algorithm: str, c: int | None = None) -> int:
    """Fault-free messages of an honest run (no node faulty).

    dispute_bb: (L/D)·n(t+2).  Each D-bit generation is the source's
    block and n-1 coded symbols, then t+1 rounds of one slot per node
    for the n batched detection flags.  D = c(n-2t), where c defaults
    to the smallest with n <= 2^c - 1.

    algo2: 1 + (3t+1)(1+3t²) + (2t+1), whatever n and L.  It is the
    source's value, one EIG instance per committee member (its value,
    then t relay rounds of 3t slots), and the 2t+1 announcements.
    """
    if t < 0 or n < 3 * t + 1:
        raise ValueError("need n >= 3t + 1")
    if L <= 0:
        raise ValueError("L must be positive")
    if algorithm == "algo2":
        return 1 + (3 * t + 1) * (1 + 3 * t * t) + (2 * t + 1)
    if algorithm == "dispute_bb":
        D = generation_size(n, t, c or min_symbol_bits(n))
        if L % D:
            raise ValueError(f"L must be a multiple of D = {D}")
        return L // D * n * (t + 2)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def check_bounds(outcome: BbOutcome, algorithm: str) -> dict:
    """The run's bound columns: each closed-form bound at its point, and
    whether the run's meter meets it.  db_bits_exact is "" unless the run
    is an honest dispute_bb run; static_bound_met is reported, not
    asserted, for non-static algorithms."""
    cfg = outcome.config
    meter = outcome.meter
    total = total_bb_cost_bits(cfg.n, cfg.t, cfg.L)
    floor = message_lower_bound(cfg.t)
    static = static_db_lower_bound_bits(cfg.n, cfg.t, cfg.L)
    exact = ""
    if algorithm == "dispute_bb" and not outcome.faulty:
        exact = meter.phase_honest_bits("DB") == total
    return {
        "total_bb_cost_bits": str(total),
        "message_lower_bound": floor,
        "static_db_lower_bound": str(static),
        "db_bits_exact": exact,
        "messages_above_floor": meter.honest_messages >= floor,
        "bits_at_least_L": meter.honest_bits >= cfg.L,
        "static_bound_met": meter.honest_bits >= static,
    }
