"""Closed-form communication-cost expressions and lower bounds, plus
checkers that compare them against measured traffic.

Everything is evaluated in exact rational arithmetic so that comparisons
against integer meters never suffer rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .channel import BbOutcome, generation_size


def detectable_cost_bits(n: int, t: int, D: int) -> Fraction:
    """Worst-case bits of one D-bit Detectable Broadcast instance:
    D from the source plus one coded symbol from each of n-1 peers."""
    if t < 0 or n < 3 * t + 1:
        raise ValueError("need n >= 3t + 1")
    if D <= 0 or D % (n - 2 * t):
        raise ValueError("D must be a positive multiple of n - 2t")
    return D + Fraction((n - 1) * D, n - 2 * t)


def total_bb_cost_bits(n: int, t: int, L: int) -> Fraction:
    """Detectable-Broadcast bits over all generations of an L-bit input."""
    if t < 0 or n < 3 * t + 1:
        raise ValueError("need n >= 3t + 1")
    if L <= 0:
        raise ValueError("L must be positive")
    return Fraction(L * (2 * n - 2 * t - 1), n - 2 * t)


def bit_cost_ratio(n: int, t: int) -> Fraction:
    """total_bb_cost_bits / L; strictly between 2 and 4 for n >= 3t+1, t >= 1."""
    return Fraction(2 * n - 2 * t - 1, n - 2 * t)


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
        D = generation_size(n, t, c or n.bit_length())
        if L % D:
            raise ValueError(f"L must be a multiple of D = {D}")
        return L // D * n * (t + 2)
    raise ValueError(f"unknown algorithm {algorithm!r}")


@dataclass(frozen=True)
class ModularBoundParams:
    """Parameters of the recursive committee-construction message bound."""

    B: int
    i: int
    alpha: Fraction
    m_star: Callable[[Fraction], Fraction]

    def validate(self, t: int) -> None:
        if not 2 <= self.B <= t + 1:
            raise ValueError("need t+1 >= B >= 2")
        if self.i < 0 or (self.i > 0 and self.B**self.i > t):
            raise ValueError("need 0 <= i <= log_B t")


def modular_bound(params: ModularBoundParams, t: int) -> Fraction:
    """B^i * M_*(3t/B^i + 1) + alpha * B * t * i."""
    params.validate(t)
    b_i = params.B**params.i
    base = params.m_star(Fraction(3 * t, b_i) + 1)
    return b_i * Fraction(base) + Fraction(params.alpha) * params.B * t * params.i


@dataclass(frozen=True)
class BoundsReport:
    """Measured-vs-formula flags for one run."""

    db_bits_exact: bool | None  # honest dispute_bb runs only, else None
    messages_above_floor: bool
    bits_at_least_L: bool
    static_bound_met: bool  # reported, not asserted, for non-static algorithms


def check_bounds(outcome: BbOutcome, algorithm: str) -> BoundsReport:
    cfg = outcome.config
    meter = outcome.meter
    exact = None
    if algorithm == "dispute_bb" and not outcome.faulty:
        exact = meter.phase_honest_bits("DB") == total_bb_cost_bits(cfg.n, cfg.t, cfg.L)
    return BoundsReport(
        db_bits_exact=exact,
        messages_above_floor=meter.honest_messages >= message_lower_bound(cfg.t),
        bits_at_least_L=meter.honest_bits >= cfg.L,
        static_bound_met=meter.honest_bits
        >= static_db_lower_bound_bits(cfg.n, cfg.t, cfg.L),
    )
