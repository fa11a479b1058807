"""The benchmark's own output check, independent of `check_bb_properties`.

A run passes when
  * every fault-free peer (ids 2..n) output exactly L bits, all the same;
  * those bits equal the input whenever the source (id 1) is fault-free;
  * an honest dispute_bb run metered exactly L(2n-2t-1)/(n-2t) fault-free
    Detectable-Broadcast bits;
  * in an algo2 run, no fault-free node outside the 3t+1 lowest ids sent
    anything, as read from the senders in the run's trace.
"""

from __future__ import annotations

from fractions import Fraction


def expected_db_bits(n: int, t: int, L: int) -> Fraction:
    return Fraction(L * (2 * n - 2 * t - 1), n - 2 * t)


def problems(record, x: str) -> list[str]:
    """Every way in which `record` (a harness MetricsRecord for input x) is wrong."""
    outcome = record.outcome
    cfg = outcome.config
    n, t, L = cfg.n, cfg.t, cfg.L
    faulty = outcome.faulty
    found = []

    fault_free_peers = [p for p in range(2, n + 1) if p not in faulty]
    outputs = {p: outcome.outputs.get(p) for p in fault_free_peers}
    missing = [p for p, y in outputs.items() if not isinstance(y, str) or len(y) != L]
    if missing:
        found.append(f"fault-free peers {missing} output no L-bit value")
    values = {y for p, y in outputs.items() if p not in missing}
    if len(values) > 1:
        found.append(f"fault-free peers output {len(values)} different values")
    if 1 not in faulty and values - {x}:
        found.append("output differs from the fault-free source's input")

    algorithm = record.scenario.algorithm
    if algorithm == "dispute_bb" and not faulty:
        db = outcome.meter.phase_honest_bits("DB")
        if db != expected_db_bits(n, t, L):
            found.append(f"honest run metered {db} DB bits, not {expected_db_bits(n, t, L)}")
    if algorithm == "algo2":
        outside = sorted({e.sender for e in outcome.trace if e.sender > 3 * t + 1 and e.sender not in faulty})
        if outside:
            found.append(f"fault-free nodes {outside} outside the committee transmitted")
    return found
