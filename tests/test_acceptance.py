"""Acceptance gate: nine end-to-end criteria, one printed PASS/FAIL line
each.  Criteria 3-5 and 8 share a session-scoped corpus of 2800 runs
(strategy catalog x 100 seeds x two system sizes x both algorithms)."""

import functools
import random
import time
from fractions import Fraction

import pytest

from selbroadcast import (
    GF,
    RSCode,
    STRATEGY_REGISTRY,
    Scenario,
    SystemConfig,
    bit_cost_ratio,
    detectable_cost_bits,
    make_strategy,
    run_algorithm2,
    run_byzantine_broadcast,
    run_scenario,
    static_db_lower_bound_bits,
    symbols_to_bits,
    total_bb_cost_bits,
    write_csv,
    write_trace,
)
from selbroadcast.adversaries import random_bits
from selbroadcast.harness import scenario_input

CORPUS_CONFIGS = ((4, 1, 3, 12), (7, 2, 3, 18))
SEEDS_PER_SCENARIO = 100


def _verdict(number: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number}: {status}{suffix}", flush=True)
    assert ok, f"acceptance criterion {number} failed{suffix}"


@pytest.fixture(scope="session")
def corpus():
    start = time.perf_counter()
    records = []
    for n, t, c, L in CORPUS_CONFIGS:
        for algorithm in ("dispute_bb", "algo2"):
            for name in sorted(STRATEGY_REGISTRY):
                scenario = Scenario(
                    n=n, t=t, c=c, L=L,
                    algorithm=algorithm,
                    strategy=name,
                    repetitions=SEEDS_PER_SCENARIO,
                )
                records.extend(run_scenario(scenario))
    return records, time.perf_counter() - start


def test_acceptance_1_exact_honest_bit_cost():
    ok, details = True, []
    for n, t, c, L in ((4, 1, 3, 12), (7, 2, 3, 18), (10, 3, 4, 160)):
        config = SystemConfig(n=n, t=t, c=c, L=L)
        x = random_bits(random.Random(n), L)
        start = time.perf_counter()
        out = run_byzantine_broadcast(x, config, make_strategy("honest", config))
        elapsed = time.perf_counter() - start
        measured = out.meter.phase_honest_bits("DB")
        expected = total_bb_cost_bits(n, t, L)
        details.append(f"n={n}: {measured} bits, {elapsed:.3f}s")
        ok = ok and measured == expected and elapsed < 1.0
    _verdict(1, ok, "; ".join(details))


def test_acceptance_2_ratio_strictly_between_2_and_4():
    ok = all(
        2 < bit_cost_ratio(n, t) < 4
        for t in range(1, 6)
        for n in range(3 * t + 1, 3 * t + 11)
    )
    _verdict(2, ok, "t in 1..5, n in 3t+1..3t+10, exhaustive")


def test_acceptance_3_detection_dichotomy(corpus):
    records, _ = corpus
    violations = 0
    generations = 0
    for record in records:
        if record.scenario.algorithm != "dispute_bb":
            continue
        out = record.outcome
        c = out.config.c
        D = out.config.D
        x = scenario_input(record.scenario, record.row["seed"])
        source_ok = 1 not in out.faulty
        for g, rec in enumerate(out.generations):
            if rec.skipped:
                continue
            generations += 1
            ff = [i for i in rec.z if i not in out.faulty]
            some_detected = any(rec.detected[i] for i in ff)
            z_bits = {symbols_to_bits(rec.z[i], c) for i in ff}
            agree = len(z_bits) == 1 and (not source_ok or z_bits == {x[g * D : (g + 1) * D]})
            if not (some_detected or agree):
                violations += 1
    _verdict(3, violations == 0, f"{generations} generations, {violations} violations")


def test_acceptance_4_bb_correctness_over_corpus(corpus):
    records, elapsed = corpus
    failures = [r for r in records if not r.passed]
    ok = not failures and elapsed < 60.0
    _verdict(4, ok, f"{len(records)} runs, {len(failures)} failures, {elapsed:.1f}s")


def test_acceptance_5_dispute_control_discipline(corpus):
    records, _ = corpus
    ok = True
    for record in records:
        if record.scenario.algorithm != "dispute_bb":
            continue
        out = record.outcome
        t = out.config.t
        ok = ok and all(
            any(p in out.faulty for p in pair) for pair in out.disputes.pairs
        )
        ok = ok and out.dc_invocations <= t * (t + 1)
        for rec in out.generations:
            if rec.dc_invoked and any(
                rec.detected.get(i, False) for i in rec.z if i not in out.faulty
            ):
                ok = ok and len(rec.new_pairs) >= 1
    _verdict(5, ok, "no fault-free pair; productive invocations; <= t(t+1)")


def test_acceptance_6_consistency_check_matches_enumeration():
    n, t, c = 4, 1, 3
    code = RSCode(n, t, GF(c))
    blocks = [(a, b) for a in range(8) for b in range(8)]
    table = {block: code.encode(block) for block in blocks}

    @functools.cache  # the views repeat: 32,000 patterns hold about 5,200 distinct ones
    def oracle(view):
        matches = [
            block
            for block, word in table.items()
            if all(v is None or v == word[p] for p, v in enumerate(view))
        ]
        return matches[0] if len(matches) == 1 else None

    rng = random.Random(20260826)
    start = time.perf_counter()
    checked, mismatches = 0, 0
    for block in blocks:
        word = table[block]
        for _ in range(500):
            view = list(word)
            for p in rng.sample(range(n), rng.randint(0, n - code.k)):
                view[p] = None if rng.random() < 0.5 else rng.randrange(8)
            view = tuple(view)
            checked += 1
            if code.consistency_check(view) != oracle(view):
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 5.0
    _verdict(6, ok, f"{checked} patterns, {mismatches} mismatches, {elapsed:.2f}s")


def test_acceptance_7_committee_structure():
    ok = True
    details = []

    # identical fault-free traffic for n=10 and n=25 at t=1
    counts = {}
    for n, c, L in ((10, 4, 32), (25, 5, 115)):
        config = SystemConfig(n=n, t=1, c=c, L=L, seed=11)
        out = run_algorithm2(
            random_bits(random.Random(11), L), config, make_strategy("honest", config)
        )
        counts[n] = out.meter.honest_messages
    ok = ok and counts[10] == counts[25]
    details.append(f"honest msgs n=10/{counts[10]} n=25/{counts[25]}")

    # passive silence and > t messages across the catalog
    config = SystemConfig(n=10, t=1, c=4, L=32, seed=3)
    passive = range(3 * config.t + 2, config.n + 1)
    for name in sorted(STRATEGY_REGISTRY):
        out = run_algorithm2(
            random_bits(random.Random(3), 32), config, make_strategy(name, config)
        )
        ok = ok and all(e.sender not in passive for e in out.trace)
        ok = ok and out.meter.honest_messages > config.t

    # broadcast coalescing: strictly fewer messages than the point-to-point
    # count of the same run's core
    out = run_algorithm2(random_bits(random.Random(7), 32), config, make_strategy("honest", config))
    coalesced = out.meter.honest_messages
    unicast = out.meter.as_unicast(config.n, {"CORE"}).honest_messages
    ok = ok and coalesced < unicast
    details.append(f"coalesced {coalesced} vs unicast {unicast}")
    _verdict(7, ok, "; ".join(details))


def test_acceptance_8_bounds_checkers(corpus):
    records, _ = corpus
    ok = all(r.row["messages_above_floor"] and r.row["bits_at_least_L"] for r in records)
    ok = ok and all(r.row["static_bound_met"] in (True, False) for r in records)
    # formula evaluators against hand-computed values
    ok = ok and detectable_cost_bits(4, 1, 6) == 15
    ok = ok and detectable_cost_bits(7, 2, 9) == 27
    ok = ok and total_bb_cost_bits(4, 1, 12) == 30
    ok = ok and total_bb_cost_bits(7, 2, 18) == 54
    ok = ok and total_bb_cost_bits(10, 3, 160) == 520
    ok = ok and bit_cost_ratio(4, 1) == Fraction(5, 2)
    ok = ok and static_db_lower_bound_bits(4, 1, 6) == 12
    _verdict(8, ok, "honest messages > t; honest bits >= L; static bound reported; formulas exact")


def test_acceptance_9_byte_identical_reruns(tmp_path):
    scenario = Scenario(
        n=7, t=2, c=3, L=18,
        strategy="randomized_byzantine",
        repetitions=3,
        base_seed=17,
    )
    artifacts = []
    for tag in ("first", "second"):
        records = run_scenario(scenario)
        csv_path = tmp_path / f"{tag}.csv"
        write_csv(records, csv_path)
        blobs = [csv_path.read_bytes()]
        for k, record in enumerate(records):
            trace_path = tmp_path / f"{tag}_{k}.jsonl"
            write_trace(record, trace_path)
            blobs.append(trace_path.read_bytes())
        artifacts.append(blobs)
    _verdict(9, artifacts[0] == artifacts[1], "CSV and traces byte-identical")
