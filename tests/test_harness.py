"""Scenario runner and command-line interface: record contents, sweeps,
CSV/trace determinism, and exit codes."""

import dataclasses
import functools
import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selbroadcast import (
    CSV_COLUMNS,
    STRATEGY_REGISTRY,
    Scenario,
    TrafficMeter,
    run_scenario,
    write_csv,
    write_trace,
)
from selbroadcast import dispute_bb, harness
from selbroadcast.harness import grid_scenarios, pairs, run_pairs
from selbroadcast.channel import ProtocolError, TraceEntry
from selbroadcast.cli import main

METER_COLUMNS = ("honest_messages", "honest_bits", "adversary_messages", "adversary_bits")


def test_scenario_from_nested_dict():
    raw = {
        "config": {"n": 4, "t": 1, "c": 3, "L": "2D"},
        "strategy": {"name": "randomized_byzantine", "params": {"seed": 9}},
        "algorithm": "dispute_bb",
        "repetitions": 3,
        "seeds": 100,
    }
    s = Scenario.from_dict(raw)
    assert (s.n, s.t, s.c, s.L) == (4, 1, 3, 12)
    assert s.strategy == "randomized_byzantine"
    assert s.strategy_params == {"seed": 9}
    assert s.repetitions == 3 and s.base_seed == 100


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(n=4, t=1, c=3, L=12, algorithm="algorithm3")
    with pytest.raises(ValueError):
        Scenario(n=4, t=1, c=3, L=12, repetitions=0)
    # An invalid point is rejected when the Scenario is built, before
    # anything runs.
    for bad in (
        {"c": 9, "L": 18},              # no pinned GF(2^9) polynomial
        {"n": 8},                       # n > 2^c - 1
        {"L": 13},                      # not a multiple of D
        {"strategy": "no_such_strategy"},
        {"input_bits": "0101"},         # not L bits
    ):
        with pytest.raises(ValueError):
            Scenario(**{"n": 4, "t": 1, "c": 3, "L": 12, **bad})


def test_honest_run_record():
    records = run_scenario(Scenario(n=4, t=1, c=3, L=12, repetitions=2))
    assert len(records) == 2
    for rep, record in enumerate(records):
        assert record.passed
        assert record.row["seed"] == rep
        row = record.row
        assert row["db_bits"] == 30
        assert row["dispute_control_invocations"] == 0
        assert row["db_bits_exact"] is True
        assert row["messages_above_floor"] is True
        assert row["bits_at_least_L"] is True
        assert set(row) == set(CSV_COLUMNS)


def test_adversarial_run_record():
    records = run_scenario(
        Scenario(n=4, t=1, c=3, L=12, strategy="equivocating_source", repetitions=2)
    )
    for record in records:
        assert record.passed
        assert 1 <= record.row["dispute_control_invocations"] <= 2
        assert record.row["db_bits_exact"] == ""  # not an honest run


def test_parallel_repetitions_match_serial():
    scenario = Scenario(n=4, t=1, c=3, L=12, strategy="randomized_byzantine", repetitions=4)
    serial = run_scenario(scenario, jobs=1)
    parallel = run_scenario(scenario, jobs=2)
    assert [r.row for r in serial] == [r.row for r in parallel]


def test_sweep_grid_with_max_t_and_skipped_points():
    grid = {
        "n": [4, 5, 7],
        "t": ["max"],
        "c": [3],
        "L": ["1D"],
        "algorithm": ["dispute_bb"],
        "strategy": ["honest"],
    }
    scenarios, errors = grid_scenarios(grid)
    records = list(run_pairs(pairs(scenarios)))
    assert errors == []
    assert [(r.row["n"], r.row["t"]) for r in records] == [(4, 1), (5, 1), (7, 2)]
    # an invalid point (n=8 needs c > 3) is reported, not fatal
    grid["n"] = [4, 8]
    grid["c"] = [3]
    scenarios, errors = grid_scenarios(grid)
    records = list(run_pairs(pairs(scenarios)))
    assert [r.row["n"] for r in records] == [4]
    assert len(errors) == 1 and "8" in errors[0]


def test_grid_strategy_params_reach_only_the_strategies_that_take_them():
    # honest takes no mode: its point is a SKIP line naming the key.
    # symbol_corruptor runs mode "all": its node 4 broadcasts its wrong symbol.
    grid = {"n": [4], "t": [1], "c": [3], "L": ["1D"], "strategy": ["honest", "symbol_corruptor"],
            "strategy_params": {"mode": "all"}}
    scenarios, errors = grid_scenarios(grid)
    (skip,) = errors
    assert "'strategy': 'honest'" in skip and "unexpected keyword argument 'mode'" in skip
    (record,) = run_pairs(pairs(scenarios))
    assert record.scenario.strategy_params == {"mode": "all"} and record.passed
    kinds = {e.kind for e in record.outcome.trace if not e.honest and e.phase == "DB"}
    assert kinds == {"broadcast"}


def test_sweep_does_not_skip_a_run_that_raises(monkeypatch):
    # Only a point that fails validation is skipped; a ValueError from
    # inside a protocol run must not be reported as a skipped point.
    def broken(x, config, strategy):
        raise ValueError("raised inside the run")

    monkeypatch.setattr(harness, "run_byzantine_broadcast", broken)
    grid = {"n": [4], "t": [1], "c": [3], "L": ["1D"], "strategy": ["honest"]}
    scenarios, errors = grid_scenarios(grid)
    assert len(scenarios) == 1 and errors == []
    with pytest.raises(ValueError, match="inside the run"):
        list(run_pairs(pairs(scenarios)))


def test_csv_and_trace_determinism(tmp_path):
    scenario = Scenario(n=4, t=1, c=3, L=12, strategy="randomized_byzantine", repetitions=3)
    paths = []
    for tag in ("a", "b"):
        records = run_scenario(scenario)
        csv_path = tmp_path / f"{tag}.csv"
        trace_path = tmp_path / f"{tag}.jsonl"
        write_csv(records, csv_path)
        write_trace(records[0], trace_path)
        paths.append((csv_path.read_bytes(), trace_path.read_bytes()))
    assert paths[0] == paths[1]


def _write_scenario(tmp_path, **overrides):
    raw = {
        "config": {"n": 4, "t": 1, "c": 3, "L": 12},
        "strategy": "honest",
        "repetitions": 2,
    }
    raw.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    return path


def test_cli_run_pass(tmp_path, capsys):
    path = _write_scenario(tmp_path)
    out_csv = tmp_path / "out.csv"
    trace_dir = tmp_path / "traces"
    code = main(["run", str(path), "--out", str(out_csv), "--trace", str(trace_dir)])
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.count("PASS") == 2
    assert out_csv.exists()
    assert len(list(trace_dir.glob("*.jsonl"))) == 2


def test_cli_run_seed_override(tmp_path, capsys):
    path = _write_scenario(tmp_path, repetitions=1)
    assert main(["run", str(path), "--seed", "42"]) == 0
    assert "seed=42" in capsys.readouterr().out


def test_cli_sweep(tmp_path, capsys):
    grid = {
        "n": [4, 7],
        "t": ["max"],
        "c": [3],
        "L": ["1D"],
        "strategy": ["honest", "equivocating_source"],
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    assert main(["sweep", str(path), "--out", str(tmp_path / "sweep.csv")]) == 0
    printed = capsys.readouterr().out
    assert printed.count("PASS") == 4


@pytest.mark.parametrize("grid, reason", [
    pytest.param({"n": ["x"], "t": ["max"], "c": [3], "L": [12]}, "unsupported operand",
                 id="n_not_a_number"),
    pytest.param({"n": [4], "t": [1], "c": [3]}, "no 'L' field", id="no_L"),
    pytest.param({"n": [4], "t": [0], "c": [3], "L": ["1D"], "strategy": ["equivocating_source"]},
                 "strategy corrupts more than t nodes", id="corrupts_more_than_t"),
    pytest.param({"n": [4], "t": [1], "c": [3], "L": ["1D"], "seeds": ["5"]},
                 "seeds must be an integer, not '5'", id="seeds_not_an_integer"),
])
def test_sweep_with_no_valid_point_skips_it_and_exits_1(tmp_path, capsys, grid, reason):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    assert main(["sweep", str(path)]) == 1
    captured = capsys.readouterr()
    (skip,) = captured.out.splitlines()
    assert skip.startswith("SKIP ") and reason in skip, skip
    assert captured.err == f"{path}: no point of the grid runs\n"


def test_sweep_over_two_points_leaves_one_trace_per_record(tmp_path, capsys):
    # (4,1) and (7,2), both algorithms, 2 strategies, 2 repetitions: 16
    # records whose algorithm, strategy, seed and rep repeat across points
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "n": [4, 7], "t": ["max"], "c": [3], "L": ["1D"],
        "algorithm": ["dispute_bb", "algo2"], "strategy": ["honest", "crash_silent"],
        "repetitions": [2]}))
    out, trace_dir = tmp_path / "out.csv", tmp_path / "traces"
    assert main(["sweep", str(grid), "--out", str(out), "--trace", str(trace_dir)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 16
    assert len(list(trace_dir.glob("*.jsonl"))) == len(rows)
    assert (trace_dir / "trace_n7_t2_c3_L9_algo2_crash_silent_1_1.jsonl").exists()


def test_cli_stops_at_the_first_fail_verdict(tmp_path, capsys, monkeypatch):
    # Seed 1 of 4 gets a Fail verdict: the CLI prints it with its trace,
    # writes the CSV up to it and never runs seeds 2-3.
    checked = []
    original = harness.check_bb_properties

    def failing(outcome, x):
        checked.append(outcome.config.seed)
        if outcome.config.seed == 1:
            return "Fail(Validity)"
        return original(outcome, x)

    monkeypatch.setattr(harness, "check_bb_properties", failing)
    out_csv, trace_dir = tmp_path / "out.csv", tmp_path / "traces"
    argv = ["run", str(_write_scenario(tmp_path, repetitions=4)),
            "--out", str(out_csv), "--trace", str(trace_dir)]
    assert main(argv) == 1
    assert capsys.readouterr().out.splitlines() == [
        "PASS n=4 t=1 L=12 dispute_bb/honest seed=0",
        f"FAIL n=4 t=1 L=12 dispute_bb/honest seed=1 verdict=Fail(Validity)"
        f" trace={trace_dir / 'fail_seed1.jsonl'}",
    ]
    assert checked == [0, 1]
    assert len(out_csv.read_text().splitlines()) == 3  # header + seeds 0 and 1
    assert (trace_dir / "fail_seed1.jsonl").read_bytes() == (
        trace_dir / "trace_n4_t1_c3_L12_dispute_bb_honest_1_1.jsonl").read_bytes()


def test_cli_verify_bounds(capsys):
    assert main(["verify-bounds", "4", "1", "12"]) == 0
    printed = capsys.readouterr().out
    assert "total_bb_cost_bits(n, t, L)   = 30" in printed
    assert "5/2" in printed and "within (2, 4)" in printed
    assert "honest_messages(dispute_bb)   = 24" in printed
    assert "honest_messages(algo2)        = 20" in printed


@pytest.mark.parametrize("point, header", [
    (("4", "1", "12"), "n=4 t=1 L=12 (c=3, D=6)"),
    (("7", "2", "18"), "n=7 t=2 L=18 (c=3, D=9)"),
    (("10", "3", "160"), "n=10 t=3 L=160 (c=4, D=16)"),
])
def test_cli_verify_bounds_takes_the_smallest_symbol_size(capsys, point, header):
    assert main(["verify-bounds", *point]) == 0
    assert capsys.readouterr().out.splitlines()[0] == header


def test_cli_verify_bounds_skips_an_invalid_point(capsys):
    # n = 4 < 3t + 1 = 7: one SKIP line, exit 1, no traceback.
    assert main(["verify-bounds", "4", "2", "12"]) == 1
    assert capsys.readouterr().out.splitlines() == ["SKIP n=4 t=2 L=12: need n >= 3t + 1"]


def test_cli_verify_bounds_skips_a_point_no_run_takes(capsys):
    # n = 300 needs c = 9, and no GF(2^9) polynomial is pinned (c <= 8 caps n at 255).
    assert main(["verify-bounds", "300", "1", "2682"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "SKIP n=300 t=1 L=2682: no pinned GF(2^c) polynomial for c=9"
    ]


def test_cli_replay(tmp_path, capsys):
    scenario_path = _write_scenario(tmp_path, repetitions=1)
    trace_dir = tmp_path / "traces"
    main(["run", str(scenario_path), "--trace", str(trace_dir)])
    capsys.readouterr()
    trace = next(trace_dir.glob("*.jsonl"))
    assert main(["replay", str(trace)]) == 0
    printed = capsys.readouterr().out
    assert "slots" in printed and "DB" in printed


def _read_trace(path):
    return [TraceEntry(**json.loads(line)) for line in path.read_text().splitlines()]


@functools.cache
def _corpus() -> tuple:
    """The acceptance corpus sizes, both algorithms, every strategy,
    seeds 0-4: 140 records, in corpus order."""
    records = []
    for n, t, c, L in ((4, 1, 3, 12), (7, 2, 3, 18)):
        for algorithm in ("dispute_bb", "algo2"):
            for name in sorted(STRATEGY_REGISTRY):
                records.extend(run_scenario(Scenario(
                    n=n, t=t, c=c, L=L, algorithm=algorithm, strategy=name, repetitions=5)))
    return tuple(records)


def test_replay_reproduces_csv_meter_columns(tmp_path):
    path = tmp_path / "trace.jsonl"
    for record in _corpus():
        write_trace(record, path)
        meter = TrafficMeter.from_trace(_read_trace(path))
        replayed = {col: getattr(meter, col) for col in METER_COLUMNS}
        row = record.row
        assert replayed == {col: row[col] for col in METER_COLUMNS}, (
            row["n"], row["algorithm"], row["strategy"], row["seed"])
        assert meter.by_phase == record.outcome.meter.by_phase


def _json_lines(entries) -> str:
    return "".join(json.dumps(dataclasses.asdict(e), sort_keys=True) + "\n" for e in entries)


def test_corpus_traces_are_the_sorted_key_json_of_each_entry(tmp_path):
    path = tmp_path / "trace.jsonl"
    for record in _corpus():
        write_trace(record, path)
        assert path.read_text() == _json_lines(record.outcome.trace)
        assert _read_trace(path) == record.outcome.trace


_naturals = st.integers(min_value=0)
_entries = st.builds(
    TraceEntry,
    round=_naturals, slot=_naturals, sender=_naturals,
    kind=st.sampled_from(["broadcast", "selective"]),
    bits=_naturals,
    phase=st.sampled_from(["DB", "DD", "DC", "SRC", "CORE", "ANN"]),
    honest=st.booleans(),
    messages=_naturals,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_entries, max_size=5))
def test_drawn_trace_entries_are_written_as_sorted_key_json(entries):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        harness.write_entries(entries, path)
        assert path.read_text() == _json_lines(entries)
        assert _read_trace(path) == entries


def test_cli_replay_counts_selective_sends_per_receiver(tmp_path, capsys):
    record = run_scenario(Scenario(n=7, t=2, c=3, L=18, strategy="randomized_byzantine"))[0]
    path = tmp_path / "trace.jsonl"
    write_trace(record, path)
    assert main(["replay", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{len(record.outcome.trace)} slots"
    rows = {}
    for line in lines[2:]:
        phase, *counts = line.split()
        rows[phase] = tuple(map(int, counts))
    meter = record.outcome.meter
    assert rows == {phase: tuple(c) for phase, c in meter.by_phase.items()}
    assert sum(r[2] for r in rows.values()) == record.row["adversary_messages"] == 204


def _without_messages(line):
    return json.dumps({k: v for k, v in json.loads(line).items() if k != "messages"})


def _with_unknown_field(line):
    return json.dumps({**json.loads(line), "colour": "red"})


@pytest.mark.parametrize("edit, reason", [
    # A trace from before lines carried "messages" would replay each
    # selective send as one message; replay must refuse it.
    pytest.param(_without_messages, 'no "messages" field', id="no_messages_field"),
    pytest.param(None, "No such file or directory", id="missing_file"),
    pytest.param(lambda line: line[: len(line) // 2], "not JSON", id="not_json"),
    pytest.param(_with_unknown_field, "unknown field 'colour'", id="unknown_field"),
    pytest.param(lambda line: json.dumps({**json.loads(line), "bits": "12"}), "'bits' is not int",
                 id="wrong_type"),
])
def test_cli_replay_rejects_trace_without_message_counts(tmp_path, capsys, edit, reason):
    # Every bad input is one `path[:lineno]: reason` line on stderr and
    # exit 1, never a traceback.
    record = run_scenario(Scenario(n=7, t=2, c=3, L=18, strategy="randomized_byzantine"))[0]
    path = tmp_path / "trace.jsonl"
    if edit is None:
        where = f"{path}: "
    else:
        write_trace(record, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:1] + [edit(line) for line in lines[1:]]) + "\n")
        where = f"{path}:2: "
    assert main(["replay", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith(where) and reason in captured.err, captured.err


_SCENARIO = {"config": {"n": 4, "t": 1, "c": 3, "L": 12}, "strategy": "honest"}


@pytest.mark.parametrize("command, text, reason", [
    pytest.param("run", None, "No such file or directory", id="run_missing_file"),
    pytest.param("run", "{not json", "not JSON", id="run_not_json"),
    pytest.param("run", "[4, 1, 3, 12]", "not a JSON object", id="run_not_an_object"),
    pytest.param("run", json.dumps({"config": {"n": 4, "t": 1, "c": 3}}), "no 'L' field",
                 id="run_no_L"),
    pytest.param("run", json.dumps({"config": {"n": 4, "t": 1, "c": 3, "L": "xD"}}),
                 "L must be an integer", id="run_bad_L"),
    pytest.param("run", json.dumps({**_SCENARIO, "strategy": "sneaky"}), "unknown strategy 'sneaky'",
                 id="run_unknown_strategy"),
    pytest.param("run", json.dumps({"config": {"n": 4, "t": 0, "c": 3, "L": 12},
                                    "strategy": "claim_liar"}),
                 "strategy corrupts more than t nodes", id="run_corrupts_more_than_t"),
    pytest.param("run", json.dumps({**_SCENARIO, "seeds": "5"}), "seeds must be an integer",
                 id="run_seeds_not_an_integer"),
    pytest.param("run", json.dumps({**_SCENARIO, "repetitions": 2.5}), "repetitions must be an integer",
                 id="run_repetitions_not_an_integer"),
    pytest.param("run", json.dumps({**_SCENARIO, "config": {"n": 4.0, "t": 1, "c": 3, "L": 12}}),
                 "n must be an integer", id="run_n_not_an_integer"),
    pytest.param("run", json.dumps({**_SCENARIO, "algorithm": "algo2", "input": "abcdefghijkl"}),
                 "input must be exactly L=12 bits of 0 and 1", id="run_algo2_input_not_bits"),
    pytest.param("run", json.dumps({**_SCENARIO, "input": "012012012012"}),
                 "input must be exactly L=12 bits of 0 and 1", id="run_dispute_bb_input_not_bits"),
    pytest.param("run", json.dumps({**_SCENARIO, "strategy": {"name": "symbol_corruptor",
                                                              "params": {"mode": "al"}}}),
                 "mode must be", id="run_unknown_symbol_corruptor_mode"),
    pytest.param("run", json.dumps({**_SCENARIO, "strategy": {"name": "symbol_corruptor",
                                                              "params": {"mdoe": "all"}}}),
                 "unexpected keyword argument 'mdoe'", id="run_misspelled_strategy_parameter"),
    pytest.param("run", json.dumps({**_SCENARIO, "strategy": {"name": "equivocating_source",
                                                              "params": {"seed": 9}}}),
                 "unexpected keyword argument 'seed'", id="run_seed_on_a_strategy_that_never_draws"),
    pytest.param("run", json.dumps({**_SCENARIO, "seed": 9}), "unknown field 'seed'",
                 id="run_seed_is_not_seeds"),
    pytest.param("run", json.dumps({**_SCENARIO, "config": {"n": 4, "t": 1, "c": 3, "L": 12, "D": 6}}),
                 "unknown field 'config.D'", id="run_unknown_config_key"),
    pytest.param("run", json.dumps({**_SCENARIO, "strategy": {"name": "honest", "prams": {}}}),
                 "unknown field 'strategy.prams'", id="run_unknown_strategy_key"),
    pytest.param("run", json.dumps({**_SCENARIO, "strategy": {"name": "symbol_corruptor", "params": "all"}}),
                 "strategy.params must be an object, not 'all'", id="run_params_not_an_object"),
    pytest.param("run", json.dumps({**_SCENARIO, "config": 5}), "config must be an object, not 5",
                 id="run_config_not_an_object"),
    pytest.param("run", json.dumps({**_SCENARIO, "strategy": ["honest"]}),
                 "strategy must be a strategy name, not ['honest']", id="run_strategy_is_a_list"),
    pytest.param("sweep", None, "No such file or directory", id="sweep_missing_file"),
    pytest.param("sweep", "{not json", "not JSON", id="sweep_not_json"),
    pytest.param("sweep", "[4, 7]", "not a JSON object", id="sweep_not_an_object"),
    pytest.param("sweep", json.dumps({"n": [4], "t": [1], "c": [3], "L": ["1D"],
                                      "strategies": ["honest", "crash_silent"]}),
                 "unknown field 'strategies'", id="sweep_unknown_key"),
])
def test_cli_refuses_a_file_that_is_not_a_scenario(tmp_path, capsys, command, text, reason):
    # One `path: reason` line on stderr and exit 1, never a traceback, and
    # no trace (a FAIL line's would go to --trace): nothing ran.
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
    assert main([command, str(path), "--trace", str(tmp_path / "traces")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith(f"{path}: ") and reason in captured.err, captured.err
    assert "Traceback" not in captured.err
    assert not list(tmp_path.rglob("*.jsonl"))


# sha256 over the acceptance corpus (`_corpus`): the CSV of every record, then
# each record's JSONL trace and its outputs as sorted JSON, in corpus
# order.  A change that alters outputs or traces on purpose updates this
# digest and says so in CHANGES.md.
CORPUS_DIGEST = "fca29b33d47ff9770688fd742d743c4c8ce6d9c859495729e3e6e2762849992e"


def test_acceptance_corpus_bytes_are_pinned(tmp_path):
    records = _corpus()
    digest = hashlib.sha256()
    path = tmp_path / "out"
    write_csv(records, path)
    digest.update(path.read_bytes())
    for record in records:
        write_trace(record, path)
        digest.update(path.read_bytes())
        digest.update(json.dumps(record.outcome.outputs, sort_keys=True).encode())
    assert digest.hexdigest() == CORPUS_DIGEST


# sha256 over runs whose adversary draws multi-kilobit payloads, which the
# acceptance corpus (L <= 18) never reaches: `algo2` at (10,3,4), L=256,
# relays CORE values thousands of bits long.  Each record's JSONL trace and
# its outputs as sorted JSON, in order.
LARGE_PAYLOAD_DIGEST = "a0d351e2f6150c5034f881e299ee6012cbc2eecff6a38205f56d7aa7889f9999"


def test_large_payload_runs_are_pinned(tmp_path):
    records = []
    for algorithm, (n, t, c, L) in (("algo2", (10, 3, 4, 256)), ("dispute_bb", (7, 2, 3, 18))):
        records.extend(run_scenario(Scenario(
            n=n, t=t, c=c, L=L, algorithm=algorithm, strategy="randomized_byzantine",
            repetitions=2)))
    digest = hashlib.sha256()
    path = tmp_path / "trace.jsonl"
    for record in records:
        write_trace(record, path)
        digest.update(path.read_bytes())
        digest.update(json.dumps(record.outcome.outputs, sort_keys=True).encode())
    assert digest.hexdigest() == LARGE_PAYLOAD_DIGEST


# sha256 over (10,3,4), L=16, both algorithms, every strategy, seeds 0-1:
# the CSV, then each record's JSONL trace and its outputs as sorted JSON.
# At n = 10 three faulty nodes make receivers hear differently in many
# rounds, which the corpus's t <= 2 runs reach less often.
WIDE_CORPUS_DIGEST = "372fe8bf71094147e01566828f168e847af74bf9f1c8efb5bd39ea4e7b067501"


def test_wide_corpus_bytes_are_pinned(tmp_path):
    records = []
    for algorithm in ("dispute_bb", "algo2"):
        for name in sorted(STRATEGY_REGISTRY):
            records.extend(run_scenario(Scenario(
                n=10, t=3, c=4, L=16, algorithm=algorithm, strategy=name, repetitions=2)))
    digest = hashlib.sha256()
    path = tmp_path / "out"
    write_csv(records, path)
    digest.update(path.read_bytes())
    for record in records:
        write_trace(record, path)
        digest.update(path.read_bytes())
        digest.update(json.dumps(record.outcome.outputs, sort_keys=True).encode())
    assert digest.hexdigest() == WIDE_CORPUS_DIGEST


def test_sweep_with_two_jobs_writes_what_one_job_writes(tmp_path, capsys):
    # 16 (scenario, repetition) pairs over 8 scenarios, through one pool
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "n": [7], "t": [2], "c": [3], "L": ["1D"],
        "algorithm": ["dispute_bb", "algo2"],
        "strategy": ["honest", "crash_silent", "equivocating_source", "randomized_byzantine"],
        "repetitions": [2]}))
    written = {}
    for jobs in ("1", "2"):
        out, trace_dir = tmp_path / f"out{jobs}.csv", tmp_path / f"traces{jobs}"
        argv = ["sweep", str(grid), "--out", str(out), "--trace", str(trace_dir), "--jobs", jobs]
        assert main(argv) == 0
        traces = {p.name: p.read_bytes() for p in sorted(trace_dir.iterdir())}
        written[jobs] = (capsys.readouterr().out, out.read_bytes(), traces)
    assert len(written["1"][2]) == 16
    assert written["2"] == written["1"]


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_reports_an_exception_inside_a_run_as_fail(tmp_path, capsys, monkeypatch, command):
    # The first repetition passes; the second (seed 1) raises inside the
    # protocol.  The CLI prints the first as PASS and the second as one
    # FAIL line naming its point and the exception, and exits 1.
    calls = []
    original = harness.run_byzantine_broadcast

    def broken(x, config, strategy):
        calls.append(config.seed)
        if config.seed == 1:
            raise ProtocolError("raised inside the run")
        return original(x, config, strategy)

    monkeypatch.setattr(harness, "run_byzantine_broadcast", broken)
    if command == "run":
        path = _write_scenario(tmp_path, repetitions=3)
    else:
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(
            {"n": [4], "t": [1], "c": [3], "L": ["1D"], "repetitions": [3]}))
    out_csv = tmp_path / "out.csv"
    assert main([command, str(path), "--out", str(out_csv)]) == 1
    lines = capsys.readouterr().out.splitlines()
    L = 12 if command == "run" else 6
    assert lines == [
        f"PASS n=4 t=1 L={L} dispute_bb/honest seed=0",
        f"FAIL n=4 t=1 L={L} dispute_bb/honest seed=1 ProtocolError: raised inside the run",
    ]
    assert calls == [0, 1]
    assert len(out_csv.read_text().splitlines()) == 2  # header + the passing record


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_writes_the_partial_trace_of_a_run_that_raised(tmp_path, capsys, monkeypatch, command):
    # Seed 1 raises at its first detection broadcast, after the two DB
    # rounds of generation 1.  The FAIL line names fail_seed1.jsonl, in
    # --trace for `run` and in the working directory for `sweep`, holding
    # the trace up to the raise; replay folds it.
    original = dispute_bb.eig_broadcast

    def broken(sim, *args, **kwargs):
        if sim.config.seed == 1:
            raise ProtocolError("raised after the DB rounds")
        return original(sim, *args, **kwargs)

    monkeypatch.setattr(dispute_bb, "eig_broadcast", broken)
    monkeypatch.chdir(tmp_path)
    if command == "run":
        trace_dir = tmp_path / "traces"
        argv = ["run", str(_write_scenario(tmp_path, repetitions=3)), "--trace", str(trace_dir)]
        L, fail = 12, trace_dir / "fail_seed1.jsonl"
    else:
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(
            {"n": [4], "t": [1], "c": [3], "L": ["1D"], "repetitions": [3]}))
        argv = ["sweep", str(path)]
        L, fail = 6, Path("fail_seed1.jsonl")
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"PASS n=4 t=1 L={L} dispute_bb/honest seed=0",
        f"FAIL n=4 t=1 L={L} dispute_bb/honest seed=1 ProtocolError: raised after the DB rounds"
        f" trace={fail}",
    ]
    # the source's block, then the three peers' symbols
    entries = _read_trace(fail)
    assert [(e.round, e.sender, e.phase) for e in entries] == [
        (1, 1, "DB"), (2, 2, "DB"), (2, 3, "DB"), (2, 4, "DB")]
    assert main(["replay", str(fail)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "4 slots"


def test_cli_reports_a_raised_run_alike_with_two_jobs(tmp_path, capsys, monkeypatch):
    # The sweep case above under --jobs 1 and --jobs 2: the worker's
    # exception carries the same message and partial trace.  The pool's
    # workers are forked, so they run the patched eig_broadcast.
    original = dispute_bb.eig_broadcast

    def broken(sim, *args, **kwargs):
        if sim.config.seed == 1:
            raise ProtocolError("raised after the DB rounds")
        return original(sim, *args, **kwargs)

    monkeypatch.setattr(dispute_bb, "eig_broadcast", broken)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"n": [4], "t": [1], "c": [3], "L": ["1D"], "repetitions": [3]}))
    reported = {}
    for jobs in ("1", "2"):
        work = tmp_path / f"jobs{jobs}"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["sweep", str(grid), "--jobs", jobs]) == 1
        reported[jobs] = (capsys.readouterr().out, (work / "fail_seed1.jsonl").read_bytes())
    assert reported["1"][0].splitlines()[-1] == (
        "FAIL n=4 t=1 L=6 dispute_bb/honest seed=1 ProtocolError: raised after the DB rounds"
        " trace=fail_seed1.jsonl")
    assert reported["2"] == reported["1"]


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("jobs", ["0", "-2", "two"])
def test_cli_refuses_jobs_below_one_before_any_run(tmp_path, capsys, monkeypatch, command, jobs):
    # A usage error, exit 2, before the file is read or anything runs.
    def no_run(*args):
        raise AssertionError("a repetition ran")

    monkeypatch.setattr(harness, "run_repetition", no_run)
    out_csv = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main([command, str(tmp_path / "missing.json"), "--out", str(out_csv), "--jobs", jobs])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --jobs: must be an integer of at least 1, not {jobs!r}" in captured.err
    assert not out_csv.exists()
