"""Fast tests of the benchmark itself.

  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from selbroadcast import Scenario, run_repetition  # noqa: E402
from selbroadcast.channel import TraceEntry  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _record(n, t, c, L, algorithm="dispute_bb", strategy="honest", seed=0):
    x = "10" * (L // 2) + "1" * (L % 2)
    scenario = Scenario(n=n, t=t, c=c, L=L, algorithm=algorithm, strategy=strategy,
                        base_seed=seed, input_bits=x)
    return run_repetition(scenario, 0), x


def test_benchmark_json_names_what_run_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [s.why for s in workloads.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_pass_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    if trace:
        attributed = sum(metrics[m] for _, m in tracing.LAYERS.values()) + metrics["unattributed_s"]
        assert attributed == pytest.approx(metrics["traced.pass_s"], abs=1e-6)
        assert metrics["eig.calls"] > 0 and metrics["channel.deliver_calls"] > 0
    else:
        assert all(v > 0 for v in metrics.values())


@pytest.mark.parametrize("args", [
    (4, 1, 3, 12),
    (7, 2, 3, 18, "dispute_bb", "equivocating_source", 2),
    (7, 2, 3, 18, "dispute_bb", "randomized_byzantine", 5),
    (7, 1, 3, 15, "algo2"),
    (7, 1, 3, 15, "algo2", "randomized_byzantine", 1),
])
def test_check_accepts_real_runs(args):
    record, x = _record(*args)
    assert check.problems(record, x) == []


def test_check_flags_corrupted_outputs():
    record, x = _record(4, 1, 3, 12)
    outputs = record.outcome.outputs
    flipped = x[:-1] + ("0" if x[-1] == "1" else "1")

    outputs[3] = flipped
    assert any("different values" in p for p in check.problems(record, x))
    for p in outputs:
        outputs[p] = flipped
    assert any("differs from" in p for p in check.problems(record, x))
    outputs[2] = x[:-1]
    assert any("no L-bit value" in p for p in check.problems(record, x))
    del outputs[2]
    assert any("no L-bit value" in p for p in check.problems(record, x))


def test_check_flags_wrong_db_bit_count():
    record, x = _record(7, 2, 3, 18)
    assert check.expected_db_bits(7, 2, 18) == 54
    record.outcome.meter.add(True, "DB", 1, 1)
    assert any("DB bits" in p for p in check.problems(record, x))


def test_check_flags_passive_node_that_transmits():
    record, x = _record(7, 1, 3, 15, "algo2")
    record.outcome.trace.append(TraceEntry(99, 1, 6, "broadcast", 15, "ANN", True))
    assert check.problems(record, x) == ["fault-free nodes [6] outside the committee transmitted"]


def test_tracer_restores_the_program():
    import selbroadcast as sb

    round_, deliver = sb.channel.Simulation.round, sb.channel.channel_deliver
    tracer = tracing.Tracer()
    tracer.install(sb)
    try:
        assert sb.channel.Simulation.round is not round_
        run_repetition(Scenario(n=4, t=1, c=3, L=6, strategy="crash_silent"), 0)
    finally:
        tracer.uninstall()
    assert sb.channel.Simulation.round is round_ and sb.channel.channel_deliver is deliver
    layers = tracer.summary()
    assert layers["channel.round_calls"] > 0 and layers["adversaries.act_calls"] > 0
    assert layers["rs.check_calls"] == 3 and layers["gf.init_calls"] == 1


def _result_set(path, run_rel, bits=7.0, failed=0):
    entries = [
        {"workload": "bb_long_input", "seed": seed, "trace": 0, "result": {
            "correct": True, "attempted": 40, "failed": failed, "metrics": {
                "run_rel": {"value": run_rel * (1 + seed / 100), "unit": "ref"},
                "honest_bits_per_input_bit": {"value": bits, "unit": "bits/bit"},
            }}}
        for seed in range(1, 6)
    ]
    path.write_text("".join(json.dumps(e) + "\n" for e in entries))
    return path


def test_compare_agrees_only_within_bounds(tmp_path, capsys):
    a = compare.load(_result_set(tmp_path / "a.jsonl", 8.0))
    assert compare.compare(a, compare.load(_result_set(tmp_path / "b.jsonl", 8.3)), SPEC) == 0
    assert compare.compare(a, compare.load(_result_set(tmp_path / "c.jsonl", 12.0)), SPEC) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.compare(a, compare.load(_result_set(tmp_path / "d.jsonl", 8.0, bits=7.5)), SPEC) == 1
    assert compare.compare(a, compare.load(_result_set(tmp_path / "e.jsonl", 8.0, failed=1)), SPEC) == 1
    assert compare.summarise(a, SPEC) == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "results", "traces", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bb_eig_heavy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
