#!/usr/bin/env python3
"""Benchmark of the selbroadcast simulator: one workload per process.

  python3 perfbench/run.py --workload bb_eig_heavy --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0 --results perfbench/results/A

Set-up imports `selbroadcast` from the `src/` directory next to this one
and builds the workload's jobs from `--seed`.  The run then repeats whole
passes over those jobs until `--seconds` have elapsed, timing the
reference loop of `reference.py` before the first pass and after each
one.  It checks every execution with the benchmark's own output check
and prints one metric a line, followed by a JSON object as the last line
of standard output.  With `--trace 0` that object holds the end-to-end
metrics, measured with no wrappers installed; with `--trace 1` it holds
the per-layer metrics, from traced passes alternating with untraced ones.
`--workload all` runs each workload in a fresh process, one after another.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACES = HERE / "traces"

import check  # noqa: E402  (siblings of this file)
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 15

END_TO_END = {
    "setup_s": "s",
    "run_rel": "ref",
    "pass_rel": "ref",
    "peak_rss_mb": "MB",
    "honest_bits_per_input_bit": "bits/bit",
    "honest_messages_per_run": "messages",
}


def _per_layer_units() -> dict[str, str]:
    units = {"wall.run_s": "s", "wall.pass_s": "s", "reference.probe_s": "s",
             "traced.pass_s": "s", "unattributed_s": "s", "tracing.overhead_s": "s"}
    for calls_metric, self_metric in tracing.LAYERS.values():
        if calls_metric:
            units[calls_metric] = "count"
        units[self_metric] = "s"
    for phase in tracing.PHASES:
        units[f"phase.{phase}_s"] = "s"
        units[f"bits.{phase}"] = "bits"
        units[f"messages.{phase}"] = "messages"
    for key in tracing.COUNTS:
        units[key] = "count"
    units["dispute_bb.dc_invocations"] = "count"
    units["harness.csv_bytes"] = "bytes"
    units["harness.trace_bytes"] = "bytes"
    return units


PER_LAYER = _per_layer_units()


def import_program():
    """A fresh import of selbroadcast, discarding any earlier one."""
    for name in [m for m in sys.modules if m == "selbroadcast" or m.startswith("selbroadcast.")]:
        del sys.modules[name]
    return importlib.import_module("selbroadcast")


def setup(name: str, seed: int, tiny: bool):
    """Import the program and build the jobs SETUP_REPEATS times; median time."""
    if not (SRC / "selbroadcast" / "__init__.py").is_file():
        raise SystemExit(f"no selbroadcast sources under {SRC}")
    sys.path.insert(0, str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        sb = import_program()
        jobs = workloads.build(sb, name, seed, tiny)
        times.append(time.perf_counter() - start)
    if SRC.resolve() not in Path(sb.__file__).resolve().parents:
        raise SystemExit(f"selbroadcast was imported from {sb.__file__}, not from {SRC}")
    return sb, jobs, statistics.median(times)


class Pass:
    """One timed pass over the jobs, then its (untimed) checks and counts."""

    def __init__(self, sb, name: str, jobs, out_dir: Path, tracer=None):
        self.run_times: list[float] = []
        self.failures: list[str] = []
        writes = workloads.WORKLOADS[name].writes
        body = lambda: self._body(sb, jobs, writes, out_dir)  # noqa: E731
        if tracer is not None:
            tracer.reset()
            tracer.install(sb)
            body = tracer.timed(tracing.ROOT, body)
        try:
            start = time.perf_counter()
            records = body()
            self.seconds = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.layers = tracer.summary() if tracer is not None else {}
        self._tally(records, jobs, writes, out_dir)

    def _body(self, sb, jobs, writes, out_dir):
        harness = sb.harness
        records = []
        for job in jobs:
            start = time.perf_counter()
            try:
                records.append(harness.run_repetition(job.scenario, 0))
            except Exception:  # a failed execution is counted, and the pass goes on
                records.append(traceback.format_exc())
            self.run_times.append(time.perf_counter() - start)
        if writes:
            done = [r for r in records if not isinstance(r, str)]
            harness.write_csv(done, out_dir / "records.csv")
            for i, record in enumerate(done):
                harness.write_trace(record, out_dir / f"trace_{i:04d}.jsonl")
        return records

    def _tally(self, records, jobs, writes, out_dir) -> None:
        counts = {f"{kind}.{p}": 0 for kind in ("bits", "messages") for p in tracing.PHASES}
        counts.update({"L": 0, "runs": 0, "dispute_bb.dc_invocations": 0})
        digest = hashlib.sha256()
        for job, record in zip(jobs, records):
            if isinstance(record, str):
                self.failures.append(record)
                continue
            found = check.problems(record, job.x)
            if found:
                self.failures.append("; ".join(found))
            outcome = record.outcome
            meter = outcome.meter
            for p in tracing.PHASES:
                counts[f"bits.{p}"] += meter.phase_honest_bits(p)
                counts[f"messages.{p}"] += meter.phase_honest_messages(p)
            counts["L"] += outcome.config.L
            counts["runs"] += 1
            counts["dispute_bb.dc_invocations"] += outcome.dc_invocations
            digest.update(repr((sorted(outcome.outputs.items()), record.row)).encode())
        counts["harness.csv_bytes"] = _size(out_dir / "records.csv") if writes else 0
        counts["harness.trace_bytes"] = (
            sum(_size(p) for p in out_dir.glob("trace_*.jsonl")) if writes else 0
        )
        self.counts = counts
        self.digest = digest.hexdigest()


def _size(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    sb, jobs, setup_s = setup(name, seed, tiny)
    out_dir = TRACES / name
    if workloads.WORKLOADS[name].writes:
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
    tracer = tracing.Tracer() if trace else None
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    probes = [reference.probe()]
    while True:
        plain.append(Pass(sb, name, jobs, out_dir))
        if tracer is not None:
            traced.append(Pass(sb, name, jobs, out_dir, tracer))
        probes.append(reference.probe())
        if time.perf_counter() >= deadline:
            break
    passes = plain + traced
    # Each untraced pass against the mean of the reference probes either side of it.
    refs = [(a + b) / 2 for a, b in zip(probes, probes[1:])]

    problems = []
    if len({p.digest for p in passes}) != 1 or len({repr(p.counts) for p in passes}) != 1:
        problems.append("passes over the same jobs gave different outputs or meters")
    counts = passes[0].counts
    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            # Per job, the median over passes; then the mean over the jobs,
            # which differ widely in size on sweep_corpus.
            "run_rel": statistics.fmean(
                statistics.median(p.run_times[j] / ref for p, ref in zip(plain, refs))
                for j in range(len(jobs))
            ),
            "pass_rel": statistics.median(p.seconds / ref for p, ref in zip(plain, refs)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "honest_bits_per_input_bit": sum(counts[f"bits.{p}"] for p in tracing.PHASES) / max(counts["L"], 1),
            "honest_messages_per_run": sum(counts[f"messages.{p}"] for p in tracing.PHASES) / max(counts["runs"], 1),
        }
        units = END_TO_END
    else:
        metrics = {
            "wall.run_s": statistics.median(t for p in plain for t in p.run_times),
            "wall.pass_s": statistics.median(p.seconds for p in plain),
            "reference.probe_s": statistics.median(probes),
        }
        for key in traced[0].layers:
            values = [p.layers[key] for p in traced]
            if PER_LAYER[key] == "s":
                metrics[key] = statistics.fmean(values)
            else:
                metrics[key] = values[0]
                if len(set(values)) != 1:
                    problems.append(f"{key} differs between passes over the same jobs")
        metrics["tracing.overhead_s"] = statistics.fmean(p.seconds for p in traced) - statistics.fmean(
            p.seconds for p in plain
        )
        for key in PER_LAYER:
            if key in counts:
                metrics[key] = counts[key]
        attributed = sum(metrics[m] for _, m in tracing.LAYERS.values()) + metrics["unattributed_s"]
        if abs(attributed - metrics["traced.pass_s"]) > 1e-6:
            problems.append(f"layer self times add up to {attributed}, not {metrics['traced.pass_s']}")
        tracer.dump(TRACES / f"spans_{name}.jsonl")
        units = PER_LAYER
    failures = [f for p in passes for f in p.failures]
    return {
        "passes": len(passes),
        "problems": problems,
        "first_failure": failures[0] if failures else None,
        "result": {
            "correct": not problems,
            "attempted": len(jobs) * len(passes),
            "failed": len(failures),
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        },
    }


def run_one(args) -> int:
    TRACES.mkdir(exist_ok=True)
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    result = report["result"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {report['passes']}")
    for problem in report["problems"]:
        print(f"PROBLEM {problem}")
    if report["first_failure"]:
        print(f"first failed execution: {report['first_failure']}")
    print(f"{'attempted':<34}{result['attempted']}")
    print(f"{'failed':<34}{result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"{name:<34}{metric['value']:<24.10g}{metric['unit']}")
    if args.results:
        args.results.mkdir(parents=True, exist_ok=True)
        entry = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "result": result}
        with open(args.results / "results.jsonl", "a") as fh:
            fh.write(json.dumps(entry) + "\n")
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so that peak memory is per workload."""
    combined = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        if args.results:
            cmd += ["--results", str(args.results)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        combined[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole passes until this many seconds have elapsed (0: one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, help="also append the result to DIR/results.jsonl")
    parser.add_argument("--tiny", action="store_true", help="small sizes, for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
