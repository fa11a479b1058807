"""Command-line harness.

  selbroadcast run <scenario.json>   one scenario, CSV + optional traces
  selbroadcast sweep <grid.json>     cartesian parameter sweep
  selbroadcast verify-bounds N T L   print the closed-form bound values
  selbroadcast replay <trace.jsonl>  per-phase meter folded from a slot log

Exit code is 0 iff every verdict is Pass.  The first Fail verdict stops
the suite, with one FAIL line naming the offending seed and the path of a
replayable trace; so does an exception raised inside a run, with one FAIL
line naming the run's point, seed and exception, and the replayable trace
up to the raise, if any.  Later runs are not reported, and those no
worker has started never start.  An input file that is not a scenario,
grid or trace is one `path: reason` line on stderr, exit 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import typing
from pathlib import Path

from .bounds import (
    bit_cost_ratio,
    detectable_cost_bits,
    honest_messages,
    message_lower_bound,
    static_db_lower_bound_bits,
    total_bb_cost_bits,
)
from .channel import SystemConfig, TraceEntry, TrafficMeter, generation_size, min_symbol_bits
from .harness import (
    MetricsRecord,
    Scenario,
    grid_scenarios,
    pairs,
    run_pairs,
    write_csv,
    write_entries,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", type=Path, help="CSV output path")
    parser.add_argument("--trace", type=Path, help="directory for JSONL slot logs")
    parser.add_argument("--seed", type=int, help="override the base seed")
    parser.add_argument("--jobs", type=_jobs, default=1, help="worker processes for all the runs")


def _jobs(text: str) -> int:
    """A worker count: an integer of at least 1, else argparse's usage error."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0  # refused below, with the same message
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, not {text!r}")
    return jobs


def _label(scenario: Scenario, seed: int) -> str:
    return (
        f"n={scenario.n} t={scenario.t} L={scenario.L} "
        f"{scenario.algorithm}/{scenario.strategy} seed={seed}"
    )


_TRACE_NAME = "trace_n{n}_t{t}_c{c}_L{L}_{algorithm}_{strategy}_{seed}_{rep}.jsonl"


def _report(record: MetricsRecord, trace_dir) -> tuple | None:
    """Write the record's trace; print PASS, or return its FAIL."""
    row = record.row
    label = _label(record.scenario, row["seed"])
    if trace_dir:
        write_entries(record.outcome.trace, trace_dir / _TRACE_NAME.format_map(row))
    if not record.passed:
        return f"FAIL {label} verdict={row['verdict']}", row["seed"], record.outcome.trace
    print(f"PASS {label}")
    return None


def _run_and_report(scenarios: list[Scenario], args) -> int:
    """Run the scenarios' repetitions in order until the first Fail
    verdict or exception inside a run; the runs not yet started then never
    start.  Each record's trace and PASS line are written as it arrives;
    then the CSV of every record, and the failure, if any."""
    todo = pairs(scenarios)
    trace_dir = args.trace
    if trace_dir:
        trace_dir.mkdir(parents=True, exist_ok=True)
    records: list[MetricsRecord] = []
    failure = None  # (FAIL line, seed, trace)
    runs = run_pairs(todo, jobs=args.jobs)
    while failure is None and len(records) < len(todo):
        try:
            record = next(runs)
        except Exception as exc:  # a FAIL line, with the trace its Simulation attached
            scenario, rep = todo[len(records)]
            seed = scenario.base_seed + rep
            line = f"FAIL {_label(scenario, seed)} {type(exc).__name__}: {exc}"
            failure = (line, seed, getattr(exc, "trace", None))
            break
        records.append(record)
        failure = _report(record, trace_dir)
    runs.close()  # cancels the pairs no worker has started
    if args.out:
        write_csv(records, args.out)
    if failure is None:
        return 0
    line, seed, trace = failure
    if trace:
        path = (trace_dir or Path(".")) / f"fail_seed{seed}.jsonl"
        write_entries(trace, path)
        line += f" trace={path}"
    print(line)
    return 1


def _read_text(path: Path) -> str:
    """The text in `path`; a ValueError says why there is none."""
    try:
        return path.read_text()
    except OSError as exc:
        raise ValueError(exc.strerror or str(exc)) from None
    except UnicodeDecodeError:
        raise ValueError("not a text file") from None


def _read_object(path: Path) -> dict:
    """The JSON object in `path`; a ValueError says why there is none."""
    try:
        raw = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"not JSON ({exc.msg})") from None
    if not isinstance(raw, dict):
        raise ValueError("not a JSON object")
    return raw


def _cmd_run(args) -> int:
    """Run one scenario file; a file that is not a valid scenario is
    reported as one `path: reason` line, exit 1."""
    try:
        raw = _read_object(args.scenario)
        if args.seed is not None:
            raw["seeds"] = args.seed
        scenario = Scenario.from_dict(raw)
    except KeyError as exc:
        return _refuse(f"{args.scenario}: no {exc} field")
    except (ValueError, TypeError) as exc:
        return _refuse(f"{args.scenario}: {exc}")
    return _run_and_report([scenario], args)


def _cmd_sweep(args) -> int:
    """Run a grid file; a file that is not a JSON object, or that holds a
    key the grid does not read, is reported as one `path: reason` line,
    exit 1, and each invalid point as a SKIP line.  A grid with no valid
    point exits 1 after its SKIP lines."""
    try:
        grid = _read_object(args.grid)
        if args.seed is not None:
            grid["seeds"] = args.seed
        scenarios, errors = grid_scenarios(grid)
    except ValueError as exc:
        return _refuse(f"{args.grid}: {exc}")
    for err in errors:
        print(f"SKIP {err}")
    if not scenarios:
        return _refuse(f"{args.grid}: no point of the grid runs")
    return _run_and_report(scenarios, args)


def _cmd_verify_bounds(args) -> int:
    n, t, L = args.n, args.t, args.L
    c = min_symbol_bits(n)
    D = generation_size(n, t, c)
    try:  # each bound checks its arguments (n >= 3t + 1 first), before any output
        detectable = detectable_cost_bits(n, t, D)
        total = total_bb_cost_bits(n, t, L)
        static = static_db_lower_bound_bits(n, t, L)
        floor = message_lower_bound(t)
        committee = honest_messages(n, t, L, "algo2")
        SystemConfig(n=n, t=t, c=c, L=D)  # a point some run takes: c <= 8, so n <= 255
    except ValueError as exc:
        print(f"SKIP n={n} t={t} L={L}: {exc}")
        return 1
    ratio = bit_cost_ratio(n, t)
    in_range = 2 < ratio < 4
    print(f"n={n} t={t} L={L} (c={c}, D={D})")
    print(f"detectable_cost_bits(n, t, D) = {detectable}")
    print(f"total_bb_cost_bits(n, t, L)   = {total}")
    print(f"bit cost ratio                = {ratio} ({'within' if in_range else 'OUTSIDE'} (2, 4))")
    print(f"message_lower_bound(t)        = {floor}")
    try:  # defined only when L is a multiple of D
        print(f"honest_messages(dispute_bb)   = {honest_messages(n, t, L, 'dispute_bb', c)}")
    except ValueError as exc:
        print(f"honest_messages(dispute_bb)   = none ({exc})")
    print(f"honest_messages(algo2)        = {committee}")
    print(f"static_db_lower_bound(n, f={t}, L) = {static}")
    return 0 if (in_range or t == 0) else 1


_TRACE_TYPES = typing.get_type_hints(TraceEntry)  # field -> its type


def _refuse(reason: str) -> int:
    print(reason, file=sys.stderr)
    return 1


def _cmd_replay(args) -> int:
    """Fold a trace into its per-phase meter; a file or line that is not a
    trace is reported as one `path[:lineno]: reason` line, exit 1."""
    try:
        text = _read_text(args.trace)
    except ValueError as exc:
        return _refuse(f"{args.trace}: {exc}")
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{args.trace}:{lineno}"
        try:
            fields = json.loads(line)
        except json.JSONDecodeError as exc:
            return _refuse(f"{where}: not JSON ({exc.msg})")
        if not isinstance(fields, dict):
            return _refuse(f"{where}: not a JSON object")
        # A line without "messages" predates per-receiver counts: its
        # selective sends cannot be folded into the meter.
        if "messages" not in fields:
            return _refuse(f"{where}: no \"messages\" field; re-run to get a replayable trace")
        wrong = [f"unknown field {k!r}" for k in sorted(fields.keys() - _TRACE_TYPES.keys())]
        wrong += [f"no {k!r} field" for k in sorted(_TRACE_TYPES.keys() - fields.keys())]
        wrong += [f"{k!r} is not {t.__name__}" for k, t in _TRACE_TYPES.items()
                  if k in fields and type(fields[k]) is not t]
        if wrong:
            return _refuse(f"{where}: {', '.join(wrong)}")
        entries.append(TraceEntry(**fields))
    meter = TrafficMeter.from_trace(entries)
    print(f"{len(entries)} slots")
    print(f"{'phase':<8}{'honest_msgs':>12}{'honest_bits':>12}{'adv_msgs':>10}{'adv_bits':>10}")
    for phase in sorted(meter.by_phase):
        honest_msgs, honest_bits, adv_msgs, adv_bits = meter.by_phase[phase]
        print(f"{phase:<8}{honest_msgs:>12}{honest_bits:>12}{adv_msgs:>10}{adv_bits:>10}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="selbroadcast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("scenario", type=Path)
    _add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter grid")
    p_sweep.add_argument("grid", type=Path)
    _add_common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_vb = sub.add_parser("verify-bounds", help="evaluate the closed-form bounds")
    p_vb.add_argument("n", type=int)
    p_vb.add_argument("t", type=int)
    p_vb.add_argument("L", type=int)
    p_vb.set_defaults(func=_cmd_verify_bounds)

    p_replay = sub.add_parser("replay", help="summarize a JSONL slot log")
    p_replay.add_argument("trace", type=Path)
    p_replay.set_defaults(func=_cmd_replay)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
