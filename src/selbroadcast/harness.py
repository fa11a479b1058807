"""Scenario runner: JSON scenarios in, metrics records and CSV out.

A scenario pins (n, t, c, L), an algorithm, a strategy and a repetition
count; repetition k runs with seed base_seed + k and a pseudo-random
L-bit input derived from that seed, so every record is reproducible
bit-for-bit.  Repetitions share nothing: `run_pairs` runs every
(scenario, repetition) pair of one `run_scenario` or CLI invocation in
order, through at most one process pool for all of them, and yields the
same records as a serial run.

A record is its scenario, its outcome and its CSV row.
"""

from __future__ import annotations

import csv
import itertools
import random as _random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .adversaries import make_strategy, random_bits
from .bounds import check_bounds
from .channel import BbOutcome, Simulation, SystemConfig, TraceEntry, check_bb_properties, check_input, generation_size
from .committee import run_algorithm2
from .dispute_bb import run_byzantine_broadcast

ALGORITHMS = ("dispute_bb", "algo2")


@dataclass(frozen=True)
class Scenario:
    n: int
    t: int
    c: int
    L: int
    algorithm: str = "dispute_bb"
    strategy: str = "honest"
    strategy_params: dict = field(default_factory=dict)
    repetitions: int = 1
    base_seed: int = 0
    input_bits: Optional[str] = None  # default: derived from the seed

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        for name, value in (("repetitions", self.repetitions), ("seeds", self.base_seed)):
            if type(value) is not int:
                raise TypeError(f"{name} must be an integer, not {value!r}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        config = SystemConfig(n=self.n, t=self.t, c=self.c, L=self.L)  # validates the point
        if self.input_bits is not None:
            check_input(self.input_bits, self.L)
        Simulation(config, make_strategy(self.strategy, config, **self.strategy_params))  # the t budget

    @classmethod
    def from_dict(cls, raw: dict) -> "Scenario":
        """The scenario of a JSON object; a key it does not read is refused."""
        read = {"algorithm", "strategy", "repetitions", "seeds", "input"}
        strat = raw.get("strategy", "honest")
        if isinstance(strat, dict):
            _refuse_unknown(strat, {"name", "params"}, "strategy.")
            name, params = strat.get("name", "honest"), _object(strat.get("params", {}), "strategy.params")
        else:
            name, params = strat, _object(raw.get("strategy_params", {}), "strategy_params")
            read.add("strategy_params")
        if not isinstance(name, str):
            where = "strategy.name" if isinstance(strat, dict) else "strategy"
            raise TypeError(f"{where} must be a strategy name, not {name!r}")
        cfg = _object(raw.get("config", raw), "config")
        if cfg is raw:
            read |= {"n", "t", "c", "L"}
        else:
            _refuse_unknown(cfg, {"n", "t", "c", "L"}, "config.")
            read.add("config")
        _refuse_unknown(raw, read)
        return cls(
            n=cfg["n"],
            t=cfg["t"],
            c=cfg["c"],
            L=_parse_length(cfg["L"], cfg),
            algorithm=raw.get("algorithm", "dispute_bb"),
            strategy=name,
            strategy_params=dict(params),
            repetitions=raw.get("repetitions", 1),
            base_seed=raw.get("seeds", 0),
            input_bits=raw.get("input"),
        )


def _object(value, where: str) -> dict:
    """`value` if it is a JSON object, else a TypeError naming the field at `where`."""
    if not isinstance(value, dict):
        raise TypeError(f"{where} must be an object, not {value!r}")
    return value


def _refuse_unknown(raw: dict, read: set, prefix: str = "") -> None:
    """Raise a ValueError naming each key of `raw` that is not in `read`."""
    unknown = [f"unknown field {prefix + str(key)!r}" for key in raw if key not in read]
    if unknown:
        raise ValueError(", ".join(unknown))


def _parse_length(value, cfg) -> int:
    """L may be an int or a "<k>D" multiple of the generation size."""
    if isinstance(value, int):
        return value
    text = str(value).strip().upper()
    try:
        if text.endswith("D"):
            return int(text[:-1] or "1") * generation_size(cfg["n"], cfg["t"], cfg["c"])
        return int(text)
    except ValueError:
        raise ValueError(f'L must be an integer or "<k>D", not {value!r}') from None


# CSV columns, in declaration order.
CSV_COLUMNS = (
    "n", "t", "c", "D", "L", "algorithm", "strategy", "seed", "rep",
    "verdict",
    "honest_messages", "honest_bits", "adversary_messages", "adversary_bits",
    "db_bits", "dd_bits", "dc_bits", "src_bits", "core_bits", "ann_bits",
    "dispute_control_invocations",
    "total_bb_cost_bits", "message_lower_bound", "static_db_lower_bound",
    "db_bits_exact", "messages_above_floor", "bits_at_least_L", "static_bound_met",
)


@dataclass
class MetricsRecord:
    scenario: Scenario
    outcome: BbOutcome
    row: dict  # the record's CSV row, keyed by CSV_COLUMNS

    @property
    def passed(self) -> bool:
        return self.row["verdict"] == "Pass"


def scenario_input(scenario: Scenario, seed: int) -> str:
    if scenario.input_bits is not None:
        return scenario.input_bits
    return random_bits(_random.Random(seed ^ 0x5EB0ADCA57), scenario.L)


def run_repetition(scenario: Scenario, rep: int) -> MetricsRecord:
    seed = scenario.base_seed + rep
    config = SystemConfig(n=scenario.n, t=scenario.t, c=scenario.c, L=scenario.L, seed=seed)
    strategy = make_strategy(scenario.strategy, config, **scenario.strategy_params)
    x = scenario_input(scenario, seed)
    if scenario.algorithm == "dispute_bb":
        outcome = run_byzantine_broadcast(x, config, strategy)
    else:
        outcome = run_algorithm2(x, config, strategy)
    verdict = check_bb_properties(outcome, x)
    meter = outcome.meter
    row = {
        "n": config.n,
        "t": config.t,
        "c": config.c,
        "D": config.D,
        "L": config.L,
        "algorithm": scenario.algorithm,
        "strategy": scenario.strategy,
        "seed": seed,
        "rep": rep,
        "verdict": verdict,
        "honest_messages": meter.honest_messages,
        "honest_bits": meter.honest_bits,
        "adversary_messages": meter.adversary_messages,
        "adversary_bits": meter.adversary_bits,
        "db_bits": meter.phase_honest_bits("DB"),
        "dd_bits": meter.phase_honest_bits("DD"),
        "dc_bits": meter.phase_honest_bits("DC"),
        "src_bits": meter.phase_honest_bits("SRC"),
        "core_bits": meter.phase_honest_bits("CORE"),
        "ann_bits": meter.phase_honest_bits("ANN"),
        "dispute_control_invocations": outcome.dc_invocations,
        **check_bounds(outcome, scenario.algorithm),
    }
    return MetricsRecord(scenario, outcome, row)


def pairs(scenarios: Iterable[Scenario]) -> list[tuple[Scenario, int]]:
    """Every (scenario, repetition) pair of the scenarios, in run order."""
    return [(s, rep) for s in scenarios for rep in range(s.repetitions)]


def run_pairs(todo: list[tuple[Scenario, int]], jobs: int = 1) -> Iterator[MetricsRecord]:
    """The records of the pairs, in order, run through at most one process
    pool.  An exception raised inside pair k propagates after records
    0..k-1 were yielded, so the caller knows the failing pair; the pairs
    the pool has not yet handed to a worker are then cancelled."""
    if jobs > 1 and len(todo) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(todo))) as pool:
            yield from pool.map(run_repetition, *zip(*todo))
    else:
        yield from itertools.starmap(run_repetition, todo)


def run_scenario(scenario: Scenario, jobs: int = 1) -> list[MetricsRecord]:
    return list(run_pairs(pairs([scenario]), jobs))


def grid_scenarios(grid: dict) -> tuple[list[Scenario], list[str]]:
    """The valid Scenarios of the grid's cartesian product, and one error
    line per point that is not one.  A key the grid does not read is a
    ValueError naming it."""
    keys = ("n", "t", "c", "L", "algorithm", "strategy", "repetitions", "seeds")
    _refuse_unknown(grid, {*keys, "strategy_params"})
    axes = {}
    for key in keys:
        if key in grid:
            v = grid[key]
            axes[key] = v if isinstance(v, list) else [v]
    names = list(axes)
    scenarios: list[Scenario] = []
    errors: list[str] = []
    for combo in itertools.product(*(axes[k] for k in names)):
        point = dict(zip(names, combo))
        if "strategy_params" in grid:
            point["strategy_params"] = grid["strategy_params"]
        try:
            if point.get("t") == "max":
                point["t"] = (point["n"] - 1) // 3
            scenarios.append(Scenario.from_dict(point))
        except KeyError as exc:
            errors.append(f"{point}: no {exc} field")
        except (ValueError, TypeError) as exc:
            errors.append(f"{point}: {exc}")
    return scenarios, errors


def write_csv(records: Iterable[MetricsRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for record in records:
            writer.writerow(record.row)


def write_trace(record: MetricsRecord, path) -> None:
    write_entries(record.outcome.trace, path)


_TRACE_LINE = '{"bits": %d, "honest": %s, "kind": "%s", "messages": %d, "phase": "%s", "round": %d, "sender": %d, "slot": %d}\n'


def write_entries(entries: Iterable[TraceEntry], path) -> None:
    """One line per delivered slot: its fields, keys sorted, in the bytes
    json.dumps(..., sort_keys=True) writes (kind and phase are ASCII names)."""
    with open(path, "w") as fh:
        fh.write("".join([_TRACE_LINE % (e.bits, "true" if e.honest else "false", e.kind, e.messages,
                                         e.phase, e.round, e.sender, e.slot) for e in entries]))
