"""The benchmark's workloads: scenarios and input bit strings built from a seed.

A workload is a fixed list of jobs; one pass runs every job once through
`harness.run_repetition` and then writes whatever the workload writes.
The benchmark's `--seed` picks the input bit strings only.  The scenario
seeds, which fix each adversary's corrupt set and its random choices, are
constants, so the fault-free traffic of a pass does not depend on
`--seed` for the honest and committee workloads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Spec:
    why: str
    configs: tuple  # (n, t, c, L) per system size
    algorithms: tuple
    strategies: tuple  # () means every registered strategy
    scenario_seeds: tuple
    writes: bool  # CSV of the pass plus one JSONL trace per record


# Corpus sizes are those of the acceptance corpus in tests/test_acceptance.py.
CORPUS_CONFIGS = ((4, 1, 3, 12), (7, 2, 3, 18))

WORKLOADS = {
    "bb_eig_heavy": Spec(
        why="dispute_bb honest at (10,3,4), L=160: the n one-bit EIG detection broadcasts per generation dominate",
        configs=((10, 3, 4, 160),),
        algorithms=("dispute_bb",),
        strategies=("honest",),
        scenario_seeds=(0,),
        writes=False,
    ),
    "bb_long_input": Spec(
        why="dispute_bb honest at (4,1,3), L=2400: 400 generations with tiny EIG trees, so GF/RS, channel and DB code carry the run",
        configs=((4, 1, 3, 2400),),
        algorithms=("dispute_bb",),
        strategies=("honest",),
        scenario_seeds=(0, 1, 2, 3),
        writes=False,
    ),
    "committee_byzantine": Spec(
        why="algo2 randomized_byzantine at (10,3,4), L=256: adversary act and L-bit CORE EIG instances dominate",
        configs=((10, 3, 4, 256),),
        algorithms=("algo2",),
        strategies=("randomized_byzantine",),
        scenario_seeds=(0, 1),
        writes=False,
    ),
    "sweep_corpus": Spec(
        why="acceptance-corpus make-up: many small runs of both algorithms and all 7 strategies, with CSV and JSONL trace writing",
        configs=CORPUS_CONFIGS,
        algorithms=("dispute_bb", "algo2"),
        strategies=(),
        scenario_seeds=(0, 1, 2, 3, 4),
        writes=True,
    ),
}

# Smaller sizes for the benchmark's own smoke test; same shape, same layers.
TINY = {
    "bb_eig_heavy": dict(configs=((7, 2, 3, 18),)),
    "bb_long_input": dict(configs=((4, 1, 3, 60),), scenario_seeds=(0,)),
    "committee_byzantine": dict(configs=((7, 2, 3, 18),), scenario_seeds=(0,)),
    "sweep_corpus": dict(configs=((4, 1, 3, 12),), scenario_seeds=(0,)),
}


@dataclass(frozen=True)
class Job:
    scenario: object  # selbroadcast.Scenario with input_bits set
    x: str


def input_bits(rng: random.Random, length: int) -> str:
    return format(rng.getrandbits(length), f"0{length}b")


def build(sb, name: str, seed: int, tiny: bool = False) -> list[Job]:
    """The jobs of one pass, with inputs drawn from `seed`."""
    spec = WORKLOADS[name]
    fields = TINY[name] if tiny else {}
    configs = fields.get("configs", spec.configs)
    scenario_seeds = fields.get("scenario_seeds", spec.scenario_seeds)
    strategies = spec.strategies or tuple(sorted(sb.STRATEGY_REGISTRY))
    rng = random.Random(f"perfbench/{name}/{seed}")
    jobs = []
    for n, t, c, L in configs:
        for algorithm in spec.algorithms:
            for strategy in strategies:
                for s in scenario_seeds:
                    x = input_bits(rng, L)
                    scenario = sb.Scenario(
                        n=n, t=t, c=c, L=L,
                        algorithm=algorithm,
                        strategy=strategy,
                        base_seed=s,
                        input_bits=x,
                    )
                    jobs.append(Job(scenario, x))
    return jobs
