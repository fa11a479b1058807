"""Message-efficient Byzantine Broadcast with an active committee.

The committee is two ranges, held by `run_algorithm2`: `active`, ids
1..3t+1 (the source is id 1), and `announcers`, ids 1..2t+1.  The
source broadcasts its value, the active nodes run a consensus core over
what they received, the announcers announce the decision, and every id
above 3t+1 is passive: it never transmits and takes a majority vote over
the announcements.  Fault-free traffic is therefore independent of n
once n > 3t+1.

The consensus core has every active node EIG-broadcast its received
value inside the committee and decides by plurality over the agreed
vector (ties broken toward the smallest value).  Each value passes one
EIG instance per call, not one batch: the values are L bits long, and a
batch keeps every instance's levels alive at once (`dispute_bb` gives
what batching cost in a prototype).

Every step in which a fault-free node would send identical messages to
several receivers is a single channel broadcast;
`outcome.meter.as_unicast(n, {"CORE"})` gives the point-to-point cost of
the same core.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from .adversaries import Strategy
from .channel import BbOutcome, ProtocolError, Simulation, SystemConfig, check_input
from .eig import canon, eig_broadcast


def majority_vote(values: Sequence[str], t: int) -> str:
    """The value occurring at least t+1 times among 2t+1 announcements."""
    if len(values) != 2 * t + 1:
        raise ValueError(f"expected exactly {2 * t + 1} values")
    value, count = Counter(values).most_common(1)[0]
    if count < t + 1:
        raise ProtocolError("no value reached t+1 announcements")
    return value


def _plurality(values: Sequence[str]) -> str:
    counts = Counter(values)
    best = max(counts.values())
    return min(v for v, cnt in counts.items() if cnt == best)


def eig_core(sim: Simulation, active: range, received: dict[int, str]) -> dict[int, str]:
    """Consensus core: one EIG instance per active node over its received
    value; decide the plurality of the agreed vector."""
    results = [eig_broadcast(sim, {s: received[s]}, active, "CORE", "core")[s] for s in active]
    return {i: _plurality([res[i] for res in results]) for i in active}


def run_algorithm2(x: str, config: SystemConfig, strategy: Strategy) -> BbOutcome:
    """Source broadcast, committee consensus, announcement, majority vote."""
    check_input(x, config.L)
    L, t = config.L, config.t
    active, announcers = range(1, 3 * t + 2), range(1, 2 * t + 2)

    with Simulation(config, strategy) as sim:
        inbox = sim.round({1: x}, "SRC", "source_value")
        received = {i: canon(inbox[i].get(1), L) or "0" * L for i in active}

        decisions = eig_core(sim, active, received)
        fault_free_active = [i for i in active if i not in sim.faulty]
        if len({decisions[i] for i in fault_free_active}) != 1:
            raise ProtocolError("fault-free active nodes decided differently")

        intents = {a: decisions[a] for a in announcers}
        inbox3 = sim.round(intents, "ANN", "announce")

        outputs: dict[int, str] = {}
        for i in config.peers:
            if i in sim.faulty:
                continue
            if i in active:
                outputs[i] = decisions[i]
            else:
                votes = [canon(inbox3[i].get(a), L) or "0" * L for a in announcers]
                outputs[i] = majority_vote(votes, t)

    return BbOutcome(config=config, outputs=outputs, trace=sim.trace, faulty=sim.faulty)
