"""Message-efficient Byzantine Broadcast with an active committee.

Only the 3t+1 lowest-id nodes (always including the source) participate:
the source broadcasts its value, the active nodes run a consensus core
over what they received, 2t+1 of them announce the decision, and the
remaining passive nodes -- who never transmit -- take a majority vote
over the announcements.  Fault-free traffic is therefore independent of
n once n > 3t+1.

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
from dataclasses import dataclass
from typing import Sequence

from .adversaries import Strategy
from .channel import (
    BbOutcome,
    ProtocolError,
    Simulation,
    SystemConfig,
)
from .eig import canon, eig_broadcast


@dataclass(frozen=True)
class CommitteeLayout:
    active: tuple[int, ...]
    announcers: tuple[int, ...]
    passive: tuple[int, ...]


def committee_layout(config: SystemConfig) -> CommitteeLayout:
    """Lowest 3t+1 ids are active (the source is id 1, hence included);
    the lowest 2t+1 active ids announce."""
    active = tuple(range(1, 3 * config.t + 2))
    return CommitteeLayout(
        active=active,
        announcers=active[: 2 * config.t + 1],
        passive=tuple(range(3 * config.t + 2, config.n + 1)),
    )


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


def eig_core(sim: Simulation, layout: CommitteeLayout, received: dict[int, str]) -> dict[int, str]:
    """Consensus core: one EIG instance per active node over its received
    value; decide the plurality of the agreed vector."""
    results = [eig_broadcast(sim, {s: received[s]}, layout.active, "CORE", "core")[s] for s in layout.active]
    return {i: _plurality([res[i] for res in results]) for i in layout.active}


def run_algorithm2(x: str, config: SystemConfig, strategy: Strategy) -> BbOutcome:
    """Source broadcast, committee consensus, announcement, majority vote."""
    if len(x) != config.L:
        raise ValueError(f"input must be exactly L={config.L} bits")
    layout = committee_layout(config)
    L = config.L

    with Simulation(config, strategy) as sim:
        inbox = sim.round({1: x}, "SRC", "source_value")
        received = {i: canon(inbox[i].get(1), L) or "0" * L for i in layout.active}

        decisions = eig_core(sim, layout, received)
        fault_free_active = [i for i in layout.active if i not in sim.faulty]
        if len({decisions[i] for i in fault_free_active}) != 1:
            raise ProtocolError("fault-free active nodes decided differently")

        intents = {a: decisions[a] for a in layout.announcers}
        inbox3 = sim.round(intents, "ANN", "announce")

        outputs: dict[int, str] = {}
        for i in config.peers:
            if i in sim.faulty:
                continue
            if i in layout.active:
                outputs[i] = decisions[i]
            else:
                votes = [canon(inbox3[i].get(a), L) or "0" * L for a in layout.announcers]
                outputs[i] = majority_vote(votes, config.t)

    return BbOutcome(config=config, outputs=outputs, trace=sim.trace, faulty=sim.faulty)
