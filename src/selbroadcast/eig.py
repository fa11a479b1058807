"""Exponential-information-gathering Byzantine Broadcast (oral messages).

The classical t+1-round algorithm for t < n/3, used here as the 1-bit and
small-value broadcast subroutine.  It was designed for point-to-point
links, but every fault-free relayer sends identical content to everyone,
so each relay round collapses to a single channel broadcast
(`TrafficMeter.as_unicast` gives the point-to-point traffic).

Tree labels are tuples of distinct node ids rooted at the designated
source.  Round 1 the source sends its value; in round r every node
broadcasts, for each level-(r-1) label not containing it, the value it
holds for that label.  After t+1 rounds each node resolves the tree
bottom-up by strict majority with an all-zeros default on ties or
missing values.

Layout: `level` lists the labels of one tree depth, and each node holds
one list of values aligned with it.  The next level is built as
`[lab + (i,) for lab in level for i in participants if i not in lab]`,
so the children of `level[k]` form the k-th contiguous block of the next
level, every block of the same size.  Relaying and resolving therefore
go by position alone; labels are only consulted to decide who relays
what.
"""

from __future__ import annotations

from itertools import repeat
from typing import Optional, Sequence

from .channel import Simulation


def _canon(payload: Optional[str], length: int) -> Optional[str]:
    """A received value must be exactly `length` bits to count."""
    if payload and len(payload) == length:
        return payload
    return None


def _parse_level(payload: str, count: int, value_len: int) -> list[Optional[str]]:
    """Split a relay payload into `count` (flag + value) entries."""
    step = 1 + value_len
    if len(payload) != count * step:
        return [None] * count
    out = []
    for i in range(0, len(payload), step):
        if payload[i] == "1":
            out.append(payload[i + 1 : i + step])
        else:
            out.append(None)
    return out


def _majority(values: list[str], default: str) -> str:
    """The strict-majority value of `values`, else `default`."""
    for value in set(values):
        if 2 * values.count(value) > len(values):
            return value
    return default


def eig_broadcast(
    sim: Simulation,
    source: int,
    value: str,
    participants: Sequence[int],
    phase: str,
    purpose: str,
    skip: frozenset[int] = frozenset(),
) -> dict[int, str]:
    """Run one EIG instance of `value` against sim.config.t faults; returns
    each participant's resolved output.  A received value counts only at
    len(value) bits.

    `skip` holds nodes excluded from transmitting (already identified as
    faulty); their tree positions resolve to the default.
    """
    value_len, faults = len(value), sim.config.t
    participants = tuple(sorted(participants))
    if source not in participants:
        raise ValueError("source must participate")
    if len(participants) < 3 * faults + 1:
        raise ValueError("need at least 3t+1 participants")
    m = len(participants)
    extra = {"purpose": purpose}

    intents = {} if source in skip else {source: value}
    inbox = sim.round(intents, phase, "eig.source", extra)
    held = {j: [_canon(inbox[j].get(source), value_len)] for j in participants}
    held[source] = [value]

    level = [(source,)]
    for _ in range(faults):
        # sent[i]: i's held values of the labels not containing i, in level order.
        sent: dict[int, list[Optional[str]]] = {}
        intents = {}
        for i in participants:
            if i in skip:
                continue
            values = [v for lab, v in zip(level, held[i]) if i not in lab]
            if not values:
                continue
            sent[i] = values
            intents[i] = "".join("0" + "0" * value_len if v is None else "1" + v for v in values)
        inbox = sim.round(intents, phase, "eig.relay", extra)
        level = [lab + (i,) for lab in level for i in participants if i not in lab]
        # Child lab + (i,) takes the next value i relayed.  A skipped
        # relayer's positions resolve to the default, as do a silent one's
        # (its empty payload parses to all None).
        parsed: dict[tuple[int, str], list[Optional[str]]] = {}
        for j in participants:
            streams = {}
            for i in participants:
                if i not in sent:
                    streams[i] = repeat(None)
                elif i == j:
                    streams[i] = iter(sent[i])
                else:
                    key = (i, inbox[j].get(i, ""))
                    if key not in parsed:
                        parsed[key] = _parse_level(key[1], len(sent[i]), value_len)
                    streams[i] = iter(parsed[key])
            held[j] = [next(streams[lab[-1]]) for lab in level]

    default = "0" * value_len
    outputs = {}
    for j in participants:
        values = [v or default for v in held[j]]
        # Children blocks grow by one per level toward the root.
        for size in range(m - faults, m):
            values = [_majority(values[k : k + size], default) for k in range(0, len(values), size)]
        outputs[j] = values[0]
    return outputs
