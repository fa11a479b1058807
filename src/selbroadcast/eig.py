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

Payload rules, stated once for every module: `canon` (exact length only)
and the flagged-list codec `pack`/`unpack` (any other length, silence too,
reads as all absent).  Node j reads relayer i as j holds it (i = j: its own relay).
"""

from __future__ import annotations

from typing import Optional, Sequence

from .channel import Simulation


def canon(payload: Optional[str], length: int) -> Optional[str]:
    """A received value counts only at exactly `length` bits."""
    if payload and len(payload) == length:
        return payload
    return None


def pack(values: Sequence[Optional[str]], width: int) -> str:
    """Each value as a 1 flag and its `width` bits; None as `width`+1 zeros."""
    absent = "0" * (1 + width)
    return "".join(absent if v is None else "1" + v for v in values)


def unpack(payload: str, count: int, width: int) -> list[Optional[str]]:
    """`pack`'s `count` values back; any other payload length reads as all None."""
    step = 1 + width
    if len(payload) != count * step:
        return [None] * count
    starts = range(0, len(payload), step)
    return [payload[p + 1 : p + step] if payload[p] == "1" else None for p in starts]


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
    held = {j: [canon(inbox[j].get(source), value_len)] for j in participants}
    held[source] = [value]

    level = [(source,)]
    for _ in range(faults):
        # counts[i]: the values i relays (all but the source; a skipped i is silent).
        counts: dict[int, int] = {}
        intents = {}
        parsed: dict[tuple[int, str], list[Optional[str]]] = {}  # values in i's payload
        for i in participants:
            values = [v for lab, v in zip(level, held[i]) if i not in lab]
            if values:
                counts[i] = len(values)
                if i not in skip:
                    intents[i] = pack(values, value_len)
                    parsed[i, intents[i]] = values  # i's own relay needs no parse
        inbox = sim.round(intents, phase, "eig.relay", extra)
        for i, payload in intents.items():
            inbox[i][i] = payload  # i holds its own relay as the protocol meant it
        level = [lab + (i,) for lab in level for i in participants if i not in lab]
        relayers = [lab[-1] for lab in level]
        # Child lab + (i,) takes the next value of i's payload as j holds it.
        for j in participants:
            streams = {}
            for i, count in counts.items():
                payload = inbox[j].get(i, "")
                row = parsed.get((i, payload))
                if row is None:
                    row = parsed[i, payload] = unpack(payload, count, value_len)
                streams[i] = iter(row).__next__
            held[j] = [streams[i]() for i in relayers]

    default = "0" * value_len
    resolved = {}  # nodes holding equal values resolve once
    for key in set(map(tuple, held.values())):
        values = [v or default for v in key]
        # Children blocks grow by one per level toward the root.
        for size in range(m - faults, m):
            values = [_majority(values[k : k + size], default) for k in range(0, len(values), size)]
        resolved[key] = values[0]
    return {j: resolved[tuple(held[j])] for j in participants}
