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

Layout: each node holds one tuple of values per tree depth, in the label
order `[lab + (i,) for lab in level for i in participants if i not in lab]`,
so the children of a value form one contiguous block and every block of
a depth has the same size.  That shape depends only on the participant
count m, t and the source's position among the sorted participants, so
`_shape` computes it once per (m, t, position), by position rather than
by node id: per relay round, the positions each relayer relays (an
`itemgetter` over its level) and one gather permutation that builds the
next level from the relayers' rows concatenated in participant order.
No call looks at a label.  A node's next level is a function of its view
alone, the payload it holds from each relayer, so it is built once per
distinct view and shared by the receivers that hold that view: once per
round when every relayer sends one payload to all, not m times.

Payload rules, stated once for every module: `canon` (exact length only)
and the flagged-list codec `pack`/`unpack` (any other length, silence too,
reads as all absent).  Node j reads every relayer, itself included, from
its inbox: the channel gives each sender its own intent.
"""

from __future__ import annotations

from functools import cache
from operator import itemgetter
from typing import Callable, Optional, Sequence

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


def _select(positions: Sequence[int]) -> Callable[[Sequence], tuple]:
    """`itemgetter(*positions)`, as a tuple also for a single position."""
    if len(positions) == 1:
        (p,) = positions
        return lambda seq: (seq[p],)
    return itemgetter(*positions)


@cache
def _shape(m: int, faults: int, s: int) -> tuple:
    """The tree shape of m participants with the source at position s,
    cached once per (m, faults, s) a process meets.

    Per relay round: the relayers' positions, in participant order; for
    each, `keep`, which reads from its level the values it relays (those
    at labels without it), and their count; and `gather`, which builds
    the next level from the relayers' rows concatenated in that order.
    """
    level = [(s,)]
    rounds = []
    for _ in range(faults):
        relays = [(i, [k for k, lab in enumerate(level) if i not in lab]) for i in range(m)]
        relays = [(i, kept) for i, kept in relays if kept]  # all but the source
        start, row_start = {}, 0
        for i, kept in relays:
            start[i], row_start = row_start, row_start + len(kept)
        level = [lab + (i,) for lab in level for i in range(m) if i not in lab]
        gather = []  # child lab + (i,) takes the next value of i's row
        for lab in level:
            gather.append(start[lab[-1]])
            start[lab[-1]] += 1
        positions, keeps, counts = zip(*((i, _select(kept), len(kept)) for i, kept in relays))
        rounds.append((positions, keeps, counts, _select(gather)))
    return tuple(rounds)


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
    held = {j: (canon(inbox[j].get(source), value_len),) for j in participants}

    for positions, keeps, counts, gather in _shape(m, faults, participants.index(source)):
        relayers = [participants[p] for p in positions]
        intents = {}  # a skipped relayer is silent
        parsed: dict[tuple[int, str], Sequence[Optional[str]]] = {}  # values in i's payload
        for i, keep in zip(relayers, keeps):
            if i not in skip:
                values = keep(held[i])
                intents[i] = pack(values, value_len)
                parsed[i, intents[i]] = values  # an intended relay needs no parse
        inbox = sim.round(intents, phase, "eig.relay", extra)
        silent = [""] * len(relayers)
        built: dict[tuple[str, ...], tuple] = {}  # receivers with equal views share a level
        for j in participants:
            view = tuple(map(inbox[j].get, relayers, silent))  # j's payload from each relayer
            if view not in built:
                rows: list[Optional[str]] = []
                for i, count, payload in zip(relayers, counts, view):
                    row = parsed.get((i, payload))
                    if row is None:
                        row = parsed[i, payload] = unpack(payload, count, value_len)
                    rows.extend(row)
                built[view] = gather(rows)
            held[j] = built[view]

    default = "0" * value_len
    resolved = {}  # nodes holding equal values resolve once
    for key in set(held.values()):
        values = [v or default for v in key]
        # Children blocks grow by one per level toward the root.
        for size in range(m - faults, m):
            values = [_majority(values[k : k + size], default) for k in range(0, len(values), size)]
        resolved[key] = values[0]
    return {j: resolved[held[j]] for j in participants}
