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

Batch: one call runs one instance per source of its `values`, all over
the same participants and `skip`, in the same t+1 rounds, so a node
sends at most one slot per round.  Round 1 gives each source one slot,
its value.  In relay round r (1..t) each relayer sends one payload: for
each instance it does not source, in ascending source order, its relays
of that instance `pack`ed, (m-2)!/(m-1-r)! values of 1+width bits with m
participants.  A payload of any other total length reads as absent in
every instance.  A one-entry batch is one instance, slot for slot.

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
alone, the payloads it holds from the relayers, so it is built once per
distinct view and shared by the receivers that hold that view: once per
round when every relayer sends one payload to all, not m times.  `_plan`
caches a batch's layout per round beside the shapes.  The last level is
built and resolved one instance at a time, so only one instance's last
level is alive at once.

Payload rules, stated once for every module: `canon` (exact length only)
and the flagged-list codec `pack`/`unpack` (any other length, silence too,
reads as all absent).  Node j reads every relayer, itself included, from
its inbox: the channel gives each sender its own intent.
"""

from __future__ import annotations

from functools import cache
from operator import itemgetter
from typing import Callable, Mapping, Optional, Sequence

from .channel import Simulation


def canon(payload: Optional[str], length: int) -> Optional[str]:
    """A received value counts only at exactly `length` bits."""
    if payload and len(payload) == length:
        return payload
    return None


def pack(values: Sequence[Optional[str]], width: int) -> str:
    """Each value as a 1 flag and its `width` bits; None as `width`+1 zeros."""
    absent = "0" * (1 + width)
    return "".join([absent if v is None else "1" + v for v in values])


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
    at labels without it); the count of values each relayer relays, the
    same for all; and `gather`, which builds the next level from the
    relayers' rows concatenated in that order.
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
        positions, keeps = zip(*((i, _select(kept)) for i, kept in relays))
        rounds.append((positions, keeps, len(relays[0][1]), _select(gather)))
    return tuple(rounds)


@cache
def _plan(m: int, faults: int, sources: tuple[int, ...], widths: tuple[int, ...]) -> tuple:
    """The batch plan of instances whose sources sit at positions
    `sources` (ascending) with value widths `widths`, cached once per
    batch a process meets, beside the shapes it reads.

    Per relay round: `senders`, for each relayer position in ascending
    order, its payload's length and the (instance, keep) of each instance
    it relays, in ascending source order; and per instance, for each of
    its relayers in participant order, (index among the senders, start,
    stop) of the instance's part of that relayer's payload, then the
    count of values in a part and the instance's `gather`.
    """
    shapes = [_shape(m, faults, s) for s in sources]
    rounds = []
    for r in range(faults):
        steps = [shape[r] for shape in shapes]
        relayers = sorted({p for positions, _, _, _ in steps for p in positions})
        index = {p: x for x, p in enumerate(relayers)}
        relays: list[list] = [[] for _ in relayers]  # per relayer, its (instance, keep)s
        length = [0] * len(relayers)  # per relayer, its payload length so far
        instances = []
        for k, ((positions, keeps, count, gather), width) in enumerate(zip(steps, widths)):
            size, parts = count * (1 + width), []
            for p, keep in zip(positions, keeps):
                x = index[p]
                relays[x].append((k, keep))
                parts.append((x, length[x], length[x] + size))
                length[x] += size
            instances.append((tuple(parts), count, gather))
        rounds.append((tuple(zip(relayers, length, map(tuple, relays))), tuple(instances)))
    return tuple(rounds)


def _resolve(level: dict[int, tuple], m: int, faults: int, width: int) -> dict[int, str]:
    """Each node's output, its last level voted bottom-up; nodes holding
    equal levels resolve once."""
    default = "0" * width
    resolved = {}
    for key in set(level.values()):
        values = [v or default for v in key]
        # Children blocks grow by one per level toward the root.
        for size in range(m - faults, m):
            values = [_majority(values[k : k + size], default) for k in range(0, len(values), size)]
        resolved[key] = values[0]
    return {j: resolved[key] for j, key in level.items()}


def eig_broadcast(
    sim: Simulation,
    values: Mapping[int, str],
    participants: Sequence[int],
    phase: str,
    purpose: str,
    skip: frozenset[int] = frozenset(),
) -> dict[int, dict[int, str]]:
    """Run one EIG instance per entry source -> value of `values`, as one
    batch against sim.config.t faults; returns, per source, each
    participant's resolved output.  A received value counts only at
    len(value) bits, the instance's width.

    `skip` holds nodes excluded from transmitting (already identified as
    faulty); their tree positions resolve to the default.
    """
    faults = sim.config.t
    participants = tuple(sorted(participants))
    sources = sorted(values)
    if not sources or not set(sources) <= set(participants):
        raise ValueError("every source must participate")
    if len(participants) < 3 * faults + 1:
        raise ValueError("need at least 3t+1 participants")
    m = len(participants)
    widths = tuple(len(values[s]) for s in sources)
    extra = {"purpose": purpose}

    inbox = sim.round({s: values[s] for s in sources if s not in skip}, phase, "eig.source", extra)
    held = [{j: (canon(inbox[j].get(s), w),) for j in participants} for s, w in zip(sources, widths)]
    outputs = {}
    plan = _plan(m, faults, tuple(map(participants.index, sources)), widths)
    for r, (senders, instances) in enumerate(plan, start=1):
        relayers = [participants[p] for p, _, _ in senders]
        intents = {}  # a skipped relayer is silent
        relayed = {}  # (relayer index, instance) -> the values its intent carries
        for x, (i, (_, _, relays)) in enumerate(zip(relayers, senders)):
            if i not in skip:
                parts = []
                for k, keep in relays:
                    row = relayed[x, k] = keep(held[k][i])
                    parts.append(pack(row, widths[k]))
                intents[i] = "".join(parts)
        inbox = sim.round(intents, phase, "eig.relay", extra)
        silent = [""] * len(relayers)
        views: dict[tuple[str, ...], list[int]] = {}  # receivers with equal views share levels
        for j in participants:
            views.setdefault(tuple(map(inbox[j].get, relayers, silent)), []).append(j)
        for k, (parts, count, gather) in enumerate(instances):
            width, level, absent = widths[k], held[k], [None] * count
            parsed = {}  # (relayer index, payload) -> its values of instance k
            for x, _, _ in parts:
                if (x, k) in relayed:  # an intended relay needs no parse
                    parsed[x, intents[relayers[x]]] = relayed[x, k]
            for view, receivers in views.items():
                rows: list[Optional[str]] = []
                for x, start, stop in parts:
                    payload = view[x]
                    row = parsed.get((x, payload))
                    if row is None:  # a payload of the wrong total length is absent throughout
                        row = parsed[x, payload] = (
                            unpack(payload[start:stop], count, width)
                            if len(payload) == senders[x][1]
                            else absent
                        )
                    rows.extend(row)
                built = gather(rows)
                for j in receivers:
                    level[j] = built
            if r == faults:  # resolved now, so one instance's last level is alive at a time
                outputs[sources[k]] = _resolve(level, m, faults, width)
                held[k] = None
    if not faults:
        outputs = {s: _resolve(level, m, faults, w) for s, level, w in zip(sources, held, widths)}
    return outputs
