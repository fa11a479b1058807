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
sends at most one slot per round.  The values share one width (a batch
of mixed widths is refused).  Round 1 gives each source one slot, its
value.  In relay round r (1..t) each relayer sends one payload, the
`pack` of every relayed instance's kept values, in ascending source
order: (m-2)!/(m-1-r)! values of 1+width bits per instance, with m
participants.  A payload of any other total length reads as absent in
every instance.  A one-entry batch is one instance, slot for slot.

Layout: each node holds one tuple of values per tree depth, in the label
order `[lab + (i,) for lab in level for i in participants if i not in lab]`,
so the children of a value form one contiguous block and every block of
a depth has the same size.  That shape depends only on m, t and the
source's position among the sorted participants, so `_shape`, the only
layout table, computes it once per (m, t, position): per relay round,
each position's `keep` (an `itemgetter` of the values it relays) and
one gather permutation that builds the next level from the other
positions' rows in participant order.  A batch adds two rules: its
instances lie in ascending source order, and each relayer skips the one
it sources.  No call looks at a label.  A node's next level is a
function of its view alone, so it is built once per distinct view and
shared by the receivers that hold it: once per round when every relayer
sends one payload to all.  Each distinct payload is parsed once per
round into its rows per instance, a relayer's own intent not at all.

The last level is voted where it is built, first once per instance on a
base level shared by every view: a relayer whose payload differs between
views (one that equivocated per receiver) gives VARY, a sentinel, at
each of its values there, and its payloads are not parsed for it.  A
strict majority holds whatever the VARY entries turn out to be; a block
with none that holds VARY votes VARY.  A root other than VARY is every
participant's output.  Otherwise the instance falls back to one build
and vote per view, whose receivers take that vote.  A vote stops at the
first depth whose entries all agree, since every strict majority above
it returns that entry.  With one view the base is that view, so an
honest run votes once per instance, and the vote stops at once.

Payload rules, stated once for every module: `canon` (exact length only)
and the flagged-list codec `pack`/`unpack` (any other length, silence too,
reads as all absent).  `pack` of a list with no absent value is one
join.  Node j reads every relayer, itself included, from its inbox: the
channel gives each sender its own intent.
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
    if None not in values:  # every flag is 1: one join
        return "1" + "1".join(values) if values else ""
    absent = "0" * (1 + width)
    return "".join([absent if v is None else "1" + v for v in values])


def unpack(payload: str, count: int, width: int) -> list[Optional[str]]:
    """`pack`'s `count` values back; any other payload length reads as all None."""
    step = 1 + width
    if len(payload) != count * step:
        return [None] * count
    starts = range(0, len(payload), step)
    return [payload[p + 1 : p + step] if payload[p] == "1" else None for p in starts]


# A base-level entry that differs between receivers' views.
VARY = object()


def _majority(values: list, default: str):
    """The strict-majority value of `values`, else `default`, or VARY
    when VARY is among them: a completion of the VARY entries could then
    give a majority.  Candidates are tried in list order, so the work
    does not depend on the string hash seed."""
    for value in values:
        if 2 * values.count(value) > len(values):
            return value
    return VARY if VARY in values else default


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

    Per relay round: `keeps`, for each position, which reads from its
    level the values it relays (those at labels without it), None at the
    source; and `gather`, which builds the next level from the other
    positions' rows concatenated in participant order.
    """
    level = [(s,)]
    rounds = []
    for _ in range(faults):
        kept = [[k for k, lab in enumerate(level) if i not in lab] for i in range(m)]
        relayers = [i for i in range(m) if i != s]  # their rows have one length
        start = {i: x * len(kept[i]) for x, i in enumerate(relayers)}
        level = [lab + (i,) for lab in level for i in range(m) if i not in lab]
        gather = []  # child lab + (i,) takes the next value of i's row
        for lab in level:
            gather.append(start[lab[-1]])
            start[lab[-1]] += 1
        keeps = tuple(_select(positions) if positions else None for positions in kept)
        rounds.append((keeps, _select(gather)))
    return tuple(rounds)


def _rows(payload, instances: int, own: Optional[int], count: int, width: int) -> list:
    """A relayer's payload as its rows per instance: `count` values for
    each of the `instances` but `own` (the one it sources, None there).  A
    wrong total length reads as absent throughout, VARY as VARY."""
    relays = (instances - (own is not None)) * count
    relayed = [VARY] * relays if payload is VARY else unpack(payload, relays, width)
    rows = [relayed[a : a + count] for a in range(0, relays, count)]
    if own is not None:
        rows.insert(own, None)
    return rows


def _vote(level: tuple, m: int, faults: int, width: int):
    """One node's output: its last level voted bottom-up by strict
    majority, absent values as the all-zeros default.  VARY, being
    truthy, stays VARY, and so may the result."""
    default = "0" * width
    values = [v or default for v in level]
    # Children blocks grow by one per level toward the root.
    for size in range(m - faults, m):
        if values == [values[0]] * len(values):  # every majority above is that entry
            break
        values = [_majority(values[k : k + size], default) for k in range(0, len(values), size)]
    return values[0]


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
    participant's resolved output.  Every value of a batch has one width,
    and a received value counts only at that many bits.

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
    widths = {len(value) for value in values.values()}
    if len(widths) > 1:
        raise ValueError("every value of a batch must have one width")
    (width,) = widths
    m = len(participants)
    extra = {"purpose": purpose}

    inbox = sim.round({s: values[s] for s in sources if s not in skip}, phase, "eig.source", extra)
    held = [{j: (canon(inbox[j].get(s), width),) for j in participants} for s in sources]
    own = {participants.index(s): k for k, s in enumerate(sources)}  # position -> its instance
    relayers = [p for p in range(m) if len(sources) > (p in own)]  # all but a lone source
    senders = [participants[p] for p in relayers]
    count = 1  # values relayed per instance in relay round r: (m-2)!/(m-1-r)!
    for r, steps in enumerate(zip(*(_shape(m, faults, p) for p in own)), start=1):
        intents = {}  # a skipped relayer is silent
        parsed = [{} for _ in relayers]  # per relayer: payload -> rows per instance, None at its own
        for x, (p, i) in enumerate(zip(relayers, senders)):
            if i not in skip:
                rows = [keeps[p] and keeps[p](level[i]) for (keeps, _), level in zip(steps, held)]
                intents[i] = "".join([pack(row, width) for row in rows if row])
                parsed[x][intents[i]] = rows
        inbox = sim.round(intents, phase, "eig.relay", extra)
        silent = [""] * len(senders)
        views: dict[tuple[str, ...], list[int]] = {}  # receivers with equal views share levels
        for j in participants:
            views.setdefault(tuple(map(inbox[j].get, senders, silent)), []).append(j)
        todo, base = views.items(), None
        if r == faults:  # the base view first: VARY where a relayer's payload differs between views
            base = tuple(p[0] if p.count(p[0]) == len(p) else VARY for p in zip(*views))
            todo = [(base, participants), *todo]
        for k, (_, gather) in enumerate(steps):
            level = held[k]
            for view, receivers in todo:
                flat = []
                for x, payload in enumerate(view):
                    rows = parsed[x].get(payload)
                    if rows is None:  # not parsed yet
                        own_k = own.get(relayers[x])
                        rows = parsed[x][payload] = _rows(payload, len(sources), own_k, count, width)
                    if rows[k]:
                        flat.extend(rows[k])
                built = gather(flat)
                if r == faults:  # voted where built; the receivers hold their output
                    built = _vote(built, m, faults, width)
                    if built is VARY:  # the base is undecided: each view votes its own
                        continue
                for j in receivers:
                    level[j] = built
                if view is base:  # the base decided every participant
                    break
        count *= m - 1 - r
    if not faults:  # the source's round is the last: its one-entry levels are voted here
        held = [{j: _vote(v, m, 0, width) for j, v in level.items()} for level in held]
    return dict(zip(sources, held))
