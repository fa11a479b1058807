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
bottom-up by strict majority, all zeros on a tie or a missing value.

Batch: one call runs one instance per source of its `values`, all of one
width, over the same participants and `skip` in the same t+1 rounds (a
single source is a batch of one).  A node sends one slot per round at
most, a source its value in round 1.  In relay round r (1..t) a relayer
sends one `pack` of every relayed instance's kept values in ascending
source order: (m-2)!/(m-1-r)! values of 1+width bits per instance, with
m participants.  Any other length reads as absent in every instance.

Layout: a node holds one tuple per tree depth for the whole batch: each
instance's values in the label order `[lab + (i,) for lab in level for i
in participants if i not in lab]` (the children of a value form one
block, of one size per depth), the instances in source order.  `_tree`
computes a source at position 0's tables once per (m, t); any other
source's tree is that one with the positions renamed in order.  So
`_layout` composes, by arithmetic, per relay round each relayer's `keep`
and one gather for all instances, cached per (m, t, source positions),
every index an int of one shared pool.  No call looks at a label.  Each
distinct view builds its next level once, by one `extend` per relayer and
one gather; each distinct payload is parsed once, by one `unpack`.

The last level is voted where it is built, each instance on its slice,
first on a base level shared by every view: a relayer whose payload
differs between views (one that equivocated per receiver) gives VARY, a
sentinel, at each of its values.  A strict majority holds whatever the
VARY entries turn out to be; a block with none that holds VARY votes
VARY.  A root other than VARY is every participant's output; an instance
left VARY is voted again on each view's level.  A vote stops at the first
depth whose entries all agree.

Payload rules, stated once for every module: `canon` (exact length only)
and the flagged-list codec `pack`/`unpack` (any other length, silence
too, reads as all absent).  Node j reads every relayer, itself included,
from its inbox: the channel gives each sender its own intent.  Receivers
that share an inbox (they heard alike) share what is read from it.
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
    try:  # every flag is 1: one join, which itself refuses a None
        return "1" + "1".join(values) if values else ""
    except TypeError:
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


_INTS: list[int] = []  # the int object of each table index, shared by every table


def _select(positions: Sequence[int]) -> Callable[[Sequence], tuple]:
    """`itemgetter(*positions)`, as a tuple also for a single position."""
    get = itemgetter(*positions)
    return get if len(positions) > 1 else lambda seq: (get(seq),)


@cache
def _tree(m: int, faults: int) -> tuple:
    """Per relay round of a source at position 0's tree: `kept[x]`, where
    relayer x (position x+1) finds the values it relays, at labels without
    it; `gather`, where the next level's values lie in the relayers' rows."""
    level, rounds, ints = [(0,)], [], _INTS
    for _ in range(faults):
        below = [lab + (i,) for lab in level for i in range(1, m) if i not in lab]
        ints.extend(range(len(ints), len(below)))  # past every index of this round
        kept = [tuple([ints[k] for k, lab in enumerate(level) if i not in lab]) for i in range(1, m)]
        start = [x * len(kept[0]) for x in range(m - 1)]  # the rows have one length
        gather = []  # child lab + (i,) takes the next value of i's row
        for *_, i in below:
            gather.append(ints[start[i - 1]])
            start[i - 1] += 1
        rounds.append((kept, tuple(gather)))
        level = below
    return tuple(rounds)


@cache
def _layout(m: int, faults: int, sources: tuple[int, ...]) -> tuple:
    """The relaying positions, then per relay round their `keep`s and
    value counts and the next batch level's `gather`, of the batch sourced
    at the ascending positions `sources`.  Source s's tree is `_tree`'s
    with position x+1 renamed x + (x >= s), which keeps the label order."""
    relayers = [p for p in range(m) if len(sources) > (p in sources)]
    rounds, size, ints = [], 1, _INTS  # size: one instance's level length
    for kept, gather in _tree(m, faults):
        count = len(kept[0])
        ints.extend(range(len(ints), len(sources) * len(gather)))  # past every index of this round
        keeps, counts, rows = [], [], [{} for _ in sources]  # rows[k][p]: where p's values of k start
        for p in relayers:  # instance k's values lie at k * size in a batch level
            values = []
            for k, s in enumerate(sources):
                if s != p:
                    rows[k][p] = sum(counts) + len(values)
                    values += [ints[k * size + v] for v in kept[p - (p > s)]]
            keeps.append(_select(values))
            counts.append(len(values))
        batch = []
        for k, s in enumerate(sources):  # the tree's row x is instance k's row of position x + (x >= s)
            shift = [rows[k][x + (x >= s)] - x * count for x in range(m - 1)]
            batch += [ints[v + shift[v // count]] for v in gather]
        rounds.append((keeps, counts, _select(batch)))
        size = len(gather)
    return relayers, rounds


def _vote(level: tuple, m: int, faults: int, width: int):
    """One node's output: its last level voted bottom-up by strict
    majority, absent values as the all-zeros default.  VARY, being
    truthy, stays VARY, and so may the result."""
    if level[0] is not None and level.count(level[0]) == len(level):
        return level[0]  # every majority is that entry
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
    m, batch = len(participants), len(sources)
    extra = {"purpose": purpose}

    inbox = sim.round({s: values[s] for s in sources if s not in skip}, phase, "eig.source", extra)
    held, seen = {}, {}  # seen: per distinct inbox (by id), what its receivers hold
    for j in participants:
        box = inbox[j]
        if id(box) not in seen:
            seen[id(box)] = tuple([canon(box.get(s), width) for s in sources])
        held[j] = seen[id(box)]
    relayers, rounds = _layout(m, faults, tuple(map(participants.index, sources)))
    senders = [participants[p] for p in relayers]
    outputs = [{} for _ in sources]
    for r, (keeps, counts, gather) in enumerate(rounds, start=1):
        intents = {}  # a skipped relayer is silent
        parsed = [{} for _ in senders]  # per relayer: payload -> its values
        for i, keep, seen in zip(senders, keeps, parsed):
            if i not in skip:
                kept = keep(held[i])
                intents[i] = pack(kept, width)
                seen[intents[i]] = kept  # a relayer's own payload is never parsed
        inbox = sim.round(intents, phase, "eig.relay", extra)
        silent = [""] * len(senders)
        views: dict[tuple[str, ...], list[int]] = {}  # receivers with equal views share levels
        seen = {}  # per distinct inbox (by id): its view
        for j in participants:
            box = inbox[j]
            view = seen.get(id(box))
            if view is None:
                view = seen[id(box)] = tuple(map(box.get, senders, silent))
            views.setdefault(view, []).append(j)
        todo, base, undecided = views.items(), None, range(batch)
        if r == faults:  # the base view first: VARY where a relayer's payload differs between views
            base = tuple(p[0] if p.count(p[0]) == len(p) else VARY for p in zip(*views))
            todo = [(base, participants), *todo]
        for view, receivers in todo:
            flat = []
            for payload, seen, count in zip(view, parsed, counts):
                if payload not in seen:  # a wrong length reads as absent throughout
                    seen[payload] = [VARY] * count if payload is VARY else unpack(payload, count, width)
                flat.extend(seen[payload])
            built = gather(flat)
            if r < faults:
                held.update(dict.fromkeys(receivers, built))
                continue
            size = len(built) // batch  # voted where built, per instance; the receivers hold the votes
            for k in undecided:
                vote = _vote(built[k * size : (k + 1) * size], m, faults, width)
                outputs[k].update(dict.fromkeys(receivers, vote))
            if view is base:  # the base decided every participant but where it is VARY
                undecided = [k for k in undecided if outputs[k][receivers[0]] is VARY]
                if not undecided:
                    break
    if not faults:  # the source's round is the last: its one-entry levels are voted here
        outputs = [{j: _vote(held[j][k : k + 1], m, 0, width) for j in participants} for k in range(batch)]
    return dict(zip(sources, outputs))
