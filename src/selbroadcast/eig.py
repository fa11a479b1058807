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
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional, Sequence

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


def eig_broadcast(
    sim: Simulation,
    source: int,
    value: str,
    value_len: int,
    participants: Sequence[int],
    faults: int,
    phase: str,
    purpose: str,
    skip: frozenset[int] = frozenset(),
) -> dict[int, str]:
    """Run one EIG instance; returns each participant's resolved output.

    `skip` holds nodes excluded from transmitting (already identified as
    faulty); their tree positions resolve to the default.
    """
    participants = tuple(sorted(participants))
    if source not in participants:
        raise ValueError("source must participate")
    if len(participants) < 3 * faults + 1:
        raise ValueError("need at least 3t+1 participants")
    rounds = faults + 1
    extra = {"purpose": purpose, "eig_source": source, "value_len": value_len}

    trees: dict[int, dict[tuple[int, ...], Optional[str]]] = {i: {} for i in participants}
    root = (source,)
    intents = {} if source in skip else {source: value}
    inbox = sim.round(intents, phase, "eig.source", extra)
    for i in participants:
        if i == source:
            trees[i][root] = value if len(value) == value_len else None
        else:
            trees[i][root] = _canon(inbox[i].get(source), value_len)

    level = [root]
    for _ in range(2, rounds + 1):
        sendable: dict[int, list[tuple[int, ...]]] = {}
        intents = {}
        for i in participants:
            if i in skip:
                continue
            labels = [lab for lab in level if i not in lab]
            if not labels:
                continue
            sendable[i] = labels
            tree = trees[i]
            parts = []
            for lab in labels:
                v = tree[lab]
                parts.append("0" + "0" * value_len if v is None else "1" + v)
            intents[i] = "".join(parts)
        inbox = sim.round(intents, phase, "eig.relay", extra)
        parsed: dict[tuple[int, str], list[Optional[str]]] = {}
        for j in participants:
            tree = trees[j]
            box = inbox[j]
            for i, labels in sendable.items():
                if i == j:
                    for lab in labels:
                        tree[lab + (i,)] = tree[lab]
                    continue
                payload = box.get(i, "")
                key = (i, payload)
                if key not in parsed:
                    parsed[key] = _parse_level(payload, len(labels), value_len)
                for lab, v in zip(labels, parsed[key]):
                    tree[lab + (i,)] = v
        level = [lab + (i,) for lab in level for i in participants if i not in lab]
        # Labels whose last relayer was silent (skipped node, or a faulty
        # node that sent nothing) resolve to the default.
        for j in participants:
            tree = trees[j]
            for lab in level:
                tree.setdefault(lab, None)

    default = "0" * value_len
    outputs = {}
    for i in participants:
        outputs[i] = _resolve(trees[i], level, participants, rounds, default)
    return outputs


def _resolve(
    tree: dict[tuple[int, ...], Optional[str]],
    leaves: Iterable[tuple[int, ...]],
    participants: Sequence[int],
    rounds: int,
    default: str,
) -> str:
    memo: dict[tuple[int, ...], str] = {}
    for lab in leaves:
        memo[lab] = tree.get(lab) or default
    labels = sorted(tree, key=len, reverse=True)
    for lab in labels:
        if len(lab) == rounds:
            continue
        children = [memo[lab + (j,)] for j in participants if j not in lab]
        counts = Counter(children).most_common()
        if counts and counts[0][1] * 2 > len(children):
            memo[lab] = counts[0][0]
        else:
            memo[lab] = default
    # len(lab) == rounds == 1 happens when t == 0: the root is the leaf.
    return memo[min(labels, key=len)]
