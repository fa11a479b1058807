"""Frozen label-keyed EIG broadcast, the reference for `selbroadcast.eig`.

This is `eig_broadcast` as it was before the flat per-level layout: each
receiver keeps a dict from label tuple to value, missing labels are filled
with None, and `_resolve` sorts the tree and votes bottom-up.  The
differential test in `test_eig.py` requires the library version to give
the same outputs and the same trace as this one.  Do not edit it to follow
changes in the library.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional, Sequence

from selbroadcast.channel import Simulation


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
