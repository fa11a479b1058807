"""L-bit Byzantine Broadcast via coded Detectable Broadcast and dispute
control.

Each D-bit generation runs three phases:

  DB  Detectable Broadcast: the source broadcasts the generation block;
      every peer re-encodes it and broadcasts its own coded symbol; each
      peer then checks whether one codeword explains every symbol it is
      willing to trust (dispute-free senders only).  Either all
      fault-free peers recover the same block, or at least one of them
      raises a detection flag.

  DD  Detection Dissemination: every node 1-bit-broadcasts its flag via
      the EIG subroutine, so all fault-free nodes agree on who announced
      detection.  The n flags run as one EIG batch: t+1 rounds of one
      slot per node, n(t+1) fault-free messages in an honest generation.

  DC  Dispute Control (only when someone announced): the source
      broadcasts the block via EIG, every peer broadcasts its claims
      (the block it received plus its full symbol vector), and everyone
      derives dispute pairs from the now-common claim set.  A node in
      more than t disputes is excluded from the rest of the run; if the
      claims expose no contradiction at all, every detection announcer
      must itself be faulty and is excluded directly.  The value and
      each claim pass one EIG instance per call: claims are long, and a
      batch keeps every instance's levels alive at once.  A prototype
      that batched DC and the committee's core raised the peak memory
      of a (13,4,4), L=20 `randomized_byzantine` run from 39.7 to
      149.5 MB, and the `committee_byzantine` benchmark's from 27.3 to
      34.7 MB.

A payload of the wrong length reads as silence (`eig.canon`); a peer with
no D-bit source block takes the all-zeros default.  Fault-free symbols
alone give every fault-free peer's view its n-2t non-null symbols.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .adversaries import Strategy
from .channel import (
    BbOutcome,
    DisputeGraph,
    ProtocolError,
    Simulation,
    SystemConfig,
    check_input,
    dispute_pair,
)
from .eig import canon, eig_broadcast, pack, unpack
from .gf import GF
from .rs import RSCode, bits_to_symbols, symbols_to_bits

Block = tuple[int, ...]


@dataclass
class GenerationRecord:
    """Per-generation ground truth kept for assertions and reporting."""

    skipped: bool = False
    z: dict[int, Block] = field(default_factory=dict)
    detected: dict[int, bool] = field(default_factory=dict)
    announced: dict[int, bool] = field(default_factory=dict)
    dc_invoked: bool = False
    new_pairs: tuple[tuple[int, int], ...] = ()
    y_bits: dict[int, str] = field(default_factory=dict)


def db_assemble_view(
    code: RSCode,
    i: int,
    own: Optional[tuple[int, ...]],
    received_symbols: dict[int, str],
    disputes: DisputeGraph,
    excluded: frozenset[int],
) -> list[Optional[int]]:
    """Build peer i's symbol vector r_i from every symbol slot, i's own too.

    Null for every node in dispute with i or with the source, for
    excluded nodes, and for peers that sent no c-bit symbol.  Position 1
    is the source's point of `own`, i's re-encoding of the block it
    received, which is None when i is in dispute with the source.
    """
    n, c = code.n, code.field.c
    view: list[Optional[int]] = [None] * n
    if own is not None:
        view[0] = own[0]
    for j in range(2, n + 1):
        if j in excluded:
            continue
        if disputes.in_dispute(1, j) or (j != i and disputes.in_dispute(i, j)):
            continue
        symbol = canon(received_symbols.get(j), c)
        if symbol:
            view[j - 1] = int(symbol, 2)
    nonnull = sum(1 for v in view if v is not None)
    if nonnull < code.k:
        raise ProtocolError(
            f"peer {i} holds {nonnull} non-null symbols, fewer than n-2t={code.k}"
        )
    return view


def db_resolve(code: RSCode, view) -> tuple[Block, bool]:
    """Unique block consistent with the view, or default + detection flag."""
    data = code.consistency_check(view)
    if data is None:
        return (0,) * code.k, True
    return data, False


def serialize_claim(block: Optional[Block], view, code: RSCode) -> str:
    """`pack`ed: the block as one c(n-2t)-bit value, then the n view symbols."""
    c = code.field.c
    head = pack([None if block is None else symbols_to_bits(block, c)], c * code.k)
    return head + pack([None if v is None else format(v, f"0{c}b") for v in view], c)


def parse_claim(bits: str, code: RSCode) -> tuple[Optional[Block], list[Optional[int]]]:
    """Inverse of `serialize_claim`; any other total length reads as no claim."""
    n, c = code.n, code.field.c
    head = 1 + c * code.k
    if len(bits) != head + n * (1 + c):
        return None, [None] * n
    (block,) = unpack(bits[:head], 1, c * code.k)
    view = [None if v is None else int(v, 2) for v in unpack(bits[head:], n, c)]
    return (None if block is None else bits_to_symbols(block, c)), view


def derive_disputes(
    code: RSCode,
    x_common: Block,
    claims: dict[int, tuple[Optional[Block], list[Optional[int]]]],
    disputes: DisputeGraph,
) -> list[tuple[int, int]]:
    """Cross-check the common claim set; every returned pair is new and is
    guaranteed to contain at least one faulty node."""
    new: list[tuple[int, int]] = []

    def propose(a: int, b: int):
        key = dispute_pair(a, b)
        if key not in new:
            new.append(key)

    encoded: dict[int, Optional[tuple[int, ...]]] = {}
    for w, (block, _) in claims.items():
        encoded[w] = code.encode(block) if block is not None else None

    for i in sorted(claims):
        block_i, _ = claims[i]
        # A peer that trusts the source must have claimed exactly the
        # common value; claiming anything else (or nothing) is a lie by
        # the peer or an equivocation by the source.
        if not disputes.in_dispute(1, i) and block_i != x_common:
            propose(1, i)

    for o in sorted(claims):
        _, view_o = claims[o]
        for w in sorted(claims):
            if w == o:
                continue
            r = view_o[w - 1]
            if r is None:
                continue  # null entries are exempt
            if disputes.in_dispute(o, w):
                continue
            if disputes.in_dispute(1, w) or claims[w][0] is None:
                # o claims a symbol from a peer that was required to stay
                # silent (or that denies having sent one).
                propose(o, w)
            elif r != encoded[w][w - 1]:
                propose(o, w)
    return new


def _agreed(res: dict[int, str], fault_free, what: str) -> str:
    """The one output all fault-free nodes resolved in an EIG instance."""
    agreed = {res[j] for j in fault_free}
    if len(agreed) != 1:
        raise ProtocolError(f"{what} did not agree")
    return agreed.pop()


def run_byzantine_broadcast(x: str, config: SystemConfig, strategy: Strategy) -> BbOutcome:
    """Iterate the three-phase loop over all L/D generations."""
    check_input(x, config.L)
    t, c, D = config.t, config.c, config.D
    code = RSCode(config.n, t, GF(c))
    disputes = DisputeGraph(t)
    nodes = tuple(config.nodes)
    generations: list[GenerationRecord] = []

    with Simulation(config, strategy) as sim:
        for start in range(0, config.L, D):
            x_bits = x[start : start + D]
            rec = GenerationRecord()
            generations.append(rec)
            excluded = disputes.identified_faulty

            if 1 in excluded:
                # Disqualified source: all remaining generations take the
                # default value, with no traffic.
                rec.skipped = True
                for i in config.peers:
                    rec.y_bits[i] = "0" * D
                continue

            # --- Detectable Broadcast -------------------------------------
            inbox = sim.round({1: x_bits}, "DB", "source_value")
            active_peers = [i for i in config.peers if i not in excluded]
            # blocks[i]: the block peer i received; own[i]: its codeword.
            # Both are None when i is in dispute with the source, and i then
            # stays silent in the symbol slot.  Each distinct block is
            # encoded once.
            blocks: dict[int, Optional[Block]] = {}
            own: dict[int, Optional[tuple[int, ...]]] = {}
            encoded: dict[str, tuple[Block, tuple[int, ...]]] = {}
            for i in active_peers:
                if disputes.in_dispute(1, i):
                    blocks[i] = own[i] = None
                    continue
                bits = canon(inbox[i].get(1), D) or "0" * D
                if bits not in encoded:
                    block = bits_to_symbols(bits, c)
                    encoded[bits] = block, code.encode(block)
                blocks[i], own[i] = encoded[bits]

            intents = {
                i: "" if own[i] is None else symbols_to_bits([own[i][i - 1]], c)
                for i in active_peers
            }
            inbox2 = sim.round(intents, "DB", "alg1.symbol")

            # Peers in no dispute pair that share a symbol inbox and an `own`
            # see the same symbols: each such group assembles one view.
            views: dict[int, list[Optional[int]]] = {}
            assembled: dict[tuple[int, ...], list[Optional[int]]] = {}
            disputing = {v for pair in disputes.pairs for v in pair}
            for i in active_peers:
                key = (i,) if i in disputing else (id(inbox2[i]), id(own[i]))
                if key not in assembled:
                    assembled[key] = db_assemble_view(code, i, own[i], inbox2[i], disputes, excluded)
                views[i] = assembled[key]
                z_i, det_i = db_resolve(code, views[i])
                rec.z[i], rec.detected[i] = z_i, det_i

            # --- Detection Dissemination ----------------------------------
            fault_free = [i for i in nodes if i not in sim.faulty]
            flags = {i: "1" if rec.detected.get(i, False) else "0" for i in nodes if i not in excluded}
            res = eig_broadcast(sim, flags, nodes, "DD", "dd", skip=excluded)
            for i in nodes:  # an excluded node sources no flag and announces nothing
                rec.announced[i] = i in res and _agreed(
                    res[i], fault_free, f"detection broadcast of node {i}") == "1"

            if not any(rec.announced.values()):
                for i in config.peers:
                    rec.y_bits[i] = "0" * D if i in excluded else symbols_to_bits(rec.z[i], c)
                continue

            # --- Dispute Control ------------------------------------------
            rec.dc_invoked = True

            res = eig_broadcast(sim, {1: x_bits}, nodes, "DC", "dc_value", skip=excluded)
            x_common_bits = _agreed(res[1], fault_free, "dispute-control value broadcast")
            x_common = bits_to_symbols(x_common_bits, c)

            claims: dict[int, tuple[Optional[Block], list[Optional[int]]]] = {}
            for i in active_peers:
                payload = serialize_claim(blocks[i], views[i], code)
                res = eig_broadcast(sim, {i: payload}, nodes, "DC", "dc_claim", skip=excluded)
                claims[i] = parse_claim(_agreed(res[i], fault_free, f"claim broadcast of peer {i}"), code)

            new_pairs = derive_disputes(code, x_common, claims, disputes)
            rec.new_pairs = tuple(new_pairs)
            ff_detected = any(rec.detected.get(i, False) for i in active_peers if i not in sim.faulty)
            if new_pairs:
                for a, b in new_pairs:
                    disputes.add(a, b)
            else:
                if ff_detected:
                    raise ProtocolError(
                        "a fault-free node detected misbehavior but dispute "
                        "control derived no new pair"
                    )
                # Only liars announced: every announcer is faulty.
                disputes.identify(i for i, flag in rec.announced.items() if flag)

            for i in config.peers:
                rec.y_bits[i] = x_common_bits

    outputs = {
        i: "".join(rec.y_bits[i] for rec in generations)
        for i in config.peers
        if i not in sim.faulty
    }
    return BbOutcome(config, outputs, sim.trace, sim.faulty, disputes, generations)
