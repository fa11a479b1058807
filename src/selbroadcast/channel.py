"""Synchronous selective-broadcast channel, traffic accounting and the
Byzantine Broadcast correctness predicates.

The rules both protocols share are each stated once, here: `SystemConfig`
takes `int` parameters only, `check_input` an input of exactly L 0s and
1s, and `dispute_pair` orders a pair of distinct ids for `DisputeGraph`.

A transmission is a `str` or a `dict`.  A `str` is a broadcast: one
message, received identically and with correct attribution by every other
node, so `channel_deliver` delivers it as itself; `""` is silence and costs
nothing.  A `dict` maps each receiver, a node id of 1..n, to its own `str`
payload (a "selective" send), and only a faulty sender may make one; a
receiver whose payload is `""` hears nothing.  Transmissions never collide
and are never lost.  A sender knows what it meant to send: its own
inbox holds its intent, never metered, so no protocol re-inserts it.
Inboxes are read-only: the nodes that heard the same payloads share one
inbox, and a node gets its own only where it heard differently.

Traffic by fault-free nodes and traffic by compromised nodes are metered
separately: reported algorithm complexity covers only nodes following the
protocol.  One broadcast is one message with its payload bits counted
once; a selective transmission costs one message per distinct receiver.
Simulation.round meters each delivered slot once, into its TraceEntry; the
trace is the only ledger, and a TrafficMeter is a fold of it
(TrafficMeter.from_trace, which BbOutcome.meter holds), four ints per
phase.  The point-to-point cost of the same execution, where a fault-free
broadcast is n-1 messages, is the view TrafficMeter.as_unicast.

Every slot goes through `channel_deliver`, once.  A fault-free sender
that transmits (a non-empty str) then takes a short path: its broadcast
joins the shared inbox and every own inbox, and its TraceEntry is
appended, with no branch on kind, size or own inbox.

A verdict is its text: check_bb_properties returns "Pass" or
"Fail(<property>)", the string the CSV row holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Iterable, Mapping, Optional

from .gf import DEFAULT_POLYNOMIALS


class ModelViolation(Exception):
    """A transmission that the channel model forbids (test hook)."""


class ProtocolError(Exception):
    """An internal protocol-soundness invariant was violated."""


def generation_size(n: int, t: int, c: int) -> int:
    """D = c(n-2t): the bits of one RS data block of n-2t c-bit symbols."""
    return c * (n - 2 * t)


def min_symbol_bits(n: int) -> int:
    """The smallest c >= 1 with n <= 2^c - 1, the default symbol size."""
    return max(n, 1).bit_length()


@dataclass(frozen=True)
class SystemConfig:
    """(n, t, c, D, L) with the standard parameter constraints."""

    n: int
    t: int
    c: int
    L: int
    seed: int = 0
    D: int = 0  # derived as c * (n - 2t) when left at 0

    def __post_init__(self):
        for name in ("n", "t", "c", "L", "seed", "D"):
            value = getattr(self, name)
            if type(value) is not int:  # a bool or a float is refused too
                raise TypeError(f"{name} must be an integer, not {value!r}")
        if self.c not in DEFAULT_POLYNOMIALS:
            raise ValueError(f"no pinned GF(2^c) polynomial for c={self.c}")
        if self.t < 0 or self.n < 3 * self.t + 1 or self.n < 2:
            raise ValueError("need n >= 3t + 1 (and n >= 2)")
        if self.n > (1 << self.c) - 1:
            raise ValueError("need n <= 2^c - 1")
        d = generation_size(self.n, self.t, self.c)
        if self.D == 0:
            object.__setattr__(self, "D", d)
        elif self.D != d:
            raise ValueError(f"D must equal c*(n-2t) = {d}")
        if self.L <= 0 or self.L % self.D:
            raise ValueError("L must be a positive multiple of D")

    @property
    def nodes(self) -> range:
        return range(1, self.n + 1)

    @property
    def peers(self) -> range:
        return range(2, self.n + 1)


def check_input(x: str, L: int) -> None:
    """Refuse any input that is not exactly L bits, each "0" or "1"."""
    if not isinstance(x, str) or len(x) != L or x.strip("01"):  # what strip leaves is not a bit
        raise ValueError(f"input must be exactly L={L} bits of 0 and 1")


Transmission = str | dict  # a broadcast, or receiver -> payload


class TrafficMeter:
    """Message and bit counters by phase: by_phase[phase] is the list
    [honest messages, honest bits, adversary messages, adversary bits]."""

    def __init__(self):
        self.by_phase: dict[str, list[int]] = {}

    def add(self, honest: bool, phase: str, messages: int, bits: int) -> None:
        counts = self.by_phase.get(phase)
        if counts is None:
            counts = self.by_phase[phase] = [0, 0, 0, 0]
        i = 0 if honest else 2
        counts[i] += messages
        counts[i + 1] += bits

    def _total(self, i: int) -> int:
        return sum(c[i] for c in self.by_phase.values())

    @property
    def honest_messages(self) -> int:
        return self._total(0)

    @property
    def honest_bits(self) -> int:
        return self._total(1)

    @property
    def adversary_messages(self) -> int:
        return self._total(2)

    @property
    def adversary_bits(self) -> int:
        return self._total(3)

    def phase_honest_bits(self, phase: str) -> int:
        c = self.by_phase.get(phase)
        return c[1] if c else 0

    def phase_honest_messages(self, phase: str) -> int:
        c = self.by_phase.get(phase)
        return c[0] if c else 0

    @classmethod
    def from_trace(cls, entries: Iterable["TraceEntry"]) -> "TrafficMeter":
        """The meter of the execution that recorded `entries`."""
        meter = cls()
        by_phase = meter.by_phase
        for e in entries:
            counts = by_phase.get(e.phase)
            if counts is None:
                counts = by_phase[e.phase] = [0, 0, 0, 0]
            if e.honest:
                counts[0] += e.messages
                counts[1] += e.bits
            else:
                counts[2] += e.messages
                counts[3] += e.bits
        return meter

    def as_unicast(self, n: int, phases: Iterable[str]) -> "TrafficMeter":
        """Point-to-point view: in `phases`, every fault-free broadcast is
        n-1 messages each carrying the payload.  Adversary counts, already
        per receiver, are unchanged."""
        phases = frozenset(phases)
        view = TrafficMeter()
        for phase, (hm, hb, am, ab) in self.by_phase.items():
            k = n - 1 if phase in phases else 1
            view.by_phase[phase] = [hm * k, hb * k, am, ab]
        return view


def dispute_pair(i: int, j: int) -> tuple[int, int]:
    """The unordered pair {i, j} as (min, max); a node cannot dispute itself."""
    if i == j:
        raise ValueError("a node cannot dispute itself")
    return (i, j) if i < j else (j, i)


class DisputeGraph:
    """Accumulated in-dispute pairs and the > t identification rule."""

    def __init__(self, t: int):
        self.t = t
        self.pairs: set[tuple[int, int]] = set()
        self._directly_identified: set[int] = set()

    def add(self, i: int, j: int) -> bool:
        """Record a pair; returns True when the pair is new."""
        key = dispute_pair(i, j)
        if key in self.pairs:
            return False
        self.pairs.add(key)
        return True

    def in_dispute(self, i: int, j: int) -> bool:
        return dispute_pair(i, j) in self.pairs

    def identify(self, nodes: Iterable[int]) -> None:
        """Directly mark nodes as faulty (used when a dispute-control pass
        yields no new pair: every detection announcer must be faulty)."""
        self._directly_identified.update(nodes)

    @property
    def identified_faulty(self) -> frozenset[int]:
        ends = [v for pair in self.pairs for v in pair]  # a node once per pair it is in
        by_degree = {v for v in ends if ends.count(v) > self.t}
        return frozenset(by_degree | self._directly_identified)


@dataclass(frozen=True)
class SlotCtx:
    """What a strategy sees of one compromised slot: its tag (see
    `adversaries`), the sender, every other node as a receiver and the
    round's `extra` (EIG slots carry {"purpose": ...})."""

    tag: str
    sender: int
    receivers: tuple[int, ...]
    extra: Mapping


@dataclass(slots=True)
class TraceEntry:
    round: int
    slot: int
    sender: int
    kind: str  # "broadcast" | "selective"
    bits: int
    phase: str
    honest: bool
    messages: int = 1


@cache
def _others(n: int, sender: int) -> tuple[int, ...]:
    """Every node of 1..n but the sender, in id order."""
    return tuple(r for r in range(1, n + 1) if r != sender)


def channel_deliver(
    sender: int, tx: Transmission, n: int, faulty: frozenset[int]
) -> str | dict[int, str]:
    """Deliver one slot transmission to every other node.

    A broadcast is delivered as itself, the one payload every other node
    hears; silence is "".  A selective send is delivered as {receiver:
    payload}, in id order, for the receivers other than the sender that
    got a non-empty payload.  Raises ModelViolation if a fault-free sender
    attempts a selective transmission or a faulty one addresses a key that
    is not a node id of 1..n, and TypeError for a payload that is not a str.
    """
    if isinstance(tx, str):
        return tx
    if isinstance(tx, dict):
        if sender not in faulty:
            raise ModelViolation(f"fault-free node {sender} attempted selective send")
        for r, payload in tx.items():
            if type(r) is not int or not 0 < r <= n:  # a bool is not a node id either
                raise ModelViolation(f"faulty node {sender} sent to {r!r}, not a node of 1..{n}")
            if not isinstance(payload, str):
                raise TypeError(f"faulty node {sender} sent {payload!r} to node {r}, not a str")
        return {r: tx[r] for r in sorted(tx) if r != sender and tx[r]}
    raise TypeError(f"unknown transmission {tx!r}")


class Simulation:
    """One deterministic single-threaded protocol execution.

    Protocol code interacts with the channel only through round(): it
    declares the payload each scheduled sender would transmit when
    following the protocol, and compromised senders' transmissions are
    rewritten by the adversary strategy, which sees its slot's context
    and the payload the protocol gave the sender.  The fault oracle is
    never readable by protocol logic.
    """

    def __init__(self, config: SystemConfig, strategy):
        self.config = config
        self.strategy = strategy
        self.faulty = frozenset(strategy.corrupt_set())
        if len(self.faulty) > config.t:
            raise ValueError("strategy corrupts more than t nodes")
        self.trace: list[TraceEntry] = []
        self.round_no = 0
        self._nodes = tuple(config.nodes)

    def __enter__(self) -> "Simulation":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None:  # an exception leaving the run carries its trace so far
            exc.trace = self.trace

    def round(self, intents: Mapping[int, str], phase: str, tag: str, extra: Optional[dict] = None) -> dict[int, dict[int, str]]:
        """Run one synchronous round; returns per-node inboxes, in which each
        scheduled sender holds its own intent, silence included.  Inboxes are
        read-only: the nodes that heard alike share one, the round's
        broadcasts; a node holds its own only where a selective send reached
        it or it is a sender that did not transmit its intent (or is silent).
        The own inboxes are merged in only when some node has one."""
        self.round_no = round_no = self.round_no + 1
        n, faulty, trace = self.config.n, self.faulty, self.trace
        heard: dict[int, str] = {}  # the broadcasts: the inbox of every node that heard alike
        own: dict[int, dict[int, str]] = {}  # from a copy of `heard` when a node first heard otherwise
        for slot, s in enumerate(sorted(intents), start=1):
            intent = intents[s]
            honest = s not in faulty
            if honest:
                tx = intent
                delivered = channel_deliver(s, tx, n, faulty)
                if delivered:  # a fault-free send is a str: a broadcast of its intent
                    heard[s] = delivered
                    for box in own.values():  # the sender's own box too, which takes its intent
                        box[s] = delivered
                    trace.append(TraceEntry(round_no, slot, s, "broadcast", len(delivered), phase, True))
                    continue
            else:
                tx = self.strategy.act(SlotCtx(tag, s, _others(n, s), extra or {}), intent)
                delivered = channel_deliver(s, tx, n, faulty)
            if isinstance(delivered, str):
                if delivered:
                    heard[s] = delivered
                    for box in own.values():
                        box[s] = delivered
                kind, messages, bits = "broadcast", 1, len(delivered)
            else:
                for r, payload in delivered.items():
                    if r not in own:
                        own[r] = dict(heard)
                    own[r][s] = payload
                kind, messages = "selective", len(delivered)
                bits = sum(map(len, delivered.values()))
            if s not in own and (not intent or tx != intent):
                own[s] = dict(heard)
            if s in own:  # its intent, over what it broadcast
                own[s][s] = intent
            if delivered:
                trace.append(TraceEntry(round_no, slot, s, kind, bits, phase, honest, messages))
        inboxes = dict.fromkeys(self._nodes, heard)
        if own:
            inboxes.update(own)
        return inboxes


@dataclass
class BbOutcome:
    """Result of one Byzantine Broadcast execution."""

    config: SystemConfig
    outputs: dict[int, str]  # fault-free peer -> L-bit output
    trace: list[TraceEntry]
    faulty: frozenset[int]
    disputes: Optional[DisputeGraph] = None  # dispute_bb only
    generations: list = field(default_factory=list)  # dispute_bb only

    @cached_property
    def meter(self) -> TrafficMeter:
        """The trace folded once; every read returns the same meter."""
        return TrafficMeter.from_trace(self.trace)

    @property
    def dc_invocations(self) -> int:
        return sum(rec.dc_invoked for rec in self.generations)


def check_bb_properties(outcome: BbOutcome, x: str) -> str:
    """The verdict on termination (outputs of L bits, each 0 or 1, by
    `check_input`'s rule), consistency and validity over the fault-free
    peers: "Pass", or "Fail(<the first property broken>)", one of
    "Fail(Termination)", "Fail(Consistency)" and "Fail(Validity)"."""
    outputs, faulty = outcome.outputs, outcome.faulty
    peers = [p for p in outcome.config.peers if p not in faulty]
    if any(len(outputs.get(p) or "") != outcome.config.L or outputs[p].strip("01") for p in peers):
        return "Fail(Termination)"
    values = {outputs[p] for p in peers}
    if len(values) > 1:
        return "Fail(Consistency)"
    if 1 not in faulty and values - {x}:
        return "Fail(Validity)"
    return "Pass"
