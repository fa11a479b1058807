"""Pluggable Byzantine strategies.

A strategy owns a fixed set of at most t compromised nodes for the whole
execution.  The engine computes, for every scheduled sender, the payload
it would transmit when following the protocol; for compromised senders
that payload is handed to the strategy together with a SlotCtx (the
slot's tag, sender, receivers and extra), and the strategy returns the
actual transmission: a `str` to broadcast (`""` is silence) or a `dict`
receiver -> payload for a selective send, as `channel` defines them.
The default is to behave honestly, so each strategy only overrides the
slots it attacks.  A strategy's constructor names the parameters it
reads, so any other is a TypeError; only `randomized_byzantine` draws,
so only it takes a seed.

Slot tags used by the protocols:
  "source_value"  the source's value slot (the opening broadcast of both
                  protocols)
  "alg1.symbol"   a peer's coded-symbol slot in Detectable Broadcast
  "eig.source"    round 1 of an EIG batch: one slot per source, carrying
                  that source's value; ctx.extra["purpose"] is one of
                  "dd", "dc_value", "dc_claim", "core"
  "eig.relay"     a relay round of an EIG batch: one slot per relayer,
                  the `pack` of its kept values of every instance it
                  does not source, in ascending source order; a batch
                  has one value width (`eig`)
  "announce"      an announcer slot in the committee algorithm
"""

from __future__ import annotations

import random as _random
import zlib

from .channel import SlotCtx, SystemConfig, Transmission


def random_bits(rng: _random.Random, k: int) -> str:
    """k random bits as a "0"/"1" string: one `rng.getrandbits(k)` draw
    written as exactly k base-2 digits, the most significant first."""
    return format(rng.getrandbits(k), f"0{k}b") if k else ""


def _flip(bits: str, index: int = 0) -> str:
    if not bits:
        return bits
    i = index % len(bits)
    return bits[:i] + ("1" if bits[i] == "0" else "0") + bits[i + 1 :]


class Strategy:
    """Base: corrupts nothing, behaves honestly everywhere.  The registry
    holds this class itself under the name "honest"."""

    name = "honest"

    def __init__(self, config: SystemConfig):
        self.config = config

    def corrupt_set(self) -> frozenset[int]:
        return frozenset()

    def act(self, ctx: SlotCtx, honest_payload: str) -> Transmission:
        return honest_payload


class CrashSilent(Strategy):
    """The last t nodes never transmit anything."""

    name = "crash_silent"

    def corrupt_set(self) -> frozenset[int]:
        n, t = self.config.n, self.config.t
        return frozenset(range(n - t + 1, n + 1))

    def act(self, ctx, honest_payload):
        return ""


class EquivocatingSource(Strategy):
    """The source sends block u to all but one receiver and v != u to the
    remaining one, rotating the victim across its value slots (a victim
    already in dispute with the source stays silent, so re-targeting it
    would equivocate into the void).  v is u with its first bit flipped.
    """

    name = "equivocating_source"

    def __init__(self, config):
        super().__init__(config)
        self._slot = 0

    def corrupt_set(self) -> frozenset[int]:
        return frozenset({1})

    def act(self, ctx, honest_payload):
        if ctx.tag != "source_value" or not honest_payload:
            return honest_payload
        v = _flip(honest_payload)
        victim = ctx.receivers[self._slot % len(ctx.receivers)]
        self._slot += 1
        return {r: (v if r == victim else honest_payload) for r in ctx.receivers}


class SymbolCorruptor(Strategy):
    """A peer sends a wrong coded symbol in its Detectable Broadcast slot.

    mode="subset" (default): wrong symbol to the lowest-id receiver only.
    mode="all": the consistent lie -- wrong symbol broadcast to everyone.
    """

    name = "symbol_corruptor"

    def __init__(self, config, *, mode="subset"):
        if mode not in ("subset", "all"):
            raise ValueError(f'symbol_corruptor mode must be "subset" or "all", not {mode!r}')
        super().__init__(config)
        self.mode = mode

    def corrupt_set(self) -> frozenset[int]:
        return frozenset({self.config.n})

    def act(self, ctx, honest_payload):
        if ctx.tag != "alg1.symbol" or not honest_payload:
            return honest_payload
        wrong = _flip(honest_payload, len(honest_payload) - 1)
        if self.mode == "all":
            return wrong
        # Lowest-id peer: the source holds no symbol view, so sending the
        # wrong symbol there would go unnoticed.
        target = next(r for r in ctx.receivers if r != 1)
        return {r: (wrong if r == target else honest_payload) for r in ctx.receivers}


class DetectionLiar(Strategy):
    """Announces detection inconsistently despite seeing no misbehavior:
    bit 1 to all but the last receiver, 0 to the last."""

    name = "detection_liar"

    def corrupt_set(self) -> frozenset[int]:
        return frozenset({self.config.n})

    def act(self, ctx, honest_payload):
        if ctx.tag == "eig.source" and ctx.extra.get("purpose") == "dd":
            last = ctx.receivers[-1]
            return {r: ("0" if r == last else "1") for r in ctx.receivers}
        return honest_payload


class ClaimLiar(Strategy):
    """Forces dispute control by announcing detection, then claims a
    source block different from the one it actually relayed."""

    name = "claim_liar"

    def corrupt_set(self) -> frozenset[int]:
        return frozenset({self.config.n})

    def act(self, ctx, honest_payload):
        purpose = ctx.extra.get("purpose")
        if ctx.tag == "eig.source" and purpose == "dd":
            return "1"
        if ctx.tag == "eig.source" and purpose == "dc_claim" and honest_payload:
            # Bit 1 is the first claimed block bit (`dispute_bb.serialize_claim`).
            return _flip(honest_payload, 1)
        return honest_payload


class RandomizedByzantine(Strategy):
    """Replaces every non-silent corrupted slot by a selective send of
    independent random payloads of the honest payload's length, one
    `random_bits` draw per receiver in `ctx.receivers` order."""

    name = "randomized_byzantine"

    def __init__(self, config, *, seed=0):
        super().__init__(config)
        # Deterministic per (config seed, strategy seed); str hash is
        # process-randomized, so mix in a stable digest of the name.
        self.rng = _random.Random((config.seed << 16) ^ seed ^ zlib.crc32(self.name.encode()))
        self._corrupt = frozenset(self.rng.sample(range(1, config.n + 1), config.t))

    def corrupt_set(self) -> frozenset[int]:
        return self._corrupt

    def act(self, ctx, honest_payload):
        if not honest_payload:
            return ""
        bits = len(honest_payload)
        return {r: random_bits(self.rng, bits) for r in ctx.receivers}


STRATEGY_REGISTRY: dict[str, type[Strategy]] = {
    cls.name: cls
    for cls in (
        Strategy,
        CrashSilent,
        EquivocatingSource,
        SymbolCorruptor,
        DetectionLiar,
        ClaimLiar,
        RandomizedByzantine,
    )
}


def make_strategy(name: str, config: SystemConfig, **params) -> Strategy:
    try:
        cls = STRATEGY_REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown strategy {name!r}") from None
    return cls(config, **params)
