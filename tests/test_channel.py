import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selbroadcast import adversaries, run_algorithm2, run_byzantine_broadcast
from selbroadcast.adversaries import Strategy, make_strategy
from selbroadcast.channel import (
    BbOutcome,
    DisputeGraph,
    ModelViolation,
    Simulation,
    SlotCtx,
    SystemConfig,
    TraceEntry,
    TrafficMeter,
    channel_deliver,
    check_bb_properties,
    check_input,
    dispute_pair,
    min_symbol_bits,
)


def test_config_invariants():
    cfg = SystemConfig(n=4, t=1, c=3, L=12)
    assert cfg.D == 6
    with pytest.raises(ValueError):
        SystemConfig(n=4, t=2, c=3, L=12)  # n < 3t+1
    with pytest.raises(ValueError):
        SystemConfig(n=8, t=2, c=3, L=12)  # n > 2^c - 1
    with pytest.raises(ValueError):
        SystemConfig(n=4, t=1, c=3, L=13)  # L not a multiple of D
    with pytest.raises(ValueError):
        SystemConfig(n=4, t=1, c=3, L=12, D=5)
    with pytest.raises(ValueError, match="D must equal"):
        SystemConfig(n=4, t=1, c=3, L=12, D=4)  # L is a multiple of D: only the D rule refuses it
    assert SystemConfig(n=2, t=0, c=2, L=4).D == 4  # the smallest system
    with pytest.raises(ValueError, match="n >= 2"):
        SystemConfig(n=1, t=0, c=1, L=1)
    with pytest.raises(ValueError, match="positive multiple"):
        SystemConfig(n=4, t=1, c=3, L=0)


def test_min_symbol_bits_is_the_smallest_c_a_config_accepts():
    for n in range(2, 256):
        c = min_symbol_bits(n)
        SystemConfig(n=n, t=0, c=c, L=c * n)
        with pytest.raises(ValueError, match="2\\^c"):
            SystemConfig(n=n, t=0, c=c - 1, L=(c - 1) * n)


def _sim(strategy_name="honest"):
    config = SystemConfig(n=4, t=1, c=3, L=12)
    return Simulation(config, make_strategy(strategy_name, config))


def test_broadcast_delivery_and_accounting():
    assert channel_deliver(2, "101101", 4, frozenset()) == "101101"
    sim = _sim()
    sim.round({2: "101101"}, "DB", "alg1.symbol")
    meter = TrafficMeter.from_trace(sim.trace)
    assert meter.honest_messages == 1
    assert meter.honest_bits == 6
    assert meter.adversary_messages == 0
    assert [(e.kind, e.messages, e.bits) for e in sim.trace] == [("broadcast", 1, 6)]


def test_selective_delivery_from_faulty_sender():
    delivered = channel_deliver(1, {2: "0", 3: "1", 4: "1"}, 4, frozenset({1}))
    assert delivered == {2: "0", 3: "1", 4: "1"}
    sim = _sim("equivocating_source")  # node 1 sends one receiver a flipped bit
    sim.round({1: "1"}, "DB", "source_value")
    meter = TrafficMeter.from_trace(sim.trace)
    assert meter.adversary_messages == 3
    assert meter.adversary_bits == 3
    assert meter.honest_messages == 0
    assert [(e.kind, e.messages, e.bits) for e in sim.trace] == [("selective", 3, 3)]


def test_silence_is_free():
    assert channel_deliver(2, "", 4, frozenset()) == ""
    sim = _sim()
    sim.round({2: ""}, "DB", "alg1.symbol")
    meter = TrafficMeter.from_trace(sim.trace)
    assert meter.honest_messages == 0
    assert meter.honest_bits == 0
    assert sim.trace == []


def test_fault_free_selective_is_a_model_violation():
    with pytest.raises(ModelViolation):
        channel_deliver(2, {3: "1"}, 4, frozenset())


@pytest.mark.parametrize("tx, key", [
    ({99: "1", 0: "11", 2: "1"}, "99"), ({2: "1", 0: "11"}, "0"), ({5: "1"}, "5"),
    ({"2": "1"}, "'2'"), ({True: "1"}, "True"), ({2.0: "1"}, "2.0"), ({None: "1"}, "None"),
], ids=["out_of_range", "zero", "above_n", "str", "bool", "float", "none"])
def test_a_selective_send_to_a_key_that_is_no_node_is_a_model_violation(tx, key):
    with pytest.raises(ModelViolation, match=f"^faulty node 4 sent to {re.escape(key)}, not a node of 1..4$"):
        channel_deliver(4, tx, 4, frozenset({4}))


@pytest.mark.parametrize("payload", [1, None, b"1", ["1"]], ids=["int", "none", "bytes", "list"])
def test_a_selective_payload_that_is_no_str_is_a_type_error(payload):
    with pytest.raises(TypeError, match=f"^faulty node 4 sent {re.escape(repr(payload))} to node 2, not a str$"):
        channel_deliver(4, {1: "1", 2: payload}, 4, frozenset({4}))


@st.composite
def _selective_sends(draw):
    """n, a sender and a dict over node ids of 1..n, the sender's own included."""
    n = draw(st.integers(2, 7))
    sender = draw(st.integers(1, n))
    return n, sender, draw(st.dictionaries(st.integers(1, n), st.text("01", max_size=3)))


@settings(max_examples=200, deadline=None)
@given(_selective_sends(), st.text())
def test_channel_deliver_contract(send, text):
    n, sender, tx = send
    # Any str, from any sender, is delivered as itself.
    assert channel_deliver(sender, text, n, frozenset()) is text
    assert channel_deliver(sender, text, n, frozenset({sender})) is text
    # A faulty dict: sorted by receiver, without the sender or silence.
    delivered = channel_deliver(sender, tx, n, frozenset({sender}))
    assert list(delivered.items()) == sorted((r, p) for r, p in tx.items() if r != sender and p)
    with pytest.raises(ModelViolation, match=f"fault-free node {sender} attempted selective send"):
        channel_deliver(sender, tx, n, frozenset())


def test_meter_phase_is_four_ints():
    meter = TrafficMeter()
    meter.add(True, "DB", 1, 6)
    meter.add(False, "DB", 3, 9)
    meter.add(True, "DB", 2, 4)
    assert meter.by_phase == {"DB": [3, 10, 3, 9]}
    assert (meter.honest_messages, meter.honest_bits, meter.adversary_messages, meter.adversary_bits) == (3, 10, 3, 9)
    assert meter.phase_honest_messages("DB") == 3 and meter.phase_honest_bits("DB") == 10
    assert meter.phase_honest_messages("DD") == meter.phase_honest_bits("DD") == 0
    assert "DD" not in meter.by_phase  # reading an absent phase adds nothing


class _Sends(Strategy):
    """Node 1 is faulty and transmits `tx` in every slot."""

    def __init__(self, config, *, tx):
        super().__init__(config)
        self.tx = tx

    def corrupt_set(self):
        return frozenset({1})

    def act(self, ctx, honest_payload):
        return self.tx


def _faulty_round(tx):
    config = SystemConfig(n=4, t=1, c=3, L=12)
    sim = Simulation(config, _Sends(config, tx=tx))
    return sim, sim.round({1: "1", 2: "01"}, "DB", "source_value")


@pytest.mark.parametrize("tx, heard, entry", [
    ("110", ["110"] * 3, TraceEntry(1, 1, 1, "broadcast", 3, "DB", False, 1)),
    ({2: "11", 3: "111", 4: "1111"}, ["11", "111", "1111"], TraceEntry(1, 1, 1, "selective", 9, "DB", False, 3)),
    # a partly silent selective send reaches, and costs, only its listeners
    ({2: "10", 3: "", 4: "1"}, ["10", None, "1"], TraceEntry(1, 1, 1, "selective", 3, "DB", False, 2)),
], ids=["str", "dict", "partly_silent_dict"])
def test_act_returns_a_str_or_a_dict(tx, heard, entry):
    sim, inboxes = _faulty_round(tx)
    assert [inboxes[r].get(1) for r in (2, 3, 4)] == heard
    assert sim.trace[0] == entry


@pytest.mark.parametrize("tx", [None, ["1"]], ids=["none", "list"])
def test_any_other_transmission_is_a_type_error(tx):
    # from a strategy's act and as a fault-free intent alike
    with pytest.raises(TypeError, match=re.escape(f"unknown transmission {tx!r}")):
        _faulty_round(tx)
    sim = _sim()
    with pytest.raises(TypeError, match="unknown transmission"):
        sim.round({2: tx}, "DB", "alg1.symbol")
    assert sim.trace == []


def test_a_malformed_selective_send_stops_the_round_unmetered():
    # Before any inbox or meter holds it: nodes 0 and 99 never appear.
    config = SystemConfig(n=4, t=1, c=3, L=12)
    sim = Simulation(config, _Sends(config, tx={99: "1", 0: "11", 2: "1"}))
    with pytest.raises(ModelViolation, match="faulty node 1 sent to 99"):
        sim.round({1: "1", 2: "01"}, "DB", "source_value")
    assert sim.trace == []


def test_unicast_metering():
    sim = _sim("equivocating_source")
    sim.round({1: "1", 2: "10"}, "CORE", "source_value")
    meter = TrafficMeter.from_trace(sim.trace)
    unicast = meter.as_unicast(4, {"CORE"})
    # the fault-free broadcast becomes n - 1 = 3 two-bit messages; the
    # faulty source's selective send was already counted per receiver
    assert unicast.honest_messages == 3
    assert unicast.honest_bits == 6
    assert unicast.adversary_messages == meter.adversary_messages == 3
    assert unicast.adversary_bits == meter.adversary_bits == 3
    assert meter.as_unicast(4, {"DB"}).honest_messages == 1


@pytest.mark.parametrize("field, value", [
    ("n", 4.0), ("t", True), ("c", "3"), ("L", 12.0), ("seed", "5"), ("D", 6.0),
])
def test_config_fields_must_be_integers(field, value):
    params = {"n": 4, "t": 1, "c": 3, "L": 12, field: value}
    with pytest.raises(TypeError, match=f"^{field} must be an integer"):
        SystemConfig(**params)


@pytest.mark.parametrize("x", ["0101", "0" * 5, "012", "abc", "01 ", None, 101])
def test_check_input_wants_l_bits_of_0_and_1(x):
    check_input("010", 3)
    with pytest.raises(ValueError, match="L=3 bits of 0 and 1"):
        check_input(x, 3)


@pytest.mark.parametrize("run", [run_byzantine_broadcast, run_algorithm2])
@pytest.mark.parametrize("x", ["abcdefghijkl", "012012012012", "0" * 11])
def test_runs_refuse_a_bad_input_before_any_slot(monkeypatch, run, x):
    def no_round(*args, **kwargs):
        raise AssertionError("a slot ran")

    monkeypatch.setattr(Simulation, "round", no_round)
    config = SystemConfig(n=4, t=1, c=3, L=12)
    with pytest.raises(ValueError, match="L=12 bits of 0 and 1"):
        run(x, config, make_strategy("honest", config))


def test_dispute_graph_identification():
    g = DisputeGraph(t=1)
    assert dispute_pair(4, 2) == (2, 4)
    with pytest.raises(ValueError):
        dispute_pair(3, 3)
    assert g.add(2, 4)
    assert not g.add(4, 2)  # unordered
    assert g.in_dispute(2, 4) and g.in_dispute(4, 2)
    assert g.identified_faulty == frozenset()
    g.add(4, 3)
    assert g.identified_faulty == frozenset({4})  # degree 2 > t


def _outcome(outputs, faulty=frozenset()):
    cfg = SystemConfig(n=4, t=1, c=3, L=12)
    return BbOutcome(cfg, outputs, [], frozenset(faulty))


def test_bb_properties_pass():
    x = "0" * 12
    out = _outcome({2: x, 3: x, 4: x})
    assert check_bb_properties(out, x) == "Pass"


def test_bb_properties_validity_vacuous_with_faulty_source():
    v = "1" * 12
    out = _outcome({2: v, 3: v, 4: v}, {1})
    assert check_bb_properties(out, "0" * 12) == "Pass"


def test_bb_properties_consistency_failure():
    out = _outcome({2: "0" * 12, 3: "1" * 12, 4: "0" * 12}, {1})
    assert check_bb_properties(out, "0" * 12) == "Fail(Consistency)"


def test_bb_properties_termination_failure():
    out = _outcome({2: "0" * 12, 3: "0" * 12})
    assert check_bb_properties(out, "0" * 12) == "Fail(Termination)"


def test_bb_properties_termination_needs_l_bits():
    # A faulty source leaves validity vacuous, and equal outputs are
    # consistent; but a 2-bit output at L = 12 is no termination.
    out = _outcome({2: "01", 3: "01", 4: "01"}, {1})
    assert check_bb_properties(out, "0" * 12) == "Fail(Termination)"


def test_bb_properties_termination_needs_bits_of_0_and_1():
    # L symbols that are not all 0 or 1 are no L-bit output either.
    out = _outcome({2: "2" * 12, 3: "2" * 12, 4: "2" * 12}, {1})
    assert check_bb_properties(out, "0" * 12) == "Fail(Termination)"


def test_bb_properties_validity_failure():
    v = "1" * 12
    out = _outcome({2: v, 3: v, 4: v})
    assert check_bb_properties(out, "0" * 12) == "Fail(Validity)"


class _Recorder(Strategy):
    """Node 1 is faulty; every act is recorded and answered with one
    payload per receiver."""

    def __init__(self, config):
        super().__init__(config)
        self.seen = []

    def corrupt_set(self):
        return frozenset({1})

    def act(self, ctx, honest_payload):
        self.seen.append((ctx, honest_payload))
        return {r: honest_payload + str(r % 2) for r in ctx.receivers}


class _Untouchable(Strategy):
    """Node 4 is faulty and must never be asked to act."""

    def corrupt_set(self):
        return frozenset({4})

    def act(self, ctx, honest_payload):
        raise AssertionError("act called for a round with no faulty sender")


def test_mixed_round_hands_the_strategy_its_slot_and_payload():
    config = SystemConfig(n=4, t=1, c=3, L=12)
    strategy = _Recorder(config)
    sim = Simulation(config, strategy)
    # The faulty sender holds the first slot; the honest ones come after it.
    inboxes = sim.round({3: "11", 1: "10", 2: "01"}, "DB", "alg1.symbol", {"purpose": "x"})
    assert SlotCtx is adversaries.SlotCtx
    assert strategy.seen == [
        (SlotCtx("alg1.symbol", 1, (2, 3, 4), {"purpose": "x"}), "10")
    ]
    # Each sender holds its own intent: the faulty one its protocol payload.
    assert inboxes == {
        1: {1: "10", 2: "01", 3: "11"},
        2: {1: "100", 2: "01", 3: "11"},
        3: {1: "101", 2: "01", 3: "11"},
        4: {1: "100", 2: "01", 3: "11"},
    }
    assert sim.trace == [
        TraceEntry(1, 1, 1, "selective", 9, "DB", False, 3),
        TraceEntry(1, 2, 2, "broadcast", 2, "DB", True, 1),
        TraceEntry(1, 3, 3, "broadcast", 2, "DB", True, 1),
    ]


def test_all_honest_round_never_calls_act():
    config = SystemConfig(n=4, t=1, c=3, L=12)
    sim = Simulation(config, _Untouchable(config))
    inboxes = sim.round({1: "1", 2: "", 3: "0"}, "DD", "eig.relay")
    # A silent sender holds its silence; it is neither delivered nor metered.
    assert inboxes == {
        1: {1: "1", 3: "0"},
        2: {1: "1", 2: "", 3: "0"},
        3: {1: "1", 3: "0"},
        4: {1: "1", 3: "0"},
    }
    assert sim.trace == [
        TraceEntry(1, 1, 1, "broadcast", 1, "DD", True, 1),
        TraceEntry(1, 3, 3, "broadcast", 1, "DD", True, 1),
    ]


INTENT = object()  # a faulty sender transmits its intent itself


class _Scripted(Strategy):
    """Corrupts `faulty`; sender s transmits `txs[s]`, its intent itself
    where that is INTENT."""

    def __init__(self, config, *, faulty, txs):
        super().__init__(config)
        self.faulty, self.txs = faulty, txs

    def corrupt_set(self):
        return self.faulty

    def act(self, ctx, honest_payload):
        tx = self.txs[ctx.sender]
        return honest_payload if tx is INTENT else tx


_BITS = st.text("01", max_size=4)


@st.composite
def _rounds(draw):
    """A config, its faulty nodes, a round's intents and each faulty
    sender's transmission: a str, silence, its intent or a dict."""
    n = draw(st.integers(4, 7))
    config = SystemConfig(n=n, t=(n - 1) // 3, c=3, L=3 * (n - 2 * ((n - 1) // 3)))
    nodes = list(config.nodes)
    faulty = frozenset(draw(st.lists(st.sampled_from(nodes), max_size=config.t, unique=True)))
    senders = draw(st.lists(st.sampled_from(nodes), min_size=1, unique=True))
    intents = {s: draw(_BITS) for s in senders}
    txs = {}
    for s in faulty & set(senders):
        others = st.sampled_from([r for r in nodes if r != s])
        txs[s] = draw(st.one_of(
            _BITS, st.just(""), st.just(INTENT), st.dictionaries(others, _BITS)))
    return config, faulty, intents, txs


# Tier-1 draws 300 rounds per test; a larger profile (tests/conftest.py) draws more.
_ROUND_EXAMPLES = max(300, settings().max_examples)


@settings(max_examples=_ROUND_EXAMPLES, deadline=None)
@given(_rounds())
def test_round_inboxes_follow_the_per_node_rule_and_share_what_was_heard_alike(drawn):
    config, faulty, intents, txs = drawn
    sim = Simulation(config, _Scripted(config, faulty=faulty, txs=txs))
    inboxes = sim.round(intents, "DB", "alg1.symbol")
    sent = {s: intents[s] if txs.get(s, INTENT) is INTENT else txs[s] for s in intents}
    # The rule, node by node: its own intent, every broadcast, and the
    # selective payloads addressed to it, silence left out, in slot order.
    for i in config.nodes:
        expected = {}
        for s in sorted(intents):
            heard = sent[s] if isinstance(sent[s], str) else sent[s].get(i, "")
            if s == i or heard:
                expected[s] = intents[s] if s == i else heard
        assert list(inboxes[i].items()) == list(expected.items())
    # Who holds an inbox of its own: a selective receiver, and a sender
    # that did not transmit its intent (silence included).  Every other
    # node holds the one shared inbox.
    apart = {s for s in intents if not intents[s] or sent[s] != intents[s]}
    apart.update(r for tx in sent.values() if isinstance(tx, dict) for r, p in tx.items() if p)
    shared = [j for j in config.nodes if j not in apart]
    for i in config.nodes:
        holders = [j for j in config.nodes if inboxes[j] is inboxes[i]]
        assert holders == ([i] if i in apart else shared)
    if not faulty & set(intents) and all(intents.values()):
        assert len({id(box) for box in inboxes.values()}) == 1


def _slot_rule(faulty, intents, sent, round_no, phase):
    """The trace of a round, slot by slot: slots in sender order, silent
    ones too; a sender's entry counts what reached other nodes, one
    message per non-empty payload, and a slot that reached no one has
    none."""
    entries = []
    for slot, s in enumerate(sorted(intents), start=1):
        tx = sent[s]
        if isinstance(tx, str):
            kind, payloads = "broadcast", [tx] if tx else []
        else:
            kind, payloads = "selective", [p for r, p in sorted(tx.items()) if r != s and p]
        if payloads:
            bits = sum(map(len, payloads))
            entries.append(TraceEntry(round_no, slot, s, kind, bits, phase, s not in faulty, len(payloads)))
    return entries


@settings(max_examples=_ROUND_EXAMPLES, deadline=None)
@given(_rounds())
def test_round_trace_follows_the_per_slot_rule(drawn):
    config, faulty, intents, txs = drawn
    sim = Simulation(config, _Scripted(config, faulty=faulty, txs=txs))
    sent = {s: intents[s] if txs.get(s, INTENT) is INTENT else txs[s] for s in intents}
    sim.round(intents, "DB", "alg1.symbol")
    sim.round(intents, "DD", "eig.relay")
    expected = _slot_rule(faulty, intents, sent, 1, "DB") + _slot_rule(faulty, intents, sent, 2, "DD")
    assert sim.trace == expected
    # A malformed send stops its round at its slot: the slots before it
    # keep their entries, it and the slots after it leave none.
    bad = min(faulty & set(intents), default=None)
    if bad is not None:
        sim.strategy.txs = {**txs, bad: {0: "1"}}
        with pytest.raises(ModelViolation):
            sim.round(intents, "DC", "eig.relay")
        before = [e for e in _slot_rule(faulty, intents, sent, 3, "DC") if e.sender < bad]
        assert sim.trace == expected + before


class _OneTooMany(Strategy):
    """Corrupts t + 1 nodes, one more than the budget."""

    def corrupt_set(self):
        return frozenset(range(1, self.config.t + 2))


@pytest.mark.parametrize("run", [run_byzantine_broadcast, run_algorithm2])
def test_runners_refuse_more_than_t_corrupt_nodes_before_any_slot(monkeypatch, run):
    def no_slot(*args):
        raise AssertionError("a slot ran")

    monkeypatch.setattr(Simulation, "round", no_slot)
    config = SystemConfig(n=4, t=1, c=3, L=12)
    with pytest.raises(ValueError, match="strategy corrupts more than t nodes"):
        run("0" * 12, config, _OneTooMany(config))
