import random

import pytest

from selbroadcast import dispute_bb
from selbroadcast.adversaries import Strategy, SymbolCorruptor, make_strategy, random_bits
from selbroadcast.channel import (
    DisputeGraph,
    ProtocolError,
    Simulation,
    SystemConfig,
    check_bb_properties,
)
from selbroadcast.dispute_bb import (
    db_assemble_view,
    db_resolve,
    derive_disputes,
    parse_claim,
    run_byzantine_broadcast,
    serialize_claim,
)
from selbroadcast.gf import GF
from selbroadcast.rs import RSCode, bits_to_symbols


@pytest.fixture(scope="module")
def code():
    return RSCode(4, 1, GF(3))


def run(n, t, c, L, strategy_name, seed=0, x=None, **params):
    cfg = SystemConfig(n=n, t=t, c=c, L=L, seed=seed)
    strategy = make_strategy(strategy_name, cfg, **params)
    x = x if x is not None else random_bits(random.Random(seed), L)
    return x, run_byzantine_broadcast(x, cfg, strategy)


# --- Detectable Broadcast step operations ------------------------------


def test_peer_symbol_payload(monkeypatch):
    sent = []
    original = Simulation.round

    def spy(self, intents, phase, tag, extra=None):
        if tag == "alg1.symbol":
            sent.append(dict(intents))
        return original(self, intents, phase, tag, extra)

    monkeypatch.setattr(Simulation, "round", spy)
    cfg = SystemConfig(n=4, t=1, c=3, L=12)
    # every peer holding (1,0): codeword (1,1,1,1), its symbol 1 as 3 bits
    run_byzantine_broadcast("001000" * 2, cfg, make_strategy("honest", cfg))
    assert sent == [{2: "001", 3: "001", 4: "001"}] * 2
    sent.clear()
    # generation 1's dispute control pairs the equivocating source with
    # peer 2, which then stays silent in its symbol slot
    out = run_byzantine_broadcast("001000" * 2, cfg, make_strategy("equivocating_source", cfg))
    assert out.generations[0].new_pairs == ((1, 2),)
    assert sent[1][2] == ""


def test_assemble_view_honest(code):
    received = {2: "001", 3: "001", 4: "001"}  # peer 2 holds its own symbol too
    view = db_assemble_view(code, 2, code.encode((1, 0)), received, DisputeGraph(1), frozenset())
    assert view == [1, 1, 1, 1]


def test_assemble_view_nulls_disputed_peer(code):
    disputes = DisputeGraph(1)
    disputes.add(2, 4)
    received = {2: "001", 3: "001", 4: "001"}
    view = db_assemble_view(code, 2, code.encode((1, 0)), received, disputes, frozenset())
    assert view == [1, 1, 1, None]
    # The other side of the pair (a lower id), and a peer in dispute with the source.
    disputes.add(1, 3)
    view = db_assemble_view(code, 4, code.encode((1, 0)), {2: "001", 3: "001", 4: "001"}, disputes, frozenset())
    assert view == [1, None, None, 1]


def test_assemble_view_under_equivocation(code):
    # source sent u=(1,0) to p2, p3 and v=(0,1) to p4: p4's symbol slot
    # carries encode(v)[4] = 3
    received = {2: "001", 3: "001", 4: "011"}
    view = db_assemble_view(code, 2, code.encode((1, 0)), received, DisputeGraph(1), frozenset())
    assert view == [1, 1, 1, 3]


class _ShortPayloads(Strategy):
    """`node` sends its Detectable Broadcast payload `cut` bits short."""

    name = "short_payloads"

    def __init__(self, config, *, node, cut):
        super().__init__(config)
        self.node, self.cut = node, cut

    def corrupt_set(self):
        return frozenset({self.node})

    def act(self, ctx, honest_payload):
        if ctx.tag in ("source_value", "alg1.symbol"):
            return honest_payload[: -self.cut]
        return honest_payload


def test_wrong_length_db_payloads_read_as_silence(monkeypatch):
    views = []  # peers 2, 3 and 4 each resolve one view, in peer order
    original = dispute_bb.db_resolve

    def spy(code, view):
        views.append(list(view))
        return original(code, view)

    monkeypatch.setattr(dispute_bb, "db_resolve", spy)
    cfg = SystemConfig(n=4, t=1, c=3, L=6)
    x = "001000"  # codeword (1, 1, 1, 1)
    # Peer 3 sends a 2-bit symbol: a null entry, not a zero-padded "000".
    out = run_byzantine_broadcast(x, cfg, _ShortPayloads(cfg, node=3, cut=1))
    assert len(views) == 3
    assert views[0] == [1, 1, None, 1] and views[2] == [1, 1, None, 1]
    assert not out.generations[0].dc_invoked
    assert check_bb_properties(out, x) == "Pass"
    # The source sends a 4-bit block "1011": every peer takes the all-zeros
    # default, not the zero-padded "101100".
    x = "101101"
    out = run_byzantine_broadcast(x, cfg, _ShortPayloads(cfg, node=1, cut=2))
    assert out.generations[0].z == {2: (0, 0), 3: (0, 0), 4: (0, 0)}
    assert out.outputs == {2: "000000", 3: "000000", 4: "000000"}
    assert check_bb_properties(out, x) == "Pass"


class _WrongSymbol(Strategy):
    """Node 7 sends a wrong symbol: to peer 2 alone in generation 1, to
    every peer in generation 2."""

    def corrupt_set(self):
        return frozenset({7})

    def act(self, ctx, honest_payload):
        if ctx.tag != "alg1.symbol":
            return honest_payload
        self.generation = getattr(self, "generation", 0) + 1
        wrong = ("1" if honest_payload[0] == "0" else "0") + honest_payload[1:]
        if self.generation == 1:
            return {r: wrong if r == 2 else honest_payload for r in ctx.receivers}
        return wrong


def test_a_peer_in_dispute_assembles_its_own_view():
    # In generation 2 peers 2..6 hear node 7 alike, but peer 2 is in
    # dispute with it: it nulls the wrong symbol the others detect.
    cfg = SystemConfig(n=7, t=2, c=3, L=18)
    x = "101100111000101011"
    out = run_byzantine_broadcast(x, cfg, _WrongSymbol(cfg))
    assert out.generations[0].new_pairs == ((2, 7),)
    assert out.generations[1].detected == {2: False, 3: True, 4: True, 5: True, 6: True, 7: False}
    assert check_bb_properties(out, x) == "Pass"


def test_resolve_unique_and_detected(code):
    assert db_resolve(code, [1, 1, 1, 1]) == ((1, 0), False)
    block, detected = db_resolve(code, [1, 1, 1, 3])
    assert detected and block == (0, 0)
    assert db_resolve(code, [1, 1, None, None]) == ((1, 0), False)


# --- claims and dispute derivation -------------------------------------


def test_claim_round_trip(code):
    view = [1, None, 1, 3]
    bits = serialize_claim((1, 0), view, code)
    assert parse_claim(bits, code) == ((1, 0), view)
    # one bit more or less than a whole claim reads as no claim at all,
    # not as the block with a truncated or extended view
    assert parse_claim(bits + "1", code) == (None, [None] * 4)
    assert parse_claim(bits[:-1], code) == (None, [None] * 4)
    bits = serialize_claim(None, [None] * 4, code)
    assert parse_claim(bits, code) == (None, [None] * 4)
    assert parse_claim("0", code) == (None, [None] * 4)  # garbage


def test_derive_pair_with_equivocating_source(code):
    # X = (1,0); p4 truthfully claims it received (0,1)
    claims = {
        2: ((1, 0), [1, 1, 1, 3]),
        3: ((1, 0), [1, 1, 1, 3]),
        4: ((0, 1), [1, 1, 1, 3]),
    }
    pairs = derive_disputes(code, (1, 0), claims, DisputeGraph(1))
    assert pairs == [(1, 4)]


def test_derive_pair_with_symbol_corruptor(code):
    # p3 sent a wrong symbol to p2 only, then claims the true block (1,0):
    # p2's claimed r_2[3] = 0 contradicts encode((1,0))[3] = 1
    claims = {
        2: ((1, 0), [1, 1, 0, 1]),
        3: ((1, 0), [1, 1, 1, 1]),
        4: ((1, 0), [1, 1, 1, 1]),
    }
    pairs = derive_disputes(code, (1, 0), claims, DisputeGraph(1))
    assert pairs == [(2, 3)]


def test_derive_no_pairs_from_consistent_claims(code):
    claims = {i: ((1, 0), [1, 1, 1, 1]) for i in (2, 3, 4)}
    assert derive_disputes(code, (1, 0), claims, DisputeGraph(1)) == []


class _CorruptAndAccuse(SymbolCorruptor):
    """Node n sends p2 a wrong symbol, as symbol_corruptor does, then
    claims that p2's symbol reached it wrong: p2 and node n accuse each
    other, so dispute control finds their pair twice."""

    def act(self, ctx, honest_payload):
        if ctx.extra.get("purpose") == "dc_claim" and ctx.tag == "eig.source":
            code = RSCode(self.config.n, self.config.t, GF(self.config.c))
            block, view = parse_claim(honest_payload, code)
            view[1] ^= 1  # p2's symbol
            return serialize_claim(block, view, code)
        return super().act(ctx, honest_payload)


def test_mutual_accusations_give_one_new_pair():
    cfg = SystemConfig(n=4, t=1, c=3, L=6)
    out = run_byzantine_broadcast("101100", cfg, _CorruptAndAccuse(cfg))
    assert out.generations[0].new_pairs == ((2, 4),)


# --- full protocol ------------------------------------------------------


def test_honest_run_exact_cost():
    x, out = run(4, 1, 3, 12, "honest")
    assert check_bb_properties(out, x) == "Pass"
    assert out.meter.phase_honest_bits("DB") == 30  # 2 generations x 15
    assert out.dc_invocations == 0
    assert out.meter.adversary_bits == 0


@pytest.mark.parametrize("strategy", ["honest", "randomized_byzantine"])
def test_thirteen_nodes_four_faults_pass(strategy):
    # The largest tree the suite runs: t = 4, with a batch of 13 EIG instances in DD.
    x, outcome = run(13, 4, 4, 20, strategy)
    assert check_bb_properties(outcome, x) == "Pass"


def test_source_step_costs_d_bits():
    _, out = run(4, 1, 3, 12, "honest")
    db_source_slots = [
        e for e in out.trace if e.phase == "DB" and e.sender == 1
    ]
    assert [e.bits for e in db_source_slots] == [6, 6]


def test_equivocating_source_run():
    x, out = run(4, 1, 3, 12, "equivocating_source")
    assert check_bb_properties(out, x) == "Pass"
    assert 1 <= out.dc_invocations <= 2
    assert any(1 in pair for pair in out.disputes.pairs)
    # generation outputs equal the dispute-control by-product
    for g in out.generations:
        if g.dc_invoked:
            assert len({g.y_bits[i] for i in (2, 3, 4)}) == 1


def test_equivocation_detected_by_receiver_of_v():
    x, out = run(4, 1, 3, 12, "equivocating_source")
    first = out.generations[0]
    assert any(first.detected[i] for i in (2, 3, 4))


def test_symbol_corruptor_pairs_with_witness():
    x, out = run(4, 1, 3, 12, "symbol_corruptor")
    assert check_bb_properties(out, x) == "Pass"
    assert out.dc_invocations >= 1
    assert all(4 in pair for pair in out.disputes.pairs)


def test_consistent_lie_detected_by_all_or_harmless():
    x, out = run(4, 1, 3, 12, "symbol_corruptor", mode="all")
    assert check_bb_properties(out, x) == "Pass"
    for g in out.generations:
        if g.skipped:
            continue
        flags = {g.detected[i] for i in (2, 3) if i in g.detected}
        assert len(flags) == 1  # same inconsistent view everywhere


def test_fault_free_detection_must_yield_a_new_pair(monkeypatch):
    # symbol_corruptor sends p2 a wrong symbol, so p2, fault-free,
    # detects; dispute control that then derives no pair is unsound.
    monkeypatch.setattr(dispute_bb, "derive_disputes", lambda *args: [])
    with pytest.raises(ProtocolError, match="derived no new pair"):
        run(4, 1, 3, 6, "symbol_corruptor")


def test_detection_liar_forces_dispute_control_then_exclusion():
    x, out = run(4, 1, 3, 12, "detection_liar")
    assert check_bb_properties(out, x) == "Pass"
    assert out.generations[0].dc_invoked
    assert out.generations[0].new_pairs == ()
    assert 4 in out.disputes.identified_faulty
    assert not out.generations[1].dc_invoked


def test_claim_liar_paired_with_truthful_witness():
    x, out = run(4, 1, 3, 12, "claim_liar")
    assert check_bb_properties(out, x) == "Pass"
    assert any(4 in pair for pair in out.disputes.pairs)


def test_source_disqualification_defaults_remaining_generations():
    # Equivocating every generation: after at most t(t+1) = 2 dispute
    # phases the source exceeds t disputes and is excluded.
    x, out = run(4, 1, 3, 30, "equivocating_source", seed=3)
    assert check_bb_properties(out, x) == "Pass"
    assert out.dc_invocations <= 2
    assert 1 in out.disputes.identified_faulty
    assert any(g.skipped for g in out.generations)
    skipped = [g for g in out.generations if g.skipped]
    assert all(g.y_bits[2] == "0" * 6 for g in skipped)


def test_determinism():
    x1, out1 = run(7, 2, 3, 18, "randomized_byzantine", seed=5)
    x2, out2 = run(7, 2, 3, 18, "randomized_byzantine", seed=5)
    assert out1.outputs == out2.outputs
    assert out1.trace == out2.trace
    assert out1.meter.honest_bits == out2.meter.honest_bits


def test_input_length_validated():
    cfg = SystemConfig(n=4, t=1, c=3, L=12)
    with pytest.raises(ValueError):
        run_byzantine_broadcast("101", cfg, make_strategy("honest", cfg))
