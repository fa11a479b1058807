import itertools
import math
import random
import zlib
from weakref import WeakKeyDictionary

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eig_reference
from selbroadcast.adversaries import Strategy, make_strategy, random_bits
from selbroadcast.channel import Simulation, SystemConfig, TrafficMeter, check_bb_properties
from selbroadcast.committee import run_algorithm2
from selbroadcast.dispute_bb import run_byzantine_broadcast
from selbroadcast import eig
from selbroadcast.eig import VARY, _vote, eig_broadcast, pack
from selbroadcast.harness import Scenario, run_scenario


def sim_for(n, t, c, L, seed=0, strategy=None):
    cfg = SystemConfig(n=n, t=t, c=c, L=L, seed=seed)
    return Simulation(cfg, strategy or make_strategy("honest", cfg))


def _rng(strategy, seed=0):
    """A drawing strategy's Random, mixed as `randomized_byzantine` mixes its own."""
    return random.Random((strategy.config.seed << 16) ^ seed ^ zlib.crc32(strategy.name.encode()))


class SplitSource(Strategy):
    """Faulty source sends one bit to the first receiver, the opposite to
    the others."""

    name = "split_source"

    def corrupt_set(self):
        return frozenset({1})

    def act(self, ctx, honest_payload):
        if ctx.tag == "eig.source":
            first = ctx.receivers[0]
            return {r: ("0" if r == first else "1") for r in ctx.receivers}
        return honest_payload


class CollusionPair(Strategy):
    """Faulty source plus a faulty relayer sending garbage relays."""

    name = "collusion_pair"

    def __init__(self, config):
        super().__init__(config)
        self.rng = _rng(self)

    def corrupt_set(self):
        return frozenset({1, self.config.n})

    def act(self, ctx, honest_payload):
        if ctx.sender == 1 and ctx.tag == "eig.source":
            half = len(ctx.receivers) // 2
            return {r: ("0" if k < half else "1") for k, r in enumerate(ctx.receivers)}
        if not honest_payload:
            return ""
        return {r: random_bits(self.rng, len(honest_payload)) for r in ctx.receivers}


def test_honest_source_all_agree():
    sim = sim_for(4, 1, 3, 12)
    out = eig_broadcast(sim, {1: "1"}, range(1, 5), "DD", "dd")[1]
    assert out == {1: "1", 2: "1", 3: "1", 4: "1"}


def test_faulty_source_agreement():
    cfg = SystemConfig(n=4, t=1, c=3, L=12)
    sim = Simulation(cfg, SplitSource(cfg))
    out = eig_broadcast(sim, {1: "1"}, range(1, 5), "DD", "dd")[1]
    # all fault-free outputs must be equal (validity is vacuous)
    assert out[2] == out[3] == out[4]


def test_collusion_agreement_many_seeds():
    for seed in range(100):
        cfg = SystemConfig(n=7, t=2, c=3, L=9, seed=seed)
        sim = Simulation(cfg, CollusionPair(cfg))
        out = eig_broadcast(sim, {1: "101"}, range(1, 8), "DD", "dd")[1]
        values = {out[i] for i in range(2, 7)}  # nodes 2..6 are fault-free
        assert len(values) == 1, f"seed {seed}: {out}"


def test_multibit_value_single_instance():
    sim = sim_for(7, 2, 3, 9)
    out = eig_broadcast(sim, {3: "110011"}, range(1, 8), "DD", "dd")[3]
    assert all(v == "110011" for v in out.values())


def test_silent_source_resolves_to_default():
    cfg = SystemConfig(n=4, t=1, c=3, L=12)
    sim = Simulation(cfg, make_strategy("crash_silent", cfg))  # node 4 faulty
    out = eig_broadcast(sim, {4: "1"}, range(1, 5), "DD", "dd")[4]
    assert out[1] == out[2] == out[3] == "0"


def test_relay_rounds_are_single_broadcasts():
    sim = sim_for(4, 1, 3, 12)
    eig_broadcast(sim, {1: "1"}, range(1, 5), "DD", "dd")
    kinds = {e.kind for e in sim.trace}
    assert kinds == {"broadcast"}
    # round 1: source; round 2: the three peers relay once each
    assert len(sim.trace) == 4
    # A batch is one slot per node per round.  At (7,2) a relayer relays,
    # per instance it does not source, 1 value of 2 bits in round 2 and 5
    # in round 3.  Node 7, skipped and no source, is silent throughout.
    for sources, skip, slots in ((range(1, 8), frozenset(), 7), (range(1, 7), frozenset({7}), 6)):
        sim = sim_for(7, 2, 3, 18)
        eig_broadcast(sim, dict.fromkeys(sources, "1"), range(1, 8), "DD", "dd", skip=skip)
        relayed = slots - 1  # instances each relayer does not source
        assert [(e.round, e.kind, e.bits) for e in sim.trace] == (
            [(1, "broadcast", 1)] * slots
            + [(2, "broadcast", relayed * 2)] * slots
            + [(3, "broadcast", relayed * 5 * 2)] * slots
        )


def test_unicast_mode_same_outputs_more_messages():
    sim = sim_for(4, 1, 3, 12)
    eig_broadcast(sim, {1: "1"}, range(1, 5), "DD", "dd")
    meter = TrafficMeter.from_trace(sim.trace)
    broadcast = meter.honest_messages
    # point to point, each of the 4 broadcasts reaches its n - 1 = 3 receivers separately
    assert meter.as_unicast(4, {"DD"}).honest_messages == 3 * broadcast == 12


def test_participant_count_validated():
    sim = sim_for(4, 1, 3, 12)
    with pytest.raises(ValueError):
        eig_broadcast(sim, {1: "1"}, [1, 2, 3], "DD", "dd")


@pytest.mark.parametrize("values", [{5: "1"}, {1: "1", 5: "0"}, {}], ids=["outsider", "one_outsider", "empty"])
def test_sources_must_be_participants(values):
    sim = sim_for(5, 1, 3, 9)
    with pytest.raises(ValueError, match="every source must participate"):
        eig_broadcast(sim, values, range(1, 5), "DD", "dd")
    assert sim.trace == []  # refused before any slot


def test_batch_of_mixed_widths_is_refused():
    sim = sim_for(4, 1, 3, 12)
    with pytest.raises(ValueError, match="one width"):
        eig_broadcast(sim, {1: "1", 2: "010"}, range(1, 5), "DD", "dd")
    assert sim.trace == []  # refused before any slot


@given(st.integers(0, 3).flatmap(lambda width: st.tuples(
    st.just(width), st.lists(st.none() | st.text("01", min_size=width, max_size=width), max_size=8))))
def test_pack_is_the_per_value_flagged_join(case):
    width, values = case
    present = [v for v in values if v is not None]
    for listed in (values, present, tuple(present)):
        expected = "".join(["0" * (1 + width) if v is None else "1" + v for v in listed])
        assert pack(listed, width) == expected


@st.composite
def last_levels(draw):
    # A last level over a 2-3 letter alphabet plus None, mostly one value
    # with a few others, so levels that agree or nearly agree are common.
    m, faults = draw(st.sampled_from([(4, 1), (5, 1), (7, 1), (7, 2), (8, 2), (10, 3)]))
    width = draw(st.integers(1, 2))
    letters = st.text("01", min_size=width, max_size=width)
    alphabet = draw(st.lists(letters, min_size=2, max_size=min(3, 2**width), unique=True))
    symbols = st.sampled_from([None, *alphabet])
    size = math.prod(range(m - faults, m))
    level = [draw(symbols)] * size
    for k, v in draw(st.dictionaries(st.integers(0, size - 1), symbols, max_size=12)).items():
        level[k] = v
    return m, faults, width, tuple(level)


def _full_fold(level, m, faults, width):
    """Strict majority over every block of every depth, bottom-up, with
    no early stop: the vote `_vote` must equal."""
    default = "0" * width
    values = [v or default for v in level]
    for size in range(m - faults, m):
        blocks = [values[k : k + size] for k in range(0, len(values), size)]
        values = []
        for block in blocks:
            winners = [v for v in set(block) if 2 * block.count(v) > len(block)]
            values.append(winners[0] if winners else default)
    (root,) = values
    return root


@given(last_levels())
def test_vote_equals_the_full_bottom_up_fold(case):
    m, faults, width, level = case
    assert _vote(level, m, faults, width) == _full_fold(level, m, faults, width)


@given(last_levels(), st.data())
def test_base_vote_is_every_completion_vote_when_decided(case, data):
    # VARY marks the values a relayer sent differently to different
    # receivers.  A base vote other than VARY must be the vote of the
    # level whatever those values are; with no VARY it is the plain vote.
    m, faults, width, level = case
    marked = data.draw(st.sets(st.integers(0, len(level) - 1)))
    base = _vote(tuple(VARY if k in marked else v for k, v in enumerate(level)), m, faults, width)
    if not marked:
        assert base == _full_fold(level, m, faults, width)
    if base is VARY:
        return
    symbols = st.sampled_from([None, *("".join(bits) for bits in itertools.product("01", repeat=width))])
    for _ in range(3):
        completed = tuple(data.draw(symbols) if k in marked else v for k, v in enumerate(level))
        assert base == _full_fold(completed, m, faults, width)


class Tampered(Simulation):
    """A Simulation that then overwrites inbox entries: `edits` maps a
    round to {(receiver, sender): payload}.  Inboxes are read-only and may
    be shared, so an edited receiver gets an edited copy."""

    def __init__(self, config, strategy, edits):
        super().__init__(config, strategy)
        self.edits = edits

    def round(self, intents, *args):
        inboxes = super().round(intents, *args)
        for (receiver, sender), payload in self.edits.get(self.round_no, {}).items():
            inboxes[receiver] = {**inboxes[receiver], sender: payload}
        return inboxes


def test_undecided_base_falls_back_to_a_vote_per_view():
    # At (4,1) node j's last level of source 1 is the relays of nodes 2,
    # 3 and 4.  Node 2 got 0 from the source and node 3 got 1, so two
    # shared entries disagree; node 4 relays 0 to nodes 1 and 2 and 1 to
    # node 3, so its entry varies.  The base vote is VARY, and each view
    # votes its own, as the label-keyed reference does.  (Two nodes
    # misbehave, more than t, so the outputs may and do disagree.)
    assert _vote(("0", "1", VARY), 4, 1, 1) is VARY
    assert _vote(("0", "1", "0"), 4, 1, 1) == "0" and _vote(("0", "1", "1"), 4, 1, 1) == "1"
    edits = {1: {(2, 1): "0"}, 2: {(1, 4): "10", (2, 4): "10", (3, 4): "11"}}
    cfg = SystemConfig(n=4, t=1, c=3, L=12)
    outputs = []
    for call in (
        lambda sim: eig_broadcast(sim, {1: "1"}, range(1, 5), "DD", "dd")[1],
        lambda sim: eig_reference.eig_broadcast(sim, 1, "1", 1, range(1, 5), 1, "DD", "dd"),
    ):
        outputs.append(call(Tampered(cfg, make_strategy("honest", cfg), edits)))
    assert outputs[0] == outputs[1] == {1: "0", 2: "0", 3: "1", 4: "1"}


class TwosSource(Strategy):
    """Corrupts the source, which sends its value's length in "2"s."""

    def corrupt_set(self):
        return frozenset({1})

    def act(self, ctx, honest_payload):
        return "2" * len(honest_payload) if ctx.tag == "eig.source" else honest_payload


def test_a_source_value_that_is_not_bits_reads_as_the_default():
    cfg = SystemConfig(n=4, t=1, c=3, L=12)
    out = eig_broadcast(Simulation(cfg, TwosSource(cfg)), {1: "101"}, range(1, 5), "DD", "dd")[1]
    assert out == dict.fromkeys(range(1, 5), "000")


def test_a_relayed_value_that_is_not_bits_votes_the_default():
    # Every relay of the source's value reaches every node as "2", as if
    # every relayer lied (more than t): the vote is the all-zeros default.
    assert _vote(("2", "2", "2"), 4, 1, 1) == "0"
    assert _vote(("2", "2", "1"), 4, 1, 1) == "0"
    edits = {2: {(j, i): "12" for j in range(1, 5) for i in range(2, 5)}}
    cfg = SystemConfig(n=4, t=1, c=3, L=12)
    out = eig_broadcast(Tampered(cfg, make_strategy("honest", cfg), edits), {1: "1"}, range(1, 5), "DD", "dd")[1]
    assert out == dict.fromkeys(range(1, 5), "0")


def test_vote_cases():
    # (4,1): a last level of 3 entries, one block.  (7,2): 30 entries, blocks of 5 then 6.
    assert _vote(("01",) * 30, 7, 2, 2) == "01"
    assert _vote((None,) * 30, 7, 2, 2) == "00"
    assert _vote((VARY,) * 30, 7, 2, 2) is VARY
    level = ("1",) * 29 + ("0",)
    assert _vote(level, 7, 2, 1) == _full_fold(level, 7, 2, 1) == "1"
    for level in (("1", None, "1"), (None, "1", "1"), ("0", "1", None)):
        assert _vote(level, 4, 1, 1) == _full_fold(level, 4, 1, 1)


def test_dd_batch_packs_once_per_relayer_per_round(monkeypatch):
    # An honest (10,3,4), L=16 run is one generation whose DD batch runs
    # 3 relay rounds of 10 relayers: one pack per relayer's payload.
    calls = []
    monkeypatch.setattr(eig, "pack", lambda *args: calls.append(args) or pack(*args))
    record = run_scenario(Scenario(n=10, t=3, c=4, L=16))[0]
    assert record.passed
    assert len(calls) == 30


def test_an_honest_run_packs_in_its_first_generation_only(monkeypatch):
    # An honest (10,3,4), L=160 run is 10 generations whose DD batches
    # hear alike: the first packs once per relayer per round, and the
    # other nine resend its intents (they made 300 packs in all).  A run
    # remembers only its own batches: a second run packs afresh.
    calls = []
    monkeypatch.setattr(eig, "pack", lambda *args: calls.append(args) or pack(*args))
    for runs in (1, 2):
        record = run_scenario(Scenario(n=10, t=3, c=4, L=160))[0]
        assert record.passed
        assert len(calls) == 30 * runs


def test_a_replayed_batch_returns_fresh_dicts(monkeypatch):
    # A caller may write into what it gets back: neither the remembered
    # batch nor a later call's result changes.
    calls = []
    monkeypatch.setattr(eig, "pack", lambda *args: calls.append(args) or pack(*args))
    config = SystemConfig(n=7, t=2, c=3, L=9)
    sim = Simulation(config, make_strategy("honest", config))
    flags = {i: "01"[i % 2] for i in config.nodes}
    first = eig_broadcast(sim, flags, config.nodes, "DD", "dd")
    for out in first.values():
        out.clear()
    second, third = (eig_broadcast(sim, flags, config.nodes, "DD", "dd") for _ in range(2))
    assert len(calls) == 2 * 7  # the first batch alone packs: the others replay it
    assert second == third == {s: dict.fromkeys(config.nodes, flags[s]) for s in config.nodes}
    assert all(second[s] is not third[s] for s in config.nodes)


def test_committee_votes_each_core_instance_once(monkeypatch):
    # Under randomized_byzantine each receiver holds its own last level,
    # but only the faulty relayers' entries differ, and the base vote
    # decides every CORE instance: 3t+1 = 10 votes, not one per receiver.
    calls = []
    vote = eig._vote
    monkeypatch.setattr(eig, "_vote", lambda *args: calls.append(args) or vote(*args))
    record = run_scenario(Scenario(n=10, t=3, c=4, L=32, algorithm="algo2", strategy="randomized_byzantine"))[0]
    assert record.passed
    assert len(calls) == 10


class RelayFuzzer(Strategy):
    """Corrupts `corrupt`; in every slot each receiver gets, at
    random, the honest payload, silence, a payload of the wrong length,
    the honest payload with one bit flipped (when it has a bit), or fresh
    bits of the honest length (an equivocation)."""

    name = "relay_fuzzer"

    def __init__(self, config, *, corrupt, seed):
        super().__init__(config)
        self.corrupt = corrupt
        self.rng = _rng(self, seed)

    def corrupt_set(self):
        return self.corrupt

    def act(self, ctx, honest_payload):
        rnd, size = self.rng, len(honest_payload)
        out = {}
        for r in ctx.receivers:
            mode = rnd.randrange(5)
            if mode == 0:
                out[r] = honest_payload
            elif mode == 1:
                out[r] = ""
            elif mode == 2:
                length = rnd.choice([k for k in range(2 * size + 3) if k != size])
                out[r] = "".join(rnd.choice("01") for _ in range(length))
            elif mode == 3 and size:
                k = rnd.randrange(size)
                out[r] = honest_payload[:k] + "10"[int(honest_payload[k])] + honest_payload[k + 1 :]
            else:
                out[r] = "".join(rnd.choice("01") for _ in range(size))
        return out


@st.composite
def eig_instances(draw, points, value_lens):
    # Participants: the source plus at least 3t others, often a proper
    # subset where n > 3t+1 (as the committee's are), so the source's
    # position and the participant count vary apart from n.  EIG's shape
    # cache lives across examples: a shape reused for the wrong
    # participants fails the comparison.
    n, t, c, L = draw(st.sampled_from(points))
    nodes = range(1, n + 1)
    source = draw(st.sampled_from(nodes))
    others = [i for i in nodes if i != source]
    participants = sorted({source} | draw(st.sets(st.sampled_from(others), min_size=3 * t)))
    value_len = draw(st.sampled_from(value_lens))
    value = "".join(draw(st.lists(st.sampled_from("01"), min_size=value_len, max_size=value_len)))
    corrupt = draw(st.sets(st.sampled_from(nodes), max_size=t))
    quiet = [i for i in participants if i != source]  # at t = 0 possibly none
    skip = draw(st.sets(st.sampled_from(quiet), max_size=t)) if quiet else set()
    seed = draw(st.integers(0, 2**16))
    return n, t, c, L, participants, source, value, value_len, frozenset(corrupt), frozenset(skip), seed


def _matches_reference(instance):
    # Twin simulations with fresh strategy instances see the same calls,
    # so any difference in outputs or trace is a difference in EIG.
    n, t, c, L, participants, source, value, value_len, corrupt, skip, seed = instance
    cfg = SystemConfig(n=n, t=t, c=c, L=L, seed=seed)
    runs = []
    calls = (
        lambda sim: eig_broadcast(sim, {source: value}, participants, "DD", "dd", skip=skip)[source],
        lambda sim: eig_reference.eig_broadcast(
            sim, source, value, value_len, participants, t, "DD", "dd", skip=skip
        ),
    )
    for call in calls:
        sim = Simulation(cfg, RelayFuzzer(cfg, corrupt=corrupt, seed=seed))
        out = call(sim)
        runs.append((out, sim.trace))
    assert runs[0] == runs[1]


@settings(max_examples=300, deadline=None)
@given(eig_instances([(3, 0, 2, 6), (5, 0, 3, 15), (4, 1, 3, 12), (7, 1, 3, 15), (7, 2, 3, 9)], [1, 6]))
def test_flat_levels_match_label_keyed_reference(instance):
    _matches_reference(instance)


@settings(max_examples=40, deadline=None)
@given(eig_instances([(10, 3, 4, 16)], [1]))
def test_flat_levels_match_label_keyed_reference_at_t3(instance):
    _matches_reference(instance)


class Recording(Simulation):
    """A Simulation that appends each round's (intents, inboxes) to `log`."""

    def __init__(self, config, strategy, log):
        super().__init__(config, strategy)
        self.log = log

    def round(self, intents, *args):
        inboxes = super().round(intents, *args)
        self.log.append((dict(intents), inboxes))
        return inboxes


class Replay(Strategy):
    """Delivers, in each corrupt slot, `deliver(round, sender, receivers)`;
    the round is one more than the rounds in `log`."""

    name = "replay"

    def __init__(self, config, *, corrupt, deliver, log):
        super().__init__(config)
        self.corrupt, self.deliver, self.log = corrupt, deliver, log

    def corrupt_set(self):
        return self.corrupt

    def act(self, ctx, honest_payload):
        return self.deliver(len(self.log) + 1, ctx.sender, ctx.receivers)


@st.composite
def eig_batches(draw, points):
    # A batch of 1..m instances over a participant set, all of one width,
    # 1 or 6; `skip` holds participants that source nothing, as the nodes
    # dispute control has excluded.
    n, t, c, L = draw(st.sampled_from(points))
    nodes = range(1, n + 1)
    participants = sorted(draw(st.sets(st.sampled_from(nodes), min_size=3 * t + 1)))
    sources = draw(st.sets(st.sampled_from(participants), min_size=1))
    width = draw(st.sampled_from([1, 6]))
    values = {}
    for s in sorted(sources):
        values[s] = "".join(draw(st.lists(st.sampled_from("01"), min_size=width, max_size=width)))
    corrupt = draw(st.sets(st.sampled_from(nodes), max_size=t))
    quiet = [i for i in participants if i not in sources]
    skip = draw(st.sets(st.sampled_from(quiet), max_size=t)) if quiet else set()
    seed = draw(st.integers(0, 2**16))
    return n, t, c, L, participants, values, frozenset(corrupt), frozenset(skip), seed


def _part(participants, values, relayer, source, relay_round):
    """Where `source`'s instance lies in `relayer`'s payload of a relay
    round (1..t), and that payload's total length: per instance it does
    not source, in ascending source order, (m-2)!/(m-1-r)! values of
    1+width bits, the batch's one width."""
    m = len(participants)
    count = math.factorial(m - 2) // math.factorial(m - 1 - relay_round)
    size = count * (1 + len(values[source]))
    relayed = [s for s in sorted(values) if s != relayer]
    at = relayed.index(source)
    return at * size, (at + 1) * size, len(relayed) * size


def _batch_matches_reference(batch):
    # The batch runs under RelayFuzzer.  Each instance then runs alone
    # through the reference, whose corrupt slots deliver that instance's
    # part of what the batch's slot delivered, or silence where the
    # payload's total length was wrong.  Outputs must agree, and so must
    # every node's intent, the instance's part of its batch intent.
    n, t, c, L, participants, values, corrupt, skip, seed = batch
    cfg = SystemConfig(n=n, t=t, c=c, L=L, seed=seed)
    log = []
    sim = Recording(cfg, RelayFuzzer(cfg, corrupt=corrupt, seed=seed), log)
    outputs = eig_broadcast(sim, values, participants, "DD", "dd", skip=skip)
    assert sorted(outputs) == sorted(values)
    for source, value in values.items():

        def part(rnd, sender, payload, source=source):
            if rnd == 1:
                return payload
            start, stop, total = _part(participants, values, sender, source, rnd - 1)
            return payload[start:stop] if len(payload) == total else ""

        def deliver(rnd, sender, receivers):
            inboxes = log[rnd - 1][1]
            return {r: part(rnd, sender, inboxes[r].get(sender, "")) for r in receivers}

        alone_log = []
        sim = Recording(cfg, Replay(cfg, corrupt=corrupt, deliver=deliver, log=alone_log), alone_log)
        alone = eig_reference.eig_broadcast(
            sim, source, value, len(value), participants, t, "DD", "dd", skip=skip
        )
        assert outputs[source] == alone, source
        for rnd, (intents, _) in enumerate(alone_log, start=1):
            batch_intents = log[rnd - 1][0]
            assert intents == {i: part(rnd, i, batch_intents[i]) for i in intents}, (source, rnd)


@settings(max_examples=200, deadline=None)
@given(eig_batches([(4, 1, 3, 12), (7, 1, 3, 15), (7, 2, 3, 9)]))
def test_batch_matches_each_instance_alone_in_reference(batch):
    _batch_matches_reference(batch)


@settings(max_examples=40, deadline=None)
@given(eig_batches([(10, 3, 4, 16)]))
def test_batch_matches_each_instance_alone_in_reference_at_t3(batch):
    _batch_matches_reference(batch)


@st.composite
def fuzzed_runs(draw):
    n, t, c, L = draw(st.sampled_from([(4, 1, 3, 12), (7, 2, 3, 18)]))
    run = draw(st.sampled_from([run_byzantine_broadcast, run_algorithm2]))
    corrupt = draw(st.sets(st.integers(1, n), max_size=t))  # the source may be in it
    seed = draw(st.integers(0, 2**16))
    return SystemConfig(n=n, t=t, c=c, L=L, seed=seed), run, frozenset(corrupt), seed


@settings(max_examples=200, deadline=None)
@given(fuzzed_runs())
def test_whole_run_under_relay_fuzzer_passes(case):
    # Every slot of every corrupt node, in every phase of either
    # algorithm, is fuzzed per receiver; the run must still terminate
    # with a Pass verdict.
    config, run, corrupt, seed = case
    rng = random.Random(seed)
    x = "".join(rng.choice("01") for _ in range(config.L))
    outcome = run(x, config, RelayFuzzer(config, corrupt=corrupt, seed=seed))
    verdict = check_bb_properties(outcome, x)
    assert verdict == "Pass", verdict


def test_an_honest_batch_reads_each_hearing_once(monkeypatch):
    # Every node hears the n flags alike, so the one shared inbox is read
    # once: one canon per source, where n inboxes took n per source.
    calls = []
    original = eig.canon
    monkeypatch.setattr(eig, "canon", lambda payload, length: calls.append(payload) or original(payload, length))
    config = SystemConfig(n=10, t=3, c=4, L=16)
    sim = Simulation(config, make_strategy("honest", config))
    flags = {i: "01"[i % 3 == 0] for i in config.nodes}
    res = eig_broadcast(sim, flags, config.nodes, "DD", "dd")
    assert res == {s: dict.fromkeys(config.nodes, flags[s]) for s in config.nodes}
    assert len(calls) == 10


_FLIP = str.maketrans("01", "10")


class Moody(Strategy):
    """Corrupts `corrupt`, and behaves per batch as `mode` says: "honest";
    "lie", where a corrupt source broadcasts its value flipped and relays
    honestly; or "equivocate", where from relay round 2 on a corrupt
    relayer sends its payload to the lower half of the receivers and the
    payload flipped to the rest.  `rnd` is the round within the batch."""

    name = "moody"
    mode, rnd = "honest", 0

    def __init__(self, config, *, corrupt):
        super().__init__(config)
        self.corrupt = corrupt

    def corrupt_set(self):
        return self.corrupt

    def act(self, ctx, honest_payload):
        if self.mode == "lie" and ctx.tag == "eig.source":
            return honest_payload.translate(_FLIP)
        if self.mode == "equivocate" and self.rnd > 2:
            half = len(ctx.receivers) // 2
            return {r: honest_payload.translate(_FLIP) if k >= half else honest_payload
                    for k, r in enumerate(ctx.receivers)}
        return honest_payload


class Sequenced(Simulation):
    """A Simulation that runs a sequence of batches.  It tells its strategy
    each round's number within the batch, and while `garble` is set every
    participant hears every relay payload flipped, its own included: the
    one view of such a round differs from the intents, at the same length.
    Every round returns one dict object, refilled, so no round can be told
    from another by the id of what it returns."""

    garble = False

    def __init__(self, config, strategy):
        super().__init__(config, strategy)
        self.inboxes = {}

    def round(self, intents, phase, tag, extra=None):
        self.strategy.rnd = 1 if tag == "eig.source" else self.strategy.rnd + 1
        inboxes = super().round(intents, phase, tag, extra)
        if self.garble and tag == "eig.relay":
            flipped = {}  # per distinct inbox (by id): its flipped copy, shared as the inbox is
            for j, box in inboxes.items():
                if id(box) not in flipped:
                    flipped[id(box)] = {s: p.translate(_FLIP) for s, p in box.items()}
                inboxes[j] = flipped[id(box)]
        self.inboxes.clear()
        self.inboxes.update(inboxes)
        return self.inboxes


def test_a_batch_that_stops_repeating_is_remembered_as_it_went_on(monkeypatch):
    # Batch 2 repeats batch 1 up to its relay rounds, which every node hears
    # flipped.  It stores batch 1's record up to there and its own rounds
    # after, so batch 3, heard as batch 2 was, replays it to the end: batch
    # 1 packs in both relay rounds, batch 2 in the last one, batch 3 never.
    calls = []
    monkeypatch.setattr(eig, "pack", lambda *args: calls.append(args) or pack(*args))
    config = SystemConfig(n=7, t=2, c=3, L=9)
    sim = Sequenced(config, Moody(config, corrupt=frozenset()))
    flags = {i: "01"[i % 2] for i in config.nodes}
    packs, results = [], []
    for garble in (False, True, True):
        sim.garble = garble
        results.append(eig_broadcast(sim, flags, config.nodes, "DD", "dd"))
        packs.append(len(calls))
        calls.clear()
    assert packs == [2 * 7, 7, 0]
    assert results[2] == results[1] != results[0]


@st.composite
def batch_sequences(draw):
    # One key for 2-4 batches: participants, sources, t and width are
    # fixed; each batch's values are one of two value sets, so they repeat
    # often, and `skip` sometimes grows by a participant that sources
    # nothing.  Each batch has a mode and may be garbled.
    n, t, c, L = draw(st.sampled_from([(4, 1, 3, 12), (5, 1, 3, 9), (7, 2, 3, 9), (7, 2, 3, 9)]))
    nodes = range(1, n + 1)
    participants = sorted(draw(st.sets(st.sampled_from(nodes), min_size=3 * t + 1)))
    sources = sorted(draw(st.sets(st.sampled_from(participants), min_size=1, max_size=3)))
    width = draw(st.integers(1, 2))
    bits = st.text("01", min_size=width, max_size=width)
    choices = [{s: draw(bits) for s in sources} for _ in range(2)]
    quiet = [i for i in participants if i not in sources]
    skip, batches = frozenset(), []
    for _ in range(draw(st.integers(2, 4))):
        if quiet and len(skip) < t and draw(st.booleans()):
            skip |= {draw(st.sampled_from(quiet))}
        mode = draw(st.sampled_from(["honest", "lie", "equivocate"]))
        batches.append((draw(st.sampled_from(choices[:1] * 2 + choices[1:])), skip, mode, draw(st.booleans())))
    corrupt = frozenset(draw(st.sets(st.sampled_from(nodes), max_size=t)))
    return SystemConfig(n=n, t=t, c=c, L=L), participants, corrupt, batches


def _run_sequence(config, participants, corrupt, batches, call):
    sim = Sequenced(config, Moody(config, corrupt=corrupt))
    outputs = []
    for values, skip, mode, garble in batches:
        sim.strategy.mode, sim.garble = mode, garble
        outputs.append(call(sim, values, skip))
    return outputs, sim.trace


_AT_41 = SystemConfig(n=4, t=1, c=3, L=12), [1, 2, 3, 4]


@given(batch_sequences())
@example((*_AT_41, frozenset(), [({1: "1"}, frozenset(), "honest", False), ({1: "1"}, frozenset({2}), "honest", False)]))
@example((*_AT_41, frozenset({1}), [({1: "1"}, frozenset(), "honest", False), ({1: "1"}, frozenset(), "lie", False)]))
@example((*_AT_41, frozenset(), [({1: "1"}, frozenset(), "honest", False), ({1: "1"}, frozenset(), "honest", True)]))
@example((SystemConfig(n=7, t=2, c=3, L=9), list(range(1, 8)), frozenset({1, 3}), [
    ({1: "0", 2: "0"}, frozenset({4}), "honest", False),
    ({1: "0", 2: "0"}, frozenset({4}), "equivocate", True),
    ({1: "0", 2: "0"}, frozenset({4}), "honest", True),
]))
@settings(deadline=None)
def test_a_remembered_batch_gives_what_a_fresh_one_gives(case):
    # A batch that repeats the run's last alike batch replays it.  Twin
    # runs of one sequence, one whose remembered batch is forgotten
    # before every call, must give the same outputs and traces; under the
    # channel model a single view equals the remembered one whenever what
    # was held after round 1 does, so only a garbled round tells a view
    # compared by content from one compared by length or by id.
    config, participants, corrupt, batches = case

    def remembering(sim, values, skip):
        return eig_broadcast(sim, values, participants, "DD", "dd", skip=skip)

    def forgetful(sim, values, skip):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(eig, "_last", WeakKeyDictionary())
            return remembering(sim, values, skip)

    runs = [_run_sequence(config, participants, corrupt, batches, call) for call in (remembering, forgetful)]
    assert runs[0] == runs[1]
    (source,) = batches[0][0] if len(batches[0][0]) == 1 else (None,)
    if source is not None and not any(garble for *_, garble in batches):

        def reference(sim, values, skip):
            out = eig_reference.eig_broadcast(
                sim, source, values[source], len(values[source]), participants,
                config.t, "DD", "dd", skip=skip)
            return {source: out}

        assert _run_sequence(config, participants, corrupt, batches, reference) == runs[0]
