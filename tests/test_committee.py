"""Committee-based broadcast: who sends in each phase, majority vote,
n-independent honest traffic, passive silence, and the point-to-point view
of core traffic."""

import random

import pytest

from selbroadcast import (
    ProtocolError,
    SystemConfig,
    check_bb_properties,
    committee,
    majority_vote,
    make_strategy,
    run_algorithm2,
)
from selbroadcast.adversaries import Strategy, random_bits
from selbroadcast.channel import Simulation


def run(n, t, c, L, strategy_name, seed=0, **params):
    config = SystemConfig(n=n, t=t, c=c, L=L, seed=seed)
    strategy = make_strategy(strategy_name, config, **params)
    x = random_bits(random.Random(seed), L)
    return x, run_algorithm2(x, config, strategy)


def test_senders_per_phase():
    # The 3t+1 lowest ids are active and the 2t+1 lowest announce; the source is id 1.
    _, out = run(10, 1, 4, 32, "honest")
    senders = {}
    for entry in out.trace:
        senders.setdefault(entry.phase, set()).add(entry.sender)
    assert senders == {"SRC": {1}, "CORE": {1, 2, 3, 4}, "ANN": {1, 2, 3}}


def test_majority_vote_examples():
    assert majority_vote(["1", "1", "0"], 1) == "1"
    assert majority_vote(["00", "01", "00", "01", "00"], 2) == "00"


def test_majority_vote_requires_quorum():
    # three distinct values among 2t+1 = 3: nothing reaches t+1 = 2
    with pytest.raises(ProtocolError):
        majority_vote(["0", "1", "2"], 1)
    with pytest.raises(ValueError):
        majority_vote(["1", "1"], 1)


def test_honest_run_message_count():
    # SRC: 1 broadcast; CORE: 4 EIG instances x (1 + 3 relays); ANN: 3.
    x, out = run(10, 1, 4, 32, "honest")
    assert check_bb_properties(out, x) == "Pass"
    assert out.meter.honest_messages == 20
    assert out.meter.phase_honest_messages("SRC") == 1
    assert out.meter.phase_honest_messages("CORE") == 16
    assert out.meter.phase_honest_messages("ANN") == 3


@pytest.mark.parametrize("strategy_name", ["honest", "equivocating_source"])
def test_honest_traffic_independent_of_n(strategy_name):
    # D-sized inputs at n=10 (c=4) and n=25 (c=5): fault-free message
    # counts match because only the 3t+1 lowest ids ever transmit.
    _, small = run(10, 1, 4, 32, strategy_name, seed=7)
    _, large = run(25, 1, 5, 115, strategy_name, seed=7)
    assert small.meter.honest_messages == large.meter.honest_messages


def test_passive_nodes_never_transmit():
    for strategy_name in ("honest", "equivocating_source"):
        _, out = run(10, 1, 4, 32, strategy_name, seed=3)
        passive = range(3 * out.config.t + 2, out.config.n + 1)
        assert all(entry.sender not in passive for entry in out.trace)


def test_unicast_core_same_outputs_more_messages():
    _, out = run(10, 1, 4, 32, "honest")
    unicast = out.meter.as_unicast(out.config.n, {"CORE"})
    assert unicast.honest_messages > out.meter.honest_messages
    # a point-to-point broadcast counts once per receiver (n - 1 = 9)
    assert unicast.phase_honest_messages("CORE") == out.meter.phase_honest_messages("CORE") * 9
    assert unicast.phase_honest_bits("CORE") == out.meter.phase_honest_bits("CORE") * 9
    assert unicast.by_phase["SRC"] == out.meter.by_phase["SRC"]


@pytest.mark.parametrize("strategy_name", ["equivocating_source", "detection_liar", "randomized_byzantine"])
def test_adversarial_runs_satisfy_broadcast_properties(strategy_name):
    for seed in range(10):
        x, out = run(10, 1, 4, 32, strategy_name, seed=seed)
        assert check_bb_properties(out, x) == "Pass", strategy_name


def test_messages_exceed_fault_budget():
    _, out = run(10, 1, 4, 32, "honest")
    assert out.meter.honest_messages + out.meter.adversary_messages > out.config.t


def test_input_length_validated():
    config = SystemConfig(n=10, t=1, c=4, L=32)
    with pytest.raises(ValueError):
        run_algorithm2("0" * 31, config, make_strategy("honest", config))


class _TwosSource(Strategy):
    """Corrupts the source, which sends its value's length in "2"s."""

    def corrupt_set(self):
        return frozenset({1})

    def act(self, ctx, honest_payload):
        return "2" * len(honest_payload) if ctx.tag == "source_value" else honest_payload


def test_a_source_value_that_is_not_bits_reads_as_the_default():
    # Every active node reads the source's "2"s as no value, so the
    # committee decides, and passive node 5 outputs, the all-zeros default.
    config = SystemConfig(n=5, t=1, c=3, L=18)
    x = random_bits(random.Random(0), 18)
    out = run_algorithm2(x, config, _TwosSource(config))
    assert out.outputs == dict.fromkeys(range(2, 6), "0" * 18)
    assert check_bb_properties(out, x) == "Pass"


def test_an_announcement_that_is_not_bits_reads_as_the_default(monkeypatch):
    # Every announcement reaches passive node 5 as "2"s, as if every
    # announcer lied (more than t): its votes are the all-zeros default.
    class Rewritten(Simulation):
        def round(self, intents, phase, tag, extra=None):
            inboxes = super().round(intents, phase, tag, extra)
            if tag == "announce":
                inboxes[5] = {a: "2" * len(v) for a, v in inboxes[5].items()}
            return inboxes

    monkeypatch.setattr(committee, "Simulation", Rewritten)
    config = SystemConfig(n=5, t=1, c=3, L=18)
    x = random_bits(random.Random(0), 18)
    out = run_algorithm2(x, config, make_strategy("honest", config))
    assert out.outputs[5] == "0" * 18
