"""Adversary strategies: registry shape, corrupt-set discipline,
and deterministic behaviour."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selbroadcast import (
    STRATEGY_REGISTRY,
    Scenario,
    SystemConfig,
    make_strategy,
    run_byzantine_broadcast,
)
from selbroadcast.adversaries import random_bits


@pytest.fixture
def config():
    return SystemConfig(n=7, t=2, c=3, L=18, seed=5)


def test_registry_names(config):
    assert set(STRATEGY_REGISTRY) == {
        "honest",
        "crash_silent",
        "equivocating_source",
        "symbol_corruptor",
        "detection_liar",
        "claim_liar",
        "randomized_byzantine",
    }
    assert [cls(config).name for cls in STRATEGY_REGISTRY.values()] == list(STRATEGY_REGISTRY)


@pytest.mark.parametrize("seed", range(6))
def test_corrupt_sets_respect_budget(seed):
    config = SystemConfig(n=7, t=2, c=3, L=18, seed=seed)
    for strategy in (cls(config) for cls in STRATEGY_REGISTRY.values()):
        corrupt = strategy.corrupt_set()
        assert len(corrupt) <= config.t, strategy.name
        assert corrupt <= set(config.nodes), strategy.name
        # the corrupt set is a fixed property of the strategy instance
        assert strategy.corrupt_set() == corrupt, strategy.name


def test_honest_strategy_generates_no_adversary_traffic(config):
    out = run_byzantine_broadcast("0" * config.L, config, make_strategy("honest", config))
    assert out.faulty == frozenset()
    assert out.meter.adversary_messages == 0
    assert out.meter.adversary_bits == 0


def test_randomized_strategy_is_seed_deterministic(config):
    x = "101101" * 3
    runs = [
        run_byzantine_broadcast(x, config, make_strategy("randomized_byzantine", config))
        for _ in range(2)
    ]
    assert runs[0].outputs == runs[1].outputs
    assert runs[0].trace == runs[1].trace


def test_strategy_seed_param_changes_behaviour(config):
    a = make_strategy("randomized_byzantine", config, seed=1)
    b = make_strategy("randomized_byzantine", config, seed=2)
    assert a.rng.random() != b.rng.random()


def test_unknown_strategy_rejected(config):
    with pytest.raises(ValueError):
        make_strategy("omniscient", config)


def test_symbol_corruptor_refuses_an_unknown_mode(config):
    for mode in ("subset", "all"):
        assert make_strategy("symbol_corruptor", config, mode=mode).mode == mode
    with pytest.raises(ValueError, match="mode must be"):
        make_strategy("symbol_corruptor", config, mode="al")
    with pytest.raises(ValueError, match="mode must be"):  # before anything runs
        Scenario(n=7, t=2, c=3, L=18, strategy="symbol_corruptor", strategy_params={"mode": "al"})


@pytest.mark.parametrize("name", list(STRATEGY_REGISTRY))
def test_a_strategy_takes_only_the_parameters_it_reads(config, name):
    # A misspelled parameter is refused, by a run and by a scenario alike;
    # only randomized_byzantine draws, so only it takes a seed.
    with pytest.raises(TypeError, match="'mdoe'"):
        make_strategy(name, config, mdoe="all")
    with pytest.raises(TypeError, match="'mdoe'"):
        Scenario(n=7, t=2, c=3, L=18, strategy=name, strategy_params={"mdoe": "all"})
    if name == "randomized_byzantine":
        make_strategy(name, config, seed=1)
    else:
        with pytest.raises(TypeError, match="'seed'"):
            make_strategy(name, config, seed=1)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64), k=st.integers(0, 2000))
@example(seed=0, k=0)
@example(seed=1, k=1)
@example(seed=2, k=7)
@example(seed=3, k=33)
@example(seed=4, k=2000)
def test_random_bits_is_one_k_bit_draw(seed, k):
    bits = random_bits(random.Random(seed), k)
    assert len(bits) == k
    assert set(bits) <= {"0", "1"}
    if k == 0:
        assert bits == ""
    else:
        assert int(bits, 2) == random.Random(seed).getrandbits(k)
