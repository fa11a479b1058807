"""Byzantine Broadcast protocols and a deterministic simulator for the
selective-broadcast channel."""

from .adversaries import STRATEGY_REGISTRY, SlotCtx, Strategy, make_strategy
from .bounds import (
    bit_cost_ratio,
    check_bounds,
    detectable_cost_bits,
    honest_messages,
    message_lower_bound,
    static_db_lower_bound_bits,
    total_bb_cost_bits,
)
from .channel import (
    BbOutcome,
    DisputeGraph,
    ModelViolation,
    ProtocolError,
    Simulation,
    SystemConfig,
    TrafficMeter,
    channel_deliver,
    check_bb_properties,
)
from .committee import majority_vote, run_algorithm2
from .dispute_bb import run_byzantine_broadcast
from .eig import eig_broadcast
from .gf import GF, DEFAULT_POLYNOMIALS
from .harness import (
    CSV_COLUMNS,
    MetricsRecord,
    Scenario,
    run_repetition,
    run_scenario,
    write_csv,
    write_trace,
)
from .rs import RSCode, bits_to_symbols, symbols_to_bits

__all__ = [
    "GF",
    "DEFAULT_POLYNOMIALS",
    "RSCode",
    "bits_to_symbols",
    "symbols_to_bits",
    "SystemConfig",
    "Simulation",
    "TrafficMeter",
    "DisputeGraph",
    "BbOutcome",
    "ModelViolation",
    "ProtocolError",
    "channel_deliver",
    "check_bb_properties",
    "Strategy",
    "SlotCtx",
    "STRATEGY_REGISTRY",
    "make_strategy",
    "eig_broadcast",
    "run_byzantine_broadcast",
    "majority_vote",
    "run_algorithm2",
    "detectable_cost_bits",
    "total_bb_cost_bits",
    "bit_cost_ratio",
    "static_db_lower_bound_bits",
    "message_lower_bound",
    "honest_messages",
    "check_bounds",
    "CSV_COLUMNS",
    "MetricsRecord",
    "Scenario",
    "run_repetition",
    "run_scenario",
    "write_csv",
    "write_trace",
]
