"""Spans around the calls into each layer, recorded from outside the program.

`Tracer.install` replaces public functions and methods of a freshly
imported `selbroadcast` at the names their callers look up (module
globals such as `dispute_bb.eig_broadcast`, class attributes such as
`Simulation.round`) and `uninstall` puts the originals back.  Spans are
kept in memory as (kind, start, end, parent index, phase).  A span's self
time is its duration minus the durations of its child spans, so the self
times of all spans of a pass, the root "pass" span included, add up to the
root's duration; the root's own self time is the unattributed remainder.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict

# span kind -> (call-count metric or None, self-time metric)
LAYERS = {
    "eig": ("eig.calls", "eig.self_s"),
    "round": ("channel.round_calls", "channel.round_self_s"),
    "deliver": ("channel.deliver_calls", "channel.deliver_s"),
    "act": ("adversaries.act_calls", "adversaries.act_s"),
    "encode": ("rs.encode_calls", "rs.encode_s"),
    "check": ("rs.check_calls", "rs.check_s"),
    "gf_init": ("gf.init_calls", "gf.init_s"),
    "view": (None, "dispute_bb.view_s"),
    "derive": (None, "dispute_bb.derive_s"),
    "core": (None, "committee.core_s"),
    "verdict": (None, "harness.check_s"),
    "write_csv": (None, "harness.write_csv_s"),
    "write_trace": (None, "harness.write_trace_s"),
}
# Calls counted without a span: too frequent to time, or too cheap to matter.
COUNTS = ("gf.mul_calls", "committee.vote_calls", "rs.detections")
PHASES = ("DB", "DD", "DC", "SRC", "CORE", "ANN")
ROOT = "pass"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._originals: list = []

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    def timed(self, kind: str, fn, on_result=None):
        """`fn` wrapped in a span; the span's phase is fn's `phase` argument, if any."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        try:
            params = list(inspect.signature(fn).parameters)
        except (TypeError, ValueError):
            params = []
        phase_at = params.index("phase") if "phase" in params else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if phase_at is None:
                    phase = ""
                elif phase_at < len(args):
                    phase = args[phase_at]
                else:
                    phase = kwargs.get("phase", "")
                spans[idx] = (kind, start, end, parent, phase)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _detection(self, result) -> None:
        if result is None:
            self.counts["rs.detections"] += 1

    def install(self, sb) -> None:
        """Wrap the layer boundaries of the `selbroadcast` package `sb`."""
        timed, counted = self.timed, self.counted
        targets = [
            (sb.channel.Simulation, "round", lambda f: timed("round", f)),
            (sb.channel, "channel_deliver", lambda f: timed("deliver", f)),
            (sb.dispute_bb, "eig_broadcast", lambda f: timed("eig", f)),
            (sb.committee, "eig_broadcast", lambda f: timed("eig", f)),
            (sb.rs.RSCode, "encode", lambda f: timed("encode", f)),
            (sb.rs.RSCode, "consistency_check", lambda f: timed("check", f, self._detection)),
            (sb.gf.GF, "__init__", lambda f: timed("gf_init", f)),
            (sb.gf.GF, "mul", lambda f: counted("gf.mul_calls", f)),
            (sb.dispute_bb, "db_assemble_view", lambda f: timed("view", f)),
            (sb.dispute_bb, "derive_disputes", lambda f: timed("derive", f)),
            (sb.committee, "eig_core", lambda f: timed("core", f)),
            (sb.committee, "majority_vote", lambda f: counted("committee.vote_calls", f)),
            (sb.harness, "check_bb_properties", lambda f: timed("verdict", f)),
            (sb.harness, "check_bounds", lambda f: timed("verdict", f)),
            (sb.harness, "write_csv", lambda f: timed("write_csv", f)),
            (sb.harness, "write_trace", lambda f: timed("write_trace", f)),
        ]
        strategies = {sb.adversaries.Strategy, *sb.adversaries.STRATEGY_REGISTRY.values()}
        for cls in sorted(strategies, key=lambda c: c.__name__):
            targets.append((cls, "act", lambda f: timed("act", f)))
        for owner, name, wrap in targets:
            # A name the program no longer defines is left alone; its
            # metrics then read 0.
            if name in vars(owner):
                original = vars(owner)[name]
                self._originals.append((owner, name, original))
                setattr(owner, name, wrap(original))

    def uninstall(self) -> None:
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)

    def summary(self) -> dict[str, float]:
        """Per-layer calls, self times and phase times of the recorded pass."""
        spans = self.spans
        child = [0.0] * len(spans)
        for kind, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        phase_s: dict[str, float] = defaultdict(float)
        for i, (kind, start, end, parent, phase) in enumerate(spans):
            duration = end - start
            calls[kind] += 1
            self_s[kind] += duration - child[i]
            # Phase time: the outermost round or EIG span of each phase.
            if kind == "eig" or (kind == "round" and (parent < 0 or spans[parent][0] != "eig")):
                phase_s[phase] += duration
        roots = [s for s in spans if s[0] == ROOT]
        out = {
            "traced.pass_s": sum(end - start for _, start, end, _, _ in roots),
            "unattributed_s": self_s[ROOT],
        }
        for kind, (calls_metric, self_metric) in LAYERS.items():
            if calls_metric:
                out[calls_metric] = calls[kind]
            out[self_metric] = self_s[kind]
        for phase in PHASES:
            out[f"phase.{phase}_s"] = phase_s[phase]
        for key in COUNTS:
            out[key] = self.counts[key]
        return out

    def dump(self, path) -> None:
        """Write the recorded spans as JSON lines, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (kind, start, end, parent, phase) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": kind, "phase": phase, "parent": parent,
                    "start": start - origin, "end": end - origin,
                }) + "\n")
