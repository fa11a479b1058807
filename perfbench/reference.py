"""A fixed, stdlib-only reference computation, timed beside every pass.

The machine's speed drifts by up to 1.5x over minutes, because other
tenants share its cores.  Such drift slows this loop and the program
alike, so a pass's wall time divided by the time of this loop, measured
just before and just after the pass, stays steady where the wall time
does not.  The loop does what the simulator does most: it builds tuple
labels, fills and reads dicts keyed by them, and joins strings.  It uses
no code of the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

REPEATS = 200


def _work() -> int:
    labels = [(1,)]
    for _ in range(3):
        labels = [lab + (i,) for lab in labels for i in range(1, 9) if i not in lab]
    tree = {lab: "1" if sum(lab) % 3 else "0" for lab in labels}
    counts: dict[str, int] = {}
    for lab in labels:
        v = tree[lab]
        counts[v] = counts.get(v, 0) + 1
    return len("".join(tree[lab] for lab in labels)) + counts["1"]


def probe() -> float:
    """Wall time of REPEATS rounds of the reference work."""
    start = time.perf_counter()
    for _ in range(REPEATS):
        _work()
    return time.perf_counter() - start
