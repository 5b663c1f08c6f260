"""Reference kernel that measures the machine's speed while a run goes on.

On a shared virtual machine the processor's speed changes by up to a third
from one stretch of seconds or minutes to the next, more than the
benchmark's bounds allow. So the benchmark times this fixed kernel between
jobs, outside their timed regions, and rescales each job's wall time to the
speed at which the kernel takes REFERENCE_S: a job that takes 1 s of wall
time while the kernel takes REFERENCE_S reports 1 s, and one that takes
1.3 s while the kernel takes 1.3 × REFERENCE_S also reports 1 s.

The kernel does the kinds of work mindsets does (building and scanning
dicts keyed by ids, counting per region, sorting records, a JSON round
trip), so that it slows down with the machine as mindsets does. It is part
of the benchmark, not of mindsets, so a change to mindsets leaves it alone.
"""

import gc
import json
import statistics
import time

REFERENCE_S = 0.0015  # the kernel's time at the reference speed
REPS = 3  # kernel runs per measurement; their median is the measurement
IDS = [f"e{i}" for i in range(1200)]


def kernel() -> int:
    membership = {eid: f"r{i % 7}" for i, eid in enumerate(IDS)}
    counts: dict[str, int] = {}
    for region in membership.values():
        counts[region] = counts.get(region, 0) + 1
    ordered = sorted(membership.items(), key=lambda item: (item[1], item[0]))
    return len(json.loads(json.dumps(ordered[:300]))) + len(counts)


def kernel_seconds(reps: int = REPS) -> float:
    """Median wall time of ``reps`` kernel runs.

    The garbage collector is off while the kernel runs, so that its time
    does not depend on how many objects the last job left behind; the
    kernel frees all it allocates, so no collection is put off.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)
