"""Host speed, read off a fixed pure-Python kernel timed next to each job.

On a shared host the same job can take 30% more or less wall time from one
minute to the next, as other tenants load the machine, and the slowdown
hits pure-Python work evenly.  Timing this kernel right before and right
after a job tells how fast the host ran during it, and scaling the job's
time by REFERENCE_S over that kernel time gives its time at reference
speed.  The kernel does the kind of work pdfam does: integer arithmetic,
dict updates and a sort.
"""

import time

# the kernel's time on an unloaded 2-core Intel Xeon, Python 3.11
REFERENCE_S = 0.004


def kernel_s() -> float:
    """Wall time of one run of the fixed kernel."""
    start = time.perf_counter()
    tally: dict[int, int] = {}
    for i in range(20000):
        key = (i * 7919) % 1021
        tally[key] = tally.get(key, 0) + (i * i) % 13
    sorted(tally.values())
    return time.perf_counter() - start


def at_reference(seconds: float, before: float, after: float) -> float:
    """A measured time scaled to reference speed, given the kernel times
    taken just before and just after it."""
    return seconds * REFERENCE_S / ((before + after) / 2)
