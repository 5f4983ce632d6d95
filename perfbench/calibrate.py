"""Machine-speed calibration for timings on a shared machine.

On a machine shared with other tenants the same work runs up to 40% slower
for seconds to minutes at a time.  ``kernel`` times a fixed pure-Python
float recurrence, the kind of work most of hoytsense's time goes to, in
the calling thread's CPU time, as the benchmark times requests: a wait to
be scheduled then does not read as a slowdown.  A timing divided by
``slowdown`` reads as seconds on the reference machine (Intel Xeon,
2 vCPUs) when nothing else slows it.  The kernels share no code with
hoytsense, so a change to the program does not move them.

The slowdown is not the same for all work.  When the Python loop runs 40%
slower, numpy's random draws, where the Monte Carlo route spends its time,
run only about 10% slower; divided by the Python loop's slowdown, Monte
Carlo latencies swung by more than 10% from run to run.  So Monte Carlo
requests are normalized by ``rng_kernel``, a fixed set of numpy draws and
a sort, and all others by ``kernel``.

Thread CPU time, not process CPU time: while a process-wide CPU timer is
armed (the worker's SIGPROF sampler), Linux reads the process clock at
scheduler-tick resolution.

This module imports only ``math`` and ``time`` at the top, so a fresh
interpreter can run ``kernel`` before importing hoytsense without warming
any module the import would load.
"""

import math
import time

# the kernels' times on the reference machine when nothing else slows them
REF_S = 1.0e-3
REF_RNG_S = 0.7e-3


def kernel() -> float:
    """CPU seconds for a fixed Python float loop."""
    start = time.thread_time()
    x, acc = 0.5, 0.0
    for i in range(1, 4500):
        x = x * (1.0 + 1.0 / i) / (1.0 + 0.5 / i)
        acc += x * math.exp(-1e-4 * i)
    return time.thread_time() - start


def rng_kernel() -> float:
    """CPU seconds for fixed numpy random draws and a sort.

    numpy is imported here, not at the top, for the reason given above.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    start = time.thread_time()
    rng.standard_gamma(3.0 + rng.poisson(2.0, 6000))
    np.sort(rng.standard_normal(6000))
    return time.thread_time() - start


def sample() -> tuple:
    """One sample of each kernel: (Python loop, numpy draws)."""
    return kernel(), rng_kernel()


def slowdown(samples, ref: float = REF_S) -> float:
    """The machine's slowdown over the reference, from one kernel's samples."""
    ordered = sorted(samples)
    mid = len(ordered) // 2
    median = ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
    return median / ref
