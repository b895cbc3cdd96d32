"""Host-speed probe: how fast one CPU runs a fixed kernel, over time.

The measurement host is a virtual machine whose CPUs share physical cores
with other tenants.  Each CPU flips, on a scale of a second to a minute,
between a fast state and a slow one in which interpreted numpy code runs
up to twice as long (``perfbench/NOTES.md``).  Started as a script, the
probe pins itself to one CPU and every ``INTERVAL_S`` times a fixed kernel
of small-array numpy arithmetic driven from Python, the same kind of work
martctrl's per-step code does.  It appends ``<CLOCK_MONOTONIC seconds>
<kernel milliseconds>`` lines to a file until it is stopped or its parent
exits.

``scale`` turns the samples taken while a measured process ran on the same
CPU into the factor that scales the process's time to the host's typical
speed.

    python3 perfbench/probe.py --cpu 1 --out samples.txt
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

INTERVAL_S = 0.025
ITERATIONS = 500
# A fixed reference near the kernel's typical time on the measurement host
# (median 0.77 ms over 428 runs; 0.5 to 0.7 ms in the fast state, 0.9 to
# 1.4 ms in the slow one).  Scaled times are seconds at this speed.
REFERENCE_MS = 0.82
# martctrl's times follow the kernel's to this power: fitted over the same
# runs, run time ~ kernel time ** 0.71 to 0.95 depending on the workload,
# and set-up time ~ kernel time ** 0.82.
SENSITIVITY = 0.8
# A sample longer than this was preempted by the measured process that
# shares the CPU, so it says nothing about the CPU's state.
PREEMPTED_MS = 2.1
# Samples are taken from at least this much time around a short interval.
MIN_WINDOW_S = 1.0


def kernel():
    """Time one pass of the probe kernel, in milliseconds."""
    import numpy as np
    small = np.linspace(-1.0, 1.0, 8)
    start = time.perf_counter()
    x = small.copy()
    total = 0.0
    for _ in range(ITERATIONS):
        x = x * 0.999 + small
        total += float(x[0])
    return (time.perf_counter() - start) * 1e3


def load(path):
    """Read the (time, kernel ms) samples written so far."""
    samples = []
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2:
                    samples.append((float(parts[0]), float(parts[1])))
    except FileNotFoundError:
        pass
    return samples


def scale(samples, start, end):
    """Factor that scales a time measured in [start, end] to typical speed.

    It is (reference kernel time / mean kernel time) ** SENSITIVITY.
    The interval is widened to ``MIN_WINDOW_S`` around its middle when it
    is shorter.  Returns ``None`` when no usable sample falls inside.
    """
    if end - start < MIN_WINDOW_S:
        middle = (start + end) / 2
        start, end = middle - MIN_WINDOW_S / 2, middle + MIN_WINDOW_S / 2
    kept = [ms for when, ms in samples
            if start <= when <= end and ms <= PREEMPTED_MS]
    if not kept:
        return None
    return (REFERENCE_MS / statistics.fmean(kept)) ** SENSITIVITY


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})
    parent = os.getppid()
    kernel()        # warm-up: numpy import and first-call costs
    with open(args.out, "w", encoding="utf-8", buffering=1) as out:
        while os.getppid() == parent:
            time.sleep(INTERVAL_S)
            ms = kernel()
            out.write(f"{time.monotonic():.4f} {ms:.4f}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
