"""Fixed-order block iteration.

Work is partitioned into blocks of a fixed size and block results are
returned in block order.  Nothing in the package calls it; the benchmark
tracer in ``perfbench/spans.py`` imports it, so it stays until the
benchmark drops its ``parallel.*`` metrics.
"""

from __future__ import annotations

BLOCK_SIZE = 4096


def map_blocks(fn, n_items):
    """Apply ``fn(start, stop)`` over ``BLOCK_SIZE`` index blocks, in order."""
    return [fn(start, min(start + BLOCK_SIZE, n_items))
            for start in range(0, n_items, BLOCK_SIZE)]
