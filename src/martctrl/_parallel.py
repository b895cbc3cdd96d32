"""Fixed-order block iteration.

Work is partitioned into blocks of a fixed size and block results are
returned in block order.  Every stage runs serially: threads were measured
not to pay, because the per-path sampling loop holds the interpreter lock.
"""

from __future__ import annotations

BLOCK_SIZE = 4096


def map_blocks(fn, n_items):
    """Apply ``fn(start, stop)`` over ``BLOCK_SIZE`` index blocks, in order."""
    return [fn(start, min(start + BLOCK_SIZE, n_items))
            for start in range(0, n_items, BLOCK_SIZE)]
