"""The zero-filling gradient accumulator: the reference the tape's first-gradient copy is tested against.

``srrnet.tensor._accumulate`` writes a node's first whole-shape gradient
into an uninitialized buffer laid out like the node's ``data``. This module
keeps the form it replaced, which zero-fills that buffer and then adds the
gradient into it, so the two can be compared bit for bit.
"""

import numpy as np


def zero_filled_accumulate(t, g: np.ndarray, index=...):
    """Add ``g`` into ``t.grad[index]``, zero-filling ``t.grad`` on first use."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    view = t.grad[index]
    view += g
