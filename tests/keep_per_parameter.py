"""AdamW's per-parameter update: the reference the flat optimizer is tested against.

``srrnet.nn.AdamW`` packs its parameters into one flat buffer and updates
it chunk by chunk, gathering the gradients of each chunk. This module keeps
the loop it replaced, one parameter at a time over moments of each
parameter's own, so the two can be compared bit for bit.
"""

import numpy as np

from srrnet.nn import ADAMW_BETAS, ADAMW_EPS, WEIGHT_DECAY


class PerParameterAdamW:
    """``nn.AdamW``'s update, one parameter at a time; it writes each ``p.data`` in place."""

    def __init__(self, params, lr: float):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        b1, b2 = ADAMW_BETAS
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g, m, v = p.grad, self._m[i], self._v[i]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            mhat = m / (1.0 - b1 ** self.t)
            vhat = v / (1.0 - b2 ** self.t)
            p.data -= self.lr * (mhat / (np.sqrt(vhat) + ADAMW_EPS) + WEIGHT_DECAY * p.data)
