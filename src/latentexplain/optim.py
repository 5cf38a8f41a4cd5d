"""Adam optimizer over named parameter arrays."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class AdamConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


class Adam:
    """Standard Adam with bias correction; deterministic given inputs.

    Updates the arrays of ``params`` in place.
    """

    def __init__(self, params: dict[str, np.ndarray], config: AdamConfig | None = None):
        self.params = params
        self.config = config or AdamConfig()
        self.t = 0
        self.m = {k: np.zeros_like(p) for k, p in params.items()}
        self.v = {k: np.zeros_like(p) for k, p in params.items()}

    def step(self, grads: dict[str, np.ndarray]):
        """One update of each parameter named in ``grads``; the others stay as they are."""
        c = self.config
        self.t += 1
        bc1 = 1.0 - c.beta1**self.t
        bc2 = 1.0 - c.beta2**self.t
        for k, g in grads.items():
            p = self.params[k]
            self.m[k] = c.beta1 * self.m[k] + (1.0 - c.beta1) * g
            self.v[k] = c.beta2 * self.v[k] + (1.0 - c.beta2) * g * g
            m_hat = self.m[k] / bc1
            v_hat = self.v[k] / bc2
            p -= (c.lr * m_hat / (np.sqrt(v_hat) + c.eps)).astype(p.dtype)
