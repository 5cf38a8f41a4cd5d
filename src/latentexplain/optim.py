"""Adam optimizer over named parameter arrays, and the one minibatch training loop."""

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


def minibatch_adam(params: dict, step, rows: int, batch_size: int, epochs: int,
                   rng: np.random.Generator, config: AdamConfig) -> dict:
    """Train ``params`` in place by Adam over minibatches of ``rows`` training rows.

    Each epoch draws one permutation from ``rng`` and walks it in batches of
    ``batch_size`` (the last one may be short). ``step(idx)`` returns the batch's mean
    loss and the gradients for the rows ``idx``; each batch is one ``Adam.step``.
    Returns the loss metadata: the epoch count and every epoch's mean loss, each
    batch weighted by its size.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    opt = Adam(params, config)
    epoch_losses = []
    for _epoch in range(epochs):
        perm = rng.permutation(rows)
        total = 0.0
        for start in range(0, rows, batch_size):
            idx = perm[start : start + batch_size]
            loss, grads = step(idx)
            opt.step(grads)
            total += loss * len(idx)
        epoch_losses.append(total / rows)
    return {"epochs": epochs, "final_loss": epoch_losses[-1],
            "initial_loss": epoch_losses[0], "epoch_losses": epoch_losses}
