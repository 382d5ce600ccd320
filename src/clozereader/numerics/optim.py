"""Adam and global-norm gradient clipping; both change the gradients they
are given in place."""

from __future__ import annotations

import math

import numpy as np

from .tensor import Parameter

DEFAULT_LEARNING_RATE = 0.0005
DEFAULT_CLIP_THRESHOLD = 10.0
M_DECAY = 0.9
V_DECAY = 0.999
EPS = 1e-8


class Adam:
    """Bias-corrected Adam.  ``m[i]``, ``v[i]`` and ``t[i]`` are the moments
    of ``params[i]`` and the number of steps in which it had a gradient."""

    def __init__(self, params: list[Parameter], lr: float = DEFAULT_LEARNING_RATE):
        self.params = params
        self.lr = lr
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = [0] * len(params)

    def step(self) -> None:
        """One moment update per parameter, in place.

        Parameters without a gradient are left untouched.  The frozen
        rows of every gradient are zeroed first (``zero_frozen_rows``),
        so those rows and their moments stay bit-identical forever.
        """
        zero_frozen_rows(self.params)
        for i, (param, m, v) in enumerate(zip(self.params, self.m, self.v)):
            grad = param.grad
            if grad is None:
                continue
            self.t[i] += 1
            t = self.t[i]
            m *= M_DECAY
            m += (1.0 - M_DECAY) * grad
            v *= V_DECAY
            v += (1.0 - V_DECAY) * grad * grad
            m_hat = m / (1.0 - M_DECAY ** t)
            v_hat = v / (1.0 - V_DECAY ** t)
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)


def zero_frozen_rows(params: list[Parameter]) -> None:
    """Zero each gradient's ``frozen_rows`` in place: gradient that no
    update may apply."""
    for param in params:
        if param.grad is not None and param.frozen_rows is not None:
            param.grad[param.frozen_rows] = 0.0


def global_norm(grads: list[np.ndarray]) -> float:
    return math.sqrt(sum(float((g * g).sum()) for g in grads))


def clip_gradients(
    grads: list[np.ndarray],
    threshold: float = DEFAULT_CLIP_THRESHOLD,
) -> float:
    """Scale all gradients in place by threshold/norm when the global L2
    norm exceeds the threshold.  Returns the pre-clip norm."""
    norm = global_norm(grads)
    if norm > threshold:
        scale = threshold / norm
        for g in grads:
            g *= scale
    return norm
