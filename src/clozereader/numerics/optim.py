"""Adaptive-moment optimizer and global-norm gradient clipping."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import Parameter

DEFAULT_LEARNING_RATE = 0.0005
DEFAULT_BETA1 = 0.9
DEFAULT_BETA2 = 0.999
DEFAULT_EPS = 1e-8
DEFAULT_CLIP_THRESHOLD = 10.0


@dataclass
class AdamState:
    """First and second moment estimates plus the step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_param(cls, param: Parameter) -> "AdamState":
        return cls(m=np.zeros_like(param.data), v=np.zeros_like(param.data))


@dataclass
class Adam:
    """Keeps one AdamState per parameter and steps them together."""

    params: list[Parameter]
    lr: float = DEFAULT_LEARNING_RATE
    beta1: float = DEFAULT_BETA1
    beta2: float = DEFAULT_BETA2
    eps: float = DEFAULT_EPS
    states: dict[int, AdamState] = field(default_factory=dict, init=False)

    def step(self) -> None:
        """One bias-corrected moment update per parameter, in place.

        Parameters without a gradient are left untouched.
        Gradient rows listed in ``param.frozen_rows`` are discarded, so
        those rows and their moment state stay bit-identical forever.
        """
        for param in self.params:
            if param.grad is None:
                continue
            state = self.states.get(id(param))
            if state is None:
                state = AdamState.for_param(param)
                self.states[id(param)] = state
            grad = param.grad
            if param.frozen_rows is not None:
                grad = grad.copy()
                grad[param.frozen_rows] = 0.0
            state.t += 1
            state.m *= self.beta1
            state.m += (1.0 - self.beta1) * grad
            state.v *= self.beta2
            state.v += (1.0 - self.beta2) * grad * grad
            m_hat = state.m / (1.0 - self.beta1 ** state.t)
            v_hat = state.v / (1.0 - self.beta2 ** state.t)
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


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
