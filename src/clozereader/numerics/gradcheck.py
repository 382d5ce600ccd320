"""Central-difference gradient verification.

The analytic gradient of every op, and of whole forward passes, is
compared against (f(x+h) - f(x-h)) / 2h, h = ``STEP``, coordinate by
coordinate.  The reported figure is the worst relative error

    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8)

over every coordinate of every checked parameter.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Parameter, Tensor, no_grad, zero_grads

STEP = 1e-5


def finite_difference_check(
    fn: Callable[[], Tensor],
    params: Sequence[Parameter],
) -> float:
    """Worst relative error between backprop and central differences.

    ``fn`` must rebuild its graph on every call and return a scalar that
    depends only on ``params`` and constants.
    """
    zero_grads(params)
    out = fn()
    if out.data.size != 1:
        raise ValueError(f"checked function must return a scalar, got {out.data.shape}")
    out.backward()
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params
    ]

    worst = 0.0
    for param, grads in zip(params, analytic):
        flat_value = param.data.reshape(-1)
        flat_grad = grads.reshape(-1)
        for i in range(flat_value.size):
            original = flat_value[i]
            with no_grad():
                flat_value[i] = original + STEP
                f_plus = float(fn().data)
                flat_value[i] = original - STEP
                f_minus = float(fn().data)
            flat_value[i] = original
            numeric = (f_plus - f_minus) / (2.0 * STEP)
            a = float(flat_grad[i])
            denom = max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, abs(a - numeric) / denom)
    zero_grads(params)
    return worst
