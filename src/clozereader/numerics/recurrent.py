"""Gated recurrent cells and bidirectional multi-layer encoders.

One step of the cell, for input x and state h:

    r  = sigmoid(x W_r + h U_r + b_r)
    z  = sigmoid(x W_z + h U_z + b_z)
    h~ = tanh(x W + (r * h) U + b)
    h' = (1 - z) * h + z * h~

The three input projections are stored fused as one (in, 3H) matrix so a
whole sequence is projected with a single matrix product up front.
Sequences are flattened (T*B, D) blocks in time-major order.

Each layer and direction is a single tape node, ``run_direction``.  Its
forward pass is a plain numpy loop over the T steps that writes states
and gate activations into preallocated (T, B, .) buffers, applying U_r
and U_z together as one (H, 2H) product.  Its backward pass walks the
steps in reverse carrying only the state gradient dh, and stores each
step's pre-activation gradient in a (T, B, 3H) buffer, which is also the
gradient of the projected input.  The recurrent weight gradients stay out
of the loop: dU_r|dU_z and dU_c are each one product over all T*B rows
once the loop is done (Appleyard et al., arXiv:1604.01946).

A (T, B, 1) keep-mask freezes the state of finished rows.  Under
right-padding every row's per-position states are therefore those of the
row run alone, and the state at its last real token is carried to the
end of the loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .init import orthogonal_init
from .tensor import (
    Parameter,
    ShapeMismatchError,
    Tensor,
    _accumulate,
    _make,
    add,
    concat,
    logistic,
    matmul,
    slice_rows,
)


@dataclass
class GruWeights:
    """One direction of one layer."""

    w: Parameter    # (in_dim, 3H), gate order: reset, update, candidate
    u_r: Parameter  # (H, H)
    u_z: Parameter  # (H, H)
    u_c: Parameter  # (H, H)
    b: Parameter    # (3H,)

    @property
    def hidden(self) -> int:
        return self.u_r.data.shape[0]

    @property
    def in_dim(self) -> int:
        return self.w.data.shape[0]

    def parameters(self) -> list[Parameter]:
        return [self.w, self.u_r, self.u_z, self.u_c, self.b]


def init_gru_weights(in_dim: int, hidden: int, rng_seed: int, name: str) -> GruWeights:
    """Orthogonal gate blocks, zero biases."""
    blocks = [
        orthogonal_init((in_dim, hidden), rng_seed + offset) for offset in range(3)
    ]
    return GruWeights(
        w=Parameter(np.concatenate(blocks, axis=1), name=f"{name}.w"),
        u_r=Parameter(orthogonal_init((hidden, hidden), rng_seed + 3), name=f"{name}.u_r"),
        u_z=Parameter(orthogonal_init((hidden, hidden), rng_seed + 4), name=f"{name}.u_z"),
        u_c=Parameter(orthogonal_init((hidden, hidden), rng_seed + 5), name=f"{name}.u_c"),
        b=Parameter(np.zeros(3 * hidden), name=f"{name}.b"),
    )


def run_direction(
    xw: Tensor,
    weights: GruWeights,
    steps: int,
    keep: np.ndarray | None = None,
    h0: Tensor | None = None,
    reverse: bool = False,
) -> Tensor:
    """Run one direction over a time-major (T*B, 3H) block of projected
    inputs xw = x W + b.

    ``keep`` is the (T, B, 1) boolean keep-mask, None when every row spans
    all steps; ``h0`` is the (B, H) initial state, zeros when None.
    Returns the (T*B, H) states in natural time order.  The loop-end state
    (each row's state at its last real token) is step T-1 of the result
    for a forward pass and step 0 for a reverse one.
    """
    if steps == 0:
        raise ShapeMismatchError("empty sequence")
    hidden = weights.hidden
    rows = xw.data.shape[0]
    batch = rows // steps
    if h0 is not None and h0.data.shape != (batch, hidden):
        raise ShapeMismatchError(f"initial state {h0.data.shape}, expected {(batch, hidden)}")
    u_rz = np.concatenate([weights.u_r.data, weights.u_z.data], axis=1)
    u_c = weights.u_c.data
    pre = xw.data.reshape(steps, batch, 3 * hidden)

    # Step t reads prev[t] and writes out[t]; both are views of one buffer,
    # so each step's output is the next step's input without a copy.
    states = np.empty((steps + 1, batch, hidden))
    if reverse:
        order = range(steps - 1, -1, -1)
        prev, out = states[1:], states[:-1]
    else:
        order = range(steps)
        prev, out = states[:-1], states[1:]
    prev[order[0]] = 0.0 if h0 is None else h0.data
    rz = np.empty((steps, batch, 2 * hidden))
    rh = np.empty((steps, batch, hidden))
    cand = np.empty((steps, batch, hidden))
    # Masking work is spent only on steps where some row has finished.
    stopped = np.zeros((steps, batch, 1), dtype=bool) if keep is None else ~keep
    ragged = stopped.any(axis=(1, 2))
    for t in order:
        h = prev[t]
        rz[t] = logistic(pre[t, :, : 2 * hidden] + h @ u_rz)
        np.multiply(rz[t, :, :hidden], h, out=rh[t])
        cand[t] = np.tanh(pre[t, :, 2 * hidden :] + rh[t] @ u_c)
        z = rz[t, :, hidden:]
        out[t] = (1.0 - z) * h + z * cand[t]
        if ragged[t]:
            np.copyto(out[t], h, where=stopped[t])

    def backward(g):
        d_out = g.reshape(steps, batch, hidden)
        d_pre = np.empty((steps, batch, 3 * hidden))
        dh = np.zeros((batch, hidden))
        for t in reversed(order):
            dh = dh + d_out[t]
            if ragged[t]:
                carried = np.where(stopped[t], dh, 0.0)
                dh = np.where(stopped[t], 0.0, dh)
            h = prev[t]
            z = rz[t, :, hidden:]
            c = cand[t]
            d_rz = d_pre[t, :, : 2 * hidden]
            d_c = d_pre[t, :, 2 * hidden :]
            np.multiply(dh * z, 1.0 - c * c, out=d_c)
            d_rh = d_c @ u_c.T
            np.multiply(d_rh, h, out=d_rz[:, :hidden])
            np.multiply(dh, c - h, out=d_rz[:, hidden:])
            d_rz *= rz[t] * (1.0 - rz[t])
            dh = dh * (1.0 - z) + d_rh * rz[t, :, :hidden] + d_rz @ u_rz.T
            if ragged[t]:
                dh += carried
        d_flat = d_pre.reshape(rows, 3 * hidden)
        d_u_rz = prev.reshape(rows, hidden).T @ d_flat[:, : 2 * hidden]
        _accumulate(xw, d_flat)
        _accumulate(weights.u_r, d_u_rz[:, :hidden])
        _accumulate(weights.u_z, d_u_rz[:, hidden:])
        _accumulate(weights.u_c, rh.reshape(rows, hidden).T @ d_flat[:, 2 * hidden :])
        if h0 is not None:
            _accumulate(h0, dh)

    parents = (xw, weights.u_r, weights.u_z, weights.u_c)
    if h0 is not None:
        parents += (h0,)
    return _make(out.reshape(rows, hidden), parents, backward)


class BiGru:
    """Stacked bidirectional encoder.

    Layer k feeds layer k+1 the per-step concatenation of its forward and
    backward states, so every layer above the first reads 2H-wide inputs.
    """

    def __init__(self, in_dim: int, hidden: int, n_layers: int, rng_seed: int, name: str):
        if n_layers < 1:
            raise ValueError("need at least one layer")
        self.hidden = hidden
        self.layers: list[tuple[GruWeights, GruWeights]] = []
        dim = in_dim
        for k in range(n_layers):
            fwd = init_gru_weights(dim, hidden, rng_seed + 100 * k, f"{name}.l{k}.fwd")
            bwd = init_gru_weights(dim, hidden, rng_seed + 100 * k + 50, f"{name}.l{k}.bwd")
            self.layers.append((fwd, bwd))
            dim = 2 * hidden

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for fwd, bwd in self.layers:
            params.extend(fwd.parameters())
            params.extend(bwd.parameters())
        return params

    def run(
        self,
        flat: Tensor,
        steps: int,
        batch: int,
        keep: np.ndarray | None = None,
        init_states: list[tuple[Tensor, Tensor]] | None = None,
    ) -> tuple[Tensor, list[tuple[Tensor, Tensor]]]:
        """Encode a time-major (T*B, D) block under a (T, B, 1) keep-mask.

        Returns the last layer's time-major (T*B, 2H) block of forward and
        backward states side by side and, per layer, the final forward and
        backward (B, H) states.
        """
        if steps == 0:
            raise ShapeMismatchError("empty sequence")
        finals: list[tuple[Tensor, Tensor]] = []
        for k, (fwd, bwd) in enumerate(self.layers):
            h0_fwd = init_states[k][0] if init_states is not None else None
            h0_bwd = init_states[k][1] if init_states is not None else None
            out_fwd = run_direction(
                add(matmul(flat, fwd.w), fwd.b), fwd, steps, keep, h0_fwd
            )
            out_bwd = run_direction(
                add(matmul(flat, bwd.w), bwd.b), bwd, steps, keep, h0_bwd, reverse=True
            )
            finals.append((
                slice_rows(out_fwd, (steps - 1) * batch, steps * batch),
                slice_rows(out_bwd, 0, batch),
            ))
            flat = concat([out_fwd, out_bwd], axis=1)
        return flat, finals

