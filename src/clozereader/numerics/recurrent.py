"""Gated recurrent cells and bidirectional multi-layer encoders.

One step of the cell, for input x and state h:

    r  = sigmoid(x W_r + h U_r + b_r)
    z  = sigmoid(x W_z + h U_z + b_z)
    h~ = tanh(x W + (r * h) U + b)
    h' = (1 - z) * h + z * h~

with sigmoid(a) = 0.5 * tanh(0.5 * a) + 0.5, the form ``tensor.logistic``
also uses: it cannot overflow, and the halving is exact in binary.  The
three input projections are stored fused as one (in, 3H) matrix.
Sequences are flattened (T*B, D) blocks in time-major order.

Each layer and direction is a single tape node, ``run_direction``, that
owns its input projection.  Its forward pass computes x W + b for the
whole sequence as two matrix products, from column slices of the fused
W and b, into two buffers of its own: the r|z pre-activations as a
(T, B, 2H) buffer, halved in place, and the candidate's as a (T, B, H)
one.  Each step thus adds one contiguous (B, .) block, where a slice of a
single (T, B, 3H) buffer would be strided, and the stored parameters
keep their fused layout.  A plain numpy loop over the T steps then
applies U_r and U_z together as one (H, 2H) product and computes every
gate in place into preallocated buffers.  Each per-step product writes
into its output (Appleyard et al., arXiv:1604.01946), by ``np.matmul``
where an operand is a strided slice, which ``np.dot`` would copy.  Only
while a graph is being recorded does it keep each step's r|z gates and
candidates in (T, B, .) buffers for the backward pass; under ``no_grad``
one (B, .) slot is reused.  r * h always goes through one (B, H) slot, and
both projection buffers are freed when the forward pass returns, so until
its backward pass a recorded node holds only its gates, candidates and
states (store less, recompute the rest: Chen et al., arXiv:1604.06174).

The backward pass writes the pre-activation gradients into a (T, B, 3H)
buffer of its own, fresh on every call.  It stays fused so that dx is
one product over all 3H columns; two buffers would need a joined copy
of the same size for it.  Before its loop it fills in,
for all steps at once, the two factors that do not depend on the state
gradient: 1 - c^2 in the candidate columns and c - h in the update
columns.  The loop then walks the steps in reverse carrying only the
state gradient dh and scales those columns by it.  All weight gradients
stay out of the loop: dW, db, dU_r|dU_z, dU_c and the input gradient dx
are each one product or sum over all T*B rows once the loop is done
(Appleyard et al., arXiv:1604.01946).  The r * h that dU_c reads is
recomputed there by the forward pass's multiply, over all steps at once.

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
    concat,
    recording,
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
    x: Tensor,
    weights: GruWeights,
    steps: int,
    keep: np.ndarray | None = None,
    h0: Tensor | None = None,
    reverse: bool = False,
) -> Tensor:
    """Run one direction over a time-major (T*B, D) block of inputs.

    ``keep`` is the (T, B, 1) boolean keep-mask, None when every row spans
    all steps; ``h0`` is the (B, H) initial state, zeros when None.
    Returns the (T*B, H) states in natural time order.  The loop-end state
    (each row's state at its last real token) is step T-1 of the result
    for a forward pass and step 0 for a reverse one.
    """
    if steps == 0:
        raise ShapeMismatchError("empty sequence")
    hidden = weights.hidden
    h2 = 2 * hidden
    rows = x.data.shape[0]
    batch = rows // steps
    if x.data.shape[1] != weights.in_dim:
        raise ShapeMismatchError(f"input width {x.data.shape[1]}, expected {weights.in_dim}")
    if h0 is not None and h0.data.shape != (batch, hidden):
        raise ShapeMismatchError(f"initial state {h0.data.shape}, expected {(batch, hidden)}")
    parents = (x, *weights.parameters())
    if h0 is not None:
        parents += (h0,)
    record = recording(parents)

    # The input projection goes into two buffers of this node's own, r|z
    # and candidate, so each step adds one contiguous block.  The r|z
    # buffer is halved in place; with a halved copy of U_r|U_z each step's
    # r|z pre-activation comes out halved and its gate is 0.5 * tanh(.) + 0.5.
    pre_rz = (x.data @ weights.w.data[:, :h2]).reshape(steps, batch, h2)
    pre_rz += weights.b.data[:h2]
    pre_rz *= 0.5
    pre_c = (x.data @ weights.w.data[:, h2:]).reshape(steps, batch, hidden)
    pre_c += weights.b.data[h2:]
    u_rz = np.concatenate([weights.u_r.data, weights.u_z.data], axis=1)
    half_u_rz = 0.5 * u_rz
    u_c = weights.u_c.data

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
    # Gate and candidate history for the backward pass, one reused slot
    # when there is none; r * h is never kept.
    history = 1 if record else 0
    slots = steps if record else 1
    rz = np.empty((slots, batch, h2))
    cand = np.empty((slots, batch, hidden))
    rh = np.empty((batch, hidden))
    # Masking work is spent only on steps where some row has finished.
    stopped = np.zeros((steps, batch, 1), dtype=bool) if keep is None else ~keep
    ragged = stopped.any(axis=(1, 2))
    for t in order:
        i = t * history
        h, g, c, o = prev[t], rz[i], cand[i], out[t]
        np.dot(h, half_u_rz, out=g)
        g += pre_rz[t]
        np.tanh(g, out=g)
        g *= 0.5
        g += 0.5
        np.multiply(g[:, :hidden], h, out=rh)
        np.dot(rh, u_c, out=c)
        c += pre_c[t]
        np.tanh(c, out=c)
        np.subtract(c, h, out=o)
        o *= g[:, hidden:]
        o += h
        if ragged[t]:
            np.copyto(o, h, where=stopped[t])

    def backward(grad):
        # The factors that do not depend on dh, for every step at once:
        # 1 - c^2 in the candidate slot and c - h in the update slot.
        d_pre = np.empty((steps, batch, 3 * hidden))
        np.multiply(cand, cand, out=d_pre[:, :, h2:])
        np.subtract(1.0, d_pre[:, :, h2:], out=d_pre[:, :, h2:])
        np.subtract(cand, prev, out=d_pre[:, :, hidden:h2])
        d_out = grad.reshape(steps, batch, hidden)
        dh = np.zeros((batch, hidden))
        dh_z = np.empty((batch, hidden))
        d_rh = np.empty((batch, hidden))
        via_rz = np.empty((batch, hidden))
        slope = np.empty((batch, h2))
        for t in reversed(order):
            dh += d_out[t]
            if ragged[t]:
                carried = np.where(stopped[t], dh, 0.0)
                np.copyto(dh, 0.0, where=stopped[t])
            h, g = prev[t], rz[t]
            z = g[:, hidden:]
            d_rz = d_pre[t, :, :h2]
            d_c = d_pre[t, :, h2:]
            np.multiply(dh, z, out=dh_z)
            d_c *= dh_z
            np.matmul(d_c, u_c.T, out=d_rh)
            np.multiply(d_rh, h, out=d_rz[:, :hidden])
            d_rz[:, hidden:] *= dh
            np.subtract(1.0, g, out=slope)
            slope *= g
            d_rz *= slope
            np.matmul(d_rz, u_rz.T, out=via_rz)
            dh -= dh_z
            d_rh *= g[:, :hidden]
            dh += d_rh
            dh += via_rz
            if ragged[t]:
                dh += carried
        d_flat = d_pre.reshape(rows, 3 * hidden)
        d_u_rz = prev.reshape(rows, hidden).T @ d_flat[:, :h2]
        _accumulate(x, d_flat @ weights.w.data.T, fresh=True)
        _accumulate(weights.w, x.data.T @ d_flat, fresh=True)
        _accumulate(weights.b, d_flat.sum(axis=0), fresh=True)
        _accumulate(weights.u_r, d_u_rz[:, :hidden])
        _accumulate(weights.u_z, d_u_rz[:, hidden:])
        r_h = rz[:, :, :hidden] * prev
        _accumulate(weights.u_c, r_h.reshape(rows, hidden).T @ d_flat[:, h2:], fresh=True)
        if h0 is not None:
            _accumulate(h0, dh, fresh=True)

    return _make(out.reshape(rows, hidden), parents, backward)


class BiGru:
    """Stacked bidirectional encoder.

    Layer k feeds layer k+1 the per-step concatenation of its forward and
    backward states, so every layer above the first reads 2H-wide inputs.
    """

    def __init__(self, in_dim: int, hidden: int, n_layers: int, rng_seed: int, name: str):
        if n_layers < 1:
            raise ValueError("need at least one layer")
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
        finals: list[tuple[Tensor, Tensor]] = []
        for k, (fwd, bwd) in enumerate(self.layers):
            h0_fwd = init_states[k][0] if init_states is not None else None
            h0_bwd = init_states[k][1] if init_states is not None else None
            out_fwd = run_direction(flat, fwd, steps, keep, h0_fwd)
            out_bwd = run_direction(flat, bwd, steps, keep, h0_bwd, reverse=True)
            finals.append((
                slice_rows(out_fwd, (steps - 1) * batch, steps * batch),
                slice_rows(out_bwd, 0, batch),
            ))
            flat = concat([out_fwd, out_bwd], axis=1)
        return flat, finals

