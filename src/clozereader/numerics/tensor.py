"""Dense float64 tensors with reverse-mode gradients.

Small by design: the only consumers are the reader model and its tests.
Forward values live in numpy arrays; every differentiable op records its
parents and a closure that folds the output gradient back into them.
``backward()`` runs the closures in reverse topological order, so each
node receives its full gradient before it propagates.  Gradients of
interior nodes are freed as soon as they have been consumed; leaf tensors
(parameters) keep theirs for the optimizer.

Ops never mutate their inputs, which lets slices share memory with their
parent array safely.

The logistic sigmoid is computed as 0.5 * tanh(0.5 * x) + 0.5 here and
in the recurrent kernel alike (``logistic``).

A training step builds and frees a traced peak of about 27 MB of tape
at E32/H32 with B = 32, T = 180.  glibc would trim that from the heap top
and the next step fault it back in page by page; importing this module
keeps it mapped instead (``_keep_heap_mapped``).  Only where arrays live
changes.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager

import numpy as np

DTYPE = np.float64
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, <malloc.h>
_MMAP_THRESHOLD = 32 << 20  # the documented 64-bit maximum; ends the dynamic threshold
_TRIM_THRESHOLD = 1 << 30


def _keep_heap_mapped() -> None:
    """Fix glibc's heap policy for the process; a no-op under any other libc."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):  # no confstr, no such name, no mallopt
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_keep_heap_mapped()


class ShapeMismatchError(ValueError):
    """Operands cannot be combined; the message names both shapes."""


_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording (predictions, numeric probes)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=DTYPE)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable leaf."""
        if self.data.size != 1:
            raise ShapeMismatchError(
                f"backward() requires a scalar, got shape {self.data.shape}"
            )
        topo: list[Tensor] = []
        visited: set[int] = {id(self)}
        stack: list[tuple[Tensor, int]] = [(self, 0)]
        while stack:
            node, i = stack.pop()
            if i < len(node._parents):
                stack.append((node, i + 1))
                parent = node._parents[i]
                if id(parent) not in visited and parent._parents:
                    visited.add(id(parent))
                    stack.append((parent, 0))
            else:
                topo.append(node)
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node is not self:
                node.grad = None


class Parameter(Tensor):
    """A persistent leaf tensor updated by the optimizer.

    ``frozen_rows`` marks rows whose gradient is discarded before any
    update, for row blocks that must stay at their initialization.
    """

    __slots__ = ("name", "frozen_rows")

    def __init__(self, data, name: str = "", frozen_rows=None):
        super().__init__(np.array(data, dtype=DTYPE), requires_grad=True)
        self.name = name
        self.frozen_rows = frozen_rows


def zero_grads(params) -> None:
    for p in params:
        p.grad = None


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def recording(parents) -> bool:
    """Whether an op over ``parents`` is put on the tape: a graph is being
    recorded and some parent needs a gradient."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _make(data: np.ndarray, parents: tuple, backward) -> Tensor:
    out = Tensor(data)
    if recording(parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _accumulate(parent: Tensor, grad: np.ndarray, fresh: bool = False) -> None:
    """Add ``grad`` into the parent's gradient.  A ``fresh`` array, of the
    parent's shape, made for this call and referenced nowhere else,
    becomes the first gradient itself instead of being added to zeros."""
    if not parent.requires_grad:
        return
    if parent.grad is None:
        if fresh:
            parent.grad = grad
            return
        parent.grad = np.zeros_like(parent.data)
    parent.grad += grad


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data + b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make(data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data - b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _make(data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        _accumulate(a, -g)

    return _make(-a.data, (a,), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data * b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim not in (1, 2) or b.data.ndim != 2:
        raise ShapeMismatchError(
            f"matmul takes (m, k) or (k,) @ (k, n), got {a.data.shape} @ {b.data.shape}"
        )
    inner_a = a.data.shape[-1]
    inner_b = b.data.shape[0]
    if inner_a != inner_b:
        raise ShapeMismatchError(
            f"matmul inner dimensions differ: {a.data.shape} @ {b.data.shape}"
        )
    data = a.data @ b.data

    def backward(g):
        if a.data.ndim == 2:
            _accumulate(a, g @ b.data.T)
            _accumulate(b, a.data.T @ g)
        else:  # (k,) @ (k,n) -> (n,)
            _accumulate(a, b.data @ g)
            _accumulate(b, np.outer(a.data, g))

    return _make(data, (a, b), backward)


def logistic(x: np.ndarray) -> np.ndarray:
    """Elementwise 1 / (1 + exp(-x)), computed as 0.5 * tanh(0.5 * x) + 0.5.
    tanh cannot overflow, so extreme inputs give exactly 0 and 1, and
    halving is exact in binary."""
    return 0.5 * np.tanh(0.5 * x) + 0.5


def sigmoid(a: Tensor) -> Tensor:
    data = logistic(a.data)

    def backward(g):
        _accumulate(a, g * data * (1.0 - data))

    return _make(data, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def backward(g):
        _accumulate(a, g * (1.0 - data * data))

    return _make(data, (a,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = tuple(_wrap(t) for t in tensors)
    if not tensors:
        raise ShapeMismatchError("concat of zero tensors")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(g):
        offset = 0
        index: list = [slice(None)] * g.ndim
        for t, size in zip(tensors, sizes):
            index[axis] = slice(offset, offset + size)
            _accumulate(t, g[tuple(index)])
            offset += size

    return _make(data, tensors, backward)


def _select(a: Tensor, index) -> Tensor:
    """``a.data[index]`` for a slice or a tuple of slices, which selects
    each element at most once, so the gradient adds back in place."""
    data = a.data[index]

    def backward(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[index] += g

    return _make(data, (a,), backward)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    return _select(a, slice(start, stop))


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    return _select(a, (slice(None), slice(start, stop)))


def take_rows(a: Tensor, indices) -> Tensor:
    """Row gather (embedding lookup) from a 2-D table by a 1-D index."""
    index = np.asarray(indices)
    data = a.data[index]

    def backward(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        # numpy's fast ``np.add.at`` path is 1-D only.  Each bin still adds
        # in index order, so the sums equal one 2-D call's bit for bit.
        for column in range(g.shape[1]):
            np.add.at(a.grad[:, column], index, g[:, column])

    return _make(data, (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def backward(g):
        _accumulate(a, g.reshape(a.data.shape))

    return _make(data, (a,), backward)


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.data.shape).copy())

    return _make(data, (a,), backward)


def mean(a: Tensor) -> Tensor:
    n = a.data.size
    data = np.asarray(a.data.mean())

    def backward(g):
        _accumulate(a, np.full_like(a.data, float(g) / n))

    return _make(data, (a,), backward)


def _masked_exp(x: np.ndarray, axis: int, where) -> tuple[np.ndarray, np.ndarray]:
    """exp(x - max) along ``axis`` and the max, with x taken as -inf where
    the mask ``where`` is False, so that entry's exp is exactly 0."""
    x = np.where(where, x, -np.inf)
    shift = np.max(x, axis=axis, keepdims=True)
    return np.exp(x - shift), shift


def logsumexp(a: Tensor, axis: int = -1, where=True) -> Tensor:
    """log(sum(exp(x))) along one axis, max-shifted for stability.  An
    entry where the mask ``where`` is False is -inf before the shift, so
    its exp and its gradient are exactly 0."""
    exps, shift = _masked_exp(a.data, axis, where)
    total = exps.sum(axis=axis, keepdims=True)
    data = np.squeeze(np.log(total) + shift, axis=axis)

    def backward(g):
        _accumulate(a, np.expand_dims(g, axis) * (exps / total))

    return _make(data, (a,), backward)


def softmax(a: Tensor, axis: int = -1, where=True) -> Tensor:
    """Normalized exponentials along one axis, max-shifted for stability,
    with ``logsumexp``'s mask: an entry where ``where`` is False gets 0."""
    exps, _ = _masked_exp(a.data, axis, where)
    data = exps / exps.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        _accumulate(a, data * (g - inner))

    return _make(data, (a,), backward)


def time_major_dot(states: Tensor, query: Tensor) -> Tensor:
    """(B, T) dot products of a time-major (T*B, D) block with the (B, D)
    query row of each batch row: out[b, t] = states[t*B + b] . query[b]."""
    seq = states.data.reshape(-1, *query.data.shape)
    data = np.einsum("tbd,bd->bt", seq, query.data)

    def backward(g):
        _accumulate(states, np.einsum("bt,bd->tbd", g, query.data).reshape(states.data.shape))
        _accumulate(query, np.einsum("bt,tbd->bd", g, seq))

    return _make(data, (states, query), backward)
