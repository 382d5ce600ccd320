"""Autodiff ops, recurrent cells, the optimizer, and tensor blocks.

Every op's backward pass is held against central differences; forward
passes are held against plain numpy expressions computed independently.
"""

import io
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clozereader.numerics import (
    Adam,
    BiGru,
    DTYPE,
    GruWeights,
    Parameter,
    ShapeMismatchError,
    Tensor,
    TensorFormatError,
    add,
    clip_gradients,
    concat,
    finite_difference_check,
    global_norm,
    init_gru_weights,
    logsumexp,
    matmul,
    mean,
    mul,
    neg,
    no_grad,
    orthogonal_init,
    read_tensor,
    reshape,
    sigmoid,
    slice_cols,
    slice_rows,
    softmax,
    sub,
    take_rows,
    tanh,
    tensor_sum,
    time_major_dot,
    uniform_init,
    write_tensor,
    zero_grads,
)
from clozereader.numerics.recurrent import run_direction

OP_TOL = 1e-6


def params_from(rng, *shapes):
    return [Parameter(rng.normal(size=shape)) for shape in shapes]


# ----------------------------------------------------------- op-level FD


def case_add(rng):
    a, b = params_from(rng, (3, 4), (3, 4))
    return lambda: mean(add(a, b)), [a, b]


def case_add_broadcast(rng):
    a, b = params_from(rng, (3, 4), (4,))
    c = Tensor(rng.normal(size=(3, 4)))
    return lambda: mean(mul(add(a, b), c)), [a, b]


def case_sub(rng):
    a, b = params_from(rng, (2, 5), (2, 5))
    return lambda: mean(sub(a, b)), [a, b]


def case_neg(rng):
    (a,) = params_from(rng, (4, 3))
    c = Tensor(rng.normal(size=(4, 3)))
    return lambda: mean(mul(neg(a), c)), [a]


def case_mul(rng):
    a, b = params_from(rng, (3, 4), (3, 4))
    return lambda: mean(mul(a, b)), [a, b]


def case_mul_broadcast_scalar(rng):
    (a,) = params_from(rng, (3, 3))
    return lambda: mean(mul(a, 2.5)), [a]


def case_matmul(rng):
    a, b = params_from(rng, (3, 4), (4, 2))
    return lambda: mean(matmul(a, b)), [a, b]


def case_matmul_vector(rng):
    a, b = params_from(rng, (4,), (4, 3))
    return lambda: mean(matmul(a, b)), [a, b]


def case_sigmoid(rng):
    (a,) = params_from(rng, (3, 4))
    c = Tensor(rng.normal(size=(3, 4)))
    return lambda: mean(mul(sigmoid(a), c)), [a]


def case_tanh(rng):
    (a,) = params_from(rng, (3, 4))
    c = Tensor(rng.normal(size=(3, 4)))
    return lambda: mean(mul(tanh(a), c)), [a]


def case_concat_axis0(rng):
    a, b = params_from(rng, (2, 3), (4, 3))
    c = Tensor(rng.normal(size=(6, 3)))
    return lambda: mean(mul(concat([a, b], axis=0), c)), [a, b]


def case_concat_axis1(rng):
    a, b = params_from(rng, (3, 2), (3, 5))
    c = Tensor(rng.normal(size=(3, 7)))
    return lambda: mean(mul(concat([a, b], axis=1), c)), [a, b]


def case_slice_rows(rng):
    (a,) = params_from(rng, (6, 3))
    c = Tensor(rng.normal(size=(3, 3)))
    return lambda: mean(mul(slice_rows(a, 1, 4), c)), [a]


def case_slice_cols(rng):
    (a,) = params_from(rng, (3, 6))
    c = Tensor(rng.normal(size=(3, 2)))
    return lambda: mean(mul(slice_cols(a, 4, 6), c)), [a]


def case_take_rows_repeated(rng):
    (a,) = params_from(rng, (5, 3))
    c = Tensor(rng.normal(size=(4, 3)))
    return lambda: mean(mul(take_rows(a, [0, 2, 0, 4]), c)), [a]


def case_reshape(rng):
    (a,) = params_from(rng, (3, 4))
    c = Tensor(rng.normal(size=(2, 6)))
    return lambda: mean(mul(reshape(a, (2, 6)), c)), [a]


def case_sum_all(rng):
    (a,) = params_from(rng, (3, 4))
    return lambda: tensor_sum(a), [a]


def case_sum_axis_keepdims(rng):
    (a,) = params_from(rng, (3, 4))
    c = Tensor(rng.normal(size=(3, 1)))
    return lambda: mean(mul(tensor_sum(a, axis=1, keepdims=True), c)), [a]


def case_mean(rng):
    (a,) = params_from(rng, (4, 2))
    return lambda: mean(a), [a]


def case_logsumexp(rng):
    (a,) = params_from(rng, (3, 5))
    c = Tensor(rng.normal(size=(3,)))
    return lambda: mean(mul(logsumexp(a, axis=-1), c)), [a]


def case_softmax(rng):
    (a,) = params_from(rng, (3, 5))
    c = Tensor(rng.normal(size=(3, 5)))
    return lambda: mean(mul(softmax(a, axis=-1), c)), [a]


# Each row keeps at least one entry; the middle row keeps exactly one.
MASK = np.array([[True, False, True, True, False],
                 [False, False, True, False, False],
                 [True, True, True, True, True]])


def case_logsumexp_masked(rng):
    (a,) = params_from(rng, (3, 5))
    c = Tensor(rng.normal(size=(3,)))
    return lambda: mean(mul(logsumexp(a, axis=-1, where=MASK), c)), [a]


def case_softmax_masked(rng):
    (a,) = params_from(rng, (3, 5))
    c = Tensor(rng.normal(size=(3, 5)))
    return lambda: mean(mul(softmax(a, axis=-1, where=MASK), c)), [a]


def case_time_major_dot(rng):
    states, query = params_from(rng, (4 * 3, 5), (3, 5))
    c = Tensor(rng.normal(size=(3, 4)))
    return lambda: tensor_sum(mul(time_major_dot(states, query), c)), [states, query]


def gru_direction_case(rng, reverse):
    # Rows of length 4, 2 and 1 under a keep-mask, from a given h0.
    steps, batch, hidden = 4, 3, 3
    weights = random_gru_weights(rng, in_dim=2, hidden=hidden)
    x = Parameter(rng.normal(size=(steps * batch, 2)))
    h0 = Parameter(rng.normal(size=(batch, hidden)) * 0.5)
    keep = (np.arange(steps)[:, None] < np.array([4, 2, 1])[None, :])[:, :, None]
    c = Tensor(rng.normal(size=(steps * batch, hidden)))
    fn = lambda: tensor_sum(mul(run_direction(x, weights, steps, keep, h0, reverse), c))
    return fn, [x, *weights.parameters(), h0]


def case_gru_forward(rng):
    return gru_direction_case(rng, reverse=False)


def case_gru_reverse(rng):
    return gru_direction_case(rng, reverse=True)


OP_CASES = [
    case_add, case_add_broadcast, case_sub, case_neg, case_mul,
    case_mul_broadcast_scalar, case_matmul, case_matmul_vector,
    case_sigmoid, case_tanh, case_concat_axis0, case_concat_axis1,
    case_slice_rows, case_slice_cols, case_take_rows_repeated,
    case_reshape, case_sum_all, case_sum_axis_keepdims, case_mean,
    case_logsumexp, case_softmax, case_time_major_dot,
    case_gru_forward, case_gru_reverse, case_logsumexp_masked, case_softmax_masked,
]


@pytest.mark.parametrize("case", OP_CASES, ids=lambda c: c.__name__[5:])
def test_op_gradients_match_central_differences(case, rng):
    fn, params = case(rng)
    assert finite_difference_check(fn, params) < OP_TOL


def test_checker_detects_a_missing_gradient_path(rng):
    # Half of p's contribution flows through a detached constant copy, so
    # the analytic gradient is off by a factor of two: the checker must
    # report an error around 0.5, nowhere near the pass threshold.
    p = Parameter(rng.normal(size=(3,)) + 2.0)
    fn = lambda: tensor_sum(mul(p, Tensor(p.data.copy())))
    assert finite_difference_check(fn, [p]) > 0.4


# ------------------------------------------------------- forward oracles


def test_softmax_hand_values():
    logits = Tensor(np.log(np.array([1.0, 2.0, 3.0])))
    out = softmax(logits, axis=-1)
    np.testing.assert_allclose(out.data, [1 / 6, 2 / 6, 3 / 6], atol=1e-12)


def test_softmax_rows_sum_to_one_and_shift_invariant(rng):
    logits = rng.normal(size=(4, 7)) * 3.0
    out = softmax(Tensor(logits), axis=-1)
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), atol=1e-12)
    shifted = softmax(Tensor(logits + 123.0), axis=-1)
    np.testing.assert_allclose(out.data, shifted.data, atol=1e-12)


def test_softmax_survives_large_logits():
    out = softmax(Tensor(np.array([1000.0, 1000.0, -1000.0])), axis=-1)
    np.testing.assert_allclose(out.data, [0.5, 0.5, 0.0], atol=1e-12)


def test_logsumexp_hand_values():
    assert abs(logsumexp(Tensor(np.zeros(2)), axis=-1).item() - np.log(2)) < 1e-12
    big = logsumexp(Tensor(np.array([1000.0, 1000.0])), axis=-1).item()
    assert abs(big - (1000.0 + np.log(2))) < 1e-9


def test_masked_ops_match_the_ops_over_the_kept_entries(rng):
    logits = rng.normal(size=MASK.shape) * 3.0
    attention = softmax(Tensor(logits), axis=-1, where=MASK).data
    totals = logsumexp(Tensor(logits), axis=-1, where=MASK).data
    for row, keep in enumerate(MASK):
        kept = Tensor(logits[row, keep])
        np.testing.assert_array_equal(attention[row, keep], softmax(kept).data)
        assert (attention[row, ~keep] == 0.0).all()
        assert totals[row] == logsumexp(kept).item()


def test_forward_values_match_numpy(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 5))
    np.testing.assert_array_equal(matmul(Tensor(a), Tensor(b)).data, a @ b)
    np.testing.assert_array_equal(tensor_sum(Tensor(a), axis=0).data, a.sum(axis=0))
    np.testing.assert_array_equal(mean(Tensor(a)).data, a.mean())
    np.testing.assert_array_equal(take_rows(Tensor(a), [2, 0]).data, a[[2, 0]])
    np.testing.assert_allclose(sigmoid(Tensor(a)).data, 1 / (1 + np.exp(-a)))
    np.testing.assert_allclose(tanh(Tensor(a)).data, np.tanh(a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        extreme = sigmoid(Tensor(np.array([-1000.0, 1000.0]))).data
    assert np.all(np.isfinite(extreme))
    assert np.all((extreme >= 0.0) & (extreme <= 1.0))
    np.testing.assert_array_equal(extreme, [0.0, 1.0])


def test_matmul_shape_mismatch_raises(rng):
    with pytest.raises(ShapeMismatchError):
        matmul(Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(2, 3))))


@pytest.mark.parametrize("shapes", [((3, 4), (4,)), ((4,), (4,)), ((2, 3, 4), (4, 2))],
                         ids=["matrix-vector", "vector-vector", "3d"])
def test_matmul_rejects_a_rank_op_cases_does_not_check(rng, shapes):
    a, b = (Tensor(rng.normal(size=shape)) for shape in shapes)
    with pytest.raises(ShapeMismatchError, match="matmul takes"):
        matmul(a, b)

def test_backward_requires_scalar(rng):
    out = add(Parameter(rng.normal(size=(2, 2))), 1.0)
    with pytest.raises(ShapeMismatchError):
        out.backward()


def test_gradients_accumulate_across_backward_calls(rng):
    p = Parameter(rng.normal(size=(3,)))
    for _ in range(2):
        tensor_sum(mul(p, 3.0)).backward()
    np.testing.assert_allclose(p.grad, np.full(3, 6.0))
    zero_grads([p])
    assert p.grad is None


def test_take_rows_gradient_equals_one_2d_scatter_add_bit_for_bit(rng):
    table = Parameter(rng.normal(size=(7, 5)))
    index = np.array([3, 0, 3, 6, 3, 0, 1, 3])
    upstream = rng.normal(size=(len(index), 5)) * 10.0 ** rng.integers(-8, 8, size=(len(index), 5))
    rows = take_rows(table, index)
    tensor_sum(mul(rows, Tensor(upstream))).backward()
    expected = np.zeros_like(table.data)
    np.add.at(expected, index, upstream)
    assert table.grad.tobytes() == expected.tobytes()


def test_no_grad_blocks_graph_recording(rng):
    p = Parameter(rng.normal(size=(3,)))
    with no_grad():
        out = tensor_sum(mul(p, p))
    out.backward()
    assert p.grad is None


# ------------------------------------------------------------ initializers


def test_orthogonal_init_tall_columns_are_orthonormal():
    q = orthogonal_init((8, 4), rng_seed=3)
    np.testing.assert_allclose(q.T @ q, np.eye(4), atol=1e-6)


def test_orthogonal_init_wide_rows_are_orthonormal():
    q = orthogonal_init((3, 7), rng_seed=3)
    np.testing.assert_allclose(q @ q.T, np.eye(3), atol=1e-6)


def test_initializers_are_seeded():
    assert np.array_equal(orthogonal_init((5, 5), 11), orthogonal_init((5, 5), 11))
    assert not np.array_equal(orthogonal_init((5, 5), 11), orthogonal_init((5, 5), 12))
    u = uniform_init((100,), -0.1, 0.1, 7)
    assert np.array_equal(u, uniform_init((100,), -0.1, 0.1, 7))
    assert u.max() <= 0.1 and u.min() >= -0.1
    assert u.dtype == DTYPE


# ---------------------------------------------------------------- optimizer


def test_adam_first_step_is_signed_learning_rate():
    lr = 0.002
    p = Parameter(np.array([0.5, -1.5, 2.0]))
    p.grad = np.array([0.2, -0.3, 0.4])
    before = p.data.copy()
    Adam([p], lr=lr).step()
    np.testing.assert_allclose(
        p.data - before, -lr * np.sign(p.grad), rtol=0, atol=lr * 1e-6
    )


def test_adam_skips_non_trainable_and_gradless_params(rng):
    frozen = Parameter(rng.normal(size=(3,)), frozen_rows=slice(None))
    frozen.grad = np.ones(3)
    idle = Parameter(rng.normal(size=(3,)))
    snapshot = (frozen.data.copy(), idle.data.copy())
    Adam([frozen, idle]).step()
    assert np.array_equal(frozen.data, snapshot[0])
    assert np.array_equal(idle.data, snapshot[1])


def test_adam_frozen_rows_stay_bit_identical(rng):
    p = Parameter(rng.normal(size=(6, 3)), frozen_rows=slice(1, 4))
    snapshot = p.data.copy()
    optimizer = Adam([p], lr=0.01)
    for _ in range(20):
        grad = rng.normal(size=(6, 3))
        p.grad = grad
        optimizer.step()
        assert p.grad is grad
        assert not p.grad[1:4].any()
    assert np.array_equal(p.data[1:4], snapshot[1:4])
    assert not np.array_equal(p.data[0], snapshot[0])
    assert not np.array_equal(p.data[4:], snapshot[4:])


def test_adam_matches_reference_formula(rng):
    lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
    p = Parameter(rng.normal(size=(4,)))
    reference = p.data.copy()
    m = np.zeros(4)
    v = np.zeros(4)
    optimizer = Adam([p], lr=lr)
    for t in range(1, 6):
        grad = rng.normal(size=(4,))
        p.grad = grad.copy()
        optimizer.step()
        m = beta1 * m + (1 - beta1) * grad
        v = beta2 * v + (1 - beta2) * grad * grad
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        reference = reference - lr * m_hat / (np.sqrt(v_hat) + eps)
        np.testing.assert_allclose(p.data, reference, atol=1e-12)


def test_adam_is_bitwise_a_plain_adam_per_parameter(rng):
    """Frozen rows, a late first gradient and the bias correction together:
    each parameter follows plain numpy Adam, counting only its own steps."""
    lr = 0.01
    frozen = Parameter(rng.normal(size=(4, 3)), frozen_rows=slice(1, 3))
    late = Parameter(rng.normal(size=(5,)))
    params = [frozen, late]
    reference = [p.data.copy() for p in params]
    m = [np.zeros_like(p.data) for p in params]
    v = [np.zeros_like(p.data) for p in params]
    t = [0, 0]
    optimizer = Adam(params, lr=lr)
    for step in range(20):
        grads = [rng.normal(size=p.data.shape) for p in params]
        if step == 0:
            grads[1] = None
        for p, grad in zip(params, grads):
            p.grad = None if grad is None else grad.copy()
        optimizer.step()
        grads[0][1:3] = 0.0
        for i, grad in enumerate(grads):
            if grad is None:
                continue
            t[i] += 1
            m[i] *= 0.9
            m[i] += (1.0 - 0.9) * grad
            v[i] *= 0.999
            v[i] += (1.0 - 0.999) * grad * grad
            m_hat = m[i] / (1.0 - 0.9 ** t[i])
            v_hat = v[i] / (1.0 - 0.999 ** t[i])
            reference[i] -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        for p, expected in zip(params, reference):
            np.testing.assert_array_equal(p.data, expected)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_clip_keeps_norm_under_threshold(seed):
    rng = np.random.default_rng(seed)
    grads = [
        rng.normal(size=rng.integers(1, 6, size=rng.integers(1, 3)))
        * 10.0 ** rng.integers(-3, 4)
        for _ in range(rng.integers(1, 5))
    ]
    snapshot = [g.copy() for g in grads]
    before = global_norm(snapshot)
    returned = clip_gradients(grads, threshold=10.0)
    assert returned == before
    assert global_norm(grads) <= 10.0 + 1e-9
    if before <= 10.0:
        assert all(np.array_equal(g, s) for g, s in zip(grads, snapshot))
    else:
        scale = 10.0 / before
        for g, s in zip(grads, snapshot):
            np.testing.assert_allclose(g, s * scale, atol=1e-15)


# -------------------------------------------------------------- recurrence


def random_gru_weights(rng, in_dim, hidden):
    return GruWeights(
        w=Parameter(rng.normal(size=(in_dim, 3 * hidden)) * 0.4),
        u_r=Parameter(rng.normal(size=(hidden, hidden)) * 0.4),
        u_z=Parameter(rng.normal(size=(hidden, hidden)) * 0.4),
        u_c=Parameter(rng.normal(size=(hidden, hidden)) * 0.4),
        b=Parameter(rng.normal(size=(3 * hidden,)) * 0.4),
    )


def manual_gru_step(x, h, weights):
    hidden = weights.hidden
    pre = x @ weights.w.data + weights.b.data
    r = 1 / (1 + np.exp(-(pre[:hidden] + h @ weights.u_r.data)))
    z = 1 / (1 + np.exp(-(pre[hidden:2 * hidden] + h @ weights.u_z.data)))
    candidate = np.tanh(pre[2 * hidden:] + (r * h) @ weights.u_c.data)
    return (1 - z) * h + z * candidate


def one_step(x, h, weights):
    """The fused op over a single step of a single row."""
    return run_direction(Tensor(x[None, :]), weights, 1, h0=Tensor(h[None, :])).data[0]


def test_gru_cell_matches_manual_formula(rng):
    weights = random_gru_weights(rng, in_dim=3, hidden=4)
    x = rng.normal(size=(3,))
    h = rng.normal(size=(4,))
    out = one_step(x, h, weights)
    np.testing.assert_allclose(out, manual_gru_step(x, h, weights), atol=1e-12)


def test_gru_cell_zero_weights_halve_the_state():
    weights = GruWeights(
        w=Parameter(np.zeros((2, 12))),
        u_r=Parameter(np.zeros((4, 4))),
        u_z=Parameter(np.zeros((4, 4))),
        u_c=Parameter(np.zeros((4, 4))),
        b=Parameter(np.zeros(12)),
    )
    h = np.array([1.0, -2.0, 4.0, 0.5])
    out = one_step(np.ones(2), h, weights)
    np.testing.assert_allclose(out, h / 2, atol=1e-15)


def test_run_direction_reverse_matches_manual_loop(rng):
    weights = random_gru_weights(rng, in_dim=3, hidden=4)
    steps = 5
    x = rng.normal(size=(steps, 3))
    outputs = run_direction(Tensor(x), weights, steps, reverse=True).data

    h = np.zeros(4)
    expected = [None] * steps
    for t in range(steps - 1, -1, -1):
        h = manual_gru_step(x[t], h, weights)
        expected[t] = h
    for t in range(steps):
        np.testing.assert_allclose(outputs[t], expected[t], atol=1e-12)


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
def test_run_direction_never_mutates_its_inputs(rng, reverse):
    fn, inputs = gru_direction_case(rng, reverse)  # x, w, u_*, b, h0
    before = [p.data.tobytes() for p in inputs]

    with no_grad():
        fn()
    assert [p.data.tobytes() for p in inputs] == before

    loss = fn()
    loss.backward()
    assert [p.data.tobytes() for p in inputs] == before
    first = [p.grad.copy() for p in inputs]
    # Each backward pass writes into a gradient buffer of its own, never
    # an input, so a second pass over the same graph adds the same
    # gradients again.
    loss.backward()
    assert [p.data.tobytes() for p in inputs] == before
    for p, grad in zip(inputs, first):
        np.testing.assert_array_equal(p.grad, 2 * grad)


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
def test_a_recorded_direction_keeps_only_its_gates_candidates_and_states(rng, reverse):
    # Between the forward and the backward pass the node may hold its r|z
    # gates (T, B, 2H), candidates (T, B, H) and states (T+1, B, H), plus
    # weight-sized and mask-sized arrays; no (T, B, .) projection or r*h.
    steps, batch, in_dim, hidden = 60, 8, 4, 32
    weights = random_gru_weights(rng, in_dim, hidden)
    x = Parameter(rng.normal(size=(steps * batch, in_dim)))
    keep = (np.arange(steps)[:, None] < rng.integers(1, steps + 1, batch))[:, :, None]
    kept_floats = (2 + 1) * steps * batch * hidden + (steps + 1) * batch * hidden
    slack = 8 * 3 * hidden * hidden + 4 * steps * batch + 16_384
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = run_direction(x, weights, steps, keep, reverse=reverse)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 8 * kept_floats + slack
    tensor_sum(out).backward()
    assert x.grad.shape == x.data.shape


def fused_projection_direction(x, w, u_r, u_z, u_c, b, steps, keep, h0, reverse, grad):
    """``run_direction``'s arithmetic with the whole (T*B, 3H) input
    projection in one buffer and ``np.matmul`` for every product; returns
    the (T*B, H) states and the gradients of x, w, u_r, u_z, u_c, b and
    h0 for the upstream gradient ``grad``."""
    rows, hidden = x.shape[0], u_r.shape[0]
    batch, h2 = rows // steps, 2 * hidden
    flat_pre = x @ w
    flat_pre += b
    flat_pre[:, :h2] *= 0.5
    pre = flat_pre.reshape(steps, batch, 3 * hidden)
    u_rz = np.concatenate([u_r, u_z], axis=1)
    half_u_rz = 0.5 * u_rz
    states = np.empty((steps + 1, batch, hidden))
    if reverse:
        order = range(steps - 1, -1, -1)
        prev, out = states[1:], states[:-1]
    else:
        order = range(steps)
        prev, out = states[:-1], states[1:]
    prev[order[0]] = h0
    rz = np.empty((steps, batch, h2))
    cand = np.empty((steps, batch, hidden))
    rh = np.empty((batch, hidden))
    stopped = ~keep
    for t in order:
        h, g, c, o = prev[t], rz[t], cand[t], out[t]
        np.matmul(h, half_u_rz, out=g)
        g += pre[t, :, :h2]
        np.tanh(g, out=g)
        g *= 0.5
        g += 0.5
        np.multiply(g[:, :hidden], h, out=rh)
        np.matmul(rh, u_c, out=c)
        c += pre[t, :, h2:]
        np.tanh(c, out=c)
        np.subtract(c, h, out=o)
        o *= g[:, hidden:]
        o += h
        np.copyto(o, h, where=stopped[t])

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
        carried = np.where(stopped[t], dh, 0.0)
        np.copyto(dh, 0.0, where=stopped[t])
        h, g = prev[t], rz[t]
        d_rz = d_pre[t, :, :h2]
        d_c = d_pre[t, :, h2:]
        np.multiply(dh, g[:, hidden:], out=dh_z)
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
        dh += carried
    d_flat = d_pre.reshape(rows, 3 * hidden)
    d_u_rz = prev.reshape(rows, hidden).T @ d_flat[:, :h2]
    r_h = (rz[:, :, :hidden] * prev).reshape(rows, hidden)
    grads = [d_flat @ w.T, x.T @ d_flat, d_u_rz[:, :hidden], d_u_rz[:, hidden:],
             r_h.T @ d_flat[:, h2:], d_flat.sum(axis=0), dh]
    return out.reshape(rows, hidden), grads


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
def test_run_direction_is_byte_equal_to_the_fused_projection_loop(rng, reverse):
    # At the benchmark's width the products are 32, 64 and 96 columns
    # wide, which the small gradient-check sizes never reach.
    steps, batch, in_dim, hidden = 9, 5, 32, 32
    weights = random_gru_weights(rng, in_dim, hidden)
    x = Parameter(rng.normal(size=(steps * batch, in_dim)))
    h0 = Parameter(rng.normal(size=(batch, hidden)) * 0.5)
    keep = (np.arange(steps)[:, None] < np.array([9, 4, 1, 9, 6])[None, :])[:, :, None]
    upstream = rng.normal(size=(steps * batch, hidden))
    out = run_direction(x, weights, steps, keep, h0, reverse)
    tensor_sum(mul(out, Tensor(upstream))).backward()

    expected_out, expected_grads = fused_projection_direction(
        x.data, *(p.data for p in weights.parameters()), steps, keep, h0.data,
        reverse, upstream)
    assert out.data.tobytes() == expected_out.tobytes()
    for param, expected in zip([x, *weights.parameters(), h0], expected_grads):
        assert param.grad.tobytes() == expected.tobytes(), param.name


def test_bigru_stacks_and_returns_finals(rng):
    encoder = BiGru(in_dim=3, hidden=4, n_layers=2, rng_seed=0, name="enc")
    sequence = Tensor(rng.normal(size=(6, 3)))
    per_step, finals = encoder.run(sequence, 6, 1, None, None)
    final_fwd, final_bwd = finals[-1]
    assert len(finals) == 2
    assert per_step.shape == (6, 8)
    assert final_fwd.shape == (1, 4)
    assert final_bwd.shape == (1, 4)
    # The forward final is the last per-step forward half; the backward
    # final is the first per-step backward half.
    np.testing.assert_array_equal(per_step.data[-1, :4], final_fwd.data[0])
    np.testing.assert_array_equal(per_step.data[0, 4:], final_bwd.data[0])


def test_masked_batch_matches_individual_runs(rng):
    encoder = BiGru(in_dim=3, hidden=4, n_layers=2, rng_seed=1, name="enc")
    lengths = [5, 3, 1]
    steps, batch = max(lengths), len(lengths)
    rows = [rng.normal(size=(n, 3)) for n in lengths]

    padded = np.zeros((steps, batch, 3))
    for b, row in enumerate(rows):
        padded[: lengths[b], b] = row
    keep = (np.arange(steps)[:, None] < np.array(lengths)[None, :])[:, :, None]
    flat = Tensor(padded.reshape(steps * batch, 3))
    block, finals = encoder.run(flat, steps, batch, keep)
    per_step = block.data.reshape(steps, batch, 8)

    for b, row in enumerate(rows):
        solo_steps, solo_finals = encoder.run(Tensor(row), lengths[b], 1, None, None)
        solo_fwd, solo_bwd = solo_finals[-1]
        for t in range(lengths[b]):
            np.testing.assert_allclose(
                per_step[t, b], solo_steps.data[t], atol=1e-10
            )
        np.testing.assert_allclose(finals[-1][0].data[b], solo_fwd.data[0], atol=1e-10)
        np.testing.assert_allclose(finals[-1][1].data[b], solo_bwd.data[0], atol=1e-10)


def test_bigru_seeding_is_reproducible():
    one = BiGru(2, 3, 2, rng_seed=9, name="a")
    two = BiGru(2, 3, 2, rng_seed=9, name="a")
    for p, q in zip(one.parameters(), two.parameters()):
        assert np.array_equal(p.data, q.data)


def test_bigru_rejects_empty_sequence():
    encoder = BiGru(2, 3, 1, rng_seed=0, name="enc")
    with pytest.raises(ShapeMismatchError):
        encoder.run(Tensor(np.zeros((0, 2))), 0, 1, None, None)


def test_bigru_rejects_input_of_the_wrong_width():
    encoder = BiGru(2, 3, 1, rng_seed=0, name="enc")
    with pytest.raises(ShapeMismatchError, match="input width 4, expected 2"):
        encoder.run(Tensor(np.zeros((3, 4))), 3, 1, None, None)


def test_bigru_end_to_end_gradients(rng):
    encoder = BiGru(in_dim=2, hidden=3, n_layers=1, rng_seed=2, name="enc")
    x = Parameter(rng.normal(size=(3, 2)))
    h0f = Parameter(rng.normal(size=(1, 3)) * 0.5)
    h0b = Parameter(rng.normal(size=(1, 3)) * 0.5)
    c_steps = Tensor(rng.normal(size=(3, 6)))
    c_final = Tensor(rng.normal(size=(1, 6)))

    def fn():
        per_step, layer_finals = encoder.run(x, 3, 1, None, [(h0f, h0b)])
        finals = concat(list(layer_finals[-1]), axis=1)
        return add(
            tensor_sum(mul(per_step, c_steps)), tensor_sum(mul(finals, c_final))
        )

    params = encoder.parameters() + [x, h0f, h0b]
    assert finite_difference_check(fn, params) < 1e-5


# ------------------------------------------------------------ tensor blocks


@pytest.mark.parametrize(
    "array",
    [
        np.arange(12, dtype=np.float64).reshape(3, 4) / 7,
        np.arange(5, dtype=np.float32) * np.float32(0.1),
        np.arange(6, dtype=np.int64).reshape(2, 3),
        np.float64(3.25).reshape(()),
        np.zeros((0,), dtype=np.float64),
    ],
    ids=["f64", "f32", "i64", "scalar", "empty"],
)
def test_tensor_block_round_trip_is_bitwise(array):
    buffer = io.BytesIO()
    write_tensor(buffer, array)
    buffer.seek(0)
    loaded = read_tensor(buffer)
    assert loaded.shape == array.shape
    assert loaded.dtype == array.dtype
    assert loaded.tobytes() == array.tobytes()


def test_tensor_block_rejects_unsupported_dtype():
    with pytest.raises(TensorFormatError, match="unsupported"):
        write_tensor(io.BytesIO(), np.zeros(3, dtype=np.int32))


def corrupt(mutate):
    buffer = io.BytesIO()
    write_tensor(buffer, np.arange(4, dtype=np.float64))
    raw = bytearray(buffer.getvalue())
    mutate(raw)
    return io.BytesIO(bytes(raw))


def test_tensor_block_rejects_bad_magic():
    bad = corrupt(lambda raw: raw.__setitem__(slice(0, 4), b"XXXX"))
    with pytest.raises(TensorFormatError, match="magic"):
        read_tensor(bad)


def test_tensor_block_rejects_wrong_version():
    bad = corrupt(lambda raw: raw.__setitem__(slice(4, 6), struct.pack("<H", 2)))
    with pytest.raises(TensorFormatError, match="version"):
        read_tensor(bad)


def test_tensor_block_rejects_unknown_dtype_code():
    bad = corrupt(lambda raw: raw.__setitem__(6, 9))
    with pytest.raises(TensorFormatError, match="dtype code"):
        read_tensor(bad)


def test_tensor_block_rejects_truncation():
    buffer = io.BytesIO()
    write_tensor(buffer, np.arange(4, dtype=np.float64))
    raw = buffer.getvalue()
    blocks = [raw[:cut] for cut in (4, 12, len(raw) - 3)]
    # A dimension that declares far more data than follows, up to an
    # element count past any index-sized integer.
    blocks += [raw[:8] + struct.pack("<Q", dim) + raw[16:] for dim in (2**28, 2**62, 2**63)]
    for block in blocks:
        with pytest.raises(TensorFormatError, match="truncated"):
            read_tensor(io.BytesIO(block))
    # A shape with a 0 declares no payload, but numpy cannot hold the
    # other dimension.
    empty = io.BytesIO()
    write_tensor(empty, np.zeros((1, 0)))
    head = empty.getvalue()[:8]
    for shape in ((2**63, 0), (0, 2**64 - 1)):
        with pytest.raises(TensorFormatError, match="exceeds the largest array size"):
            read_tensor(io.BytesIO(head + struct.pack("<2Q", *shape)))
