"""Dense-tensor computation core: autodiff ops, recurrent cells, seeded
initializers, the optimizer, gradient checking, and tensor serialization."""

from .gradcheck import finite_difference_check
from .init import orthogonal_init, uniform_init
from .optim import (
    Adam,
    DEFAULT_CLIP_THRESHOLD,
    DEFAULT_LEARNING_RATE,
    clip_gradients,
    global_norm,
    zero_frozen_rows,
)
from .recurrent import BiGru, GruWeights, init_gru_weights
from .serialize import TensorFormatError, read_tensor, write_tensor
from .tensor import (
    DTYPE,
    Parameter,
    ShapeMismatchError,
    Tensor,
    add,
    concat,
    logsumexp,
    matmul,
    mean,
    mul,
    neg,
    no_grad,
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
    zero_grads,
)
