"""Minimal dense float64 tensor library with reverse-mode gradients.

Forward ops record a tape; backward() walks it once.  The layer set is
exactly what the policy networks need: convolution, linear maps, GRU
cells, batch normalization, softmax / cross-entropy, Gaussian noise
injection, plus RMSprop-with-momentum and global gradient clipping.  The
model's input, agent occupancy max-pooled as one k x k max over counts
per fine cell, is built on plain arrays outside the tape
(``hoopnet.model.pooled_occupancy``).
"""

from .tensor import (
    Tensor,
    Parameter,
    backward,
    concat,
    gaussian_noise,
    no_grad,
    relu,
    sigmoid,
    softmax,
    softmax_nll,
    tanh,
)
from .nn import (
    BatchNorm,
    Conv2d,
    GRUCell,
    Linear,
    Module,
    conv2d,
    glorot_uniform,
)
from .optim import RMSProp, clip_gradients, rmsprop_step
from .checkpoint import load_checkpoint, save_checkpoint
from .gradcheck import gradcheck, relative_error

__all__ = [
    "Tensor", "Parameter", "backward", "concat", "gaussian_noise",
    "no_grad", "relu", "sigmoid", "softmax", "softmax_nll", "tanh",
    "BatchNorm", "Conv2d", "GRUCell", "Linear", "Module", "conv2d", "glorot_uniform",
    "RMSProp", "clip_gradients", "rmsprop_step",
    "load_checkpoint", "save_checkpoint",
    "gradcheck", "relative_error",
]
