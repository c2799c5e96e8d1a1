"""Minimal dense tensor library with reverse-mode gradients.

Ops compute in the dtype of the arrays they are given; the model holds
its parameters, and so all its activations and gradients, in float32.
Reductions that set a scale accumulate in float64: the batch-norm
statistics, and the training loss's exp-sums and sums.  Layers are built
in float64 and ``Module.cast`` converts a model.

Forward ops record a tape, and each tape node keeps only what its
backward step reads.  backward() walks the tape once and consumes it:
each node drops its backward closure, the arrays saved for it and its
parent links as soon as that step has run, so a walked graph holds no
saved arrays, and a second backward() through it raises RuntimeError.
Trainability is ``requires_grad``: a ``Parameter`` trains while it is
True; backward() gives no gradient to, and ``RMSProp.step`` skips, one
whose flag is False, and an op records a tape node only when one of its
inputs' flags is True.  The layer set is exactly what the policy networks need: the spatial encoder, linear maps,
GRU cells, ReLU, concatenation and softmax, plus RMSprop-with-momentum
and global gradient clipping; no elementwise sums or products.  A
stage's whole training loss, every cross-entropy and activation
penalty, is one op (``softmax_nll``: one tape node, each logits array's
softmax computed once), and a test asserts that every name this package
exports has a caller in ``hoopnet``.  The spatial encoder (bias-free
convolution, batch normalization and ReLU per layer, then Gaussian noise
and flatten) runs as one op (``nn.spatial_encoder``: one tape node per
encoder, hand-written backward pass), which takes every encoder that reads
one input and runs their first layer once, as one matmul over their stacked
filters.  So does a GRU cell over every step of a sequence batch
(``nn.gru_sequence``: hand-written backpropagation through time).
So is a linear map (``nn.Linear``: ``x @ W + b``, one tape node); there
is no separate matrix-product op.  The model's input, agent occupancy
max-pooled as one k x k max over counts per fine cell, is built on plain
arrays outside the tape (``hoopnet.model.pooled_occupancy``).

The tape is the one switch between training and inference.  With it
on, the spatial encoder trains: batch statistics, running-buffer updates
and noise.  ``no_grad()`` is inference: ops record no tape, the encoder
folds each batch norm into its convolution, and parameters and buffers
hold still.  It is a re-entrant scope: the folded (weight, bias) pairs
are built once per outermost scope, with the same arithmetic, and
dropped at its exit, and inside it the writers ``RMSProp.step``,
``Module.cast``, ``Module.set_buffer`` and ``load_checkpoint`` raise.

Importing the package sets glibc's malloc thresholds so that freed heap
memory stays with the process: a training pass frees and reallocates
tens of megabytes every batch (30 MB at the ``tracemalloc`` peak of a
desk ``h_att`` fine-tune batch), and returning them to the system after
each pass only page-faults them back in on the next.

Importing it also runs numpy's bundled OpenBLAS on one thread, so that
a run's checkpoints hold the same bytes whatever ``OPENBLAS_NUM_THREADS``
says: matrix products can round differently on another thread count.
"""

import ctypes
from pathlib import Path

import numpy as np

from .tensor import (
    Tensor,
    Parameter,
    backward,
    concat,
    no_grad,
    relu,
    softmax,
    softmax_nll,
)
from .nn import (
    BatchNorm,
    Conv2d,
    GRUCell,
    Linear,
    Module,
    gru_sequence,
    spatial_encoder,
)
from .optim import RMSProp, clip_gradients
from .checkpoint import load_checkpoint, save_checkpoint

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Serve arrays up to 32 MiB from the heap and trim it only above
    1 GiB free; a no-op where the C library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def _pin_blas_threads() -> None:
    """One OpenBLAS thread, set through numpy's bundled library; a no-op
    where numpy links a BLAS without that entry point."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            set_threads = ctypes.CDLL(str(path)).scipy_openblas_set_num_threads64_
        except (AttributeError, OSError):
            continue
        set_threads.argtypes = (ctypes.c_int,)
        set_threads.restype = None
        set_threads(1)
        return


_keep_freed_heap()
_pin_blas_threads()

__all__ = [
    "Tensor", "Parameter", "backward", "concat",
    "no_grad", "relu", "softmax", "softmax_nll",
    "BatchNorm", "Conv2d", "GRUCell", "Linear", "Module",
    "gru_sequence", "spatial_encoder",
    "RMSProp", "clip_gradients",
    "load_checkpoint", "save_checkpoint",
]
