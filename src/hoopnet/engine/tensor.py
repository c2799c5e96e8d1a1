"""Tape-based reverse-mode autodiff over dense numpy float arrays.

Ops compute in their inputs' dtype (the model's is float32): a plain
number or array operand takes the dtype of the Tensor it meets, so a
Python-scalar weight never widens a float32 array.  Reductions that set
a scale accumulate in float64: ``tsum`` returns a float64 scalar (its
gradient goes back in its input's dtype), and so does ``softmax_nll``'s
log-sum-exp, so the training loss is float64.

Graph nodes are Tensors; each op attaches a vector-Jacobian closure.
Gradients accumulate out-of-place (``p.grad = p.grad + g``) so a returned
gradient may alias an upstream buffer without risk.  Leaf gradients
persist across backward() calls until the optimizer clears them.

NaN policy: ops do not check their outputs.  backward() refuses a
non-finite loss and clip_gradients a non-finite gradient norm; the
training loop checks each batch loss, and model inference checks its
logits.
"""

from __future__ import annotations

import numpy as np

_GRAD_ENABLED = True


def _grad_enabled() -> bool:
    return _GRAD_ENABLED


class no_grad:
    """Context manager: ops inside build no tape (inference mode)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    def _needs(self) -> bool:
        return self.requires_grad

    # convenience mirrors of the free functions

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def sum(self):
        return tsum(self)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """Trainable leaf with a freeze flag."""

    __slots__ = ("frozen",)

    def __init__(self, data):
        super().__init__(data, requires_grad=True)
        self.frozen = False

    def _needs(self) -> bool:
        return not self.frozen


def _node(data: np.ndarray, parents: tuple, vjp) -> Tensor:
    out = Tensor(data)
    if _grad_enabled() and any(p._needs() for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


def _wrap(x, like=None) -> Tensor:
    """``x`` as a Tensor; a plain number or array takes the dtype of the
    Tensor ``like`` (float64 without one)."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype if isinstance(like, Tensor) else np.float64))


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable leaf's .grad."""
    if loss.data.size != 1:
        raise ValueError("backward() expects a scalar loss")
    if not np.isfinite(loss.data):
        raise FloatingPointError("non-finite loss")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._vjp is None:
            continue
        grads = node._vjp(node.grad)
        for p, g in zip(node._parents, grads):
            if g is None or not p._needs():
                continue
            p.grad = g if p.grad is None else p.grad + g
        node.grad = None  # free intermediate gradients as we go


# elementwise / shape ops


def add(a, b) -> Tensor:
    a, b = _wrap(a, b), _wrap(b, a)

    def vjp(g):
        return (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape))

    return _node(a.data + b.data, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _wrap(a, b), _wrap(b, a)

    def vjp(g):
        return (_unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape))

    return _node(a.data * b.data, (a, b), vjp)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def vjp(g):
        return (g * mask,)

    return _node(x.data * mask, (x,), vjp)


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), vjp)


def tsum(x: Tensor) -> Tensor:
    """Sum of every element as a float64 scalar, whatever ``x``'s dtype."""
    shape, dtype = x.data.shape, x.data.dtype

    def vjp(g):
        return (np.broadcast_to(g.astype(dtype), shape),)

    return _node(np.asarray(x.data.sum(dtype=np.float64)), (x,), vjp)


# softmax family (always along the last axis)


def softmax_array(x: np.ndarray) -> np.ndarray:
    """Softmax of a plain array; the one softmax every caller shares."""
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def softmax(x: Tensor) -> Tensor:
    p = softmax_array(x.data)

    def vjp(g):
        dot = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - dot),)

    return _node(p, (x,), vjp)


def softmax_nll(logits: Tensor, targets) -> Tensor:
    """Per-row negative log likelihood ``-log softmax(logits)[target]``.

    ``targets`` are class indices of shape (N,).  Returns a length-N
    float64 tensor, the exp-sum accumulated in float64; reduce with
    .sum().  The logits' gradient keeps their dtype.
    """
    x = logits.data
    if x.ndim != 2:
        raise ValueError("softmax_nll expects (N, K) logits")
    n, k = x.shape
    idx = np.asarray(targets).astype(np.int64)
    if idx.shape != (n,):
        raise ValueError(f"targets shape {idx.shape} does not match logits rows {n}")
    if (idx < 0).any() or (idx >= k).any():
        raise ValueError("target index out of range")
    m = x.max(axis=-1)
    e = x - m[:, None]
    np.exp(e, out=e)
    lse = np.log(e.sum(axis=-1, dtype=np.float64)) + m
    losses = lse - x[np.arange(n), idx]

    def vjp(g):
        g = g.astype(x.dtype)
        gi = softmax_array(x)
        gi *= g[:, None]
        gi[np.arange(n), idx] -= g
        return (gi,)

    return _node(losses, (logits,), vjp)
