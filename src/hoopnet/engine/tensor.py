"""Tape-based reverse-mode autodiff over dense numpy float arrays.

Ops compute in their inputs' dtype (the model's is float32).  Reductions
that set a scale accumulate in float64; here that is the training loss,
``softmax_nll``, one node that returns a float64 scalar and passes back
gradients in its logits' dtype.

Graph nodes are Tensors; each op attaches a vector-Jacobian closure
that saves only the arrays it reads.  backward() consumes the tape as it
walks it: a node's closure, with its saved arrays, and its parent links
go as soon as its VJP has run, so a desk ``h_att`` fine-tune batch's
``tracemalloc`` peak during backward() is 1.03 times its forward tape
(29.4 MB) and 1.5 MB outlives it.  A closure may overwrite its saved
arrays, since no node runs twice.  Gradients accumulate out-of-place
(``p.grad = p.grad + g``) so a returned gradient may alias an upstream
buffer without risk.  Leaf gradients persist across backward() calls
until the optimizer clears them.

NaN policy: ops do not check their outputs.  backward() refuses a
non-finite loss and clip_gradients a non-finite gradient norm; the
training loop checks each batch loss, and model inference checks its
logits.
"""

from __future__ import annotations

import numpy as np

_GRAD_ENABLED = True
# the constants built inside the open no_grad() scopes, keyed by the
# module objects they derive from
_SCOPE_CONSTANTS: dict = {}


def _grad_enabled() -> bool:
    return _GRAD_ENABLED


class no_grad:
    """Context manager for inference: ops inside build no tape, and
    parameters and buffers hold still.

    Each constant a forward call derives from them (each inference conv
    group's folded (weight, bias) pair, ``nn._folded``) is built on first
    use, with the same arithmetic as in a scope of its own, and reused;
    the outermost scope's exit drops them, also on an exception.  Scopes
    nest.  The package's writers, ``RMSProp.step``, ``Module.cast``,
    ``Module.set_buffer`` and ``load_checkpoint``, raise RuntimeError
    inside a scope; a write straight into a parameter's ``data`` would go
    unseen, so make none.
    """

    def __enter__(self):
        global _GRAD_ENABLED
        self._outermost = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        if self._outermost:
            _SCOPE_CONSTANTS.clear()
            _GRAD_ENABLED = True
        return False


def _refuse_in_no_grad(writer: str) -> None:
    if not _GRAD_ENABLED:
        raise RuntimeError(f"{writer} inside engine.no_grad(): parameters and buffers are frozen")


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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """Leaf that trains while its ``requires_grad`` is True (the default)."""

    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


def _node(data: np.ndarray, parents: tuple, vjp) -> Tensor:
    out = Tensor(data)
    if _grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


def _released(g):
    """The VJP a node keeps once backward() has walked it."""
    raise RuntimeError("backward() through a graph that an earlier backward() released")


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable leaf's .grad.

    The walk consumes the tape: once a node's VJP has run, the node drops
    that closure, and with it the arrays saved for it, its parent links
    and its gradient.  Every Tensor the caller still holds keeps its
    data, the root included.  A second backward() through a walked node
    raises RuntimeError before any gradient accumulates.
    """
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
        if node._vjp is _released:
            _released(None)  # raises
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if node._vjp is None:
            continue
        grads = node._vjp(node.grad)
        for p, g in zip(node._parents, grads):
            if g is None or not p.requires_grad:
                continue
            p.grad = g if p.grad is None else p.grad + g
        node.grad, node._parents, node._vjp = None, (), _released


# elementwise / shape ops


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def vjp(g):
        return (g * mask,)

    return _node(x.data * mask, (x,), vjp)


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), vjp)


# softmax family (always along the last axis)


def _shifted_exp(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``exp(x - max)`` in ``x``'s dtype, and the (..., 1) max: the one
    exponential that every softmax and the loss are built on."""
    m = x.max(axis=-1, keepdims=True)
    e = x - m
    np.exp(e, out=e)
    return e, m


def softmax_array(x: np.ndarray) -> np.ndarray:
    """Softmax of a plain array; the one softmax every caller shares."""
    e, _ = _shifted_exp(x)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def softmax(x: Tensor) -> Tensor:
    p = softmax_array(x.data)

    def vjp(g):
        dot = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - dot),)

    return _node(p, (x,), vjp)


def softmax_nll(terms: list[tuple[Tensor, np.ndarray, float]], scale: float = 1.0) -> Tensor:
    """A whole training loss as one float64 scalar node.

    Each term is ``(logits, targets, weight)``: (R, C) logits, (R, K)
    integer class indices with K >= 0, and an activation-penalty weight w.  With
    ``p = softmax(logits)`` the term adds
    ``sum_r (sum_k -log p[r, targets[r, k]] + w * sum_j p[r, j]**2)``,
    and the node holds ``scale`` times the sum of the terms.

    Each logits array's shifted exponential and float64 exp-sum are
    computed once, in the forward pass, and the loss is summed in float64
    (each row's sum of squared exponentials in the logits' dtype).  The
    backward pass gives each logits array, in its own dtype,
    ``scale * g * (K p - sum_k onehot(t_k) + 2 w p (p - sum_j p_j**2))``,
    one term at a time: it turns the term's saved exponentials in place
    into its probabilities (with a penalty) or its gradient (without),
    and drops them from the tape once that gradient is formed.
    """
    logits, saved = [], []
    total = 0.0
    for tensor, targets, weight in terms:
        x = tensor.data
        if x.ndim != 2:
            raise ValueError("softmax_nll expects (R, C) logits")
        rows, classes = x.shape
        idx = np.asarray(targets)
        if idx.ndim != 2 or idx.shape[0] != rows:
            raise ValueError(f"targets shape {idx.shape} is not ({rows}, K)")
        if idx.dtype.kind not in "iu":
            raise ValueError(f"targets are {idx.dtype}, not integer class indices")
        idx = idx.astype(np.int64, copy=False)
        if idx.size and (idx.min() < 0 or idx.max() >= classes):
            raise ValueError("target index out of range")
        e, m = _shifted_exp(x)
        s = e.sum(axis=-1, dtype=np.float64)
        if idx.size:
            lse = np.log(s) + m[:, 0]
            total += (lse[:, None] - x[np.arange(rows)[:, None], idx]).sum()
        q = None
        if weight:
            q = np.einsum("ij,ij->i", e, e) / (s * s)  # sum_j p_j**2 per row
            total += weight * q.sum()
        logits.append(tensor)
        saved.append((e, (1.0 / s).astype(x.dtype), idx, weight, q))

    def vjp(g):
        c = scale * float(g)
        grads = []
        saved.reverse()
        while saved:  # one term at a time, each freed from the tape once used
            e, inv_s, idx, weight, q = saved.pop()
            k = idx.shape[1]
            if weight:
                p = np.multiply(e, inv_s[:, None], out=e)
                gx = p - q.astype(p.dtype)[:, None]
                gx *= 2.0 * weight * c
                if k:
                    gx += k * c
                gx *= p
            else:
                gx = np.multiply(e, (k * c * inv_s)[:, None], out=e)
            rows = np.arange(len(e))
            for col in idx.T:
                gx[rows, col] -= c
            grads.append(gx)
        return tuple(grads)

    return _node(np.asarray(total * scale), tuple(logits), vjp)
