"""Differentiable functions over :class:`~repro.nn.tensor.Tensor`.

Activations, numerically stable (log-)softmax, gather, stacking and the
mean-squared-error loss the MARL trainer's critic uses.  Everything here builds graph nodes the
same way the :class:`Tensor` operators do.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor, as_tensor

__all__ = [
    "exp",
    "log",
    "tanh",
    "relu",
    "sigmoid",
    "softmax",
    "log_softmax",
    "gather",
    "concatenate",
    "stack",
    "mse_loss",
]


def exp(x):
    """Elementwise exponential."""
    x = as_tensor(x)
    out_data = np.exp(x.data)

    def backward_fn(grad):
        x._accumulate(grad * out_data)

    return Tensor._from_op(out_data, (x,), backward_fn)


def log(x):
    """Elementwise natural logarithm."""
    x = as_tensor(x)
    out_data = np.log(x.data)

    def backward_fn(grad):
        x._accumulate(grad / x.data)

    return Tensor._from_op(out_data, (x,), backward_fn)


def tanh(x):
    """Elementwise hyperbolic tangent."""
    x = as_tensor(x)
    out_data = np.tanh(x.data)

    def backward_fn(grad):
        x._accumulate(grad * (1.0 - out_data**2))

    return Tensor._from_op(out_data, (x,), backward_fn)


def relu(x):
    """Elementwise rectifier."""
    x = as_tensor(x)
    mask = x.data > 0
    out_data = np.where(mask, x.data, 0.0)

    def backward_fn(grad):
        x._accumulate(grad * mask)

    return Tensor._from_op(out_data, (x,), backward_fn)


def sigmoid(x):
    """Elementwise logistic function."""
    x = as_tensor(x)
    out_data = 1.0 / (1.0 + np.exp(-x.data))

    def backward_fn(grad):
        x._accumulate(grad * out_data * (1.0 - out_data))

    return Tensor._from_op(out_data, (x,), backward_fn)


def _stable_softmax(data, axis):
    shifted = data - data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=axis, keepdims=True)


def softmax(x, axis=-1):
    """Numerically stable softmax (the paper's policy head)."""
    x = as_tensor(x)
    out_data = _stable_softmax(x.data, axis)

    def backward_fn(grad):
        # dL/dx = s * (grad - sum(grad * s))
        dot = np.sum(grad * out_data, axis=axis, keepdims=True)
        x._accumulate(out_data * (grad - dot))

    return Tensor._from_op(out_data, (x,), backward_fn)


def log_softmax(x, axis=-1):
    """Numerically stable log-softmax (for policy-gradient log-probs)."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_norm = np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
    out_data = shifted - log_norm
    softmax_data = np.exp(out_data)

    def backward_fn(grad):
        total = grad.sum(axis=axis, keepdims=True)
        x._accumulate(grad - softmax_data * total)

    return Tensor._from_op(out_data, (x,), backward_fn)


def gather(x, indices, axis=1):
    """Select one element per row: ``out[b] = x[b, indices[b]]``.

    Used to pick the log-probability of the executed action out of the
    policy's per-action output.
    """
    x = as_tensor(x)
    if axis != 1 or x.data.ndim != 2:
        raise ValueError("gather currently supports 2-D tensors along axis 1")
    indices = np.asarray(indices, dtype=np.int64)
    if indices.shape != (x.data.shape[0],):
        raise ValueError(
            f"indices shape {indices.shape} != ({x.data.shape[0]},)"
        )
    rows = np.arange(x.data.shape[0])
    out_data = x.data[rows, indices]

    def backward_fn(grad):
        full = np.zeros_like(x.data)
        full[rows, indices] = grad
        x._accumulate(full)

    return Tensor._from_op(out_data, (x,), backward_fn)


def concatenate(tensors, axis=0):
    """Concatenate tensors along an axis (differentiable)."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(grad):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            t._accumulate(grad[tuple(slicer)])

    return Tensor._from_op(out_data, tuple(tensors), backward_fn)


def stack(tensors, axis=0):
    """Stack equal-shape tensors along a new axis (differentiable)."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward_fn(grad):
        slices = np.moveaxis(grad, axis, 0)
        for t, piece in zip(tensors, slices):
            t._accumulate(piece)

    return Tensor._from_op(out_data, tuple(tensors), backward_fn)


def mse_loss(prediction, target):
    """Mean squared error; ``target`` is treated as constant."""
    prediction = as_tensor(prediction)
    target = as_tensor(target).detach()
    diff = prediction - target
    return (diff * diff).mean()
