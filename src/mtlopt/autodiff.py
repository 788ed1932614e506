"""Minimal deterministic reverse-mode autodiff over dense float64 tensors.

Every value is a Tensor: a data array paired with a same-shape gradient
array. Operations are recorded on an explicit Tape; ``Tape.backward``
replays the recorded nodes in reverse order and accumulates exact
gradients with ``+=``. Zeroing gradients between backward passes is the
caller's responsibility.

The operator set is exactly what the toy networks and losses need:
conv2d, task-specific batch norm, relu, linear, mse / softmax
cross-entropy, and a small family of pointwise ops (add, mul, scale,
exp) used to combine scalar losses.

A tape and the tensors on it belong to one execution context; never call
into the same tape concurrently. Distinct tapes share no mutable state and
may run fully in parallel.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    ConfigError,
    LabelError,
    NumericError,
    ShapeError,
    StateError,
    TapeError,
    TaskLookupError,
)

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


class Tensor:
    """Dense n-d float64 value array with a paired gradient array."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.array(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Internal: take ownership of arr without copying.
        t = object.__new__(cls)
        t.data = arr
        t.grad = np.zeros_like(arr)
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tensor(shape={self.shape})"


@dataclass
class BatchNormState:
    """Per-task batch-norm state: trainable scale/shift plus running statistics."""

    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray

    @classmethod
    def fresh(cls, channels: int) -> "BatchNormState":
        return cls(
            gamma=Tensor(np.ones(channels)),
            beta=Tensor(np.zeros(channels)),
            running_mean=np.zeros(channels),
            running_var=np.ones(channels),
        )


class _Node:
    """One recorded operation: inputs, output, and the backward rule.

    A plain-array input is a constant; the backward rule returns None for it.
    """

    __slots__ = ("op", "inputs", "output", "backward")

    def __init__(self, op: str, inputs: tuple[Tensor | np.ndarray, ...], output: Tensor,
                 backward: Callable[[np.ndarray], Sequence[np.ndarray | None]]):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward = backward


def _assert_finite(op: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{op}: produced non-finite values")


class Tape:
    """Append-only record of operations; replayed in reverse by backward()."""

    def __init__(self):
        self._nodes: list[_Node] = []
        self._producer: dict[int, int] = {}  # id(output tensor) -> node index

    def __len__(self) -> int:
        return len(self._nodes)

    def _record(self, op: str, inputs: Sequence[Tensor | np.ndarray], out_data: np.ndarray,
                backward: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
        _assert_finite(op, out_data)
        out = Tensor._wrap(out_data)
        self._producer[id(out)] = len(self._nodes)
        self._nodes.append(_Node(op, tuple(inputs), out, backward))
        return out

    # ------------------------------------------------------------------
    # operators
    # ------------------------------------------------------------------

    def conv2d(self, x: Tensor | np.ndarray, weight: Tensor, bias: Tensor | None = None,
               stride: int = 1, padding: int = 0) -> Tensor:
        """2-d cross-correlation of NCHW input with an OIKK kernel.

        A plain array ``x`` is a constant: it gets no gradient. The input is
        unfolded once into a ``(C_in*K*K, N*H_out*W_out)`` matrix, so forward
        and both weight-side and input-side backward products are 2-d GEMMs.
        """
        xd = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
        if xd.ndim != 4:
            raise ShapeError(f"conv2d: input must be N x C x H x W, got shape {xd.shape}")
        if weight.data.ndim != 4 or weight.shape[2] != weight.shape[3]:
            raise ShapeError(f"conv2d: weight must be O x I x K x K, got shape {weight.shape}")
        n, c_in, h, w = xd.shape
        c_out, c_in_w, k, _ = weight.shape
        if c_in != c_in_w:
            raise ShapeError(f"conv2d: input has {c_in} channels but weight expects {c_in_w}")
        if bias is not None and bias.shape != (c_out,):
            raise ShapeError(f"conv2d: bias must have shape ({c_out},), got {bias.shape}")
        if stride < 1 or padding < 0:
            raise ConfigError(f"conv2d: stride must be >= 1 and padding >= 0, got {stride}, {padding}")
        if (h + 2 * padding - k) % stride != 0 or (w + 2 * padding - k) % stride != 0:
            raise ConfigError(
                f"conv2d: output extent is not an integer for input {h}x{w}, "
                f"kernel {k}, stride {stride}, padding {padding}")
        h_out = (h + 2 * padding - k) // stride + 1
        w_out = (w + 2 * padding - k) // stride + 1
        if h_out < 1 or w_out < 1:
            raise ConfigError(f"conv2d: non-positive output extent {h_out}x{w_out}")

        # channel-major (C, N, H, W) layout keeps every slice copy contiguous
        # on the destination side and makes the column matrix a free reshape
        inner = np.s_[:, :, padding:padding + h, padding:padding + w]
        xp = np.zeros((c_in, n, h + 2 * padding, w + 2 * padding))
        xp[inner] = xd.transpose(1, 0, 2, 3)
        windows = [(i, j, np.s_[:, :, i:i + stride * h_out:stride, j:j + stride * w_out:stride])
                   for i in range(k) for j in range(k)]
        cols = np.empty((c_in, k, k, n, h_out, w_out))
        for i, j, window in windows:
            cols[:, i, j] = xp[window]
        cols = cols.reshape(c_in * k * k, n * h_out * w_out)
        w2 = weight.data.reshape(c_out, -1)
        out2 = w2 @ cols
        if bias is not None:
            out2 += bias.data[:, None]
        out = out2.reshape(c_out, n, h_out, w_out).transpose(1, 0, 2, 3)

        inputs = (x, weight) if bias is None else (x, weight, bias)

        def backward(grad_out: np.ndarray):
            g2 = grad_out.transpose(1, 0, 2, 3).reshape(c_out, -1)
            grad_w = (g2 @ cols.T).reshape(weight.shape)
            grad_x = None
            if isinstance(x, Tensor):
                grad_cols = (w2.T @ g2).reshape(c_in, k, k, n, h_out, w_out)
                grad_xp = np.zeros_like(xp)
                for i, j, window in windows:
                    grad_xp[window] += grad_cols[:, i, j]
                grad_x = grad_xp[inner].transpose(1, 0, 2, 3)
            if bias is None:
                return grad_x, grad_w
            return grad_x, grad_w, g2.sum(axis=1)

        return self._record("conv2d", inputs, out, backward)

    def task_batchnorm(self, y: Tensor, states: Mapping[int, BatchNormState], task: int,
                       mode: str = "train", eps: float = BN_EPS,
                       momentum: float = BN_MOMENTUM) -> Tensor:
        """Per-channel batch norm using the given task's state.

        Train mode normalizes with the batch's (biased) statistics and
        updates the running statistics by exponential moving average; eval
        mode normalizes with the running statistics. Gradients flow to y,
        gamma, and beta.
        """
        if task not in states:
            raise TaskLookupError(f"batchnorm: no state registered for task {task}")
        if mode not in ("train", "eval"):
            raise ValueError(f"batchnorm: unknown mode {mode!r}")
        state = states[task]
        if y.data.ndim != 4:
            raise ShapeError(f"batchnorm: input must be N x C x H x W, got shape {y.shape}")
        n, c, h, w = y.shape
        if c == 0 or state.gamma.shape != (c,):
            raise ShapeError(f"batchnorm: state has {state.gamma.shape} channels, input has {c}")
        m = n * h * w
        gamma, beta = state.gamma, state.beta

        if mode == "train":
            if m < 2:
                raise ShapeError(f"batchnorm: train mode needs >= 2 elements per channel, got {m}")
            mu = y.data.mean(axis=(0, 2, 3))
            var = y.data.var(axis=(0, 2, 3))  # biased (population) variance
            inv_std = 1.0 / np.sqrt(var + eps)
            xhat = (y.data - mu[None, :, None, None]) * inv_std[None, :, None, None]
            out = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]
            state.running_mean[...] = (1.0 - momentum) * state.running_mean + momentum * mu
            state.running_var[...] = (1.0 - momentum) * state.running_var + momentum * var

            def backward(grad_out: np.ndarray):
                dgamma = (grad_out * xhat).sum(axis=(0, 2, 3))
                dbeta = grad_out.sum(axis=(0, 2, 3))
                dxhat = grad_out * gamma.data[None, :, None, None]
                sum_dxhat = dxhat.sum(axis=(0, 2, 3))
                sum_dxhat_xhat = (dxhat * xhat).sum(axis=(0, 2, 3))
                dy = (inv_std[None, :, None, None] / m) * (
                    m * dxhat
                    - sum_dxhat[None, :, None, None]
                    - xhat * sum_dxhat_xhat[None, :, None, None]
                )
                return dy, dgamma, dbeta

        else:
            if np.any(state.running_var < 0):
                raise StateError("batchnorm: running variance is negative (corrupt state)")
            inv_std = 1.0 / np.sqrt(state.running_var + eps)
            xhat = (y.data - state.running_mean[None, :, None, None]) * inv_std[None, :, None, None]
            out = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]

            def backward(grad_out: np.ndarray):
                dgamma = (grad_out * xhat).sum(axis=(0, 2, 3))
                dbeta = grad_out.sum(axis=(0, 2, 3))
                dy = grad_out * (gamma.data * inv_std)[None, :, None, None]
                return dy, dgamma, dbeta

        return self._record("task_batchnorm", (y, gamma, beta), out, backward)

    def relu(self, x: Tensor) -> Tensor:
        mask = x.data > 0
        out = np.where(mask, x.data, 0.0)

        def backward(grad_out: np.ndarray):
            return (grad_out * mask,)

        return self._record("relu", (x,), out, backward)

    def linear(self, x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
        """Dense layer: x (N x F) times weight (O x F), plus optional bias (O,)."""
        if x.data.ndim != 2 or weight.data.ndim != 2:
            raise ShapeError(f"linear: expected 2-d input and weight, got {x.shape}, {weight.shape}")
        if x.shape[1] != weight.shape[1]:
            raise ShapeError(f"linear: input features {x.shape[1]} != weight features {weight.shape[1]}")
        out = x.data @ weight.data.T
        if bias is not None:
            if bias.shape != (weight.shape[0],):
                raise ShapeError(f"linear: bias shape {bias.shape} != ({weight.shape[0]},)")
            out = out + bias.data[None, :]
        inputs = (x, weight) if bias is None else (x, weight, bias)

        def backward(grad_out: np.ndarray):
            grad_x = grad_out @ weight.data
            grad_w = grad_out.T @ x.data
            if bias is None:
                return grad_x, grad_w
            return grad_x, grad_w, grad_out.sum(axis=0)

        return self._record("linear", inputs, out, backward)

    def mse_loss(self, prediction: Tensor, target: Tensor | np.ndarray) -> Tensor:
        """Mean squared error over all elements (scalar output)."""
        if not isinstance(target, Tensor):
            target = Tensor(np.asarray(target, dtype=np.float64))
        if prediction.shape != target.shape:
            raise ShapeError(f"mse: prediction shape {prediction.shape} != target shape {target.shape}")
        diff = prediction.data - target.data
        out = np.asarray((diff * diff).mean())
        scale = 2.0 / diff.size

        def backward(grad_out: np.ndarray):
            g = grad_out * scale * diff
            return g, -g

        return self._record("mse_loss", (prediction, target), out, backward)

    def cross_entropy_loss(self, logits: Tensor, labels: np.ndarray) -> Tensor:
        """Mean softmax cross-entropy; class axis is 1, labels are int indices."""
        if logits.data.ndim < 2:
            raise ShapeError(f"cross_entropy: logits need a class axis, got shape {logits.shape}")
        labels = np.asarray(labels)
        if not np.issubdtype(labels.dtype, np.integer):
            raise LabelError(f"cross_entropy: labels must be integers, got dtype {labels.dtype}")
        expected = logits.shape[:1] + logits.shape[2:]
        if labels.shape != expected:
            raise ShapeError(f"cross_entropy: labels shape {labels.shape} != {expected}")
        num_classes = logits.shape[1]
        if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
            raise LabelError(f"cross_entropy: label out of range [0, {num_classes})")

        z = logits.data
        zmax = z.max(axis=1, keepdims=True)
        ez = np.exp(z - zmax)
        softmax = ez / ez.sum(axis=1, keepdims=True)
        logp = (z - zmax) - np.log(ez.sum(axis=1, keepdims=True))
        onehot = np.moveaxis(np.eye(num_classes)[labels], -1, 1)
        count = labels.size
        out = np.asarray(-(onehot * logp).sum() / count)

        def backward(grad_out: np.ndarray):
            return (grad_out * (softmax - onehot) / count,)

        return self._record("cross_entropy_loss", (logits,), out, backward)

    def compute_loss(self, prediction: Tensor, target, kind: str) -> Tensor:
        """Dispatch to the configured loss: 'mse' or 'cross_entropy'."""
        if kind == "mse":
            return self.mse_loss(prediction, target)
        if kind == "cross_entropy":
            return self.cross_entropy_loss(prediction, target)
        raise ValueError(f"compute_loss: unknown kind {kind!r}")

    # -- pointwise ops used to combine scalar losses ---------------------

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
        return self._record("add", (a, b), a.data + b.data,
                            lambda g: (g, g))

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise ShapeError(f"mul: shapes {a.shape} and {b.shape} differ")
        return self._record("mul", (a, b), a.data * b.data,
                            lambda g: (g * b.data, g * a.data))

    def scale(self, a: Tensor, c: float) -> Tensor:
        c = float(c)
        return self._record("scale", (a,), a.data * c, lambda g: (g * c,))

    def exp(self, a: Tensor) -> Tensor:
        with np.errstate(over="ignore"):
            out = np.exp(a.data)
        return self._record("exp", (a,), out, lambda g: (g * out,))

    def add_scalar(self, a: Tensor, c: float) -> Tensor:
        return self._record("add_scalar", (a,), a.data + float(c), lambda g: (g,))

    # ------------------------------------------------------------------
    # reverse pass
    # ------------------------------------------------------------------

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(tensor) into .grad for every tensor feeding loss.

        Parameters (leaf tensors) accumulate with +=; intermediate node
        outputs are reset at the start of each call so one forward pass can
        serve several backward passes.
        """
        if loss.size != 1:
            raise TapeError(f"backward: loss must be scalar, got shape {loss.shape}")
        start = self._producer.get(id(loss))
        if start is None:
            raise TapeError("backward: loss was not produced on this tape")

        needed: set[int] = set()
        stack = [start]
        while stack:
            i = stack.pop()
            if i in needed:
                continue
            needed.add(i)
            for t in self._nodes[i].inputs:
                j = self._producer.get(id(t))
                if j is not None:
                    stack.append(j)

        for i in needed:
            self._nodes[i].output.grad[...] = 0.0
        loss.grad[...] = 1.0

        leaves: dict[int, tuple[str, Tensor]] = {}  # id -> (consuming op, leaf)
        for i in sorted(needed, reverse=True):
            node = self._nodes[i]
            grads_in = node.backward(node.output.grad)
            for t, g in zip(node.inputs, grads_in):
                if g is not None:
                    t.grad += g
                    if id(t) not in self._producer:
                        leaves.setdefault(id(t), (node.op, t))

        # Forward outputs were checked in _record, and a non-finite
        # intermediate gradient flows on into some leaf, so one check per
        # leaf catches every non-finite gradient of this pass.
        for op, t in leaves.values():
            _assert_finite(f"backward({op})", t.grad)
