"""Minimal deterministic reverse-mode autodiff over dense float64 tensors.

Every value is a Tensor: a data array paired with a same-shape gradient
array. An op output holds a gradient array only while a backward pass
that needs it runs, so eval-only forwards allocate none. Operations are
recorded on an explicit Tape; ``Tape.backward`` replays the recorded nodes
in reverse order and accumulates exact leaf gradients with ``+=``. Zeroing
gradients between backward passes is the caller's responsibility. A
forward-only pass runs on ``Tape(record=False)``, which checks and returns
every output like a recording tape but keeps no node, so an op's
intermediates are freed when it returns and its output when the caller
drops it.

The operator set is exactly what training runs: conv2d, task-specific
batch norm, relu, mse / softmax cross-entropy, and ``scale``, which
weights a task loss before its backward pass.

A tape and the tensors on it belong to one execution context; never call
into the same tape concurrently. Distinct tapes over one model are not
independent either: they accumulate into the same parameter ``.grad``
arrays and update the same batch-norm running statistics, so run them one
at a time.
"""
from __future__ import annotations

import contextlib
import ctypes
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    LabelError,
    NumericError,
    ShapeError,
    StateError,
    TapeError,
)

BN_EPS = 1e-5
BN_MOMENTUM = 0.1

# mallopt parameter numbers from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Make glibc keep freed blocks for reuse instead of returning them.

    Every training pass allocates and frees arrays of the same shapes. By
    default glibc serves large blocks with fresh mmaps and trims the top of
    the heap, so each pass page-faults its working set back in, zeroed.
    It also adapts both thresholds to the largest block freed so far, so
    the fault count depends on the process's history; setting both turns
    that adaptation off. Without glibc's ``mallopt`` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt; Windows refuses a None name
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    # 32 MiB is glibc's documented upper limit for the mmap threshold on
    # 64-bit systems, and far above the largest per-pass temporary: on a
    # 16-channel, 16x16, batch-16 trunk, the 0.88 MB column matrix that a
    # recording first conv keeps (27 rows, one column per output pixel).
    # The 1 GiB trim threshold keeps the freed heap top for the next pass.
    mallopt(_M_MMAP_THRESHOLD, 32 * 1024 * 1024)
    mallopt(_M_TRIM_THRESHOLD, 1024 * 1024 * 1024)


_keep_freed_memory()

# numpy's ufunc buffer size, in elements, while a model pass runs: a
# multiple of 16 (numpy < 2 requires one) and no longer than a channel row
# of the shapes trained here (N*H*W is 1,152 on the default data)
ROW_BUFSIZE = 1024


# bytes of one block's column matrix where conv2d keeps no columns (every
# forward but a recording one over a constant input or with k = 1, and the
# backward of a k > 1 conv over a Tensor input), so that a block's columns
# are still in cache when its products read them: the best of a sweep from
# 128 KiB to 2 MiB on a Xeon with 2 MiB of L2 per core (README,
# Convolution). Every conv of the default model fits in one block; its
# largest matrix is 331,776 B.
BLOCK_BYTES = 512 * 1024


@contextlib.contextmanager
def _row_sized_buffers():
    """Run the block with numpy's ufunc buffer set to ``ROW_BUFSIZE``.

    A broadcast op over channel-major ``(C, N*H*W)`` rows shorter than
    numpy's default 8192-element buffer, such as batch norm's per-channel
    centring and scaling, goes through the buffered iterator and runs about
    3x slower than with a buffer no longer than one row. Only elementwise
    work changes its chunking: every reduction of a pass either needs no
    cast or sums integers, so no output bit moves. The caller's size is
    restored on exit, also when the block raises. It is not set at import,
    so the host program's own casting reductions keep numpy's chunking.
    """
    saved = np.setbufsize(ROW_BUFSIZE)
    try:
        yield
    finally:
        np.setbufsize(saved)


class Tensor:
    """Dense n-d float64 value array with a paired gradient array.

    Leaf tensors own a gradient from construction; an op output's ``grad``
    is None except while ``Tape.backward`` propagates through it.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.array(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Internal: take ownership of arr without copying.
        t = object.__new__(cls)
        t.data = arr
        t.grad = None
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

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


@dataclass(slots=True)
class _Node:
    """One recorded operation: inputs, output, and the backward rule.

    A plain-array input is a constant; the backward rule returns None for it.
    """

    op: str
    inputs: tuple[Tensor | np.ndarray, ...]
    output: Tensor
    backward: Callable[[np.ndarray], Sequence[np.ndarray | None]]


def _assert_finite(op: str, arr: np.ndarray) -> None:
    """Raise ``NumericError`` if ``arr`` holds a NaN or an infinity.

    A finite sum of squares proves every element finite: a NaN or an
    infinity makes its square, and so the sum, non-finite. One BLAS dot
    over ``ravel("K")``, a view for every op output and leaf gradient of
    the model whatever its axis order, costs about half an ``isfinite``
    pass on the shapes trained here. A non-finite sum decides nothing, as
    finite values above ~1.3e154 overflow their squares, so the elementwise
    check then rules. Such values make ``np.dot`` warn ``overflow
    encountered in dot``; an ``errstate`` around it would cost as much as
    the dot saves.
    """
    flat = arr.ravel("K")
    if not math.isfinite(np.dot(flat, flat)) and not np.isfinite(arr).all():
        raise NumericError(f"{op}: produced non-finite values")


def _same_conv(xc: np.ndarray, w2: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Same-size conv of channel-major ``(C_in, N, H, W)`` input ``xc`` with
    the ``(C_out, C_in*k*k)`` kernel matrix ``w2``.

    Returns the ``(C_out, N*H*W)`` output and the ``(C_in*k*k, N*H*W)``
    column matrix it multiplied, whose rows hold each pixel's window in
    output order. A 1x1 conv's matrix is the input's channel-major rows,
    with no padding or window copy.
    """
    c_in, n, h, w = xc.shape
    if k == 1:
        cols = xc.reshape(c_in, -1)
        return w2 @ cols, cols
    # each channel-image as one flat row of H*W pixels between pad*W + pad
    # zeros, so that offset (i, j)'s window of every pixel is the row
    # shifted by i*W + j: every plane of the view below is copied in runs
    # of H*W elements, not of W
    pad = k // 2
    hw, margin = h * w, pad * w + pad
    flat = np.zeros((c_in, n, hw + 2 * margin))
    flat[:, :, margin:margin + hw].reshape(c_in, n, h, w)[...] = xc
    s_c, s_n, s_p = flat.strides
    windows = np.ndarray((c_in, k, k, n, hw), flat.dtype, flat, 0,
                         (s_c, w * s_p, s_p, s_n, s_p))
    # copy() and not reshape: with one channel-image and W == k the (i, j)
    # axes merge, and reshape would return a view of flat
    cols = windows.copy().reshape(c_in * k * k, n * hw)
    # a horizontal shift by d wraps into a neighbouring row at the first or
    # the last d image columns (every column if d >= W); those entries are
    # the zero padding of a padded grid
    grid = cols.reshape(c_in, k, k, n, h, w)
    for d in range(1, pad + 1):
        grid[:, :, pad - d, :, :, :d] = 0.0
        grid[:, :, pad + d, :, :, max(w - d, 0):] = 0.0
    return w2 @ cols, cols


def _blocked_conv(xc: np.ndarray, w2: np.ndarray, k: int, rows: np.ndarray | None = None):
    """``_same_conv``'s output, built a block of whole images at a time.

    A block holds as many images as fit their column matrix into
    ``BLOCK_BYTES`` (at least one), and no block's columns outlive its
    products. A 1x1 conv builds no columns, so it runs in one call, as does
    a batch whose matrix fits.

    Given ``rows``, a channel-major ``(C_r, N, H, W)`` array of the same
    images, it returns the output together with the ``(C_in*k*k, C_r)``
    product of the whole batch's columns with ``rows``'s channel rows,
    summed block by block: a k > 1 conv's weight gradient, built from the
    columns of its output gradient.
    """
    c_in, n, h, w = xc.shape
    per_block = n if k == 1 else max(1, BLOCK_BYTES // (c_in * k * k * h * w * 8))
    if per_block >= n:
        out2, cols = _same_conv(xc, w2, k)
        if rows is None:
            return out2
        return out2, cols @ rows.reshape(rows.shape[0], -1).T
    out2 = np.empty((w2.shape[0], n * h * w))
    corr = None if rows is None else np.zeros((c_in * k * k, rows.shape[0]))
    for start in range(0, n, per_block):
        stop = min(start + per_block, n)
        out2[:, start * h * w:stop * h * w], cols = _same_conv(xc[:, start:stop], w2, k)
        if rows is not None:
            corr += cols @ rows[:, start:stop].reshape(rows.shape[0], -1).T
    return out2 if rows is None else (out2, corr)


class Tape:
    """Append-only record of operations; replayed in reverse by backward().

    With ``record=False`` the tape runs and checks every op but records
    none, for passes that never run backward: each op's backward rule, and
    the arrays only it holds, are freed when the op returns, no output
    outlives the caller's reference to it, and ``backward`` raises
    ``TapeError``.
    """

    def __init__(self, record: bool = True):
        self.record = record
        self._nodes: list[_Node] = []
        self._producer: dict[int, int] = {}  # id(output tensor) -> node index

    def _record(self, op: str, inputs: Sequence[Tensor | np.ndarray], out_data: np.ndarray,
                backward: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
        _assert_finite(op, out_data)
        out = Tensor._wrap(out_data)
        if self.record:
            self._producer[id(out)] = len(self._nodes)
            self._nodes.append(_Node(op, tuple(inputs), out, backward))
        return out

    # ------------------------------------------------------------------
    # operators
    # ------------------------------------------------------------------

    def conv2d(self, x: Tensor | np.ndarray, weight: Tensor, bias: Tensor | None = None) -> Tensor:
        """Same-size 2-d cross-correlation of NCHW input with an OIKK kernel.

        The kernel is square with an odd side k; the conv runs at stride 1
        with zero padding ``k // 2``, so the output keeps the input's H x W.
        A plain array ``x`` is a constant: it gets no gradient. The conv is
        one GEMM of the weight with the input's ``(C_in*K*K, N*H*W)`` column
        matrix (``_same_conv``).

        Only a recording conv over a constant input, or a 1x1 one, keeps
        that matrix, for the weight gradient ``(cols @ g2.T).T``. Every
        other forward convolves a block of whole images at a time
        (``_blocked_conv``) and keeps no columns. For k > 1 the input
        gradient is the same-size conv of the output gradient with the
        kernel's in/out axes swapped and its offsets flipped, run in the
        same blocks; each block's output-gradient columns, times that
        block's input rows, also add up to the weight gradient with its
        offsets flipped. A 1x1 conv's input gradient is the plain product
        ``w2.T @ g2``.
        """
        xd = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
        if xd.ndim != 4:
            raise ShapeError(f"conv2d: input must be N x C x H x W, got shape {xd.shape}")
        if weight.data.ndim != 4 or weight.shape[2] != weight.shape[3] or weight.shape[2] % 2 == 0:
            raise ShapeError(
                f"conv2d: weight must be O x I x K x K with odd K, got shape {weight.shape}")
        n, c_in, h, w = xd.shape
        c_out, c_in_w, k, _ = weight.shape
        if c_in != c_in_w:
            raise ShapeError(f"conv2d: input has {c_in} channels but weight expects {c_in_w}")
        if bias is not None and bias.shape != (c_out,):
            raise ShapeError(f"conv2d: bias must have shape ({c_out},), got {bias.shape}")

        xc = xd.transpose(1, 0, 2, 3)
        w2 = weight.data.reshape(c_out, -1)
        # kept columns: a 1x1 conv's are its input's rows, and a constant
        # input has no input gradient whose output-gradient columns the
        # weight gradient could share (a first trunk conv's input has 27
        # rows of columns against its output gradient's 144)
        if self.record and (k == 1 or not isinstance(x, Tensor)):
            out2, cols = _same_conv(xc, w2, k)
        else:
            out2, cols = _blocked_conv(xc, w2, k), None
        if bias is not None:
            out2 += bias.data[:, None]
        out = out2.reshape(c_out, n, h, w).transpose(1, 0, 2, 3)

        inputs = (x, weight) if bias is None else (x, weight, bias)

        def backward(grad_out: np.ndarray):
            gc = grad_out.transpose(1, 0, 2, 3)
            g2 = gc.reshape(c_out, -1)
            grad_x = None
            if cols is not None:
                # g2 @ cols.T with the long column axis as the product's
                # rows: faster, and the same bits on one BLAS thread; a
                # threaded BLAS may split the two shapes differently and
                # round a large product differently in the last bit
                grad_w = (cols @ g2.T).T.reshape(weight.shape)
                if isinstance(x, Tensor):  # k == 1
                    grad_x = (w2.T @ g2).reshape(c_in, n, h, w).transpose(1, 0, 2, 3)
            else:
                flipped = weight.data.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
                grad_x2, corr = _blocked_conv(gc, flipped.reshape(c_in, -1), k, xc)
                grad_x = grad_x2.reshape(c_in, n, h, w).transpose(1, 0, 2, 3)
                # corr[(o, i, j), c] sums g[o, p + (i, j) - pad] * x[c, p] over
                # the pixels p: the forward's window offset (k-1-i, k-1-j)
                grad_w = corr.reshape(c_out, k, k, c_in)[:, ::-1, ::-1, :].transpose(0, 3, 1, 2)
            if bias is None:
                return grad_x, grad_w
            return grad_x, grad_w, g2.sum(axis=1)

        return self._record("conv2d", inputs, out, backward)

    def task_batchnorm(self, y: Tensor, state: BatchNormState, mode: str = "train") -> Tensor:
        """Per-channel batch norm using one task's state.

        Train mode normalizes with the batch's (biased) statistics and
        updates the running statistics by exponential moving average with
        weight ``BN_MOMENTUM``; eval mode normalizes with the running
        statistics. Both add ``BN_EPS`` to the variance, and the two modes
        differ only in where the statistics come from and in ``dy``.
        Gradients flow to y, gamma, and beta.
        """
        if mode not in ("train", "eval"):
            raise ValueError(f"batchnorm: unknown mode {mode!r}")
        if y.data.ndim != 4:
            raise ShapeError(f"batchnorm: input must be N x C x H x W, got shape {y.shape}")
        n, c, h, w = y.shape
        if c == 0 or state.gamma.shape != (c,):
            raise ShapeError(f"batchnorm: state has {state.gamma.shape} channels, input has {c}")
        m = n * h * w

        if mode == "train":
            if m < 2:
                raise ShapeError(f"batchnorm: train mode needs >= 2 elements per channel, got {m}")
            mean = y.data.mean(axis=(0, 2, 3))
            xhat = y.data - mean[None, :, None, None]
            # biased (population) variance, by the same operations as np.var
            var = (xhat * xhat).sum(axis=(0, 2, 3)) / m
            state.running_mean[...] = (1.0 - BN_MOMENTUM) * state.running_mean + BN_MOMENTUM * mean
            state.running_var[...] = (1.0 - BN_MOMENTUM) * state.running_var + BN_MOMENTUM * var
        else:
            if np.any(state.running_var < 0):
                raise StateError("batchnorm: running variance is negative (corrupt state)")
            var = state.running_var
            xhat = y.data - state.running_mean[None, :, None, None]
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= inv_std[None, :, None, None]
        out = state.gamma.data[None, :, None, None] * xhat
        out += state.beta.data[None, :, None, None]

        def backward(grad_out: np.ndarray):
            dgamma = (grad_out * xhat).sum(axis=(0, 2, 3))
            dbeta = grad_out.sum(axis=(0, 2, 3))
            if mode == "train":
                dxhat = grad_out * state.gamma.data[None, :, None, None]
                sum_dxhat = dxhat.sum(axis=(0, 2, 3))
                sum_dxhat_xhat = (dxhat * xhat).sum(axis=(0, 2, 3))
                # (inv_std / m) * (m*dxhat - sum_dxhat - xhat*sum_dxhat_xhat),
                # by the same operations in place on dxhat
                dy = dxhat
                dy *= m
                dy -= sum_dxhat[None, :, None, None]
                dy -= xhat * sum_dxhat_xhat[None, :, None, None]
                dy *= inv_std[None, :, None, None] / m
            else:
                dy = grad_out * (state.gamma.data * inv_std)[None, :, None, None]
            return dy, dgamma, dbeta

        return self._record("task_batchnorm", (y, state.gamma, state.beta), out, backward)

    def relu(self, x: Tensor) -> Tensor:
        """``max(x, 0)``, with +0.0 for every input that is not positive.

        ``np.maximum`` may pass a -0.0 input through; adding +0.0 turns it
        into +0.0 and leaves every other value unchanged.
        """
        out = np.maximum(x.data, 0.0)
        out += 0.0

        def backward(grad_out: np.ndarray):
            # a fresh product, not one in place on grad_out: when grad_out is
            # conv2d's strided grad_x view, batch norm's backward reads the
            # compact product about twice as fast
            return (grad_out * (x.data > 0),)

        return self._record("relu", (x,), out, backward)

    def mse_loss(self, prediction: Tensor, target: Tensor | np.ndarray) -> Tensor:
        """Mean squared error over all elements (scalar output).

        A plain array ``target`` is a constant: it gets no gradient.
        """
        td = target.data if isinstance(target, Tensor) else np.asarray(target, dtype=np.float64)
        if prediction.shape != td.shape:
            raise ShapeError(f"mse: prediction shape {prediction.shape} != target shape {td.shape}")
        diff = prediction.data - td
        out = np.asarray((diff * diff).mean())
        scale = 2.0 / diff.size

        def backward(grad_out: np.ndarray):
            g = grad_out * scale * diff
            return g, (-g if isinstance(target, Tensor) else None)

        inputs = (prediction, target if isinstance(target, Tensor) else td)
        return self._record("mse_loss", inputs, out, backward)

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
        logp = z - z.max(axis=1, keepdims=True)
        softmax = np.exp(logp)
        total = softmax.sum(axis=1, keepdims=True)
        softmax /= total
        logp -= np.log(total)
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

    def scale(self, a: Tensor, c: float) -> Tensor:
        """``c * a`` for a constant c; weights a task loss before backward."""
        c = float(c)
        return self._record("scale", (a,), a.data * c, lambda g: (g * c,))

    # ------------------------------------------------------------------
    # reverse pass
    # ------------------------------------------------------------------

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(tensor) into .grad for every tensor feeding loss.

        One sweep walks this tape's nodes from the loss back to the first.
        It first drops the gradient of every output recorded up to the
        loss, whether the loss depends on it or not; so an output of this
        tape that another tape used as a leaf loses the gradient that tape
        gave it. Leaves (parameters, and outputs of other tapes) accumulate
        with += into their gradient array, zero-filled first if they have
        none. An output of this tape that feeds the loss adopts the first
        gradient array a consumer's rule returns and adds later ones into
        it; it drops the gradient once its own rule has run, so one forward
        pass can serve several backward passes and intermediate gradients
        never outlive the call.

        Adoption relies on a contract every backward rule keeps: it returns
        arrays that no other input or node holds, so adding into one
        changes nothing else. An adopted gradient can hold -0.0 where a
        zero-filled sum holds +0.0; every op's rule gives equal values from
        equal inputs, and a leaf's ``+=`` into zeros turns -0.0 into +0.0,
        so leaf gradients keep every bit.
        """
        if not self.record:
            raise TapeError("backward: this tape records nothing (record=False)")
        if loss.size != 1:
            raise TapeError(f"backward: loss must be scalar, got shape {loss.shape}")
        start = self._producer.get(id(loss))
        if start is None:
            raise TapeError("backward: loss was not produced on this tape")

        nodes = self._nodes[:start + 1]
        for node in nodes:
            node.output.grad = None
        loss.grad = np.ones_like(loss.data)

        leaves: dict[int, tuple[str, Tensor]] = {}  # id -> (consuming op, leaf)
        for node in reversed(nodes):
            if node.output.grad is None:
                # rules return None only for constants, so an output that
                # got no gradient does not feed the loss
                continue
            grads_in = node.backward(node.output.grad)
            # every consumer of this output ran before it, so its gradient is
            # complete and read no more; freeing it lets a later input
            # gradient reuse the block
            node.output.grad = None
            for t, g in zip(node.inputs, grads_in):
                if g is None:
                    continue
                if id(t) not in self._producer:
                    leaves.setdefault(id(t), (node.op, t))
                    if t.grad is None:
                        t.grad = np.zeros_like(t.data)
                elif t.grad is None:
                    t.grad = g
                    continue
                t.grad += g

        # Forward outputs were checked in _record, and a non-finite
        # intermediate gradient flows on into some leaf, so one check per
        # leaf catches every non-finite gradient of this pass.
        for op, t in leaves.values():
            _assert_finite(f"backward({op})", t.grad)
