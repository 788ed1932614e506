import math
import platform
import subprocess
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from mtlopt import autodiff
from mtlopt.autodiff import BatchNormState, Tape, Tensor, _assert_finite
from mtlopt.config import ExperimentConfig
from mtlopt.errors import (
    LabelError,
    NumericError,
    ShapeError,
    TapeError,
)
from mtlopt.gradcheck import central_difference, relative_error
from mtlopt.network import build_model, per_task_gradients
from mtlopt.runner import evaluate_model, training_dataset
from mtlopt.verification import child_environment


def test_conv_identity_kernel():
    tape = Tape()
    x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
    w = Tensor(np.ones((1, 1, 1, 1)))
    out = tape.conv2d(x, w)
    np.testing.assert_array_equal(out.data, x.data)


def test_conv_zero_kernel_annihilates():
    tape = Tape()
    x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 5, 5)))
    w = Tensor(np.zeros((4, 3, 3, 3)))
    out = tape.conv2d(x, w)
    np.testing.assert_array_equal(out.data, np.zeros((2, 4, 5, 5)))


def test_conv_hand_cross_correlation():
    # an all-ones 3x3 kernel sums each pixel's zero-padded neighbourhood;
    # the centre one's neighbourhood is the whole 3x3 input
    tape = Tape()
    x = Tensor(np.arange(1.0, 10.0).reshape(1, 1, 3, 3))
    w = Tensor(np.ones((1, 1, 3, 3)))
    out = tape.conv2d(x, w)
    assert out.shape == (1, 1, 3, 3)
    assert out.data[0, 0, 1, 1] == 45.0
    assert out.data[0, 0, 0, 0] == 1.0 + 2.0 + 4.0 + 5.0


def _reference_conv(x, w, b, grad_out):
    """Direct same-size cross-correlation and its gradients, one output pixel
    at a time."""
    n, _, h, wd = x.shape
    c_out, _, k, _ = w.shape
    padding = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, c_out, h, wd))
    grad_xp = np.zeros_like(xp)
    grad_w = np.zeros_like(w)
    for m in range(n):
        for o in range(c_out):
            for r in range(h):
                for c in range(wd):
                    rows = slice(r, r + k)
                    cols = slice(c, c + k)
                    out[m, o, r, c] = np.sum(xp[m, :, rows, cols] * w[o]) + b[o]
                    if grad_out is not None:
                        g = grad_out[m, o, r, c]
                        grad_w[o] += g * xp[m, :, rows, cols]
                        grad_xp[m, :, rows, cols] += g * w[o]
    grad_x = grad_xp[:, :, padding:padding + h, padding:padding + wd]
    return out, grad_x, grad_w


def _same_size_id(k):
    # ids and seeds read [padding-stride-k], the same-size conv's padding
    # k // 2 at stride 1, so each case keeps its data and name
    return f"{k // 2}-1-{k}"


@pytest.mark.parametrize("k", [1, 3, 5], ids=_same_size_id)
def test_conv_matches_direct_reference(k):
    rng = np.random.default_rng(100 * k + 10 + k // 2)
    x_val = rng.normal(size=(2, 3, k + 3, k + 4))
    w_val = rng.normal(size=(4, 3, k, k))
    b_val = rng.normal(size=4)
    out_ref, _, _ = _reference_conv(x_val, w_val, b_val, None)
    target = rng.normal(size=out_ref.shape)
    grad_out = 2.0 * (out_ref - target) / out_ref.size  # d mse / d out
    _, gx_ref, gw_ref = _reference_conv(x_val, w_val, b_val, grad_out)
    gb_ref = grad_out.sum(axis=(0, 2, 3))

    def close(actual, expected):
        # rtol on the array's scale: an entry whose terms cancel keeps only
        # absolute accuracy, a few ulps of its largest terms
        np.testing.assert_allclose(actual, expected, rtol=1e-12,
                                   atol=1e-12 * np.abs(expected).max())

    for constant_input in (False, True):
        tape = Tape()
        x = x_val if constant_input else Tensor(x_val)
        wt, bt = Tensor(w_val), Tensor(b_val)
        out = tape.conv2d(x, wt, bt)
        tape.backward(tape.mse_loss(out, Tensor(target)))
        close(out.data, out_ref)
        close(wt.grad, gw_ref)
        close(bt.grad, gb_ref)
        if not constant_input:
            close(x.grad, gx_ref)


def _window_conv(x, w, b, grad_out, constant_input=False):
    """Same-size conv2d by k*k-window columns copied one slice at a time.

    A reference copy of conv2d's kernel: the same products, summed in the
    same order. For k > 1 the input gradient is the same-size conv of the
    output gradient with the flipped kernel: its padded grid's windows
    times ``w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]``. Its weight
    gradient is those windows times the input's channel rows, with the
    kernel offsets flipped back. Over a constant input, or for k = 1, the
    weight gradient is the output gradient times the input's windows.
    """
    n, c_in, h, wd = x.shape
    c_out, _, k, _ = w.shape
    padding = k // 2
    windows = [np.s_[:, :, i:i + h, j:j + wd] for i in range(k) for j in range(k)]

    def columns(a):
        # (C, N, H, W) -> (C*k*k, N*H*W), each window one slice of the padded grid
        ap = np.zeros((a.shape[0], n, h + 2 * padding, wd + 2 * padding))
        ap[:, :, padding:padding + h, padding:padding + wd] = a
        cols = np.empty((a.shape[0], k * k, n, h, wd))
        for offset, window in enumerate(windows):
            cols[:, offset] = ap[window]
        return cols.reshape(-1, n * h * wd)

    cols = columns(x.transpose(1, 0, 2, 3))
    w2 = w.reshape(c_out, -1)
    out2 = w2 @ cols
    out2 += b[:, None]
    out = out2.reshape(c_out, n, h, wd).transpose(1, 0, 2, 3)
    if grad_out is None:
        return out
    g2 = grad_out.transpose(1, 0, 2, 3).reshape(c_out, -1)
    if k == 1:
        grad_x2 = w2.T @ g2
    else:
        gcols = columns(grad_out.transpose(1, 0, 2, 3))
        flipped = w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1].reshape(c_in, -1)
        grad_x2 = flipped @ gcols
    if k == 1 or constant_input:
        grad_w = (g2 @ cols.T).reshape(w.shape)
    else:
        x_rows = x.transpose(1, 0, 2, 3).reshape(c_in, -1)
        corr = (gcols @ x_rows.T).reshape(c_out, k, k, c_in)
        grad_w = corr[:, ::-1, ::-1, :].transpose(0, 3, 1, 2)
    grad_x = grad_x2.reshape(c_in, n, h, wd).transpose(1, 0, 2, 3)
    return out, grad_x, grad_w, g2.sum(axis=1)


def _assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(np.ascontiguousarray(actual).view(np.uint64),
                                  np.ascontiguousarray(expected).view(np.uint64))


def _with_signed_zeros(rng, arr, share=0.2):
    hit = rng.random(arr.shape) < share
    arr[hit] = np.where(rng.random(hit.sum()) < 0.5, 0.0, -0.0)
    return arr


@pytest.mark.parametrize("k", [1, 3, 5], ids=_same_size_id)
def test_conv_bits_match_window_scatter(k):
    # The flat-shift column matrices and the copy-free 1x1 path must give
    # every bit, signs of zero included, of the per-window kernel: both
    # multiply the same matrices, and each batch here fits in one block.
    rng = np.random.default_rng(1000 + 100 * k + 10 + k // 2)
    x_val = _with_signed_zeros(rng, rng.normal(size=(3, 4, k + 3, k + 5)))
    w_val = _with_signed_zeros(rng, rng.normal(size=(5, 4, k, k)), share=0.1)
    b_val = rng.normal(size=5)
    out_ref = _window_conv(x_val, w_val, b_val, None)
    target = _with_signed_zeros(rng, out_ref.copy(), share=0.3)  # zero gradients too
    grad_ref = (np.ones(()) * (2.0 / out_ref.size)) * (out_ref - target)  # mse's backward

    # channel-major memory, as the trunk's activations have it, and NCHW
    for x_in in (x_val, x_val.transpose(1, 0, 2, 3).copy().transpose(1, 0, 2, 3)):
        for constant_input in (False, True):
            _, gx_ref, gw_ref, gb_ref = _window_conv(x_val, w_val, b_val, grad_ref,
                                                     constant_input)
            tape = Tape()
            x = x_in if constant_input else Tensor(x_in)
            wt, bt = Tensor(w_val), Tensor(b_val)
            out = tape.conv2d(x, wt, bt)
            _assert_same_bits(out.data, out_ref)
            tape.backward(tape.mse_loss(out, target))
            _assert_same_bits(wt.grad, gw_ref)
            _assert_same_bits(bt.grad, gb_ref)
            if not constant_input:
                _assert_same_bits(x.grad, gx_ref)


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("k", [3, 5, 7])
def test_conv_columns_match_slice_loop(k, batch):
    # conv2d builds its column matrix as one flat-shift view of the input;
    # the output and weight gradient must keep every bit of the reference,
    # which copies the columns one kernel offset at a time. Images of width
    # 1 and 2 shift rows by more than their width (pad > W for k >= 5), and
    # one channel of width k lets the view's kernel axes merge.
    rng = np.random.default_rng(2000 + 10 * k + batch)
    shapes = [(2, size, size) for size in range(1, k + 3)]
    shapes += [(2, k + 2, 1), (2, 3, 2), (2, 1, 2), (1, k + 1, k)]
    for channels, height, width in shapes:
        x_val = rng.normal(size=(batch, channels, height, width))
        w_val, b_val = rng.normal(size=(4, channels, k, k)), rng.normal(size=4)
        out_ref = _window_conv(x_val, w_val, b_val, None)
        target = rng.normal(size=out_ref.shape)
        grad_ref = (np.ones(()) * (2.0 / out_ref.size)) * (out_ref - target)  # mse's backward
        _, _, gw_ref, _ = _window_conv(x_val, w_val, b_val, grad_ref, constant_input=True)
        # NCHW, and channel-major memory as the trunk's activations have it
        for x_in in (x_val, x_val.transpose(1, 0, 2, 3).copy().transpose(1, 0, 2, 3)):
            tape = Tape()
            wt = Tensor(w_val)
            out = tape.conv2d(x_in, wt, Tensor(b_val))
            _assert_same_bits(out.data, out_ref)
            tape.backward(tape.mse_loss(out, target))
            _assert_same_bits(wt.grad, gw_ref)


def test_relu_bits_match_select():
    rng = np.random.default_rng(5)
    # odd sizes reach both the vector and the scalar tail loops
    for shape in ((7,), (3, 5, 9, 11), (16, 16, 16, 16)):
        x_val = _with_signed_zeros(rng, rng.normal(size=shape), share=0.3)
        x_val.flat[:2] = (-0.0, 0.0)
        out = Tape().relu(Tensor(x_val))
        _assert_same_bits(out.data, np.where(x_val > 0, x_val, 0.0))
        assert not np.signbit(out.data).any()


def test_conv_shape_errors():
    tape = Tape()
    x = Tensor(np.zeros((1, 2, 4, 4)))
    with pytest.raises(ShapeError):
        tape.conv2d(x, Tensor(np.zeros((1, 3, 3, 3))))
    with pytest.raises(ShapeError):
        tape.conv2d(x, Tensor(np.zeros((1, 2, 2, 2))))  # even kernel: no same-size padding


def test_batchnorm_zero_variance_centres():
    tape = Tape()
    y = Tensor(np.full((2, 3, 2, 2), 7.5))
    out = tape.task_batchnorm(y, BatchNormState.fresh(3), mode="train")
    assert np.abs(out.data).max() < 1e-9


def test_batchnorm_gamma_zero_gives_beta():
    tape = Tape()
    rng = np.random.default_rng(3)
    y = Tensor(rng.normal(size=(2, 2, 3, 3)))
    state = BatchNormState.fresh(2)
    state.gamma.data[...] = 0.0
    state.beta.data[...] = np.array([0.25, -1.5])
    out = tape.task_batchnorm(y, state, mode="train")
    np.testing.assert_allclose(out.data, np.broadcast_to(state.beta.data[None, :, None, None], out.shape))


def test_batchnorm_two_point_batch():
    # channel batch {-1, +1}: mean 0, biased var 1 -> outputs +/- 1/sqrt(1+eps)
    tape = Tape()
    y = Tensor(np.array([-1.0, 1.0]).reshape(2, 1, 1, 1))
    out = tape.task_batchnorm(y, BatchNormState.fresh(1), mode="train")
    expected = 1.0 / math.sqrt(1.0 + 1e-5)
    np.testing.assert_allclose(out.data.reshape(-1), [-expected, expected], rtol=0, atol=1e-15)


def test_batchnorm_train_mode_statistics():
    rng = np.random.default_rng(11)
    y = Tensor(rng.normal(loc=2.0, scale=3.0, size=(4, 3, 5, 5)))
    state = BatchNormState.fresh(3)
    state.gamma.data[...] = np.array([1.5, -0.5, 2.0])
    state.beta.data[...] = np.array([0.3, 1.0, -2.0])
    var = y.data.var(axis=(0, 2, 3))
    out = Tape().task_batchnorm(y, state, mode="train")
    mean = out.data.mean(axis=(0, 2, 3))
    std = out.data.std(axis=(0, 2, 3))
    np.testing.assert_allclose(mean, state.beta.data, atol=1e-6)
    np.testing.assert_allclose(std, np.abs(state.gamma.data) * np.sqrt(var / (var + 1e-5)), atol=1e-6)


def test_batchnorm_running_stats_ema_and_eval():
    rng = np.random.default_rng(5)
    y = rng.normal(size=(2, 2, 4, 4))
    state = BatchNormState.fresh(2)
    Tape().task_batchnorm(Tensor(y), state, mode="train")
    np.testing.assert_allclose(state.running_mean, 0.1 * y.mean(axis=(0, 2, 3)))
    np.testing.assert_allclose(state.running_var, 0.9 + 0.1 * y.var(axis=(0, 2, 3)))
    # eval mode uses the running stats, not the batch's
    z = rng.normal(size=(1, 2, 2, 2))
    out = Tape().task_batchnorm(Tensor(z), state, mode="eval")
    expected = (z - state.running_mean[None, :, None, None]) / np.sqrt(
        state.running_var[None, :, None, None] + 1e-5)
    np.testing.assert_allclose(out.data, expected)


def test_batchnorm_errors():
    tape = Tape()
    with pytest.raises(ShapeError):
        tape.task_batchnorm(Tensor(np.zeros((1, 1, 1, 1))), BatchNormState.fresh(1))


def test_mse_examples():
    tape = Tape()
    y = Tensor(np.array([1.0, -2.0, 0.5]))
    assert tape.mse_loss(y, Tensor(y.data.copy())).item() == 0.0
    assert tape.mse_loss(Tensor(np.array([0.0])), Tensor(np.array([2.0]))).item() == 4.0


def test_mse_plain_target_is_a_constant():
    rng = np.random.default_rng(4)
    x, target = rng.normal(size=(2, 3, 4, 4)), rng.normal(size=(2, 1, 4, 4))
    w, p = rng.normal(size=(1, 3, 3, 3)), rng.normal(size=target.shape)
    grads = []
    for make_target in (Tensor, np.asarray):
        tape, wt, pt = Tape(), Tensor(w), Tensor(p)
        tgt = make_target(target)
        tape.backward(tape.mse_loss(tape.relu(tape.conv2d(x, wt)), tgt))
        tape.backward(tape.mse_loss(pt, tgt))
        grads.append((pt.grad.tobytes(), wt.grad.tobytes()))
        if isinstance(tgt, Tensor):
            assert tgt.grad.any()
    assert grads[0] == grads[1]


def test_op_outputs_hold_gradients_only_inside_backward():
    tape = Tape()
    theta = Tensor(np.array([1.5, -2.0]))
    hidden = tape.relu(theta)
    loss = tape.mse_loss(hidden, np.zeros(2))
    unused = tape.scale(theta, 3.0)  # on the tape but not feeding loss
    assert hidden.grad is None and loss.grad is None and unused.grad is None
    assert theta.grad.tobytes() == np.zeros(2).tobytes()
    tape.backward(loss)
    np.testing.assert_array_equal(theta.grad, [1.5, 0.0])
    assert hidden.grad is None and loss.grad is None and unused.grad is None
    tape.backward(loss)  # one forward serves several backward passes
    np.testing.assert_array_equal(theta.grad, [3.0, 0.0])
    other = Tape()  # an output of another tape is a leaf here
    other.backward(other.mse_loss(hidden, np.zeros(2)))
    np.testing.assert_array_equal(hidden.grad, [1.5, 0.0])
    # A leaf's gradient is summed from +0.0, so the -0.0 that relu's rule
    # gives a non-positive input under a negative gradient lands as +0.0.
    late = tape.relu(theta)
    assert late.grad is None
    other.backward(other.mse_loss(other.relu(late), np.array([2.0, 1.0])))
    assert late.grad.tobytes() == np.array([-0.5, 0.0]).tobytes()


def test_cross_entropy_uniform_logits():
    tape = Tape()
    for c in (2, 5, 7):
        logits = Tensor(np.zeros((3, c, 2, 2)))
        labels = np.random.default_rng(c).integers(0, c, size=(3, 2, 2))
        loss = tape.cross_entropy_loss(logits, labels)
        assert abs(loss.item() - math.log(c)) < 1e-12


def test_cross_entropy_label_error():
    tape = Tape()
    with pytest.raises(LabelError):
        tape.cross_entropy_loss(Tensor(np.zeros((1, 3))), np.array([5]))


def test_backward_square():
    tape = Tape()
    theta = Tensor(3.0)
    loss = tape.mse_loss(theta, np.zeros(()))
    tape.backward(loss)
    assert theta.grad == 6.0


def test_backward_chain_rule_by_hand():
    # (2*theta + 1)^2 at theta=1 -> 2*(2+1)*2 = 12
    tape = Tape()
    theta = Tensor(1.0)
    loss = tape.mse_loss(tape.scale(theta, 2.0), np.full((), -1.0))
    tape.backward(loss)
    assert theta.grad == 12.0


def test_backward_disconnected_parameter():
    tape = Tape()
    theta = Tensor(2.0)
    other = Tensor(5.0)
    loss = tape.mse_loss(theta, np.zeros(()))
    tape.mse_loss(other, np.zeros(()))  # on the tape but not feeding loss
    tape.backward(loss)
    assert other.grad == 0.0


def test_backward_accumulates_until_zeroed():
    tape = Tape()
    theta = Tensor(3.0)
    loss = tape.mse_loss(theta, np.zeros(()))
    tape.backward(loss)
    tape.backward(loss)
    assert theta.grad == 12.0
    theta.grad[...] = 0.0
    tape.backward(loss)
    assert theta.grad == 6.0


def test_backward_contract_errors():
    tape = Tape()
    v = Tensor(np.zeros(3))
    with pytest.raises(TapeError):
        tape.backward(v)  # not scalar
    loss = Tape().scale(Tensor(1.0), 1.0)
    with pytest.raises(TapeError):
        tape.backward(loss)  # produced on a different tape


def test_non_recording_tape_frees_each_op_with_its_inputs():
    # a forward-only tape keeps no node, so an intermediate output lives
    # only as long as the caller holds it; a recording tape keeps it
    for record in (False, True):
        tape = Tape(record=record)
        hidden = tape.relu(Tensor(np.arange(-2.0, 2.0)))
        alive = weakref.ref(hidden.data)
        loss = tape.mse_loss(tape.relu(hidden), np.zeros(4))
        del hidden  # no collector run: the last reference frees it at once
        assert (alive() is not None) == record
        assert loss.item() == 0.25


def test_non_recording_tape_checks_outputs_and_refuses_backward():
    tape = Tape(record=False)
    loss = tape.mse_loss(Tensor(np.ones(3)), np.zeros(3))
    with pytest.raises(TapeError, match="record=False"):
        tape.backward(loss)
    with pytest.raises(NumericError), np.errstate(over="ignore"):
        tape.scale(Tensor(1e300), 1e10)


def test_nonfinite_forward_raises():
    tape = Tape()
    with pytest.raises(NumericError), np.errstate(over="ignore"):
        tape.scale(Tensor(1e300), 1e10)


@pytest.mark.parametrize("through_intermediate", [False, True])
def test_nonfinite_backward_raises(through_intermediate):
    # every forward value is finite, but d(loss)/d(b) = 1e10 * 1e300 overflows;
    # through relu, the overflow first lands in relu's output gradient
    tape = Tape()
    b = Tensor(1e-300)
    h = tape.relu(b) if through_intermediate else b
    loss = tape.scale(tape.scale(h, 1e300), 1e10)
    op = "relu" if through_intermediate else "scale"
    with pytest.raises(NumericError, match=rf"backward\({op}\)"), np.errstate(over="ignore"):
        tape.backward(loss)


_FINITE_CHECK_LAYOUTS = {
    "C order": lambda v: v,
    "channel-major view": lambda v: v.transpose(1, 0, 2, 3).copy().transpose(1, 0, 2, 3),
    "strided slice": lambda v: v[:, 1::2, ::-2],
}


@pytest.mark.parametrize("layout", list(_FINITE_CHECK_LAYOUTS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_finite_check_finds_every_nonfinite_value(layout, bad):
    for where in ("first", "middle", "last"):
        arr = _FINITE_CHECK_LAYOUTS[layout](np.random.default_rng(23).normal(size=(3, 4, 5, 6)))
        _assert_finite("op", arr)
        index = {"first": 0, "middle": arr.size // 2, "last": arr.size - 1}[where]
        arr[np.unravel_index(index, arr.shape)] = bad
        with pytest.raises(NumericError, match="op: produced non-finite values"):
            _assert_finite("op", arr)


def test_finite_check_decides_when_squares_overflow():
    # the sum of squares overflows, so the elementwise check decides
    for arr in (np.full((2, 3), 1e200), np.array(-1e200), np.array([0.5, 1e155, -2.0])):
        with pytest.warns(RuntimeWarning, match="overflow"):
            _assert_finite("op", arr)
    with pytest.raises(NumericError), np.errstate(over="ignore"):
        _assert_finite("op", np.array([1e200, 1.0, np.inf]))


def test_suite_filters_leave_the_overflow_warning_to_the_finite_check():
    # pyproject.toml turns a RuntimeWarning into an error in every module but
    # autodiff; under those filters, not pytest.warns' own, the elementwise
    # check still decides (the warnings are recorded, not shown)
    with warnings.catch_warnings(record=True):
        _assert_finite("op", np.array([0.5, 1e155, -2.0]))
        out = Tape().scale(Tensor(np.array([1e155, 1.0])), 2.0)
    assert out.data.tolist() == [2e155, 2.0]


def test_linearity_of_backward():
    rng = np.random.default_rng(17)
    x_val = rng.normal(size=(2, 2, 4, 4))
    w_val = rng.normal(size=(3, 2, 3, 3)) * 0.4
    t1 = rng.normal(size=(2, 3, 4, 4))
    t2 = rng.normal(size=(2, 3, 4, 4))
    a, b = 0.7, -1.3

    def grads(coeff1, coeff2):
        tape = Tape()
        x, w = Tensor(x_val), Tensor(w_val)
        out = tape.conv2d(x, w)
        l1 = tape.mse_loss(out, Tensor(t1))
        l2 = tape.mse_loss(out, Tensor(t2))
        tape.backward(tape.scale(l1, coeff1))
        tape.backward(tape.scale(l2, coeff2))
        return w.grad.copy()

    g_combined = grads(a, b)
    g1 = grads(1.0, 0.0)
    g2 = grads(0.0, 1.0)
    np.testing.assert_allclose(g_combined, a * g1 + b * g2, atol=1e-12)


def test_determinism_bitwise():
    def run():
        rng = np.random.default_rng(99)
        tape = Tape()
        x = Tensor(rng.normal(size=(2, 3, 6, 6)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        state = BatchNormState.fresh(4)
        h = tape.conv2d(x, w)
        h = tape.task_batchnorm(h, state, mode="train")
        h = tape.relu(h)
        loss = tape.mse_loss(h, Tensor(rng.normal(size=h.shape)))
        tape.backward(loss)
        return loss.item(), w.grad.copy(), state.gamma.grad.copy()

    la, wa, ga = run()
    lb, wb, gb = run()
    assert la == lb
    assert np.array_equal(wa, wb)
    assert np.array_equal(ga, gb)


def _model_ops_pass(n, h, w):
    """conv2d, train- and eval-mode batch norm, relu and both losses on a
    channel-major input; every op output, input and parameter gradient and
    running statistic, in order."""
    rng = np.random.default_rng(n * h * w)
    c, classes = 4, 3
    x_val = rng.normal(size=(c, n, h, w)).transpose(1, 0, 2, 3)
    w_trunk = rng.normal(size=(c, c, 3, 3))
    heads = {"cross_entropy": (rng.normal(size=(classes, c, 1, 1)), rng.normal(size=classes),
                               rng.integers(0, classes, size=(n, h, w))),
             "mse": (rng.normal(size=(1, c, 1, 1)), rng.normal(size=1),
                     rng.normal(size=(n, 1, h, w)))}
    running = (rng.normal(size=c), rng.random(c) + 0.5)
    arrays = []
    for mode, kind in (("train", "cross_entropy"), ("eval", "mse")):
        w_head, b_head, target = heads[kind]
        state = BatchNormState.fresh(c)
        if mode == "eval":
            state.running_mean[...], state.running_var[...] = running
        tape = Tape()
        x, wt, wh, bh = Tensor(x_val), Tensor(w_trunk), Tensor(w_head), Tensor(b_head)
        assert x.data.transpose(1, 0, 2, 3).flags.c_contiguous
        outs = [tape.conv2d(x, wt)]
        outs.append(tape.task_batchnorm(outs[-1], state, mode=mode))
        outs.append(tape.relu(outs[-1]))
        outs.append(tape.conv2d(outs[-1], wh, bh))
        outs.append(tape.compute_loss(outs[-1], target, kind))
        tape.backward(outs[-1])
        arrays += [t.data for t in outs]
        arrays += [t.grad for t in (x, wt, wh, bh, state.gamma, state.beta)]
        arrays += [state.running_mean, state.running_var]
    return arrays


@pytest.mark.parametrize("n, h, w", [(16, 16, 16), (8, 12, 12)])
def test_ops_bits_do_not_depend_on_the_ufunc_buffer(n, h, w):
    # Model passes run with row-sized ufunc buffers (autodiff.ROW_BUFSIZE).
    # That is only safe while the ops' bits do not depend on the buffer
    # size: channel rows of 4,096 and 1,152 elements, both shorter than
    # numpy's default 8192, the second not a multiple of 1024.
    results = []
    for size in (8192, 1024):
        saved = np.setbufsize(size)
        try:
            results.append(_model_ops_pass(n, h, w))
        finally:
            np.setbufsize(saved)
    default, row_sized = results
    assert len(default) == len(row_sized) == 26
    for a, b in zip(default, row_sized):
        _assert_same_bits(b, a)


# ---------------------------------------------------------------------------
# finite-difference spot checks (the full randomized sweep lives in the
# acceptance suite; these cover each operator once per test run)
# ---------------------------------------------------------------------------

def _fd_check(build_loss, params, tol=1e-4):
    tape = Tape()
    loss = build_loss(tape)
    tape.backward(loss)
    for p in params:
        analytic = p.grad.copy()
        numeric = central_difference(lambda: build_loss(Tape()).item(), p.data)
        assert relative_error(analytic, numeric) < tol


def test_gradcheck_conv_and_losses():
    rng = np.random.default_rng(23)
    x = Tensor(rng.normal(size=(2, 2, 5, 5)))
    w = Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.5)
    b = Tensor(rng.normal(size=3) * 0.1)
    target = rng.normal(size=(2, 3, 5, 5))

    def build(tape):
        return tape.mse_loss(tape.conv2d(x, w, b), Tensor(target))

    _fd_check(build, [x, w, b])


def test_gradcheck_batchnorm_train():
    rng = np.random.default_rng(29)
    y = Tensor(rng.normal(size=(3, 2, 4, 4)))
    state = BatchNormState.fresh(2)
    state.gamma.data[...] = rng.normal(size=2)
    state.beta.data[...] = rng.normal(size=2)
    labels = rng.integers(0, 2, size=(3, 4, 4))

    def build(tape):
        rm, rv = state.running_mean.copy(), state.running_var.copy()
        out = tape.task_batchnorm(y, state, mode="train")
        loss = tape.cross_entropy_loss(out, labels)
        state.running_mean[...] = rm  # keep state fixed across FD evaluations
        state.running_var[...] = rv
        return loss

    _fd_check(build, [y, state.gamma, state.beta])


def test_gradcheck_relu_and_scale():
    rng = np.random.default_rng(31)
    x = Tensor(rng.normal(size=(4, 5)) + 0.5)
    target = rng.normal(size=(4, 5))

    def build(tape):
        return tape.mse_loss(tape.scale(tape.relu(x), -1.7), Tensor(target))

    _fd_check(build, [x])


def _two_consumer_loss(tape, x, w, b):
    # the conv output feeds both relu and scale, so its gradient is adopted
    # from one rule and the other is added into it
    h = tape.conv2d(x, w, b)
    return tape.mse_loss(tape.relu(h), tape.scale(h, 0.3))


def _two_consumer_params(seed):
    rng = np.random.default_rng(seed)
    return (Tensor(rng.normal(size=(2, 2, 4, 4))), Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.5),
            Tensor(rng.normal(size=3) * 0.1))


def test_gradcheck_output_with_two_consumers():
    params = _two_consumer_params(37)
    _fd_check(lambda tape: _two_consumer_loss(tape, *params), params)


def test_second_backward_on_a_tape_doubles_the_first():
    params = _two_consumer_params(41)
    tape = Tape()
    loss = _two_consumer_loss(tape, *params)
    tape.backward(loss)
    first = [p.grad.copy() for p in params]
    tape.backward(loss)
    for p, g in zip(params, first):
        _assert_same_bits(p.grad, 2.0 * g)


def test_backward_resets_every_output_up_to_the_loss():
    p = Tensor(np.array([1.0, 2.0]))
    tape = Tape()
    unused = tape.scale(p, 3.0)
    loss = tape.mse_loss(tape.scale(p, 2.0), np.zeros(2))
    other = Tape()
    other.backward(other.mse_loss(unused, np.zeros(2)))  # unused is a leaf there
    assert unused.grad is not None
    p.grad[...] = 0.0
    tape.backward(loss)
    # the loss does not depend on unused, but the sweep drops its gradient
    assert unused.grad is None
    _assert_same_bits(p.grad, np.array([4.0, 8.0]))


def test_conv_backward_peak_stays_below_one_stacked_offset_product():
    # the wide trunk's 16->16 3x3 conv: one (c_in*k*k, N*Hp*Wp) array would
    # be 5.97 MB, and no temporary of the backward may come near it
    rng = np.random.default_rng(43)
    n, c, h, k = 16, 16, 16, 3
    x = Tensor(rng.normal(size=(n, c, h, h)))
    w = Tensor(rng.normal(size=(c, c, k, k)))
    tape = Tape()
    loss = tape.mse_loss(tape.conv2d(x, w), np.zeros((n, c, h, h)))
    stacked = c * k * k * n * (h + 2) * (h + 2) * 8
    tracemalloc.start()
    try:
        tape.backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stacked, f"backward peak {peak} B >= {stacked} B"


def _count_blocks(monkeypatch):
    # the image count of every column matrix conv2d builds
    blocks = []
    same_conv = autodiff._same_conv

    def counting(xc, w2, k):
        blocks.append(xc.shape[1])
        return same_conv(xc, w2, k)

    monkeypatch.setattr(autodiff, "_same_conv", counting)
    return blocks


def test_forward_only_conv_keeps_the_recording_bits_in_blocks(monkeypatch):
    # the wide trunk's 16->16 conv in blocks of whole 16x16 images: each
    # block's pixel count is a multiple of 8, so the BLAS rounds its
    # columns as it rounds the whole batch's
    rng = np.random.default_rng(47)
    x = rng.normal(size=(16, 16, 16, 16)).transpose(1, 0, 2, 3).copy().transpose(1, 0, 2, 3)
    w, b = Tensor(rng.normal(size=(16, 16, 3, 3))), Tensor(rng.normal(size=16))
    recorded = Tape().conv2d(x, w, b).data
    blocks = _count_blocks(monkeypatch)
    _assert_same_bits(Tape(record=False).conv2d(x, w, b).data, recorded)
    assert len(blocks) > 1 and sum(blocks) == 16


def test_blocked_input_gradient_matches_direct_reference(monkeypatch):
    # 13x13 images, and a batch whose last block is short
    rng = np.random.default_rng(53)
    x_val = rng.normal(size=(5, 2, 13, 13))
    w_val, b_val = rng.normal(size=(16, 2, 3, 3)), rng.normal(size=16)
    out_ref, _, _ = _reference_conv(x_val, w_val, b_val, None)
    target = rng.normal(size=out_ref.shape)
    grad_out = 2.0 * (out_ref - target) / out_ref.size  # d mse / d out
    _, gx_ref, _ = _reference_conv(x_val, w_val, b_val, grad_out)
    x = Tensor(x_val)
    tape = Tape()
    out = tape.conv2d(x, Tensor(w_val), Tensor(b_val))
    blocks = _count_blocks(monkeypatch)
    tape.backward(tape.mse_loss(out, target))
    assert len(blocks) > 1 and blocks[-1] < blocks[0] and sum(blocks) == 5
    np.testing.assert_allclose(x.grad, gx_ref, rtol=1e-12, atol=1e-12 * np.abs(gx_ref).max())


@pytest.mark.parametrize("c_in, c_out", [(2, 16), (16, 2), (16, 16)],
                         ids=["widening", "narrowing", "square"])
def test_blocked_weight_gradient_matches_direct_reference(monkeypatch, c_in, c_out):
    # an inner conv's weight gradient, summed over blocks of its output
    # gradient's columns: batch 5 of 13x13 images in blocks of 2, 2 and 1
    n, h, k = 5, 13, 3
    rng = np.random.default_rng(61 + c_in + c_out)
    x_val = rng.normal(size=(n, c_in, h, h))
    w_val, b_val = rng.normal(size=(c_out, c_in, k, k)), rng.normal(size=c_out)
    out_ref, _, _ = _reference_conv(x_val, w_val, b_val, None)
    target = rng.normal(size=out_ref.shape)
    grad_out = 2.0 * (out_ref - target) / out_ref.size  # d mse / d out
    _, gx_ref, gw_ref = _reference_conv(x_val, w_val, b_val, grad_out)
    # two images of output-gradient columns per block
    monkeypatch.setattr(autodiff, "BLOCK_BYTES", 2 * c_out * k * k * h * h * 8)
    x, wt = Tensor(x_val), Tensor(w_val)
    tape = Tape()
    out = tape.conv2d(x, wt, Tensor(b_val))
    blocks = _count_blocks(monkeypatch)
    tape.backward(tape.mse_loss(out, target))
    assert blocks == [2, 2, 1]
    for actual, expected in ((wt.grad, gw_ref), (x.grad, gx_ref)):
        np.testing.assert_allclose(actual, expected, rtol=1e-12,
                                   atol=1e-12 * np.abs(expected).max())


def test_every_default_conv_runs_in_one_block(monkeypatch):
    config = ExperimentConfig.from_dict({})
    model = build_model(config.model, seed=1)
    dataset = training_dataset(config, 1)
    blocks = _count_blocks(monkeypatch)
    for task in config.model.task_ids:
        per_task_gradients(model, dataset.batch(0), task)
    evaluate_model(model, dataset, 1)
    assert blocks and set(blocks) == {config.data.batch_size}


def test_forward_only_conv_peak_stays_below_one_column_matrix():
    # the wide trunk's 16->16 3x3 conv: its whole-batch column matrix is
    # 4.72 MB, and a tape that records nothing needs none
    rng = np.random.default_rng(59)
    n, c, h, k = 16, 16, 16, 3
    x = rng.normal(size=(n, c, h, h))
    w = Tensor(rng.normal(size=(c, c, k, k)))
    tape = Tape(record=False)
    columns = c * k * k * n * h * h * 8
    tracemalloc.start()
    try:
        tape.conv2d(x, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < columns, f"forward peak {peak} B >= {columns} B"


def test_recording_conv_peak_stays_below_one_column_matrix():
    # the wide trunk's 16->16 3x3 conv over a channel-major activation: its
    # whole-batch column matrix is 4.72 MB, and neither the recording
    # forward nor the backward, weight gradient included, keeps one
    rng = np.random.default_rng(67)
    n, c, h, k = 16, 16, 16, 3
    x = Tensor(rng.normal(size=(c, n, h, h)).transpose(1, 0, 2, 3))
    w = Tensor(rng.normal(size=(c, c, k, k)))
    target = np.zeros((n, c, h, h))
    columns = c * k * k * n * h * h * 8
    tracemalloc.start()
    try:
        tape = Tape()
        tape.backward(tape.mse_loss(tape.conv2d(x, w), target))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < columns, f"forward and backward peak {peak} B >= {columns} B"


# Runs in a fresh interpreter, so glibc starts from its default thresholds
# whatever ran earlier in this process.
_STEADY_STATE_FAULTS = """
import resource
from mtlopt.config import ExperimentConfig
from mtlopt.network import build_model
from mtlopt.optimizers import MtlOptimizer, OptimizerConfig
from mtlopt.runner import training_dataset

conv = lambda c_in, c_out, k: {"in_channels": c_in, "out_channels": c_out, "kernel_size": k}
config = ExperimentConfig.from_dict({
    "data": {"batch_size": 16, "height": 16, "width": 16},
    "model": {"trunk": [conv(3, 16, 3), conv(16, 16, 3)],
              "heads": {"1": [conv(16, 8, 1), conv(8, 4, 1)],
                        "2": [conv(16, 8, 1), conv(8, 1, 1)]},
              "tasks": [{"id": 1, "loss": "cross_entropy"}, {"id": 2, "loss": "mse"}]}})
dataset = training_dataset(config, 1)
optimizer = MtlOptimizer(build_model(config.model, seed=1), OptimizerConfig(method="gd", lr=1e-3))
batches = [dataset.batch(i) for i in range(7)]
for batch in batches[:2]:
    optimizer.step(batch, {1: 1.0, 2: 1.0})
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for batch in batches[2:]:
    optimizer.step(batch, {1: 1.0, 2: 1.0})
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator thresholds are glibc mallopt settings")
def test_steady_state_training_does_not_page_fault():
    proc = subprocess.run([sys.executable, "-c", _STEADY_STATE_FAULTS], capture_output=True,
                          text=True, check=True, env=child_environment())
    faults = int(proc.stdout)
    assert faults < 50, f"{faults} minor page faults in 5 wide-trunk gd steps"
