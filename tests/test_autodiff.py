import math

import numpy as np
import pytest

from mtlopt.autodiff import BatchNormState, Tape, Tensor
from mtlopt.errors import (
    ConfigError,
    LabelError,
    NumericError,
    ShapeError,
    TapeError,
    TaskLookupError,
)
from mtlopt.gradcheck import central_difference, relative_error


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
    out = tape.conv2d(x, w, padding=1)
    np.testing.assert_array_equal(out.data, np.zeros((2, 4, 5, 5)))


def test_conv_hand_cross_correlation():
    # [[1,2],[3,4]] against an all-ones 2x2 kernel collapses to 1+2+3+4
    tape = Tape()
    x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
    w = Tensor(np.ones((1, 1, 2, 2)))
    out = tape.conv2d(x, w)
    assert out.shape == (1, 1, 1, 1)
    assert out.item() == 10.0


def _reference_conv(x, w, b, stride, padding, grad_out):
    """Direct cross-correlation and its gradients, one output pixel at a time."""
    n, _, h, wd = x.shape
    c_out, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    h_out = (h + 2 * padding - k) // stride + 1
    w_out = (wd + 2 * padding - k) // stride + 1
    out = np.zeros((n, c_out, h_out, w_out))
    grad_xp = np.zeros_like(xp)
    grad_w = np.zeros_like(w)
    for m in range(n):
        for o in range(c_out):
            for r in range(h_out):
                for c in range(w_out):
                    rows = slice(r * stride, r * stride + k)
                    cols = slice(c * stride, c * stride + k)
                    out[m, o, r, c] = np.sum(xp[m, :, rows, cols] * w[o]) + b[o]
                    if grad_out is not None:
                        g = grad_out[m, o, r, c]
                        grad_w[o] += g * xp[m, :, rows, cols]
                        grad_xp[m, :, rows, cols] += g * w[o]
    grad_x = grad_xp[:, :, padding:padding + h, padding:padding + wd]
    return out, grad_x, grad_w


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1])
def test_conv_matches_direct_reference(k, stride, padding):
    rng = np.random.default_rng(100 * k + 10 * stride + padding)
    h, w = k + 3, k + 4
    while (h + 2 * padding - k) % stride:
        h += 1
    while (w + 2 * padding - k) % stride or w == h:
        w += 1
    x_val = rng.normal(size=(2, 3, h, w))
    w_val = rng.normal(size=(4, 3, k, k))
    b_val = rng.normal(size=4)
    out_ref, _, _ = _reference_conv(x_val, w_val, b_val, stride, padding, None)
    target = rng.normal(size=out_ref.shape)
    grad_out = 2.0 * (out_ref - target) / out_ref.size  # d mse / d out
    _, gx_ref, gw_ref = _reference_conv(x_val, w_val, b_val, stride, padding, grad_out)
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
        out = tape.conv2d(x, wt, bt, stride=stride, padding=padding)
        tape.backward(tape.mse_loss(out, Tensor(target)))
        close(out.data, out_ref)
        close(wt.grad, gw_ref)
        close(bt.grad, gb_ref)
        if not constant_input:
            close(x.grad, gx_ref)


def test_conv_shape_errors():
    tape = Tape()
    x = Tensor(np.zeros((1, 2, 4, 4)))
    with pytest.raises(ShapeError):
        tape.conv2d(x, Tensor(np.zeros((1, 3, 3, 3))))
    with pytest.raises(ConfigError):
        tape.conv2d(x, Tensor(np.zeros((1, 2, 3, 3))), stride=2)  # (4-3)/2 not integer


def test_batchnorm_zero_variance_centres():
    tape = Tape()
    y = Tensor(np.full((2, 3, 2, 2), 7.5))
    states = {1: BatchNormState.fresh(3)}
    out = tape.task_batchnorm(y, states, task=1, mode="train")
    assert np.abs(out.data).max() < 1e-9


def test_batchnorm_gamma_zero_gives_beta():
    tape = Tape()
    rng = np.random.default_rng(3)
    y = Tensor(rng.normal(size=(2, 2, 3, 3)))
    state = BatchNormState.fresh(2)
    state.gamma.data[...] = 0.0
    state.beta.data[...] = np.array([0.25, -1.5])
    out = tape.task_batchnorm(y, {1: state}, task=1, mode="train")
    np.testing.assert_allclose(out.data, np.broadcast_to(state.beta.data[None, :, None, None], out.shape))


def test_batchnorm_two_point_batch():
    # channel batch {-1, +1}: mean 0, biased var 1 -> outputs +/- 1/sqrt(1+eps)
    tape = Tape()
    y = Tensor(np.array([-1.0, 1.0]).reshape(2, 1, 1, 1))
    out = tape.task_batchnorm(y, {1: BatchNormState.fresh(1)}, task=1, mode="train", eps=1e-5)
    expected = 1.0 / math.sqrt(1.0 + 1e-5)
    np.testing.assert_allclose(out.data.reshape(-1), [-expected, expected], rtol=0, atol=1e-15)


def test_batchnorm_train_mode_statistics():
    rng = np.random.default_rng(11)
    y = Tensor(rng.normal(loc=2.0, scale=3.0, size=(4, 3, 5, 5)))
    state = BatchNormState.fresh(3)
    state.gamma.data[...] = np.array([1.5, -0.5, 2.0])
    state.beta.data[...] = np.array([0.3, 1.0, -2.0])
    var = y.data.var(axis=(0, 2, 3))
    out = Tape().task_batchnorm(y, {1: state}, task=1, mode="train")
    mean = out.data.mean(axis=(0, 2, 3))
    std = out.data.std(axis=(0, 2, 3))
    np.testing.assert_allclose(mean, state.beta.data, atol=1e-6)
    np.testing.assert_allclose(std, np.abs(state.gamma.data) * np.sqrt(var / (var + 1e-5)), atol=1e-6)


def test_batchnorm_running_stats_ema_and_eval():
    rng = np.random.default_rng(5)
    y = rng.normal(size=(2, 2, 4, 4))
    state = BatchNormState.fresh(2)
    Tape().task_batchnorm(Tensor(y), {1: state}, task=1, mode="train", momentum=0.1)
    np.testing.assert_allclose(state.running_mean, 0.1 * y.mean(axis=(0, 2, 3)))
    np.testing.assert_allclose(state.running_var, 0.9 + 0.1 * y.var(axis=(0, 2, 3)))
    # eval mode uses the running stats, not the batch's
    z = rng.normal(size=(1, 2, 2, 2))
    out = Tape().task_batchnorm(Tensor(z), {1: state}, task=1, mode="eval")
    expected = (z - state.running_mean[None, :, None, None]) / np.sqrt(
        state.running_var[None, :, None, None] + 1e-5)
    np.testing.assert_allclose(out.data, expected)


def test_batchnorm_errors():
    tape = Tape()
    y = Tensor(np.zeros((2, 1, 2, 2)))
    with pytest.raises(TaskLookupError):
        tape.task_batchnorm(y, {1: BatchNormState.fresh(1)}, task=9)
    with pytest.raises(ShapeError):
        tape.task_batchnorm(Tensor(np.zeros((1, 1, 1, 1))), {1: BatchNormState.fresh(1)}, task=1)


def test_mse_examples():
    tape = Tape()
    y = Tensor(np.array([1.0, -2.0, 0.5]))
    assert tape.mse_loss(y, Tensor(y.data.copy())).item() == 0.0
    assert tape.mse_loss(Tensor(np.array([0.0])), Tensor(np.array([2.0]))).item() == 4.0


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
    loss = tape.mul(theta, theta)
    tape.backward(loss)
    assert theta.grad == 6.0


def test_backward_chain_rule_by_hand():
    # (2*theta + 1)^2 at theta=1 -> 2*(2+1)*2 = 12
    tape = Tape()
    theta = Tensor(1.0)
    t = tape.add_scalar(tape.scale(theta, 2.0), 1.0)
    loss = tape.mul(t, t)
    tape.backward(loss)
    assert theta.grad == 12.0


def test_backward_disconnected_parameter():
    tape = Tape()
    theta = Tensor(2.0)
    other = Tensor(5.0)
    loss = tape.mul(theta, theta)
    tape.mul(other, other)  # on the tape but not feeding loss
    tape.backward(loss)
    assert other.grad == 0.0


def test_backward_accumulates_until_zeroed():
    tape = Tape()
    theta = Tensor(3.0)
    loss = tape.mul(theta, theta)
    tape.backward(loss)
    tape.backward(loss)
    assert theta.grad == 12.0
    theta.zero_grad()
    tape.backward(loss)
    assert theta.grad == 6.0


def test_backward_contract_errors():
    tape = Tape()
    v = Tensor(np.zeros(3))
    with pytest.raises(TapeError):
        tape.backward(v)  # not scalar
    loss = Tape().mul(Tensor(1.0), Tensor(1.0))
    with pytest.raises(TapeError):
        tape.backward(loss)  # produced on a different tape


def test_nonfinite_forward_raises():
    tape = Tape()
    with pytest.raises(NumericError):
        tape.exp(Tensor(1e9))


@pytest.mark.parametrize("through_intermediate", [False, True])
def test_nonfinite_backward_raises(through_intermediate):
    # every forward value is finite, but d(loss)/d(b) = 1e10 * 1e300 overflows
    tape = Tape()
    a, b = Tensor(1e300), Tensor(1e-300)
    h = tape.add_scalar(b, 0.0) if through_intermediate else b
    loss = tape.scale(tape.mul(a, h), 1e10)
    op = "add_scalar" if through_intermediate else "mul"
    with pytest.raises(NumericError, match=rf"backward\({op}\)"), np.errstate(over="ignore"):
        tape.backward(loss)


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
        out = tape.conv2d(x, w, padding=1)
        l1 = tape.mse_loss(out, Tensor(t1))
        l2 = tape.mse_loss(out, Tensor(t2))
        total = tape.add(tape.scale(l1, coeff1), tape.scale(l2, coeff2))
        tape.backward(total)
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
        h = tape.conv2d(x, w, padding=1)
        h = tape.task_batchnorm(h, {1: state}, task=1, mode="train")
        h = tape.relu(h)
        loss = tape.mse_loss(h, Tensor(rng.normal(size=h.shape)))
        tape.backward(loss)
        return loss.item(), w.grad.copy(), state.gamma.grad.copy()

    la, wa, ga = run()
    lb, wb, gb = run()
    assert la == lb
    assert np.array_equal(wa, wb)
    assert np.array_equal(ga, gb)


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
    target = rng.normal(size=(2, 3, 3, 3))

    def build(tape):
        return tape.mse_loss(tape.conv2d(x, w, b, stride=2, padding=1), Tensor(target))

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
        out = tape.task_batchnorm(y, {1: state}, task=1, mode="train")
        loss = tape.cross_entropy_loss(out, labels)
        state.running_mean[...] = rm  # keep state fixed across FD evaluations
        state.running_var[...] = rv
        return loss

    _fd_check(build, [y, state.gamma, state.beta])


def test_gradcheck_linear_relu():
    rng = np.random.default_rng(31)
    x = Tensor(rng.normal(size=(4, 5)) + 0.5)
    w = Tensor(rng.normal(size=(3, 5)))
    b = Tensor(rng.normal(size=3))
    target = rng.normal(size=(4, 3))

    def build(tape):
        return tape.mse_loss(tape.relu(tape.linear(x, w, b)), Tensor(target))

    _fd_check(build, [x, w, b])
