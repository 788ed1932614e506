import math

import numpy as np
import pytest

from mtlopt.errors import ConfigError
from mtlopt.gradcheck import central_difference, relative_error
from mtlopt.loss_scaling import DwaState, UncertaintyState, dwa_weights, static_weights


def test_equal_weights():
    np.testing.assert_array_equal(static_weights("equal", 4), np.full(4, 0.25))


def test_manual_ratios_verbatim():
    ratios = (1.0, 1.0, 10.0, 50.0)
    np.testing.assert_array_equal(static_weights("manual", 4, ratios), np.array(ratios))


def test_manual_all_zero_is_legal():
    np.testing.assert_array_equal(static_weights("manual", 2, (0.0, 0.0)), np.zeros(2))


def test_manual_missing_ratios():
    with pytest.raises(ConfigError):
        static_weights("manual", 3)


def test_uncertainty_sigma_one_identities():
    # sigma = 1 (rho = 0): regression contributes L/2, classification L
    state = UncertaintyState.create({1: "regression", 2: "classification"})
    assert state.loss_weight(1) == 0.5 and state.loss_weight(2) == 1.0
    # the rho/2 term alone: at L = 0 the gradient is 1/2
    assert state.rho_gradient({1: 0.0, 2: 0.0}) == {1: 0.5, 2: 0.5}


def _fd_rho_gradient(state, task, loss_value):
    """Central difference of the objective c*L*exp(-rho) + rho/2 (Kendall et al. 2018)."""
    c = 0.5 if state.kinds[task] == "regression" else 1.0
    rho = state.rho[task]

    def value():
        return c * loss_value * math.exp(-float(rho)) + float(rho) / 2

    return central_difference(value, rho)


def test_uncertainty_gradient_matches_finite_difference():
    state = UncertaintyState.create({1: "regression"})
    state.rho[1][...] = 0.3
    analytic = np.array(state.rho_gradient({1: 2.0})[1])
    assert relative_error(analytic, _fd_rho_gradient(state, 1, 2.0)) < 1e-6


def test_uncertainty_gradient_random_draws():
    rng = np.random.default_rng(7)
    for _ in range(30):
        kind = rng.choice(["regression", "classification"])
        state = UncertaintyState.create({1: kind})
        state.rho[1][...] = rng.normal()
        loss_value = float(rng.uniform(0.01, 10))
        analytic = np.array(state.rho_gradient({1: loss_value})[1])
        assert relative_error(analytic, _fd_rho_gradient(state, 1, loss_value)) < 1e-6


def test_uncertainty_sgd_update_steps_along_rho_gradient():
    state = UncertaintyState.create({1: "regression", 2: "classification"})
    state.rho[2][...] = -0.4
    losses = {1: 3.0, 2: 0.25}
    grads = state.rho_gradient(losses)
    state.sgd_update(losses, lr=0.1)
    assert float(state.rho[1]) == 0.0 - 0.1 * grads[1]
    assert float(state.rho[2]) == -0.4 - 0.1 * grads[2]


def test_uncertainty_loss_weight_matches_loss_derivative():
    state = UncertaintyState.create({1: "regression", 2: "classification"})
    state.rho[1][...] = 0.7
    state.rho[2][...] = -0.4
    assert state.loss_weight(1) == pytest.approx(0.5 * math.exp(-0.7))
    assert state.loss_weight(2) == pytest.approx(math.exp(0.4))


def test_dwa_warmup_equal_weights():
    state = DwaState()
    np.testing.assert_array_equal(dwa_weights(state, 3), np.ones(3))
    state.update({1: 1.0, 2: 2.0, 3: 3.0})
    np.testing.assert_array_equal(dwa_weights(state, 3), np.ones(3))


def test_dwa_constant_losses_fixed_point():
    state = DwaState()
    state.update({1: 0.8, 2: 1.3})
    state.update({1: 0.8, 2: 1.3})
    np.testing.assert_allclose(dwa_weights(state, 2), np.ones(2), atol=1e-12)


def test_dwa_hand_computed_two_task():
    # ratios (1.0, 2.0) at T=2 -> w = 2*(e^0.5, e^1.0) / (e^0.5 + e^1.0)
    state = DwaState(temperature=2.0)
    state.update({1: 1.0, 2: 1.0})
    state.update({1: 1.0, 2: 2.0})
    e05, e10 = math.exp(0.5), math.exp(1.0)
    expected = np.array([2 * e05 / (e05 + e10), 2 * e10 / (e05 + e10)])
    np.testing.assert_allclose(dwa_weights(state, 2), expected, atol=1e-12)


def test_dwa_large_temperature_flattens():
    state = DwaState(temperature=1e9)
    state.update({1: 1.0, 2: 5.0, 3: 0.2})
    state.update({1: 9.0, 2: 1.0, 3: 0.4})
    np.testing.assert_allclose(dwa_weights(state, 3), np.ones(3), atol=1e-6)


def test_dwa_zero_denominator_fallback():
    state = DwaState()
    state.update({1: 0.0, 2: 2.0})
    state.update({1: 1.0, 2: 1.0})
    w = dwa_weights(state, 2)  # task 1 ratio falls back to 1, task 2 ratio 0.5
    assert w[0] > w[1]
    assert w.sum() == pytest.approx(2.0, abs=1e-9)


def test_dwa_weights_sum_to_k_property():
    rng = np.random.default_rng(3)
    state = DwaState()
    for _ in range(200):
        state.update({tid: float(rng.uniform(0.01, 10)) for tid in (1, 2, 3, 4)})
        assert dwa_weights(state, 4).sum() == pytest.approx(4.0, abs=1e-9)
