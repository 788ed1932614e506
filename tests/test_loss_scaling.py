import math

import numpy as np
import pytest

from mtlopt.errors import ConfigError
from mtlopt.gradcheck import central_difference, relative_error
from mtlopt.loss_scaling import (
    DynamicWeightAverage,
    UncertaintyWeights,
    make_loss_weighting,
)


def _scheme(scheme, k, manual_ratios=None, dwa_temperature=2.0, lr=0.1):
    kinds = {tid: "cross_entropy" if tid == 1 else "mse" for tid in range(1, k + 1)}
    return make_loss_weighting(scheme, kinds, manual_ratios, dwa_temperature, lr)


def test_equal_weights():
    assert _scheme("equal", 4).weights() == {1: 0.25, 2: 0.25, 3: 0.25, 4: 0.25}


def test_manual_ratios_verbatim():
    ratios = (1.0, 1.0, 10.0, 50.0)
    assert list(_scheme("manual", 4, ratios).weights().values()) == list(ratios)


def test_manual_all_zero_is_legal():
    assert _scheme("manual", 2, (0.0, 0.0)).weights() == {1: 0.0, 2: 0.0}


def test_manual_missing_ratios():
    with pytest.raises(ConfigError):
        _scheme("manual", 3)


def test_constructor_rejects_wrong_ratio_count_and_unknown_scheme():
    with pytest.raises(ConfigError, match="needs 3 ratios"):
        _scheme("manual", 3, (1.0, 2.0))
    with pytest.raises(ConfigError, match="unknown loss-weighting scheme 'gradnorm'"):
        _scheme("gradnorm", 2)
    with pytest.raises(ConfigError, match="temperature"):
        _scheme("dwa", 2, dwa_temperature=0.0)


@pytest.mark.parametrize("scheme, ratios", [("equal", None), ("manual", (2.0, 0.5))])
def test_fixed_weights_never_move(scheme, ratios):
    weighting = _scheme(scheme, 2, ratios)
    before = weighting.weights()
    for losses in ({1: 3.0, 2: 0.1}, {1: 0.2, 2: 7.0}, {1: 5.0, 2: 5.0}):
        weighting.after_step(losses)
        weighting.after_epoch(losses)
        assert weighting.weights() == before


def test_dwa_moves_only_after_the_second_epoch():
    weighting = _scheme("dwa", 2)
    weighting.after_step({1: 9.0, 2: 0.1})
    assert weighting.weights() == {1: 1.0, 2: 1.0}
    weighting.after_epoch({1: 1.0, 2: 1.0})
    assert weighting.weights() == {1: 1.0, 2: 1.0}
    weighting.after_epoch({1: 1.0, 2: 2.0})
    moved = weighting.weights()
    assert moved != {1: 1.0, 2: 1.0}
    weighting.after_step({1: 9.0, 2: 0.1})
    assert weighting.weights() == moved


def test_uncertainty_moves_only_after_a_step():
    weighting = _scheme("uncertainty", 2)
    before = weighting.weights()
    weighting.after_epoch({1: 3.0, 2: 0.1})
    assert weighting.weights() == before
    weighting.after_step({1: 3.0, 2: 0.1})
    assert weighting.weights() != before


def test_uncertainty_sigma_one_identities():
    # sigma = 1 (rho = 0): regression contributes L/2, classification L
    weighting = UncertaintyWeights({1: "mse", 2: "cross_entropy"}, lr=0.1)
    assert weighting.weights() == {1: 0.5, 2: 1.0}
    # the rho/2 term alone: at L = 0 the gradient is 1/2
    assert weighting.rho_gradient({1: 0.0, 2: 0.0}) == {1: 0.5, 2: 0.5}


def _fd_rho_gradient(weighting, task, loss_value):
    """Central difference of the objective c*L*exp(-rho) + rho/2 (Kendall et al. 2018)."""
    c = weighting.coefficient[task]
    rho = weighting.rho[task]

    def value():
        return c * loss_value * math.exp(-float(rho)) + float(rho) / 2

    return central_difference(value, rho)


def test_uncertainty_gradient_matches_finite_difference():
    weighting = UncertaintyWeights({1: "mse"}, lr=0.1)
    weighting.rho[1][...] = 0.3
    analytic = np.array(weighting.rho_gradient({1: 2.0})[1])
    assert relative_error(analytic, _fd_rho_gradient(weighting, 1, 2.0)) < 1e-6


def test_uncertainty_gradient_random_draws():
    rng = np.random.default_rng(7)
    for _ in range(30):
        kind = rng.choice(["mse", "cross_entropy"])
        weighting = UncertaintyWeights({1: kind}, lr=0.1)
        weighting.rho[1][...] = rng.normal()
        loss_value = float(rng.uniform(0.01, 10))
        analytic = np.array(weighting.rho_gradient({1: loss_value})[1])
        assert relative_error(analytic, _fd_rho_gradient(weighting, 1, loss_value)) < 1e-6


def test_uncertainty_sgd_update_steps_along_rho_gradient():
    weighting = UncertaintyWeights({1: "mse", 2: "cross_entropy"}, lr=0.1)
    weighting.rho[2][...] = -0.4
    losses = {1: 3.0, 2: 0.25}
    grads = weighting.rho_gradient(losses)
    weighting.after_step(losses)
    assert float(weighting.rho[1]) == 0.0 - 0.1 * grads[1]
    assert float(weighting.rho[2]) == -0.4 - 0.1 * grads[2]


def test_uncertainty_loss_weight_matches_loss_derivative():
    weighting = UncertaintyWeights({1: "mse", 2: "cross_entropy"}, lr=0.1)
    weighting.rho[1][...] = 0.7
    weighting.rho[2][...] = -0.4
    assert weighting.weights()[1] == pytest.approx(0.5 * math.exp(-0.7))
    assert weighting.weights()[2] == pytest.approx(math.exp(0.4))


def _dwa_after(epochs, temperature=2.0):
    weighting = DynamicWeightAverage(sorted(epochs[0]), temperature)
    for losses in epochs:
        weighting.after_epoch(losses)
    return np.array(list(weighting.weights().values()))


def test_dwa_warmup_equal_weights():
    weighting = DynamicWeightAverage([1, 2, 3], 2.0)
    np.testing.assert_array_equal(list(weighting.weights().values()), np.ones(3))
    weighting.after_epoch({1: 1.0, 2: 2.0, 3: 3.0})
    np.testing.assert_array_equal(list(weighting.weights().values()), np.ones(3))


def test_dwa_constant_losses_fixed_point():
    w = _dwa_after([{1: 0.8, 2: 1.3}, {1: 0.8, 2: 1.3}])
    np.testing.assert_allclose(w, np.ones(2), atol=1e-12)


def test_dwa_hand_computed_two_task():
    # ratios (1.0, 2.0) at T=2 -> w = 2*(e^0.5, e^1.0) / (e^0.5 + e^1.0)
    w = _dwa_after([{1: 1.0, 2: 1.0}, {1: 1.0, 2: 2.0}], temperature=2.0)
    e05, e10 = math.exp(0.5), math.exp(1.0)
    expected = np.array([2 * e05 / (e05 + e10), 2 * e10 / (e05 + e10)])
    np.testing.assert_allclose(w, expected, atol=1e-12)


def test_dwa_large_temperature_flattens():
    w = _dwa_after([{1: 1.0, 2: 5.0, 3: 0.2}, {1: 9.0, 2: 1.0, 3: 0.4}], temperature=1e9)
    np.testing.assert_allclose(w, np.ones(3), atol=1e-6)


def test_dwa_zero_denominator_fallback():
    w = _dwa_after([{1: 0.0, 2: 2.0}, {1: 1.0, 2: 1.0}])
    # task 1 ratio falls back to 1, task 2 ratio 0.5
    assert w[0] > w[1]
    assert w.sum() == pytest.approx(2.0, abs=1e-9)


def test_dwa_weights_sum_to_k_property():
    rng = np.random.default_rng(3)
    weighting = DynamicWeightAverage([1, 2, 3, 4], 2.0)
    for _ in range(200):
        weighting.after_epoch({tid: float(rng.uniform(0.01, 10)) for tid in (1, 2, 3, 4)})
        assert sum(weighting.weights().values()) == pytest.approx(4.0, abs=1e-9)
