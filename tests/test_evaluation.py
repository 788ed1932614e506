import numpy as np
import pytest

from mtlopt.errors import ConfigError
from mtlopt.evaluation import (
    METRICS,
    delta_m,
    loss_trend_correlation,
    priority_share,
)


def test_metric_table():
    assert {kind: (m.name, m.lower_is_better) for kind, m in METRICS.items()} == {
        "cross_entropy": ("pixel_accuracy", False), "mse": ("rmse", True)}
    logits = np.array([[[[2.0, 0.0]], [[1.0, 3.0]]]])  # (1, 2, 1, 2): argmax 0 then 1
    hits = METRICS["cross_entropy"].batch_sum(logits, np.array([[[0, 0]]]))
    assert hits == 1.0 and METRICS["cross_entropy"].finish(hits, 2) == 0.5
    sq_err = METRICS["mse"].batch_sum(np.array([1.0, 2.0]), np.array([4.0, 6.0]))
    assert sq_err == 25.0 and METRICS["mse"].finish(sq_err, 4) == 2.5


def test_delta_m_self_comparison():
    assert delta_m({1: 1.5, 2: 80.0}, {1: 1.5, 2: 80.0}, {1: "mse", 2: "cross_entropy"}) == 0.0


def test_delta_m_lower_better_improvement():
    assert delta_m({2: 0.9}, {2: 1.0}, {2: "mse"}) == pytest.approx(0.10)


def test_delta_m_two_metric_cancellation():
    assert delta_m({1: 55.0, 2: 2.2}, {1: 50.0, 2: 2.0},
                   {1: "cross_entropy", 2: "mse"}) == pytest.approx(0.0)


def test_delta_m_zero_baseline_rejected():
    with pytest.raises(ConfigError):
        delta_m({1: 0.5}, {1: 0.0}, {1: "mse"})


def test_delta_m_monotonicity_randomized():
    rng = np.random.default_rng(5)
    for _ in range(100):
        baselines = {i + 1: float(b) for i, b in enumerate(rng.uniform(0.5, 3.0, size=3))}
        losses = {tid: str(rng.choice(sorted(METRICS))) for tid in baselines}
        values = {tid: float(rng.uniform(0.5, 3.0)) for tid in baselines}
        base = delta_m(values, baselines, losses)
        tid = int(rng.integers(1, 4))
        better = dict(values)
        step = float(rng.uniform(0.01, 0.2))
        better[tid] += -step if METRICS[losses[tid]].lower_is_better else step
        assert delta_m(better, baselines, losses) > base


def test_correlation_identical_curves():
    curves = {1: [3.0, 2.0, 1.5, 1.2], 2: [3.0, 2.0, 1.5, 1.2]}
    np.testing.assert_allclose(loss_trend_correlation(curves), np.ones((2, 2)))


def test_correlation_anti_trend():
    curves = {1: [0.0, 1.0, 3.0, 6.0], 2: [6.0, 5.0, 3.0, 0.0]}
    m = loss_trend_correlation(curves)
    assert m[0, 1] == pytest.approx(-1.0)


def test_correlation_hand_case():
    # deltas (1,2,3) vs (2,4,6) are perfectly correlated
    curves = {1: [0.0, 1.0, 3.0, 6.0], 2: [0.0, 2.0, 6.0, 12.0]}
    assert loss_trend_correlation(curves)[0, 1] == pytest.approx(1.0)


def test_correlation_zero_variance_pair():
    curves = {1: [1.0, 2.0, 3.0, 4.0], 2: [5.0, 5.0, 5.0, 5.0]}
    m = loss_trend_correlation(curves)
    assert m[0, 1] == 0.0 and m[1, 1] == 1.0


def test_correlation_matrix_properties():
    rng = np.random.default_rng(8)
    curves = {tid: rng.normal(size=30).cumsum() for tid in (1, 2, 3, 4)}
    m = loss_trend_correlation(curves)
    np.testing.assert_allclose(m, m.T, atol=1e-15)
    np.testing.assert_allclose(np.diag(m), 1.0)
    assert np.linalg.eigvalsh(m).min() > -1e-10


def _pairwise_correlation(curves):
    """Reference: Pearson correlation of the loss deltas, one pair at a time."""
    deltas = [np.diff(np.asarray(curves[tid], dtype=np.float64)) for tid in sorted(curves)]
    out = np.eye(len(deltas))
    for i, di in enumerate(deltas):
        for j, dj in enumerate(deltas[:i]):
            di_c, dj_c = di - di.mean(), dj - dj.mean()
            denom = np.sqrt((di_c * di_c).sum() * (dj_c * dj_c).sum())
            out[i, j] = out[j, i] = (di_c * dj_c).sum() / denom if denom > 0 else 0.0
    return out


def test_correlation_matches_pairwise_loop():
    # one task, zero-variance deltas and constant curves included
    rng = np.random.default_rng(12)
    for _ in range(300):
        k, n = int(rng.integers(1, 5)), int(rng.integers(3, 9))
        curves = {tid: rng.normal(size=n).cumsum() for tid in range(1, k + 1)}
        if rng.random() < 0.3:
            curves[1] = np.arange(n, dtype=np.float64)
        if rng.random() < 0.3:
            curves[k] = np.full(n, rng.normal())
        np.testing.assert_allclose(loss_trend_correlation(curves), _pairwise_correlation(curves),
                                   rtol=0, atol=64 * np.finfo(np.float64).eps)


def test_correlation_needs_three_epochs():
    with pytest.raises(ConfigError):
        loss_trend_correlation({1: [1.0, 2.0], 2: [2.0, 1.0]})


def test_priority_share_counts():
    assert priority_share(np.array([1, 1, 1, 2]), (1, 2)) == {1: 0.75, 2: 0.25}


def test_priority_share_single_task():
    assert priority_share(np.array([1, 1]), (1,)) == {1: 1.0}


def test_priority_share_sums_to_one():
    rng = np.random.default_rng(4)
    for _ in range(50):
        channels = int(rng.integers(1, 12))
        owners = rng.integers(1, 4, size=channels)
        shares = priority_share(owners, (1, 2, 3))
        assert abs(sum(shares.values()) - 1.0) < 1e-12
        assert shares == {tid: int((owners == tid).sum()) / channels for tid in (1, 2, 3)}
