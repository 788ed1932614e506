import numpy as np
import pytest

from mtlopt.errors import ConfigError
from mtlopt.evaluation import (
    MetricSpec,
    TaskMetricSpec,
    delta_m,
    loss_trend_correlation,
    priority_share,
)


def spec(entries):
    return MetricSpec({tid: TaskMetricSpec(n, lower, base)
                       for tid, (n, lower, base) in entries.items()})


def test_delta_m_self_comparison():
    s = spec({1: ("loss", True, 1.5), 2: ("acc", False, 80.0)})
    assert delta_m({1: 1.5, 2: 80.0}, s) == 0.0


def test_delta_m_lower_better_improvement():
    s = spec({1: ("rmse", True, 1.0)})
    assert delta_m({1: 0.9}, s) == pytest.approx(0.10)


def test_delta_m_two_metric_cancellation():
    s = spec({1: ("acc", False, 50.0), 2: ("err", True, 2.0)})
    assert delta_m({1: 55.0, 2: 2.2}, s) == pytest.approx(0.0)


def test_delta_m_zero_baseline_rejected():
    with pytest.raises(ConfigError):
        delta_m({1: 0.5}, spec({1: ("loss", True, 0.0)}))


def test_delta_m_monotonicity_randomized():
    rng = np.random.default_rng(5)
    for _ in range(100):
        baselines = rng.uniform(0.5, 3.0, size=3)
        lower = rng.integers(0, 2, size=3).astype(bool)
        s = spec({i + 1: (f"m{i}", bool(lower[i]), float(baselines[i])) for i in range(3)})
        values = {i + 1: float(rng.uniform(0.5, 3.0)) for i in range(3)}
        base = delta_m(values, s)
        tid = int(rng.integers(1, 4))
        better = dict(values)
        step = float(rng.uniform(0.01, 0.2))
        better[tid] = better[tid] - step if lower[tid - 1] else better[tid] + step
        assert delta_m(better, s) > base


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
