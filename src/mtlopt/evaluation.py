"""Multi-task performance metric, loss-trend correlation, priority shares."""
from __future__ import annotations

from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, is_number


class Metric(NamedTuple):
    """How a task is scored: ``finish(total, count)`` turns the sum of
    ``batch_sum`` over an evaluation pass and its target count into the metric."""

    name: str
    lower_is_better: bool
    batch_sum: Callable[[np.ndarray, np.ndarray], float]
    finish: Callable[[float, int], float]


# Keyed by loss kind: the one place a task's metric and its direction are decided.
METRICS = {
    "cross_entropy": Metric("pixel_accuracy", False,
                            lambda pred, target: float((pred.argmax(axis=1) == target).sum()),
                            lambda hits, count: hits / count),
    "mse": Metric("rmse", True,
                  lambda pred, target: float(((pred - target) ** 2).sum()),
                  lambda sq_err, count: float(np.sqrt(sq_err / count))),
}


def check_baselines(baselines: Mapping[int, float], task_ids) -> None:
    """The single-task baselines must cover exactly ``task_ids``, each with a
    finite, nonzero number."""
    for tid, value in baselines.items():
        # float() would read true as 1.0 and "2" as 2.0
        if not is_number(value):
            raise ConfigError(f"task {tid}: baseline must be a finite number, got {value!r}")
        if value == 0.0:
            raise ConfigError(f"task {tid}: baseline of 0 makes the ratio undefined")
    missing = sorted(set(task_ids) - set(baselines))
    extra = sorted(set(baselines) - set(task_ids))
    if missing or extra:
        raise ConfigError(f"does not cover the configured tasks: missing {missing}, extra {extra}")


def delta_m(model_metrics: Mapping[int, float], baselines: Mapping[int, float],
            losses: Mapping[int, str]) -> float:
    """Mean signed relative improvement over the single-task baselines.

    Positive values mean the multi-task model beats the baselines on
    average. Each task's loss kind (``losses``) sets its metric's direction
    in ``METRICS``: a lower-is-better metric contributes (baseline - value) /
    baseline, a higher-is-better one (value - baseline) / baseline.
    """
    check_baselines(baselines, model_metrics)
    total = 0.0
    for tid, baseline in baselines.items():
        sign = -1.0 if METRICS[losses[tid]].lower_is_better else 1.0
        total += sign * (model_metrics[tid] - baseline) / baseline
    return total / len(baselines)


def loss_trend_correlation(curves: Mapping[int, Sequence[float]]) -> np.ndarray:
    """Pearson correlation of per-epoch loss deltas for every task pair.

    Rows/columns follow ascending task id. The diagonal is 1; a pair with a
    zero-variance delta series gets correlation 0.
    """
    task_ids = sorted(curves)
    series = [np.asarray(curves[tid], dtype=np.float64) for tid in task_ids]
    if any(len(s) < 3 for s in series):
        raise ConfigError("loss_trend_correlation needs >= 3 epochs per task")
    if len({len(s) for s in series}) != 1:
        raise ConfigError("loss curves must have equal length")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.atleast_2d(np.corrcoef(np.diff(series, axis=1)))
    out = np.nan_to_num(out, nan=0.0)
    np.fill_diagonal(out, 1.0)
    return out


def priority_share(owners: np.ndarray, task_ids: Sequence[int]) -> dict[int, float]:
    """Fraction of a layer's output channels owned by each task, from the
    layer's (C,) vector of owner task ids."""
    return {tid: int(np.count_nonzero(owners == tid)) / owners.size for tid in task_ids}
