"""Multi-task performance metric, loss-trend correlation, priority shares."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class TaskMetricSpec:
    name: str
    lower_is_better: bool
    baseline: float


@dataclass(frozen=True)
class MetricSpec:
    """Per-task metric directions and single-task baseline values."""

    per_task: Mapping[int, TaskMetricSpec]

    def validate(self) -> None:
        for tid, m in self.per_task.items():
            if not isinstance(m.name, str):
                raise ConfigError(f"task {tid}: metric must be a string, got {m.name!r}")
            # any non-empty string is truthy, so "no" would flip the delta-m sign
            if not isinstance(m.lower_is_better, bool):
                raise ConfigError(f"task {tid}: lower_is_better must be true or false, "
                                  f"got {m.lower_is_better!r}")
            if isinstance(m.baseline, bool) or not isinstance(m.baseline, (int, float)) \
                    or not np.isfinite(m.baseline):
                raise ConfigError(f"task {tid}: baseline must be a finite number, "
                                  f"got {m.baseline!r}")
            if m.baseline == 0.0:
                raise ConfigError(f"task {tid}: baseline of 0 makes the ratio undefined")


def delta_m(model_metrics: Mapping[int, float], spec: MetricSpec) -> float:
    """Mean signed relative improvement over the single-task baselines.

    Positive values mean the multi-task model beats the baselines on
    average; a lower-is-better metric contributes (baseline - value) /
    baseline, a higher-is-better one (value - baseline) / baseline.
    """
    spec.validate()
    if set(model_metrics) != set(spec.per_task):
        raise ConfigError(
            f"metrics cover tasks {sorted(model_metrics)}, spec covers {sorted(spec.per_task)}")
    total = 0.0
    for tid, m in spec.per_task.items():
        sign = -1.0 if m.lower_is_better else 1.0
        total += sign * (model_metrics[tid] - m.baseline) / m.baseline
    return total / len(spec.per_task)


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
