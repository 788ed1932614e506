"""Task-weighting schemes: equal, manual ratios, homoscedastic uncertainty,
and Dynamic Weight Average.

The uncertainty scheme learns one log-variance scalar per task by plain SGD
on the closed-form gradient of its objective. DWA rescales weights from the
ratio of the last two epoch-mean losses; its weights always sum to the
number of tasks.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError

SCHEMES = ("equal", "manual", "uncertainty", "dwa")

TASK_KIND_REGRESSION = "regression"
TASK_KIND_CLASSIFICATION = "classification"


def static_weights(mode: str, K: int, ratios: Sequence[float] | None = None) -> np.ndarray:
    """Equal weights 1/K, or manual ratios passed through verbatim."""
    if K < 1:
        raise ConfigError("static_weights: K must be >= 1")
    if mode == "equal":
        return np.full(K, 1.0 / K)
    if mode == "manual":
        if ratios is None or len(ratios) != K:
            raise ConfigError(f"manual weighting needs {K} ratios")
        ratios = np.asarray(ratios, dtype=np.float64)
        if np.any(ratios < 0):
            raise ConfigError("manual ratios must be nonnegative")
        return ratios.copy()
    raise ConfigError(f"unknown static weighting mode {mode!r}")


@dataclass
class UncertaintyState:
    """Per-task log-variance parameters rho = log(sigma^2), each a 0-d float64
    array updated in place.

    Parameterizing through rho keeps sigma^2 = exp(rho) positive without
    constraints. Regression losses scale by 1/(2 sigma^2), classification
    losses by 1/sigma^2; both add log(sigma) = rho/2.
    """

    rho: dict[int, np.ndarray]
    kinds: dict[int, str]

    @classmethod
    def create(cls, kinds: Mapping[int, str]) -> "UncertaintyState":
        for tid, kind in kinds.items():
            if kind not in (TASK_KIND_REGRESSION, TASK_KIND_CLASSIFICATION):
                raise ConfigError(f"task {tid}: unknown kind {kind!r}")
        return cls(rho={tid: np.zeros(()) for tid in kinds}, kinds=dict(kinds))

    def coefficient(self, task: int) -> float:
        return 0.5 if self.kinds[task] == TASK_KIND_REGRESSION else 1.0

    def loss_weight(self, task: int) -> float:
        """The effective multiplier on the raw task loss, c / sigma^2."""
        return self.coefficient(task) * float(np.exp(-self.rho[task]))

    def rho_gradient(self, raw_losses: Mapping[int, float]) -> dict[int, float]:
        """d/d(rho) of the objective  sum_i  c_i * L_i * exp(-rho_i) + rho_i / 2."""
        return {tid: -self.coefficient(tid) * raw_losses[tid] * float(np.exp(-rho)) + 0.5
                for tid, rho in self.rho.items()}

    def sgd_update(self, raw_losses: Mapping[int, float], lr: float) -> None:
        """One plain-SGD step on each rho."""
        for tid, grad in self.rho_gradient(raw_losses).items():
            self.rho[tid] -= lr * grad


@dataclass
class DwaState:
    """Last two epoch-mean losses per task plus the softmax temperature."""

    temperature: float = 2.0
    history: list[dict[int, float]] = field(default_factory=list)

    def update(self, epoch_mean_losses: Mapping[int, float]) -> None:
        self.history.append(dict(epoch_mean_losses))
        if len(self.history) > 2:
            del self.history[0]


def dwa_weights(state: DwaState, K: int) -> np.ndarray:
    """Weights K * softmax(ratio / T) with ratio = L(t-1) / L(t-2).

    The first two epochs (incomplete history) emit equal weights (all
    ones); a zero denominator falls back to ratio 1 for that task.
    """
    if K < 1:
        raise ConfigError("dwa_weights: K must be >= 1")
    if state.temperature <= 0:
        raise ConfigError("dwa_weights: temperature must be positive")
    if len(state.history) < 2:
        return np.ones(K)
    prev1, prev2 = state.history[-1], state.history[-2]
    task_ids = sorted(prev1)
    if len(task_ids) != K:
        raise ConfigError(f"dwa_weights: history covers {len(task_ids)} tasks, expected {K}")
    ratios = np.ones(K)
    for i, tid in enumerate(task_ids):
        if prev2[tid] != 0.0:
            ratios[i] = prev1[tid] / prev2[tid]
    z = np.exp(ratios / state.temperature - (ratios / state.temperature).max())
    return K * z / z.sum()
