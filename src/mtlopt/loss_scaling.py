"""Task-weighting schemes: equal, manual ratios, homoscedastic uncertainty
(Kendall et al. 2018) and Dynamic Weight Average (Liu et al. 2019).

Every scheme has one interface. ``weights()`` gives the task weights for
the next step, ``after_step`` hears each step's raw per-task losses and
``after_epoch`` each epoch's mean per-task losses. Equal and manual weights
never move; uncertainty moves only after a step and DWA only after an
epoch. ``make_loss_weighting`` builds any of them and runs every check once.
"""
from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError

SCHEMES = ("equal", "manual", "uncertainty", "dwa")

# the uncertainty objective's factor c on each loss kind's term
_UNCERTAINTY_COEFFICIENT = {"mse": 0.5, "cross_entropy": 1.0}


class LossWeighting:
    """The interface of every scheme; its hooks do nothing by default."""

    def weights(self) -> dict[int, float]:
        raise NotImplementedError

    def after_step(self, raw_losses: Mapping[int, float]) -> None:
        pass

    def after_epoch(self, epoch_mean_losses: Mapping[int, float]) -> None:
        pass


class FixedWeights(LossWeighting):
    """A weight table that no hook moves: equal weights 1/K, or manual
    ratios passed through verbatim."""

    def __init__(self, weights: Mapping[int, float]):
        self._weights = dict(weights)

    def weights(self) -> dict[int, float]:
        return dict(self._weights)


class DynamicWeightAverage(FixedWeights):
    """Weights K * softmax(ratio / T) with ratio = L(t-1) / L(t-2), the last
    two epoch-mean losses; they always sum to K.

    The table is all ones until two epochs have ended, and only the end of
    an epoch replaces it; a zero denominator falls back to ratio 1 for that
    task.
    """

    def __init__(self, task_ids: Sequence[int], temperature: float):
        if temperature <= 0:
            raise ConfigError("dwa: temperature must be positive")
        super().__init__({tid: 1.0 for tid in sorted(task_ids)})
        self.temperature = temperature
        self._previous: np.ndarray | None = None

    def after_epoch(self, epoch_mean_losses: Mapping[int, float]) -> None:
        task_ids = list(self._weights)
        latest = np.array([epoch_mean_losses[tid] for tid in task_ids], dtype=np.float64)
        if self._previous is not None:
            ratios = np.divide(latest, self._previous, out=np.ones(len(task_ids)),
                               where=self._previous != 0.0)
            z = np.exp(ratios / self.temperature - (ratios / self.temperature).max())
            self._weights = dict(zip(task_ids, (len(task_ids) * z / z.sum()).tolist()))
        self._previous = latest


class UncertaintyWeights(LossWeighting):
    """Per-task log-variance parameters rho = log(sigma^2), each a 0-d float64
    array updated in place by plain SGD on the closed-form gradient of the
    objective  sum_i  c_i * L_i * exp(-rho_i) + rho_i / 2.

    Parameterizing through rho keeps sigma^2 = exp(rho) positive without
    constraints. An mse loss scales by c = 1/2, a cross-entropy loss by 1.
    """

    def __init__(self, loss_kinds: Mapping[int, str], lr: float):
        self.coefficient = {tid: _UNCERTAINTY_COEFFICIENT[kind]
                            for tid, kind in loss_kinds.items()}
        self.rho = {tid: np.zeros(()) for tid in loss_kinds}
        self.lr = lr

    def weights(self) -> dict[int, float]:
        """The effective multiplier on each raw task loss, c / sigma^2."""
        return {tid: c * float(np.exp(-self.rho[tid])) for tid, c in self.coefficient.items()}

    def rho_gradient(self, raw_losses: Mapping[int, float]) -> dict[int, float]:
        """d/d(rho) of the objective at the current rho."""
        return {tid: -c * raw_losses[tid] * float(np.exp(-self.rho[tid])) + 0.5
                for tid, c in self.coefficient.items()}

    def after_step(self, raw_losses: Mapping[int, float]) -> None:
        for tid, grad in self.rho_gradient(raw_losses).items():
            self.rho[tid] -= self.lr * grad


def make_loss_weighting(scheme: str, loss_kinds: Mapping[int, str],
                        manual_ratios: Sequence[float] | None, dwa_temperature: float,
                        lr: float) -> LossWeighting:
    """The scheme for tasks whose loss kinds ("mse" or "cross_entropy") are
    given in task-id order; ``lr`` is the uncertainty scheme's step size."""
    task_ids = list(loss_kinds)
    if scheme == "equal":
        return FixedWeights({tid: 1.0 / len(task_ids) for tid in task_ids})
    if scheme == "manual":
        if manual_ratios is None or len(manual_ratios) != len(task_ids):
            raise ConfigError(f"manual weighting needs {len(task_ids)} ratios")
        return FixedWeights({tid: float(r) for tid, r in zip(task_ids, manual_ratios)})
    if scheme == "dwa":
        return DynamicWeightAverage(task_ids, dwa_temperature)
    if scheme == "uncertainty":
        return UncertaintyWeights(loss_kinds, lr)
    raise ConfigError(f"unknown loss-weighting scheme {scheme!r}; one of {SCHEMES}")
