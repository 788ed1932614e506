"""Two-phase connection-strength optimization plus reference baselines.

Phase 1 updates tasks sequentially: each task's forward/backward runs at
the shared parameters left by the previous task, so shared parameters move
K times per step. Phase 2 computes all task gradients at the same
parameters, splits each shared conv layer's gradient by channel group, and
projects conflicting group gradients onto the plane orthogonal to the
group owner's gradient before summing. An epoch's phase is drawn from a
uniform variable compared against e/E, so Phase 2 takes over as training
progresses.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, ShapeError, StateError
from .network import Batch, Model, partition_parameters, per_task_gradients
from .strength import StrengthReport

PHASE1 = "phase1"
PHASE2 = "phase2"

METHOD_OURS = "ours"
METHOD_GD = "gd"
METHOD_PCGRAD = "pcgrad"


# ---------------------------------------------------------------------------
# phase selection
# ---------------------------------------------------------------------------

@dataclass
class PhaseDraw:
    epoch: int
    p: float
    phase: str


class PhaseSchedule:
    """Draws one phase per epoch from a seeded stream: phase 1 iff a fresh
    uniform draw P satisfies P >= epoch/total_epochs."""

    def __init__(self, total_epochs: int, rng: np.random.Generator):
        if total_epochs <= 0:
            raise ConfigError(f"total_epochs must be positive, got {total_epochs}")
        self.total_epochs = total_epochs
        self._rng = rng

    def draw(self, epoch: int) -> PhaseDraw:
        if not 0 <= epoch <= self.total_epochs:
            raise ConfigError(f"epoch {epoch} outside [0, {self.total_epochs}]")
        p = float(self._rng.random())
        return PhaseDraw(epoch, p, PHASE1 if p >= epoch / self.total_epochs else PHASE2)


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def project_gradient(g: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Remove g's component along ref when the two conflict (negative dot).

    Returns g unchanged (as a copy) when the dot is nonnegative or ref is
    zero. The subtraction is repeated while rounding leaves a negative dot;
    if the iterates fall into a floating-point cycle, a canonical member of
    the cycle is returned. Both rules make the operation exactly idempotent.
    """
    g = np.asarray(g, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if g.shape != ref.shape:
        raise ShapeError(f"project_gradient: shapes {g.shape} and {ref.shape} differ")
    norm_sq = float(ref @ ref)
    out = g.copy()
    if norm_sq == 0.0:
        return out
    # Exit once the dot is nonnegative up to dot-product rounding error. The
    # tolerance depends only on the current state, so a second application
    # sees the same test and returns the same vector unchanged.
    slack = 8.0 * (g.size + 4) * np.finfo(np.float64).eps * np.sqrt(norm_sq)
    for _ in range(64):
        d = float(out @ ref)
        if d >= -slack * float(np.linalg.norm(out)):
            return out
        nxt = out - (d / norm_sq) * ref
        if np.array_equal(nxt, out):
            return out
        out = nxt
    return out  # iteration cap; not reached for finite inputs in practice


@dataclass
class GroupProjection:
    """Projection record for one channel group of one layer."""

    layer: str
    owner: int
    reference: np.ndarray
    projected: dict[int, np.ndarray]
    conflicts: int
    projections: int


def project_group_gradients(blocks: Mapping[int, np.ndarray], owner: int,
                            layer: str = "") -> GroupProjection:
    """Project every non-owner block gradient against the owner's.

    ``blocks`` maps task id -> flattened (already weighted) gradient over
    the group's channels, or over every shared parameter for PCGrad. The
    owner's gradient is the fixed reference; projected results are never
    re-projected against each other.
    """
    ref = blocks[owner]
    projected: dict[int, np.ndarray] = {}
    conflicts = 0
    projections = 0
    for tid, g in blocks.items():
        if tid == owner:
            projected[tid] = g.copy()
            continue
        d = float(g @ ref)
        if d <= 0.0:
            conflicts += 1
        if d < 0.0 and float(ref @ ref) > 0.0:
            projections += 1
        projected[tid] = project_gradient(g, ref)
    return GroupProjection(layer, owner, ref.copy(), projected, conflicts, projections)


# ---------------------------------------------------------------------------
# update rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizerConfig:
    method: str = METHOD_OURS
    lr: float = 0.05
    update_rule: str = "sgd"  # "sgd" | "adam"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    task_order: tuple[int, ...] = ()

    def validate(self, task_ids: Sequence[int]) -> None:
        if self.method not in (METHOD_OURS, METHOD_GD, METHOD_PCGRAD):
            raise ConfigError(f"unknown method {self.method!r}")
        if self.lr <= 0:
            raise ConfigError(f"step size must be positive, got {self.lr}")
        if self.update_rule not in ("sgd", "adam"):
            raise ConfigError(f"unknown update rule {self.update_rule!r}")
        order = self.task_order or tuple(task_ids)
        if sorted(order) != sorted(task_ids):
            raise ConfigError(f"task order {order} is not a permutation of {tuple(task_ids)}")
        if self.method == METHOD_PCGRAD and len(task_ids) > 2:
            # projection against the one other task; more tasks would need
            # PCGrad's random order over them
            raise ConfigError(f"pcgrad takes at most 2 tasks, got {len(task_ids)}")


class _SgdRule:
    def __init__(self, lr: float):
        self.lr = lr

    def apply(self, name: str, data: np.ndarray, grad: np.ndarray) -> None:
        data -= self.lr * grad


class _AdamRule:
    def __init__(self, lr: float, beta1: float, beta2: float, eps: float):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t: dict[str, int] = {}

    def apply(self, name: str, data: np.ndarray, grad: np.ndarray) -> None:
        m = self._m.setdefault(name, np.zeros_like(data))
        v = self._v.setdefault(name, np.zeros_like(data))
        t = self._t.get(name, 0) + 1
        self._t[name] = t
        m *= self.beta1
        m += (1 - self.beta1) * grad
        v *= self.beta2
        v += (1 - self.beta2) * grad * grad
        m_hat = m / (1 - self.beta1 ** t)
        v_hat = v / (1 - self.beta2 ** t)
        data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass
class StepResult:
    losses: dict[int, float]
    conflicts: dict[str, int] = field(default_factory=dict)
    projections: dict[str, int] = field(default_factory=dict)
    group_details: list[GroupProjection] = field(default_factory=list)


class MtlOptimizer:
    """Applies multi-task update steps to one model.

    Owns the update-rule state (Adam moments) and a per-step write counter
    used to verify the update-count accounting.
    """

    def __init__(self, model: Model, config: OptimizerConfig):
        config.validate(model.spec.task_ids)
        self.model = model
        self.config = config
        self.task_order = config.task_order or model.spec.task_ids
        self.partition = partition_parameters(model)
        if config.update_rule == "adam":
            self._rule = _AdamRule(config.lr, config.adam_beta1, config.adam_beta2, config.adam_eps)
        else:
            self._rule = _SgdRule(config.lr)
        self.last_step_writes: dict[str, int] = {}

    # -- bookkeeping ------------------------------------------------------

    def _begin_step(self) -> None:
        self.last_step_writes = {name: 0 for name in self.model.named_parameters()}

    def _apply(self, name: str, tensor, grad: np.ndarray) -> None:
        self._rule.apply(name, tensor.data, grad)
        self.last_step_writes[name] += 1

    def _weights_by_task(self, weights: Mapping[int, float]) -> dict[int, float]:
        return {tid: float(weights[tid]) for tid in self.model.spec.task_ids}

    def _apply_own(self, own: dict[int, dict[str, np.ndarray]]) -> None:
        for tid in self.task_order:
            for name, grad in own[tid].items():
                self._apply(name, self.partition.per_task[tid][name], grad)

    # -- steps -------------------------------------------------------------

    def phase1_step(self, batch: Batch, weights: Mapping[int, float]) -> StepResult:
        """Sequential per-task updates: task i sees the shared parameters
        already moved by tasks 1..i-1 within the same step."""
        self._begin_step()
        w = self._weights_by_task(weights)
        losses: dict[int, float] = {}
        for tid in self.task_order:
            self.model.zero_grad()
            loss, shared, own = per_task_gradients(
                self.model, batch, tid, loss_weight=w[tid], partition=self.partition)
            losses[tid] = loss
            for name, grad in shared.items():
                self._apply(name, self.partition.shared[name], grad)
            for name, grad in own.items():
                self._apply(name, self.partition.per_task[tid][name], grad)
        return StepResult(losses)

    def _joint_step(self, batch: Batch, weights: Mapping[int, float], combine) -> StepResult:
        """All task gradients at the same parameters; ``combine(shared,
        result)`` turns the per-task shared gradients into one gradient per
        shared parameter, and each parameter is written once."""
        self._begin_step()
        w = self._weights_by_task(weights)
        losses: dict[int, float] = {}
        shared: dict[int, dict[str, np.ndarray]] = {}
        own: dict[int, dict[str, np.ndarray]] = {}
        for tid in self.task_order:
            self.model.zero_grad()
            losses[tid], shared[tid], own[tid] = per_task_gradients(
                self.model, batch, tid, loss_weight=w[tid], partition=self.partition)
        result = StepResult(losses)
        for name, grad in combine(shared, result).items():
            self._apply(name, self.partition.shared[name], grad)
        self._apply_own(own)
        return result

    def gd_step(self, batch: Batch, weights: Mapping[int, float]) -> StepResult:
        """Conventional GD: one update with the weighted gradient sum."""
        return self._joint_step(batch, weights, self._combine_gd)

    def _combine_gd(self, shared: dict[int, dict[str, np.ndarray]],
                    result: StepResult) -> dict[str, np.ndarray]:
        return {name: sum(shared[tid][name] for tid in self.task_order)
                for name in self.partition.shared}

    def phase2_step(self, batch: Batch, weights: Mapping[int, float],
                    snapshot: Mapping[str, StrengthReport]) -> StepResult:
        """Priority-preserving step: project conflicting per-group gradients
        against the group owner's gradient, then apply the summed result."""
        return self._joint_step(
            batch, weights, lambda shared, result: self._combine_phase2(shared, snapshot, result))

    def _combine_phase2(self, shared: dict[int, dict[str, np.ndarray]],
                        snapshot: Mapping[str, StrengthReport],
                        result: StepResult) -> dict[str, np.ndarray]:
        combined: dict[str, np.ndarray] = {}
        for name in self.partition.shared:
            grads = {tid: shared[tid][name] for tid in self.task_order}
            layer = name.rsplit(".", 1)[0]
            report = snapshot.get(layer)
            if report is None:
                # a layer without task batch norm has no strength report:
                # plain weighted sum
                combined[name] = sum(grads.values())
                continue
            weight_shape = grads[self.task_order[0]].shape
            if report.num_channels != weight_shape[0]:
                raise StateError(
                    f"{layer}: snapshot has {report.num_channels} channels, "
                    f"weight has {weight_shape[0]} (stale snapshot)")
            out = np.zeros(weight_shape)
            for owner, channels in report.groups.items():
                if not channels:
                    continue
                idx = np.asarray(channels, dtype=np.intp)
                blocks = {tid: grads[tid][idx].reshape(-1) for tid in self.task_order}
                group = project_group_gradients(blocks, owner, layer)
                total = np.zeros_like(group.reference)
                for tid in self.task_order:
                    total += group.projected[tid]
                out[idx] = total.reshape((len(channels),) + weight_shape[1:])
                result.conflicts[layer] = result.conflicts.get(layer, 0) + group.conflicts
                result.projections[layer] = result.projections.get(layer, 0) + group.projections
                result.group_details.append(group)
            combined[name] = out
        return combined

    def pcgrad_step(self, batch: Batch, weights: Mapping[int, float]) -> StepResult:
        """PCGrad over one group that holds every shared parameter: each
        task's flattened gradient is projected against the other task's
        when the two conflict. With at most two tasks the order is fixed."""
        return self._joint_step(batch, weights, self._combine_pcgrad)

    def _combine_pcgrad(self, shared: dict[int, dict[str, np.ndarray]],
                        result: StepResult) -> dict[str, np.ndarray]:
        names = sorted(self.partition.shared)
        flats = {tid: np.concatenate([shared[tid][n].reshape(-1) for n in names])
                 for tid in self.task_order}
        adjusted: dict[int, np.ndarray] = {}
        for owner in self.task_order:
            group = project_group_gradients(flats, owner, "shared")
            adjusted.update((tid, g) for tid, g in group.projected.items() if tid != owner)
            result.group_details.append(group)
            # the log names the shared group only in steps that count one
            if group.conflicts:
                result.conflicts["shared"] = result.conflicts.get("shared", 0) + group.conflicts
            if group.projections:
                result.projections["shared"] = (result.projections.get("shared", 0)
                                                + group.projections)
        # a lone task has no other task to be projected against
        total = sum(adjusted.get(tid, flats[tid]) for tid in self.task_order)
        combined: dict[str, np.ndarray] = {}
        offset = 0
        for name in names:
            tensor = self.partition.shared[name]
            combined[name] = total[offset:offset + tensor.size].reshape(tensor.shape)
            offset += tensor.size
        return combined

    def step(self, batch: Batch, weights: Mapping[int, float], phase: str | None = None,
             snapshot: Mapping[str, StrengthReport] | None = None) -> StepResult:
        """Dispatch one step for the configured method."""
        if self.config.method == METHOD_GD:
            return self.gd_step(batch, weights)
        if self.config.method == METHOD_PCGRAD:
            return self.pcgrad_step(batch, weights)
        if phase == PHASE1:
            return self.phase1_step(batch, weights)
        if phase == PHASE2:
            if snapshot is None:
                raise ConfigError("phase2 step needs a strength snapshot")
            return self.phase2_step(batch, weights, snapshot)
        raise ConfigError(f"method {self.config.method!r} needs phase {PHASE1!r} or {PHASE2!r}")
