"""Two-phase connection-strength optimization plus reference baselines.

Phase 1 updates tasks sequentially: each task's forward/backward runs at
the shared parameters left by the previous task, so shared parameters move
K times per step. Phase 2 computes all task gradients at the same
parameters, splits each shared conv layer's gradient by channel owner, and
projects conflicting group gradients onto the plane orthogonal to the
owner's gradient before summing. An epoch's phase is drawn from a
uniform variable compared against e/E, so Phase 2 takes over as training
progresses.

Phase 2, GD and PCGrad run through one projection loop in
``MtlOptimizer._joint_step`` and differ only in the groups they pass it: a
group is a set of shared-gradient coordinates plus, for each task, the
reference task its block is projected against. Phase 2 forms one group per
owner of a layer's channels with the owner as every task's reference, PCGrad one group of
every shared parameter with the other task as the reference, GD none.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, ShapeError, StateError
from .network import Batch, Model, partition_parameters, per_task_gradients

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
class Projection:
    """One task's block of a group, projected against its reference task's block."""

    layer: str
    task: int
    reference_task: int
    reference: np.ndarray
    result: np.ndarray


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
    projected: list[Projection] = field(default_factory=list)


# a group of flat shared-gradient coordinates: (log label, flat indices, the
# reference task of each task); a task that is its own reference is summed as is
Group = tuple[str, np.ndarray, Mapping[int, int]]


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
        # the joint steps lay the shared gradients out flat in sorted-name order
        self._names = sorted(self.partition.shared)
        sizes = [self.partition.shared[n].size for n in self._names]
        self._offsets = dict(zip(self._names, np.cumsum([0] + sizes[:-1]).tolist()))
        self._flat_size = sum(sizes)
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

    # -- steps -------------------------------------------------------------

    def phase1_step(self, batch: Batch, weights: Mapping[int, float]) -> StepResult:
        """Sequential per-task updates: task i sees the shared parameters
        already moved by tasks 1..i-1 within the same step."""
        self._begin_step()
        w = self._weights_by_task(weights)
        losses: dict[int, float] = {}
        for tid in self.task_order:
            loss, shared, own = per_task_gradients(
                self.model, batch, tid, loss_weight=w[tid], partition=self.partition)
            losses[tid] = loss
            for name, grad in shared.items():
                self._apply(name, self.partition.shared[name], grad)
            for name, grad in own.items():
                self._apply(name, self.partition.per_task[tid][name], grad)
        return StepResult(losses)

    def _joint_step(self, batch: Batch, weights: Mapping[int, float],
                    groups: Sequence[Group]) -> StepResult:
        """All task gradients at the same parameters, one write per parameter.

        Every shared coordinate gets the sum of the task gradients in task
        order. Each group then resums its coordinates, with each task's block
        projected against its reference task's block where that is another
        task. A dot <= 0 counts as a conflict and a projection that moves the
        block (dot < 0, nonzero reference) as a projection; every group logs
        its label, 0 included.
        """
        self._begin_step()
        w = self._weights_by_task(weights)
        result = StepResult({})
        flats: dict[int, np.ndarray] = {}
        own: dict[int, dict[str, np.ndarray]] = {}
        for tid in self.task_order:
            result.losses[tid], shared, own[tid] = per_task_gradients(
                self.model, batch, tid, loss_weight=w[tid], partition=self.partition)
            # the empty head keeps a model without shared parameters valid
            flats[tid] = np.concatenate([np.empty(0)] + [shared[n].reshape(-1) for n in self._names])
        total = np.zeros(self._flat_size)
        for tid in self.task_order:
            total += flats[tid]
        for layer, idx, references in groups:
            blocks = {tid: flat[idx] for tid, flat in flats.items()}
            part = np.zeros(idx.size)
            conflicts = projections = 0
            for tid in self.task_order:
                g, ref_tid = blocks[tid], references[tid]
                if ref_tid != tid:
                    ref = blocks[ref_tid]
                    d = float(g @ ref)
                    conflicts += d <= 0.0
                    projections += d < 0.0 and float(ref @ ref) > 0.0
                    g = project_gradient(g, ref)
                    result.projected.append(Projection(layer, tid, ref_tid, ref, g))
                part += g
            total[idx] = part
            result.conflicts[layer] = result.conflicts.get(layer, 0) + conflicts
            result.projections[layer] = result.projections.get(layer, 0) + projections
        for name in self._names:
            tensor = self.partition.shared[name]
            offset = self._offsets[name]
            self._apply(name, tensor, total[offset:offset + tensor.size].reshape(tensor.shape))
        for tid in self.task_order:
            for name, grad in own[tid].items():
                self._apply(name, self.partition.per_task[tid][name], grad)
        return result

    def gd_step(self, batch: Batch, weights: Mapping[int, float]) -> StepResult:
        """Conventional GD: one update with the weighted gradient sum."""
        return self._joint_step(batch, weights, [])

    def phase2_step(self, batch: Batch, weights: Mapping[int, float],
                    owners: Mapping[str, np.ndarray]) -> StepResult:
        """Priority-preserving step: ``owners`` maps a layer to the owner
        task id of each of its output channels. In the channels of one owner,
        every task's gradient is projected against the owner's when the two
        conflict. Layers without owners are summed."""
        task_ids = self.model.spec.task_ids
        groups: list[Group] = []
        for name in self.partition.shared:
            layer = name.rsplit(".", 1)[0]
            if layer not in owners:
                continue
            layer_owners = np.asarray(owners[layer])
            tensor = self.partition.shared[name]
            if layer_owners.shape != tensor.shape[:1]:
                raise StateError(f"{layer}: {layer_owners.size} owners, weight has "
                                 f"{tensor.shape[0]} channels (stale snapshot)")
            width = tensor.size // tensor.shape[0]
            owned = 0
            for owner in task_ids:
                channels = np.flatnonzero(layer_owners == owner)
                owned += channels.size
                if channels.size:
                    rows = self._offsets[name] + width * channels
                    idx = (rows[:, None] + np.arange(width)).reshape(-1)
                    groups.append((layer, idx, dict.fromkeys(self.task_order, owner)))
            # counted, not np.setdiff1d: that cost ~40 us a layer per step and ~1 MB peak RSS
            if owned != layer_owners.size:
                unknown = np.setdiff1d(layer_owners, task_ids)[0]
                raise StateError(f"{layer}: owner {unknown} is not a task id")
        return self._joint_step(batch, weights, groups)

    def pcgrad_step(self, batch: Batch, weights: Mapping[int, float]) -> StepResult:
        """PCGrad over one group that holds every shared parameter: each
        task's flattened gradient is projected against the other task's
        when the two conflict. A lone task forms no group."""
        order = self.task_order
        groups: list[Group] = []
        if len(order) == 2:
            groups.append(("shared", np.arange(self._flat_size), dict(zip(order, order[::-1]))))
        return self._joint_step(batch, weights, groups)

    def step(self, batch: Batch, weights: Mapping[int, float], phase: str | None = None,
             owners: Mapping[str, np.ndarray] | None = None) -> StepResult:
        """Dispatch one step for the configured method."""
        if self.config.method == METHOD_GD:
            return self.gd_step(batch, weights)
        if self.config.method == METHOD_PCGRAD:
            return self.pcgrad_step(batch, weights)
        if phase == PHASE1:
            return self.phase1_step(batch, weights)
        if phase == PHASE2:
            if owners is None:
                raise ConfigError("phase2 step needs channel owners")
            return self.phase2_step(batch, weights, owners)
        raise ConfigError(f"method {self.config.method!r} needs phase {PHASE1!r} or {PHASE2!r}")
