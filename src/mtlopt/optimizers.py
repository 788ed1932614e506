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

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, ShapeError, StateError, is_int, is_number
from .network import SHARED, Batch, Model, per_task_gradients

PHASE1 = "phase1"
PHASE2 = "phase2"

METHOD_OURS = "ours"
METHOD_GD = "gd"
METHOD_PCGRAD = "pcgrad"
METHODS = (METHOD_OURS, METHOD_GD, METHOD_PCGRAD)
PROJECTION_DOT_FLOOR = -1e-12  # least result @ reference that training and criterion 3 accept


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
        if not (is_int(total_epochs) and total_epochs > 0):
            raise ConfigError(f"total_epochs: must be a positive integer, got {total_epochs!r}")
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

    Returns g unchanged (as a copy) when ref is zero. Otherwise it subtracts
    the component along ref until ``out @ ref >= -slack * |out|``, a step
    leaves ``out`` unchanged, or 64 steps have run. Nothing detects a cycle;
    criterion 3 checks idempotence empirically, it is not proved.
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
    lr: float = 0.1
    update_rule: str = "sgd"  # "sgd" | "adam"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def validate(self, task_ids: Sequence[int]) -> None:
        """Raise ConfigError naming the first bad field, Adam's under sgd too."""
        if self.method not in METHODS:
            raise ConfigError(f"method: must be one of {METHODS}, got {self.method!r}")
        if not (is_number(self.lr) and self.lr > 0):
            raise ConfigError(f"lr: must be positive and finite, got {self.lr!r}")
        if self.update_rule not in ("sgd", "adam"):
            raise ConfigError(f"update_rule: must be 'sgd' or 'adam', got {self.update_rule!r}")
        for key, beta in (("beta1", self.adam_beta1), ("beta2", self.adam_beta2)):
            if not (is_number(beta) and 0 <= beta < 1):
                raise ConfigError(f"update_rule.{key}: must be a number in [0, 1), got {beta!r}")
        if not (is_number(self.adam_eps) and self.adam_eps > 0):
            raise ConfigError(f"update_rule.eps: must be a positive number, got {self.adam_eps!r}")
        if self.method == METHOD_PCGRAD and len(task_ids) > 2:
            # projection against the one other task; more tasks would need
            # PCGrad's random order over them
            raise ConfigError(f"method: pcgrad takes at most 2 tasks, got {len(task_ids)}")


class _SgdRule:
    def __init__(self, lr: float):
        self.lr = lr

    def apply(self, key: str | int, block: slice, data: np.ndarray, grad: np.ndarray) -> None:
        data -= self.lr * grad


class _AdamRule:
    """Adam over flat moment vectors laid out like the model's parameters,
    with one step count per block."""

    def __init__(self, size: int, lr: float, beta1: float, beta2: float, eps: float):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        self._t: dict[str | int, int] = {}

    def apply(self, key: str | int, block: slice, data: np.ndarray, grad: np.ndarray) -> None:
        m, v = self._m[block], self._v[block]
        t = self._t.get(key, 0) + 1
        self._t[key] = t
        m *= self.beta1
        m += (1 - self.beta1) * grad
        v *= self.beta2
        v += (1 - self.beta2) * grad * grad
        m_hat = m / (1 - self.beta1 ** t)
        v_hat = v / (1 - self.beta2 ** t)
        data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass
class StepResult:
    """One step's record: each task's loss, each block key's writes, and
    each group label's conflicts and projections."""

    losses: dict[int, float]
    writes: Counter = field(default_factory=Counter)
    conflicts: Counter = field(default_factory=Counter)
    projections: Counter = field(default_factory=Counter)
    projected: list[Projection] = field(default_factory=list)


# a group of flat shared-gradient coordinates: (log label, flat indices, the
# reference task of each task); a task that is its own reference is summed as is
Group = tuple[str, np.ndarray, Mapping[int, int]]


class MtlOptimizer:
    """Applies multi-task update steps to one model.

    Holds only the update rule's state (Adam moments and step counts), so a
    step's outcome depends only on its arguments and that state. Every
    update writes one whole block of the model's flat parameter vector: the
    shared block, or one task's own block, and counts it in the step's
    ``StepResult.writes``.
    """

    def __init__(self, model: Model, config: OptimizerConfig):
        config.validate(model.spec.task_ids)
        self.model = model
        self.config = config
        self.layout = model.layout
        if config.update_rule == "adam":
            self._rule = _AdamRule(self.layout.size, config.lr, config.adam_beta1,
                                   config.adam_beta2, config.adam_eps)
        else:
            self._rule = _SgdRule(config.lr)

    # -- bookkeeping ------------------------------------------------------

    def _apply(self, result: StepResult, key: str | int, grad: np.ndarray) -> None:
        block = self.layout.blocks[key]
        self._rule.apply(key, block, self.model.flat_data[block], grad)
        result.writes[key] += 1

    def _weights_by_task(self, weights: Mapping[int, float]) -> dict[int, float]:
        return {tid: float(weights[tid]) for tid in self.model.spec.task_ids}

    # -- steps -------------------------------------------------------------

    def phase1_step(self, batch: Batch, weights: Mapping[int, float]) -> StepResult:
        """Sequential per-task updates in task-id order: each task sees the
        shared parameters already moved by the tasks before it in the same step."""
        w = self._weights_by_task(weights)
        result = StepResult({})
        for tid in self.model.spec.task_ids:
            result.losses[tid], shared, own = per_task_gradients(self.model, batch, tid,
                                                                 loss_weight=w[tid])
            self._apply(result, SHARED, shared)
            self._apply(result, tid, own)
        return result

    def _joint_step(self, batch: Batch, weights: Mapping[int, float],
                    groups: Sequence[Group]) -> StepResult:
        """All task gradients at the same parameters, one write per block.

        Every shared coordinate gets the sum of the task gradients in task
        order. Each group then resums its coordinates, with each task's block
        projected against its reference task's block where that is another
        task. A dot <= 0 counts as a conflict and a projection that moves the
        block (dot < 0, nonzero reference) as a projection; every group logs
        its label, 0 included.
        """
        task_ids = self.model.spec.task_ids
        w = self._weights_by_task(weights)
        result = StepResult({})
        flats: dict[int, np.ndarray] = {}
        own: dict[int, np.ndarray] = {}
        for tid in task_ids:
            result.losses[tid], flats[tid], own[tid] = per_task_gradients(
                self.model, batch, tid, loss_weight=w[tid])
        total = np.zeros_like(flats[task_ids[0]])
        for tid in task_ids:
            total += flats[tid]
        for layer, idx, references in groups:
            blocks = {tid: flat[idx] for tid, flat in flats.items()}
            part = np.zeros(idx.size)
            conflicts = projections = 0
            for tid in task_ids:
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
            result.conflicts[layer] += conflicts
            result.projections[layer] += projections
        self._apply(result, SHARED, total)
        for tid in task_ids:
            self._apply(result, tid, own[tid])
        return result

    def gd_step(self, batch: Batch, weights: Mapping[int, float]) -> StepResult:
        """Conventional GD: one update with the weighted gradient sum."""
        return self._joint_step(batch, weights, [])

    def phase2_step(self, batch: Batch, weights: Mapping[int, float],
                    owners: Mapping[str, np.ndarray]) -> StepResult:
        """Priority-preserving step: ``owners`` maps a layer to the owner
        task id of each of its output channels. Each call builds one group
        per owner of a layer's channels, in the order of ``owners``, where
        every task's gradient is projected against the owner's when the two
        conflict. Layers without owners are summed; a key that names no
        shared conv weight is a StateError before any write."""
        task_ids = self.model.spec.task_ids
        layout = self.layout
        groups: list[Group] = []
        for layer, layer_owners in owners.items():
            name = f"{layer}.weight"
            if name not in layout.members[SHARED]:
                raise StateError(f"{layer}: owners name no shared conv weight")
            layer_owners = np.asarray(layer_owners)
            shape = layout.shapes[name]
            if layer_owners.shape != shape[:1]:
                raise StateError(f"{layer}: {layer_owners.size} owners, weight has "
                                 f"{shape[0]} channels (stale snapshot)")
            start = layout.slices[name].start - layout.blocks[SHARED].start
            # the owner of each coordinate of the weight, a channel's row at a time
            coordinate_owners = np.repeat(layer_owners, math.prod(shape[1:]))
            owned = 0
            for owner in task_ids:
                idx = np.flatnonzero(coordinate_owners == owner)
                owned += idx.size
                if idx.size:
                    groups.append((layer, start + idx, dict.fromkeys(task_ids, owner)))
            # counted, not np.setdiff1d: that cost ~40 us a layer per step and ~1 MB peak RSS
            if owned != coordinate_owners.size:
                unknown = np.setdiff1d(layer_owners, task_ids)[0]
                raise StateError(f"{layer}: owner {unknown} is not a task id")
        return self._joint_step(batch, weights, groups)

    def pcgrad_step(self, batch: Batch, weights: Mapping[int, float]) -> StepResult:
        """PCGrad over one group that holds every shared parameter: each
        task's flattened gradient is projected against the other task's
        when the two conflict. A lone task forms no group."""
        order = self.model.spec.task_ids
        groups: list[Group] = []
        if len(order) == 2:
            shared = self.layout.blocks[SHARED]
            groups.append(("shared", np.arange(shared.stop - shared.start),
                           dict(zip(order, order[::-1]))))
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
