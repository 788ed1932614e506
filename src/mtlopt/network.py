"""Shared-trunk multi-head models with task-specific batch normalization.

The trunk is a stack of conv layers, each (by default) followed by one
batch-norm state per task and a relu. Heads are per-task conv stacks.
Parameters split into a shared set (trunk conv weights and biases) and one
set per task (that task's batch-norm scales/shifts plus its head).
"""
from __future__ import annotations

import io
import json
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .autodiff import BN_EPS, BN_MOMENTUM, BatchNormState, Tape, Tensor
from .errors import ConfigError, DataError, NumericError

LOSS_KINDS = ("mse", "cross_entropy")


@dataclass(frozen=True)
class ConvSpec:
    """One conv layer: channels, square kernel, stride/padding, and whether a
    per-task batch norm (trunk only), a bias term, and a relu are attached."""

    in_channels: int
    out_channels: int
    kernel_size: int = 3
    stride: int = 1
    padding: int | None = None  # None -> kernel_size // 2
    batch_norm: bool = True
    bias: bool = True
    activation: bool = True

    @property
    def pad(self) -> int:
        return self.kernel_size // 2 if self.padding is None else self.padding


@dataclass(frozen=True)
class TaskSpec:
    id: int
    loss: str = "mse"
    weight: float = 1.0


@dataclass(frozen=True)
class ModelSpec:
    trunk: tuple[ConvSpec, ...]
    heads: Mapping[int, tuple[ConvSpec, ...]]
    tasks: tuple[TaskSpec, ...]

    @property
    def task_ids(self) -> tuple[int, ...]:
        return tuple(t.id for t in self.tasks)

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    def task(self, task_id: int) -> TaskSpec:
        for t in self.tasks:
            if t.id == task_id:
                return t
        raise ConfigError(f"no task with id {task_id}")

    def validate(self) -> None:
        k = self.num_tasks
        if k < 1:
            raise ConfigError("model spec needs at least one task")
        if self.task_ids != tuple(range(1, k + 1)):
            raise ConfigError(f"task ids must be dense 1..K, got {self.task_ids}")
        for t in self.tasks:
            if t.loss not in LOSS_KINDS:
                raise ConfigError(f"task {t.id}: unknown loss kind {t.loss!r}")
            if t.weight < 0:
                raise ConfigError(f"task {t.id}: weight must be nonnegative")
        prev = None
        for i, layer in enumerate(self.trunk):
            if prev is not None and layer.in_channels != prev:
                raise ConfigError(
                    f"trunk layer {i}: expects {layer.in_channels} input channels "
                    f"but previous layer emits {prev}")
            prev = layer.out_channels
        for tid, head in self.heads.items():
            if tid not in self.task_ids:
                raise ConfigError(f"head declared for unknown task {tid}")
            hprev = prev
            for i, layer in enumerate(head):
                if hprev is not None and layer.in_channels != hprev:
                    raise ConfigError(
                        f"head {tid} layer {i}: expects {layer.in_channels} input "
                        f"channels but receives {hprev}")
                hprev = layer.out_channels

    def to_dict(self) -> dict:
        return {
            "trunk": [vars(c).copy() for c in self.trunk],
            "heads": {str(tid): [vars(c).copy() for c in head] for tid, head in self.heads.items()},
            "tasks": [vars(t).copy() for t in self.tasks],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        spec = cls(
            trunk=tuple(ConvSpec(**c) for c in d.get("trunk", ())),
            heads={int(tid): tuple(ConvSpec(**c) for c in head)
                   for tid, head in d.get("heads", {}).items()},
            tasks=tuple(TaskSpec(**t) for t in d.get("tasks", ())),
        )
        spec.validate()
        return spec


@dataclass
class Batch:
    """One training batch: inputs plus one target per task id."""

    x: np.ndarray
    targets: dict[int, np.ndarray]


class ConvLayer:
    """Conv weights (plus optional bias and per-task batch-norm states)."""

    def __init__(self, spec: ConvSpec, weight: np.ndarray, task_ids: Iterable[int]):
        self.spec = spec
        self.weight = Tensor(weight)
        self.bias = Tensor(np.zeros(spec.out_channels)) if spec.bias else None
        self.bn: dict[int, BatchNormState] = (
            {tid: BatchNormState.fresh(spec.out_channels) for tid in task_ids}
            if spec.batch_norm else {})


class Model:
    """A built shared-trunk multi-head network. Use build_model() to create one."""

    def __init__(self, spec: ModelSpec, trunk: list[ConvLayer], heads: dict[int, list[ConvLayer]]):
        self.spec = spec
        self.trunk = trunk
        self.heads = heads

    # -- parameter bookkeeping ------------------------------------------

    def named_parameters(self) -> dict[str, Tensor]:
        params: dict[str, Tensor] = {}
        for i, layer in enumerate(self.trunk):
            params[f"trunk.{i}.weight"] = layer.weight
            if layer.bias is not None:
                params[f"trunk.{i}.bias"] = layer.bias
            for tid, st in layer.bn.items():
                params[f"trunk.{i}.bn.{tid}.gamma"] = st.gamma
                params[f"trunk.{i}.bn.{tid}.beta"] = st.beta
        for tid, head in self.heads.items():
            for i, layer in enumerate(head):
                params[f"head.{tid}.{i}.weight"] = layer.weight
                if layer.bias is not None:
                    params[f"head.{tid}.{i}.bias"] = layer.bias
        return params

    def named_buffers(self) -> dict[str, np.ndarray]:
        bufs: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.trunk):
            for tid, st in layer.bn.items():
                bufs[f"trunk.{i}.bn.{tid}.running_mean"] = st.running_mean
                bufs[f"trunk.{i}.bn.{tid}.running_var"] = st.running_var
        return bufs

    def zero_grad(self) -> None:
        for p in self.named_parameters().values():
            p.zero_grad()

    def trunk_weight_names(self) -> list[str]:
        return [f"trunk.{i}.weight" for i in range(len(self.trunk))]

    # -- forward ---------------------------------------------------------

    def forward(self, x: np.ndarray | Tensor, task: int, tape: Tape, mode: str = "train") -> Tensor:
        if task not in self.spec.task_ids:
            raise ConfigError(f"forward: unknown task {task}")
        h = x  # a plain array stays a constant: no gradient for the images
        for layer in self.trunk:
            h = tape.conv2d(h, layer.weight, layer.bias,
                            stride=layer.spec.stride, padding=layer.spec.pad)
            if layer.bn:
                h = tape.task_batchnorm(h, layer.bn, task, mode=mode,
                                        eps=BN_EPS, momentum=BN_MOMENTUM)
            if layer.spec.activation:
                h = tape.relu(h)
        head = self.heads.get(task, [])
        for i, layer in enumerate(head):
            h = tape.conv2d(h, layer.weight, layer.bias,
                            stride=layer.spec.stride, padding=layer.spec.pad)
            if i < len(head) - 1 and layer.spec.activation:
                h = tape.relu(h)
        return h


def build_model(spec: ModelSpec, seed: int) -> Model:
    """Build a model with seeded uniform fan-in initialization.

    Conv weights ~ U(-a, a) with a = sqrt(1/fan_in); biases start at zero;
    batch-norm states start at gamma=1, beta=0, running stats (0, 1).
    Head layers never carry batch norm (they are task-specific already).
    Deterministic for a fixed seed.
    """
    spec.validate()
    rng = np.random.default_rng(np.random.SeedSequence(int(seed) & 0xFFFFFFFFFFFFFFFF))

    def init_weight(c: ConvSpec) -> np.ndarray:
        fan_in = c.in_channels * c.kernel_size ** 2
        a = np.sqrt(1.0 / fan_in)
        return rng.uniform(-a, a, size=(c.out_channels, c.in_channels, c.kernel_size, c.kernel_size))

    trunk = [ConvLayer(c, init_weight(c), spec.task_ids) for c in spec.trunk]
    heads = {}
    for tid in spec.task_ids:
        heads[tid] = [ConvLayer(
            ConvSpec(**{**vars(c), "batch_norm": False}), init_weight(c), ())
            for c in spec.heads.get(tid, ())]
    return Model(spec, trunk, heads)


@dataclass
class ParameterPartition:
    """Disjoint split of the model's parameters into shared and per-task sets."""

    shared: dict[str, Tensor]
    per_task: dict[int, dict[str, Tensor]]

    def validate(self, model: Model) -> None:
        names = [set(self.shared)] + [set(v) for v in self.per_task.values()]
        total = sum(len(s) for s in names)
        union = set().union(*names)
        if total != len(union):
            raise ConfigError("parameter partition has overlapping sets")
        if union != set(model.named_parameters()):
            raise ConfigError("parameter partition does not cover the model")


def partition_parameters(model: Model) -> ParameterPartition:
    """Split parameters: trunk conv weights/biases are shared; each task owns
    its batch-norm scales/shifts and its head."""
    shared: dict[str, Tensor] = {}
    per_task: dict[int, dict[str, Tensor]] = {tid: {} for tid in model.spec.task_ids}
    for name, p in model.named_parameters().items():
        parts = name.split(".")
        if parts[0] == "trunk" and parts[2] == "bn":
            per_task[int(parts[3])][name] = p
        elif parts[0] == "trunk":
            shared[name] = p
        else:
            per_task[int(parts[1])][name] = p
    part = ParameterPartition(shared, per_task)
    part.validate(model)
    return part


@dataclass
class GradientSet:
    """Snapshot of one task's gradients over the shared parameters."""

    task: int
    entries: dict[str, np.ndarray]

    def flat(self, order: Iterable[str]) -> np.ndarray:
        return np.concatenate([self.entries[n].reshape(-1) for n in order])

    def dot(self, other: "GradientSet") -> float:
        return float(sum((self.entries[n] * other.entries[n]).sum() for n in self.entries))


def is_conflicting(a: GradientSet, b: GradientSet) -> bool:
    """Non-positive dot product over the shared parameters."""
    return a.dot(b) <= 0.0


def per_task_gradients(model: Model, batch: Batch, task: int,
                       loss_weight: float = 1.0, mode: str = "train",
                       partition: "ParameterPartition | None" = None,
                       ) -> tuple[float, GradientSet, dict[str, np.ndarray]]:
    """Forward/backward one task; return (raw loss, shared grads, own grads).

    Backpropagates loss_weight * L_task. The returned loss value is the raw
    (unweighted) loss. Gradient snapshots are copies; later passes or
    parameter updates cannot alias them. Caller zeroes grads beforehand.
    """
    if task not in batch.targets:
        raise DataError(f"batch has no target for task {task}")
    tape = Tape()
    pred = model.forward(batch.x, task, tape, mode=mode)
    kind = model.spec.task(task).loss
    loss = tape.compute_loss(pred, batch.targets[task], kind)
    if not np.isfinite(loss.data):
        raise NumericError(f"task {task}: non-finite loss {loss.data!r}")
    tape.backward(tape.scale(loss, loss_weight))
    if partition is None:
        partition = partition_parameters(model)
    shared = GradientSet(task, {n: p.grad.copy() for n, p in partition.shared.items()})
    own = {n: p.grad.copy() for n, p in partition.per_task[task].items()}
    return loss.item(), shared, own


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def save_checkpoint(model: Model, path: str) -> None:
    """Dump spec plus every parameter and running-stat array; bit-exact."""
    arrays = {f"param:{n}": p.data for n, p in model.named_parameters().items()}
    arrays.update({f"buffer:{n}": b for n, b in model.named_buffers().items()})
    arrays["spec_json"] = np.frombuffer(
        json.dumps(model.spec.to_dict(), sort_keys=True).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path: str) -> Model:
    with np.load(path) as data:
        spec = ModelSpec.from_dict(json.loads(bytes(data["spec_json"]).decode("utf-8")))
        model = build_model(spec, seed=0)
        params = model.named_parameters()
        buffers = model.named_buffers()
        for key in data.files:
            if key.startswith("param:"):
                params[key[len("param:"):]].data[...] = data[key]
            elif key.startswith("buffer:"):
                buffers[key[len("buffer:"):]][...] = data[key]
    model.zero_grad()
    return model


def clone_model(model: Model) -> Model:
    """Deep copy via an in-memory checkpoint round trip."""
    buf = io.BytesIO()
    arrays = {f"param:{n}": p.data for n, p in model.named_parameters().items()}
    arrays.update({f"buffer:{n}": b for n, b in model.named_buffers().items()})
    np.savez(buf, **arrays)
    buf.seek(0)
    clone = build_model(model.spec, seed=0)
    with np.load(buf) as data:
        params = clone.named_parameters()
        buffers = clone.named_buffers()
        for key in data.files:
            if key.startswith("param:"):
                params[key[len("param:"):]].data[...] = data[key]
            else:
                buffers[key[len("buffer:"):]][...] = data[key]
    return clone
