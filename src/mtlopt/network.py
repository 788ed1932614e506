"""Shared-trunk multi-head models with task-specific batch normalization.

The trunk is a stack of conv layers, each (by default) followed by one
batch-norm state per task and a relu. Heads are per-task conv stacks.
Parameters split into a shared set (trunk conv weights, plus the biases of
trunk layers without batch norm) and one set per task (that task's
batch-norm scales/shifts plus its head). The model keeps every parameter's
values in one flat vector and their gradients in another, one block per
set; a parameter's ``.data`` and ``.grad`` are views into them.
"""
from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import Iterable, Iterator, Mapping

import numpy as np

from .autodiff import BatchNormState, Tape, Tensor, _row_sized_buffers
from .errors import ConfigError, DataError, MtloptError

LOSS_KINDS = ("mse", "cross_entropy")
SHARED = "shared"  # the shared block's key; a task's own block is keyed by its id


@dataclass(frozen=True)
class ConvSpec:
    """One conv layer: channels, an odd square kernel, and whether a per-task
    batch norm (trunk only) and a relu are attached. Every conv runs at
    stride 1 with padding kernel_size // 2, so it keeps the spatial size. A
    conv has a bias exactly when it has no batch norm: train-mode batch norm
    subtracts the channel mean, and any bias with it."""

    in_channels: int
    out_channels: int
    kernel_size: int = 3
    batch_norm: bool = True
    activation: bool = True


@dataclass(frozen=True)
class TaskSpec:
    id: int
    loss: str = "mse"


def _spec_from_dict(cls, d, where: str):
    """Build a ConvSpec or TaskSpec, naming the layer or task on a bad key."""
    if not isinstance(d, Mapping):
        raise ConfigError(f"{where}: expected an object")
    names = [f.name for f in fields(cls)]
    for key in d:
        if key not in names:
            raise ConfigError(f"{where}: unknown field {key!r}")
    for f in fields(cls):
        if f.default is MISSING and f.name not in d:
            raise ConfigError(f"{where}: missing field {f.name!r}")
    return cls(**d)


def _task_from_dict(d, where: str) -> TaskSpec:
    # a task's loss weight comes from loss_scaling; the key parses for
    # configs written with it, but only at the neutral value
    if isinstance(d, Mapping) and "weight" in d:
        weight = d["weight"]
        if isinstance(weight, bool) or weight != 1.0:
            raise ConfigError(f"{where}: weight {weight!r} is not 1.0; set per-task loss "
                              "weights with loss_scaling.manual_ratios")
        d = {k: v for k, v in d.items() if k != "weight"}
    return _spec_from_dict(TaskSpec, d, where)


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
        ids = self.task_ids
        if not ids:
            raise ConfigError("model spec needs at least one task")
        if not all(type(t) is int and t >= 1 for t in ids) or list(ids) != sorted(set(ids)):
            raise ConfigError(f"task ids must be ascending, distinct positive integers, got {ids}")
        for t in self.tasks:
            if t.loss not in LOSS_KINDS:
                raise ConfigError(f"task {t.id}: unknown loss kind {t.loss!r}")
        layers = [(f"trunk layer {i}", c) for i, c in enumerate(self.trunk)]
        layers += [(f"head {tid} layer {i}", c)
                   for tid, head in self.heads.items() for i, c in enumerate(head)]
        for where, c in layers:
            if not all(type(v) is int and v >= 1
                       for v in (c.in_channels, c.out_channels, c.kernel_size)):
                raise ConfigError(f"{where}: channels and kernel_size must be positive integers")
            if c.kernel_size % 2 == 0:
                raise ConfigError(f"{where}: kernel_size must be odd, got {c.kernel_size}")
            if type(c.batch_norm) is not bool or type(c.activation) is not bool:
                raise ConfigError(f"{where}: batch_norm and activation must be booleans")
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

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        for key in d:
            if key not in ("trunk", "heads", "tasks"):
                raise ConfigError(f"unknown field {key!r}")
        spec = cls(
            trunk=tuple(_spec_from_dict(ConvSpec, c, f"trunk[{i}]")
                        for i, c in enumerate(d.get("trunk", ()))),
            heads={int(tid): tuple(_spec_from_dict(ConvSpec, c, f"heads.{tid}[{i}]")
                                   for i, c in enumerate(head))
                   for tid, head in d.get("heads", {}).items()},
            tasks=tuple(_task_from_dict(t, f"tasks[{i}]")
                        for i, t in enumerate(d.get("tasks", ()))),
        )
        spec.validate()
        return spec


@dataclass
class Batch:
    """One training batch: inputs plus one target per task id."""

    x: np.ndarray
    targets: dict[int, np.ndarray]


class ConvLayer:
    """Conv weights plus either per-task batch-norm states or a bias."""

    def __init__(self, spec: ConvSpec, weight: np.ndarray, task_ids: Iterable[int]):
        self.spec = spec
        self.weight = Tensor(weight)
        self.bias = None if spec.batch_norm else Tensor(np.zeros(spec.out_channels))
        self.bn: dict[int, BatchNormState] = (
            {tid: BatchNormState.fresh(spec.out_channels) for tid in task_ids}
            if spec.batch_norm else {})


class ParameterLayout:
    """Where each parameter lives in a model's two flat vectors.

    The shared block comes first, at offset 0, its parameters in
    sorted-name order; then each task's own block in task-id order, holding
    that task's batch-norm scales and shifts and then its head, in model
    order. ``members`` lists each block's names, ``blocks`` and ``slices``
    give each block's and each name's place in the flat vectors.
    """

    def __init__(self, shapes: Mapping[str, tuple[int, ...]],
                 members: Mapping[str | int, Iterable[str]]):
        self.shapes = dict(shapes)
        self.members = {key: tuple(names) for key, names in members.items()}
        self.slices: dict[str, slice] = {}
        self.blocks: dict[str | int, slice] = {}
        offset = 0
        for key, names in self.members.items():
            start = offset
            for name in names:
                size = math.prod(self.shapes[name])
                self.slices[name] = slice(offset, offset + size)
                offset += size
            self.blocks[key] = slice(start, offset)
        self.size = offset

    def views(self, values: np.ndarray, key: str | int | None = None) -> dict[str, np.ndarray]:
        """Name -> shaped view into ``values``, a vector laid out like the
        whole model, or with ``key`` like that one block (as the blocks
        ``per_task_gradients`` returns)."""
        names = self.slices if key is None else self.members[key]
        base = 0 if key is None else self.blocks[key].start
        return {n: values[self.slices[n].start - base:self.slices[n].stop - base]
                .reshape(self.shapes[n]) for n in names}


class Model:
    """A built shared-trunk multi-head network. Use build_model() to create one.

    ``flat_data`` and ``flat_grad`` hold every parameter's values and
    gradients, laid out by ``layout``; each parameter tensor's ``.data`` and
    ``.grad`` are views into them.
    """

    def __init__(self, spec: ModelSpec, trunk: list[ConvLayer], heads: dict[int, list[ConvLayer]]):
        self.spec = spec
        self.trunk = trunk
        self.heads = heads
        self._flatten()

    def _flatten(self) -> None:
        """Copy every parameter's values and gradient into fresh flat vectors
        and point its ``.data`` and ``.grad`` at its views."""
        params: dict[str, Tensor] = {}
        members: dict[str | int, list[str]] = {SHARED: []}
        members.update((tid, []) for tid in self.spec.task_ids)
        for block, name, p in self._walk_parameters():
            params[name] = p
            members[block].append(name)
        members[SHARED].sort()
        self.layout = ParameterLayout({n: p.shape for n, p in params.items()}, members)
        self.flat_data = np.empty(self.layout.size)
        self.flat_grad = np.empty(self.layout.size)
        data, grad = self.layout.views(self.flat_data), self.layout.views(self.flat_grad)
        for name, p in params.items():
            data[name][...] = p.data
            grad[name][...] = p.grad
            p.data, p.grad = data[name], grad[name]

    def __setstate__(self, state: dict) -> None:
        # a deep copy or an unpickled model holds each parameter's arrays
        # apart, no longer views into its flat vectors
        self.__dict__.update(state)
        self._flatten()

    # -- parameter bookkeeping ------------------------------------------

    def _walk_parameters(self) -> Iterator[tuple[str | int, str, Tensor]]:
        """(block, name, tensor) of every parameter in model order: a trunk
        layer's weight and bias are shared, its batch-norm scales and shifts
        belong to their task, and a head belongs to its task."""
        for i, layer in enumerate(self.trunk):
            yield SHARED, f"trunk.{i}.weight", layer.weight
            if layer.bias is not None:
                yield SHARED, f"trunk.{i}.bias", layer.bias
            for tid, st in layer.bn.items():
                yield tid, f"trunk.{i}.bn.{tid}.gamma", st.gamma
                yield tid, f"trunk.{i}.bn.{tid}.beta", st.beta
        for tid, head in self.heads.items():
            for i, layer in enumerate(head):
                yield tid, f"head.{tid}.{i}.weight", layer.weight
                yield tid, f"head.{tid}.{i}.bias", layer.bias

    def named_parameters(self) -> dict[str, Tensor]:
        return {name: p for _, name, p in self._walk_parameters()}

    def named_buffers(self) -> dict[str, np.ndarray]:
        bufs: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.trunk):
            for tid, st in layer.bn.items():
                bufs[f"trunk.{i}.bn.{tid}.running_mean"] = st.running_mean
                bufs[f"trunk.{i}.bn.{tid}.running_var"] = st.running_var
        return bufs

    def zero_grad(self) -> None:
        self.flat_grad.fill(0.0)

    # -- forward ---------------------------------------------------------

    def forward(self, x: np.ndarray | Tensor, task: int, tape: Tape, mode: str = "train") -> Tensor:
        if task not in self.spec.task_ids:
            raise ConfigError(f"forward: unknown task {task}")
        h = x  # a plain array stays a constant: no gradient for the images
        for layer in self.trunk:
            h = tape.conv2d(h, layer.weight, layer.bias)
            if layer.bn:
                h = tape.task_batchnorm(h, layer.bn[task], mode=mode)
            if layer.spec.activation:
                h = tape.relu(h)
        head = self.heads.get(task, [])
        for i, layer in enumerate(head):
            h = tape.conv2d(h, layer.weight, layer.bias)
            if i < len(head) - 1 and layer.spec.activation:
                h = tape.relu(h)
        return h


def build_model(spec: ModelSpec, seed: int) -> Model:
    """Build a model with seeded uniform fan-in initialization.

    Conv weights ~ U(-a, a) with a = sqrt(1/fan_in); biases start at zero;
    batch-norm states start at gamma=1, beta=0, running stats (0, 1).
    Head layers never carry batch norm (they are task-specific already), so
    they all carry a bias.
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


def per_task_gradients(model: Model, batch: Batch, task: int,
                       loss_weight: float = 1.0) -> tuple[float, np.ndarray, np.ndarray]:
    """Forward/backward one task; return (raw loss, shared grads, own grads).

    Backpropagates loss_weight * L_task. The returned loss value is the raw
    (unweighted) loss. The model's gradients are zeroed first. The two
    gradients are flat copies of the shared block and of the task's own
    block of ``model.flat_grad``, so later passes or parameter updates
    cannot alias them; ``model.layout.views(grads, key)`` names their parts.
    An error in the forward or backward pass is re-raised as the same type
    with the task named in its message and in its ``task`` attribute.
    """
    if task not in batch.targets:
        raise DataError(f"batch has no target for task {task}")
    model.zero_grad()
    try:
        with _row_sized_buffers():
            tape = Tape()
            pred = model.forward(batch.x, task, tape)
            kind = model.spec.task(task).loss
            loss = tape.compute_loss(pred, batch.targets[task], kind)
            tape.backward(tape.scale(loss, loss_weight))
    except MtloptError as exc:
        named = type(exc)(f"task {task}: {exc}")
        named.task = task
        raise named from exc
    blocks = model.layout.blocks
    return loss.item(), model.flat_grad[blocks[SHARED]].copy(), model.flat_grad[blocks[task]].copy()

