"""Connection strengths, per-task normalization, and channel owners.

A conv kernel's strength toward an output channel is its mean squared
weight; coupling with the task-specific batch-norm scale gives a per-task,
per-channel score. Normalizing each task's scores across the layer's
output channels makes them comparable between tasks; the argmax per
channel makes its top-priority task the channel's owner.

Everything here is a pure function over immutable snapshots; safe to
evaluate concurrently across layers.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .autodiff import BN_EPS, BatchNormState, Tensor
from .errors import ShapeError, StateError


def _channel_strength_rows(weight: np.ndarray, bn_states: Mapping[int, BatchNormState],
                           task_ids: tuple[int, ...], eps: float) -> np.ndarray:
    """(K, C) raw strengths: task t's squared batch-norm scale over (running
    variance + eps) at output channel p, times the summed strength of p's
    kernels, a kernel's strength being its mean squared weight."""
    kernel_sums = (weight ** 2).sum(axis=(1, 2, 3)) / (weight.shape[2] * weight.shape[3])
    rows = np.empty((len(task_ids), weight.shape[0]))
    for r, tid in enumerate(task_ids):
        st = bn_states[tid]
        if np.any(st.running_var < 0):
            raise StateError(f"task {tid}: negative running variance")
        rows[r] = st.gamma.data ** 2 / (st.running_var + eps) * kernel_sums
    return rows


def normalized_strength(raw: np.ndarray) -> np.ndarray:
    """Normalize each task's row to sum to 1; an all-zero row becomes uniform."""
    raw = np.asarray(raw, dtype=np.float64)
    if np.any(raw < 0):
        raise ShapeError("normalized_strength: raw strengths must be nonnegative")
    sums = raw.sum(axis=1, keepdims=True)
    return np.divide(raw, sums, out=np.full_like(raw, 1.0 / raw.shape[1]), where=sums > 0)


def channel_owners(norm: np.ndarray, task_ids: tuple[int, ...]) -> np.ndarray:
    """(C,) owner task id of each channel: the task with the largest
    normalized strength; exact ties go to the lowest task index."""
    return np.asarray(task_ids)[np.argmax(norm, axis=0)]  # argmax takes the first maximum


@dataclass
class StrengthReport:
    """Per-layer strength tables and the derived channel owners."""

    layer: str
    task_ids: tuple[int, ...]
    raw: np.ndarray   # (K, C) per-task raw strengths
    norm: np.ndarray  # (K, C) per-task normalized strengths
    owners: np.ndarray  # (C,) owner task id per channel

    @property
    def num_channels(self) -> int:
        return self.raw.shape[1]

    def validate(self) -> None:
        if not np.allclose(self.norm.sum(axis=1), 1.0, atol=1e-9):
            raise StateError(f"{self.layer}: normalized rows do not sum to 1")
        owned = np.where(np.asarray(self.task_ids)[:, None] == self.owners, self.norm, -np.inf)
        bad = np.flatnonzero(owned.max(axis=0) < self.norm.max(axis=0))
        if bad.size:
            raise StateError(f"{self.layer}: channel {bad[0]} not owned by its argmax task")

    def to_record(self) -> dict:
        return {
            "layer": self.layer,
            "tasks": list(self.task_ids),
            "norm": {str(tid): [float(v) for v in self.norm[r]]
                     for r, tid in enumerate(self.task_ids)},
            "groups": {str(tid): np.flatnonzero(self.owners == tid).tolist()
                       for tid in self.task_ids},
        }


def layer_strength_report(layer_name: str, weight: Tensor | np.ndarray,
                          bn_states: Mapping[int, BatchNormState],
                          task_ids: tuple[int, ...],
                          eps: float = BN_EPS) -> StrengthReport:
    w = weight.data if isinstance(weight, Tensor) else np.asarray(weight)
    raw = _channel_strength_rows(w, bn_states, task_ids, eps)
    norm = normalized_strength(raw)
    report = StrengthReport(layer_name, task_ids, raw, norm, channel_owners(norm, task_ids))
    report.validate()
    return report


def model_strength_snapshot(model) -> dict[str, StrengthReport]:
    """Strength reports for every trunk layer that carries task batch norm."""
    task_ids = model.spec.task_ids
    snapshot: dict[str, StrengthReport] = {}
    for i, layer in enumerate(model.trunk):
        if layer.bn:
            name = f"trunk.{i}"
            snapshot[name] = layer_strength_report(name, layer.weight, layer.bn, task_ids)
    return snapshot


def snapshot_records(seed: int, epoch: int,
                     snapshot: Mapping[str, StrengthReport]) -> list[dict]:
    """One record per layer of an epoch's snapshot; the lines of strength.jsonl."""
    return [{"seed": seed, "epoch": epoch, **report.to_record()} for report in snapshot.values()]
