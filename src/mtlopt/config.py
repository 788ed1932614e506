"""Experiment configuration: documented defaults, strict validation.

A config is a plain JSON object; every field has a default, so ``{}`` is a
runnable experiment. Validation happens before any training step and
reports the offending field path.
"""
from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Mapping

from .errors import ConfigError
from .loss_scaling import SCHEMES
from .network import ModelSpec
from .optimizers import METHOD_GD, METHOD_OURS, METHOD_PCGRAD, PHASE1, PHASE2
from .synthetic import TARGETS, SyntheticConfig, _is_int, _is_number

METHODS = (METHOD_OURS, METHOD_GD, METHOD_PCGRAD)


def default_model_dict() -> dict:
    """The two-task desk benchmark: small shared trunk, one head per task."""
    return {
        "trunk": [
            {"in_channels": 3, "out_channels": 4, "kernel_size": 3},
            {"in_channels": 4, "out_channels": 4, "kernel_size": 3},
        ],
        "heads": {
            "1": [{"in_channels": 4, "out_channels": 6, "kernel_size": 1},
                  {"in_channels": 6, "out_channels": 4, "kernel_size": 1}],
            "2": [{"in_channels": 4, "out_channels": 6, "kernel_size": 1},
                  {"in_channels": 6, "out_channels": 1, "kernel_size": 1}],
        },
        "tasks": [{"id": 1, "loss": "cross_entropy"}, {"id": 2, "loss": "mse"}],
    }


def default_config_dict() -> dict:
    data = asdict(SyntheticConfig())
    data["depth_mix"] = list(data["depth_mix"])  # as JSON gives it
    return {
        "method": "ours",
        "loss_scaling": {
            "scheme": "equal",
            "manual_ratios": None,
            "dwa_temperature": 2.0,
        },
        "epochs": 30,
        "steps_per_epoch": 10,
        "lr": 0.1,
        "update_rule": {"kind": "sgd", "beta1": 0.9, "beta2": 0.999, "eps": 1e-8},
        "phase_override": None,
        "seeds": [1],
        "out_dir": "runs/experiment",
        "eval_batches": 4,
        "baselines": None,
        "data": data,
        "model": default_model_dict(),
    }


def _merge(base: dict, override: Mapping, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"config.{where}: unknown field")
        if isinstance(base[key], dict) and key != "model":
            if not isinstance(value, Mapping):
                raise ConfigError(f"config.{where}: expected an object")
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"config.{path}: {message}")


def _is_task_key(value) -> bool:
    # JSON object keys are strings, so "1" names task 1 as well as 1 does; int() rejects "²"
    return _is_int(value) or (isinstance(value, str) and value.isascii() and value.isdigit())


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; see default_config_dict for keys."""

    raw: dict = field(repr=False)
    model: ModelSpec = field(repr=False)
    data: SyntheticConfig = field(repr=False)

    @property
    def method(self) -> str:
        return self.raw["method"]

    @property
    def scheme(self) -> str:
        return self.raw["loss_scaling"]["scheme"]

    @property
    def manual_ratios(self):
        return self.raw["loss_scaling"]["manual_ratios"]

    @property
    def dwa_temperature(self) -> float:
        return self.raw["loss_scaling"]["dwa_temperature"]

    @property
    def epochs(self) -> int:
        return self.raw["epochs"]

    @property
    def steps_per_epoch(self) -> int:
        return self.raw["steps_per_epoch"]

    @property
    def lr(self) -> float:
        return self.raw["lr"]

    @property
    def update_rule(self) -> dict:
        return self.raw["update_rule"]

    @property
    def phase_override(self):
        return self.raw["phase_override"]

    @property
    def seeds(self) -> tuple[int, ...]:
        return tuple(self.raw["seeds"])

    @property
    def out_dir(self) -> str:
        return self.raw["out_dir"]

    @property
    def eval_batches(self) -> int:
        return self.raw["eval_batches"]

    @property
    def baselines_path(self):
        return self.raw["baselines"]

    def to_dict(self) -> dict:
        return copy.deepcopy(self.raw)

    @classmethod
    def from_dict(cls, overrides: Mapping | None = None) -> "ExperimentConfig":
        raw = _merge(default_config_dict(), overrides or {})
        _require(raw["method"] in METHODS, "method", f"must be one of {METHODS}")
        ls = raw["loss_scaling"]
        _require(ls["scheme"] in SCHEMES, "loss_scaling.scheme", f"must be one of {SCHEMES}")
        _require(_is_int(raw["epochs"]) and raw["epochs"] >= 1,
                 "epochs", "must be a positive integer")
        _require(_is_int(raw["steps_per_epoch"]) and raw["steps_per_epoch"] >= 1,
                 "steps_per_epoch", "must be a positive integer")
        _require(_is_number(raw["lr"]) and raw["lr"] > 0,
                 "lr", "must be a positive number")
        rule = raw["update_rule"]
        _require(rule["kind"] in ("sgd", "adam"), "update_rule.kind", "must be 'sgd' or 'adam'")
        for key in ("beta1", "beta2"):
            _require(_is_number(rule[key]) and 0 <= rule[key] < 1,
                     f"update_rule.{key}", "must be a number in [0, 1)")
        _require(_is_number(rule["eps"]) and rule["eps"] > 0,
                 "update_rule.eps", "must be a positive number")
        _require(raw["phase_override"] in (None, PHASE1, PHASE2),
                 "phase_override", f"must be null, '{PHASE1}' or '{PHASE2}'")
        _require(isinstance(raw["seeds"], (list, tuple)) and len(raw["seeds"]) >= 1
                 and all(_is_int(s) for s in raw["seeds"])
                 and len(set(raw["seeds"])) == len(raw["seeds"]),
                 "seeds", "must be a nonempty list of distinct integers")
        _require(_is_int(raw["eval_batches"]) and raw["eval_batches"] >= 1,
                 "eval_batches", "must be a positive integer")
        _require(raw["baselines"] is None or isinstance(raw["baselines"], str),
                 "baselines", "must be null or a path string")

        _require(isinstance(raw["model"], Mapping), "model", "must be an object")
        heads = raw["model"].get("heads", {})
        _require(isinstance(heads, Mapping) and all(_is_task_key(t) for t in heads)
                 and len({int(t) for t in heads}) == len(heads),
                 "model.heads", "must map distinct integer task ids to layer lists")
        try:
            model = ModelSpec.from_dict(raw["model"])
        except (ConfigError, TypeError) as exc:
            raise ConfigError(f"config.model: {exc}") from exc
        k = model.num_tasks

        if ls["scheme"] == "manual":
            ratios = ls["manual_ratios"]
            _require(isinstance(ratios, (list, tuple)) and len(ratios) == k,
                     "loss_scaling.manual_ratios", f"manual scheme needs {k} ratios")
            _require(all(_is_number(r) and r >= 0 for r in ratios),
                     "loss_scaling.manual_ratios", "ratios must be nonnegative numbers")
        _require(_is_number(ls["dwa_temperature"]) and ls["dwa_temperature"] > 0,
                 "loss_scaling.dwa_temperature", "must be positive")

        data = SyntheticConfig(**raw["data"])
        try:
            data.validate()
        except ConfigError as exc:
            raise ConfigError(f"config.data.{exc}") from exc
        data = replace(data, depth_mix=tuple(data.depth_mix))
        # the first trunk layer reads the images; without a trunk, each head's first layer does
        readers = [model.trunk[0]] if model.trunk else [h[0] for h in model.heads.values() if h]
        _require(all(layer.in_channels == data.channels for layer in readers), "data.channels",
                 "must match the input channels of every layer that reads the images")
        for task in model.tasks:
            _require(task.id in TARGETS, "model.tasks",
                     f"task {task.id} names no synthetic target; the ids are {sorted(TARGETS)}")
            target, loss = TARGETS[task.id]
            _require(task.loss == loss, "model.tasks",
                     f"task {task.id} is the {target} target, which takes a {loss} loss, "
                     f"got {task.loss}")
            layers = model.heads.get(task.id) or model.trunk
            channels = layers[-1].out_channels if layers else data.channels
            expected = data.num_classes if task.loss == "cross_entropy" else 1
            _require(channels == expected, f"model.heads.{task.id}",
                     f"a {task.loss} task needs {expected} output channels, got {channels}")

        return cls(raw=raw, model=model, data=data)


def apply_dotted_overrides(overrides: dict, assignments: list[str]) -> dict:
    """Apply ``--set path.to.key=value`` assignments; values parse as JSON
    first and fall back to strings."""
    out = copy.deepcopy(overrides)
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected key=value")
        key, _, raw_value = item.partition("=")
        try:
            value: Any = json.loads(raw_value)
        except json.JSONDecodeError:
            value = raw_value
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {key}: {part} is not an object")
        node[parts[-1]] = value
    return out
