"""Experiment configuration: documented defaults, strict validation.

A config is a plain JSON object; every field has a default, so ``{}`` is a
runnable experiment. Validation happens before any training step and
reports the offending field path. ``from_dict`` checks JSON types; the
optimizer and the loss weighting, which it builds, check their settings'
ranges, and ``OptimizerConfig`` holds the optimizer settings' defaults.
"""
from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Mapping

from .errors import ConfigError
from .loss_scaling import LossWeighting, make_loss_weighting
from .network import ModelSpec
from .optimizers import METHOD_OURS, PHASE1, PHASE2, OptimizerConfig
from .synthetic import TARGETS, SyntheticConfig, _is_int, _is_number


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
    opt = OptimizerConfig()
    return {
        "method": opt.method,
        "loss_scaling": {
            "scheme": "equal",
            "manual_ratios": None,
            "dwa_temperature": 2.0,
        },
        "epochs": 30,
        "steps_per_epoch": 10,
        "lr": opt.lr,
        "update_rule": {"kind": opt.update_rule, "beta1": opt.adam_beta1,
                        "beta2": opt.adam_beta2, "eps": opt.adam_eps},
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
    optimizer: OptimizerConfig = field(repr=False)

    @property
    def method(self) -> str:
        return self.optimizer.method

    @property
    def epochs(self) -> int:
        return self.raw["epochs"]

    @property
    def steps_per_epoch(self) -> int:
        return self.raw["steps_per_epoch"]

    @property
    def lr(self) -> float:
        return self.optimizer.lr

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

    def loss_weighting(self) -> LossWeighting:
        """A fresh loss weighting: each seed trains with its own, as its
        state moves with that seed's losses."""
        ls = self.raw["loss_scaling"]
        return make_loss_weighting(ls["scheme"], {t.id: t.loss for t in self.model.tasks},
                                   ls["manual_ratios"], ls["dwa_temperature"], self.lr)

    @classmethod
    def from_dict(cls, overrides: Mapping | None = None) -> "ExperimentConfig":
        raw = _merge(default_config_dict(), overrides or {})
        _require(_is_int(raw["epochs"]) and raw["epochs"] >= 1,
                 "epochs", "must be a positive integer")
        _require(_is_int(raw["steps_per_epoch"]) and raw["steps_per_epoch"] >= 1,
                 "steps_per_epoch", "must be a positive integer")
        _require(_is_number(raw["lr"]), "lr", "must be a finite number")
        rule = raw["update_rule"]
        for key in ("beta1", "beta2", "eps"):
            _require(_is_number(rule[key]), f"update_rule.{key}", "must be a finite number")
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
        ls = raw["loss_scaling"]
        ratios = ls["manual_ratios"]
        _require(ratios is None or isinstance(ratios, (list, tuple))
                 and all(_is_number(r) for r in ratios),
                 "loss_scaling.manual_ratios", "must be null or a list of finite numbers")
        _require(_is_number(ls["dwa_temperature"]),
                 "loss_scaling.dwa_temperature", "must be a finite number")

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
        # train-mode batch norm divides by each channel's spread over one batch
        _require(not any(layer.batch_norm for layer in model.trunk)
                 or data.batch_size * data.height * data.width >= 2, "data",
                 "a trunk with batch norm needs batch_size * height * width >= 2")
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

        config = cls(raw=raw, model=model, data=data, optimizer=OptimizerConfig(
            method=raw["method"], lr=raw["lr"], update_rule=rule["kind"],
            adam_beta1=rule["beta1"], adam_beta2=rule["beta2"], adam_eps=rule["eps"]))
        try:
            config.optimizer.validate(model.task_ids)
        except ConfigError as exc:
            raise ConfigError(f"config.{exc}") from exc
        # only ours reads the override; with another method it would be recorded but not run
        _require(raw["phase_override"] is None or config.method == METHOD_OURS, "phase_override",
                 f"must be null unless method is '{METHOD_OURS}', got method {config.method!r}")
        try:
            config.loss_weighting()
        except ConfigError as exc:
            raise ConfigError(f"config.loss_scaling.{exc}") from exc
        return config


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
