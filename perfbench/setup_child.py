"""Child process of the setup_s measurement.

Imports mtlopt, validates the config given as JSON in argv[1], builds the
model, dataset and optimizer and the first training batch, then prints one
JSON line describing what it built. The parent times launch to that line.
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    from mtlopt import (ExperimentConfig, MtlOptimizer, OptimizerConfig, SyntheticMtlDataset,
                        build_model)

    config = ExperimentConfig.from_dict(json.loads(sys.argv[1]))
    model = build_model(config.model, seed=config.seeds[0])
    dataset = SyntheticMtlDataset(config.data, seed=config.seeds[0])
    MtlOptimizer(model, OptimizerConfig(method=config.method, lr=config.lr))
    batch = dataset.batch(0)
    print(json.dumps({"parameters": int(sum(p.size for p in model.named_parameters().values())),
                      "batch": list(batch.x.shape)}), flush=True)


if __name__ == "__main__":
    main()
