"""Desk-scale multi-task optimization lab.

Two-phase connection-strength training (sequential priority learning,
priority-preserving gradient projection), GD and PCGrad-style baselines,
four loss-scaling schemes, quadratic benchmark problems with brute-force
oracles, and a deterministic experiment runner.
"""

from .autodiff import BatchNormState, Tape, Tensor
from .config import ExperimentConfig
from .errors import MtloptError
from .evaluation import METRICS, delta_m, loss_trend_correlation, priority_share
from .loss_scaling import (
    DynamicWeightAverage,
    FixedWeights,
    LossWeighting,
    UncertaintyWeights,
    make_loss_weighting,
)
from .network import (
    Batch,
    ConvSpec,
    Model,
    ModelSpec,
    ParameterLayout,
    TaskSpec,
    build_model,
    per_task_gradients,
)
from .optimizers import (
    PHASE1,
    PHASE2,
    MtlOptimizer,
    OptimizerConfig,
    PhaseSchedule,
    project_gradient,
)
from .quadratics import (
    QuadraticProblem,
    convergence_probe,
    make_conflicting_quadratic,
    make_quadratic_problem,
    model_priority_oracle,
    oracle_priority_partition,
    priority_update_check,
)
from .runner import RunReport, run_experiment, run_single_task_baselines, write_report
from .strength import (
    StrengthReport,
    channel_owners,
    layer_strength_report,
    model_strength_snapshot,
    normalized_strength,
)
from .synthetic import SyntheticConfig, SyntheticMtlDataset

__version__ = "0.1.0"
