"""Deterministic desk-scale toolkit for cyclical-schedule checkpoint
generation, hierarchical weight souping, and weight-space analysis."""

from .analysis import (
    BudgetReport,
    DegeneratePlaneError,
    LandscapeGrid,
    LmcCurve,
    PlaneBasis,
    ReportTable,
    compute_budget,
    count_local_minima,
    default_extent,
    landscape_grid,
    lmc_sweep,
    ood_report,
    plane_basis,
)
from .data import (
    AugmentLevel,
    LabeledDataset,
    TaskBundle,
    TaskKind,
    TaskSpec,
    augment,
    gen_task,
    load_csv,
    save_csv,
)
from .experiment import ExperimentConfig, default_experiment_config, method_comparison, run_experiment
from .nn import (
    ArchSpec,
    Batch,
    MetricKind,
    MetricUndefinedError,
    ParamVector,
    cross_entropy,
    evaluate,
    forward,
    gradient,
    init_params,
)
from .optim import (
    AdamWState,
    CosineSchedule,
    CyclicalSchedule,
    adamw_step,
    cosine_lr,
    cyclical_alpha,
    cyclical_t,
    is_collection_point,
)
from .pipeline import (
    Checkpoint,
    FissionResult,
    GridFailure,
    HyperConfig,
    Lineage,
    TrainingDivergedError,
    fgg_base_generate,
    fgg_fission,
    fgg_fission_many,
    grid_generate,
    linear_probe_warmup,
    pretrain_source,
)
from .soup import (
    AuditEntry,
    LineageError,
    SoupMethod,
    SoupResult,
    greedy_soup,
    hierarchical_soup,
    uniform_soup,
)
from .store import ChecksumError, Store, StoreError

__version__ = "0.1.0"
