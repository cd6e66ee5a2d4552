"""Training stages: source pretraining, linear-probe warmup, fine-tuning,
hyperparameter grids, and cyclical-schedule snapshot generation.

Every stage is deterministic in its config seed and returns Checkpoints
whose ids are content-derived, so re-running a stage reproduces both the
weights and the identifiers bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import AUGMENT_PARAMS, AugmentLevel, LabeledDataset, _Jitter
from .nn import (
    ArchSpec,
    ParamVector,
    _check_fit,
    _check_params,
    _gradient_into,
    _layer_views,
    _Record,
    _scorer,
    init_params,
    last_layer_slice,
)
from .optim import (AdamWState, CosineSchedule, CyclicalSchedule, adamw_step, cosine_lr, cyclical_alpha,
                    is_collection_point)

log = logging.getLogger(__name__)

STAGES = ("pretrained", "warmstart", "grid", "base", "fission", "soup")

# Stream tags keep the rng draws of different stages independent.
_RNG_PRETRAIN, _RNG_WARMUP, _RNG_TUNE, _RNG_FISSION = 11, 22, 33, 44


class TrainingDivergedError(RuntimeError):
    """Loss or parameters became non-finite during training."""


@dataclass(frozen=True)
class Lineage(_Record):
    stage: str
    base_id: str | None = None
    cycle_index: int | None = None
    root_id: str | None = None

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise ValueError(f"unknown stage {self.stage!r}, expected one of {STAGES}")


@dataclass(frozen=True)
class HyperConfig(_Record):
    lr: float
    seed: int
    augment: AugmentLevel = AugmentLevel.MINIMAL
    epochs: int = 1
    warmup_epochs: int = 0
    batch_size: int = 32
    schedule: str = "cosine"
    cyclical: CyclicalSchedule | None = None
    weight_decay: float = 0.01

    def __post_init__(self) -> None:
        object.__setattr__(self, "augment", AugmentLevel(self.augment))
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if self.epochs < 0 or self.warmup_epochs < 0:
            raise ValueError("epoch counts must be non-negative")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.schedule not in ("cosine", "cyclical"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if (self.schedule == "cyclical") != (self.cyclical is not None):
            raise ValueError("cyclical settings required exactly when schedule='cyclical'")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be non-negative and finite, got {self.weight_decay}")


@dataclass
class Checkpoint:
    id: str
    arch: ArchSpec
    params: ParamVector
    config: HyperConfig | None
    lineage: Lineage
    val_metrics: dict[str, float]
    epochs_consumed: float
    trained_on: str = ""


@dataclass(frozen=True)
class GridFailure:
    config: HyperConfig
    error: str


@dataclass
class FissionResult:
    checkpoints: list[Checkpoint]
    truncated: bool
    capture_steps: list[int]


def _data_tag(dataset: LabeledDataset) -> str:
    return f"{dataset.task_id}/{dataset.role}/{dataset.n}"


def checkpoint_id(stage: str, arch: ArchSpec, config: HyperConfig | None,
                  base_id: str | None, cycle_index: int | None, data_tag: str) -> str:
    """Content-derived id: same stage, config, lineage, and data give the same id."""
    payload = json.dumps(
        {
            "stage": stage,
            "arch": arch.signature,
            "config": config.to_dict() if config else None,
            "base": base_id,
            "cycle": cycle_index,
            "data": data_tag,
        },
        sort_keys=True,
    )
    return f"{stage}-{hashlib.sha256(payload.encode('ascii')).hexdigest()[:12]}"


def val_metric_map(params: ParamVector, arch: ArchSpec, val: LabeledDataset) -> dict[str, float]:
    """All supported metrics on the validation split, from one forward; undefined ones are omitted.
    The one-model case of `_val_metric_maps`."""
    _check_params(params, arch)
    return _val_metric_maps([params], arch, val)[0]


def _val_metric_maps(models: list[ParamVector], arch: ArchSpec, val: LabeledDataset) -> list[dict[str, float]]:
    """`val_metric_map` of each model, in order, all scored as one stack by
    the all-metrics `_scorer`. The models must fit `arch`."""
    score = _scorer(arch, val)
    scores = score(np.stack([p.values for p in models]) if models else np.empty((0, arch.param_count)))
    return [{kind.value: float(col[i]) for kind, col in scores.items()} for i in range(len(models))]


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([0x7E55, int(seed), tag]))


def steps_per_epoch(n_rows: int, batch_size: int) -> int:
    return math.ceil(n_rows / batch_size)


@dataclass
class _Member:
    """One run of a population: its start, config and own rng stream. Snapshots
    land in `collected` as taken; `error` holds the divergence that froze it."""

    start: ParamVector
    config: HyperConfig
    rng: np.random.Generator
    collected: list[tuple[int, ParamVector]] = field(default_factory=list)
    error: str | None = None


def _train_population(
    members: list[_Member],
    arch: ArchSpec,
    train: LabeledDataset,
    rates: np.ndarray,
    trainable: slice | None = None,
    collect_steps: frozenset[int] = frozenset(),
) -> np.ndarray:
    """Minibatch AdamW for every member at once over a (K, P) parameter stack,
    one step per row of the stage's (T, K) `rates` table, whose row s - 1 holds
    each member's rate at 1-based step s. Returns the final stack by member.

    Each member draws its epoch permutation and augmentation noise from its
    own rng, in the order a solo run would, and gets exactly one `adamw_step`
    call per step, which updates its row views of the stack in place (so the
    AdamW arithmetic and its checks live in one place). Rows, the forward and
    backward pass, and the finiteness checks are shared: one gather, one
    backprop over the stack, one `isfinite` per check. The augmentation
    buffers are built once per stage. Every member's weights are bit-identical to its solo run.

    A member whose gradient or parameters turn non-finite is frozen: it gets
    no more updates, snapshots or rng draws, and its `error` records why. The
    others carry on. When `trainable` is given, only that flat slice is
    updated and the rest of each row is left bitwise untouched (the optimizer
    state covers the slice alone, so weight decay cannot leak into frozen
    coordinates).

    Inputs are checked once, here at stage entry, not per step.
    """
    if rates.ndim != 2 or rates.shape[1] != len(members):
        raise ValueError(f"rates must be a (steps, {len(members)}) table, got shape {rates.shape}")
    for m in members:
        _check_params(m.start, arch)
    _check_fit(arch, train.features, train.labels)
    batch_sizes = {m.config.batch_size for m in members}
    if len(batch_sizes) != 1:
        raise ValueError(f"population members must share one batch size, got {sorted(batch_sizes)}")
    n, bs, total_steps = train.n, batch_sizes.pop(), len(rates)
    spe = steps_per_epoch(n, bs)
    sig = arch.signature
    values = np.stack([m.start.values for m in members])
    grad = np.empty_like(values)
    layers, grad_layers = _layer_views(values, arch), _layer_views(grad, arch)
    part = slice(None) if trainable is None else trainable
    # The optimizer sees views of each member's trainable part of both stacks.
    views = [(ParamVector(v, sig), ParamVector(g, sig)) for v, g in zip(values[:, part], grad[:, part])]
    states = [AdamWState.fresh(p.size, weight_decay=m.config.weight_decay) for (p, _), m in zip(views, members)]
    # the stage's augmentation buffers, one row per member; a batch fills the leading rows
    jitter = _Jitter((len(members), min(bs, n), train.dims),
                     [(i, *AUGMENT_PARAMS[m.config.augment], m.rng) for i, m in enumerate(members)])
    alive = list(range(len(members)))
    # one row per member, refilled each epoch while it lives: shuffling
    # arange(n) in place draws exactly what `rng.permutation(n)` draws
    perms = np.empty((len(members), n), dtype=np.int64)

    def freeze(finite: np.ndarray, error: str) -> None:
        """Freeze every live member whose row of the stack is not all finite."""
        nonlocal alive
        if finite.all() or finite[alive].all():
            return
        for i in alive:
            if not finite[i]:
                members[i].error = error
                jitter.stop(i)
        alive = [i for i in alive if finite[i]]

    step = 0
    # divergence is detected by the explicit checks below, so the transient
    # overflow warnings on the way there are just noise
    with np.errstate(over="ignore", invalid="ignore"):
        while step < total_steps and alive:
            for i in alive:
                perms[i] = np.arange(n)
                members[i].rng.shuffle(perms[i])
            for b in range(min(spe, total_steps - step)):
                step += 1
                rows = perms[:, b * bs : (b + 1) * bs]
                feats = train.features[rows]
                jitter(feats)
                _gradient_into(layers, arch.activation, feats, train.labels[rows], grad_layers)
                freeze(np.isfinite(grad).all(axis=1), f"non-finite gradient at step {step}/{total_steps}")
                lrs = rates[step - 1].tolist()
                for i in alive:
                    adamw_step(*views[i], states[i], lrs[i])
                freeze(np.isfinite(values).all(axis=1), f"non-finite parameters at step {step}/{total_steps}")
                if step in collect_steps:
                    for i in alive:
                        members[i].collected.append((step, ParamVector(values[i].copy(), sig)))
                if not alive:
                    break
    return values


def _train_one(member: _Member, arch: ArchSpec, train: LabeledDataset, rates: np.ndarray,
               trainable: slice | None = None) -> ParamVector:
    """`_train_population` with one member and its (T,) rates; raises
    `TrainingDivergedError` on a non-finite gradient or parameters."""
    values = _train_population([member], arch, train, rates[:, None], trainable)
    if member.error is not None:
        raise TrainingDivergedError(member.error)
    return ParamVector(values[0], arch.signature)


def _checkpoint(stage: str, arch: ArchSpec, config: HyperConfig, params: ParamVector,
                train: LabeledDataset, val_metrics: dict[str, float], epochs: float,
                base: Checkpoint | None = None, cycle: int | None = None) -> Checkpoint:
    """The one way a trained row becomes a Checkpoint: its content-derived id,
    its data tag and its lineage. A warmstart is its own root; a run trained
    from `base` inherits the base's root, or the base itself when it has none."""
    base_id = base.id if base is not None else None
    tag = _data_tag(train)
    cid = checkpoint_id(stage, arch, config, base_id, cycle, tag)
    if stage == "warmstart":
        root = cid
    else:
        root = None if base is None else base.lineage.root_id or base.id
    return Checkpoint(
        id=cid, arch=arch, params=params, config=config,
        lineage=Lineage(stage, base_id=base_id, cycle_index=cycle, root_id=root),
        val_metrics=val_metrics, epochs_consumed=float(epochs), trained_on=tag,
    )


def _cosine_rates(base_lr: float, epochs: int, spe: int) -> np.ndarray:
    """Per-epoch cosine decay as one rate per step, (epochs * spe,): each
    epoch's rate is computed once and repeated for its spe steps."""
    sched = CosineSchedule(base_lr, max(epochs, 1))
    return np.repeat([cosine_lr(epoch, sched) for epoch in range(epochs)], spe)


def pretrain_source(arch: ArchSpec, source: LabeledDataset, config: HyperConfig) -> Checkpoint:
    """Train from a seeded init on the source distribution; 0 epochs = init only."""
    params = init_params(arch, config.seed)
    if config.epochs > 0:
        spe = steps_per_epoch(source.n, config.batch_size)
        member = _Member(params, config, _rng(config.seed, _RNG_PRETRAIN))
        params = _train_one(member, arch, source, _cosine_rates(config.lr, config.epochs, spe))
    return _checkpoint("pretrained", arch, config, params, source, {}, config.epochs)


def linear_probe_warmup(pretrained: Checkpoint, train: LabeledDataset, config: HyperConfig,
                        val: LabeledDataset) -> Checkpoint:
    """Update only the final layer for warmup_epochs; the body stays bitwise frozen."""
    arch = pretrained.arch
    params = pretrained.params.copy()
    if config.warmup_epochs > 0:
        spe = steps_per_epoch(train.n, config.batch_size)
        member = _Member(params, config, _rng(config.seed, _RNG_WARMUP))
        params = _train_one(member, arch, train, np.full(config.warmup_epochs * spe, config.lr),
                            trainable=last_layer_slice(arch))
    return _checkpoint("warmstart", arch, config, params, train, val_metric_map(params, arch, val),
                       config.warmup_epochs, base=pretrained)


def _fine_tune_runs(theta0: Checkpoint, configs: list[HyperConfig], train: LabeledDataset,
                    val: LabeledDataset, stage: str) -> tuple[list[Checkpoint], list[GridFailure]]:
    """Fine-tune θ0 once per config as one population, each run bit for bit
    its solo run. Diverged runs are recorded, in config order, not raised.
    `stage` is "grid" or "base". The configs are cosine runs of one epoch
    count and batch size, as `grid_generate` and `fgg_base_generate` build
    them from one template."""
    if not configs:
        return [], []
    epochs = configs[0].epochs
    spe = steps_per_epoch(train.n, configs[0].batch_size)
    members = [_Member(theta0.params, cfg, _rng(cfg.seed, _RNG_TUNE)) for cfg in configs]
    rates = np.stack([_cosine_rates(cfg.lr, epochs, spe) for cfg in configs], axis=1)
    values = _train_population(members, theta0.arch, train, rates)
    trained = [(m.config, ParamVector(row, theta0.arch.signature))
               for m, row in zip(members, values) if m.error is None]
    metrics = _val_metric_maps([params for _, params in trained], theta0.arch, val)
    checkpoints = [_checkpoint(stage, theta0.arch, cfg, params, train, scores, epochs, base=theta0)
                   for (cfg, params), scores in zip(trained, metrics)]
    failures: list[GridFailure] = []
    for m in members:
        if m.error is not None:
            cfg = m.config
            log.warning("%s run diverged: lr=%g augment=%s seed=%d (%s)",
                        stage, cfg.lr, cfg.augment.value, cfg.seed, m.error)
            failures.append(GridFailure(cfg, m.error))
    return checkpoints, failures


def grid_generate(
    theta0: Checkpoint,
    lrs: list[float],
    augments: list[AugmentLevel | str],
    seeds: list[int],
    train: LabeledDataset,
    val: LabeledDataset,
    template: HyperConfig,
) -> tuple[list[Checkpoint], list[GridFailure]]:
    """Fine-tune θ0 once per (lr, augment, seed) cell; diverged cells are recorded."""
    configs = [replace(template, lr=lr, augment=AugmentLevel(aug), seed=seed,
                       schedule="cosine", cyclical=None)
               for lr in lrs for aug in augments for seed in seeds]
    return _fine_tune_runs(theta0, configs, train, val, "grid")


def fgg_base_generate(
    theta0: Checkpoint,
    lrs: list[float],
    train: LabeledDataset,
    val: LabeledDataset,
    template: HyperConfig,
) -> tuple[list[Checkpoint], list[GridFailure]]:
    """One base model per learning rate; augment and seed are held fixed."""
    configs = [replace(template, lr=lr, schedule="cosine", cyclical=None) for lr in lrs]
    return _fine_tune_runs(theta0, configs, train, val, "base")


def fission_total_steps(schedule: CyclicalSchedule, n_collect: int) -> int:
    """Steps to reach the n-th mid-cycle collection point and stop there."""
    if n_collect < 1:
        raise ValueError(f"n_collect must be positive, got {n_collect}")
    return (n_collect - 1) * schedule.cycle_steps + schedule.cycle_steps // 2


def fgg_fission_many(bases: list[Checkpoint], schedule: CyclicalSchedule, n_collect: int,
                     train: LabeledDataset, val: LabeledDataset) -> list[FissionResult]:
    """Continue training each base model under the triangular cyclical
    schedule, snapshotting at every mid-cycle trough; one result per base, in
    order. The runs train as one population, each equal to its solo run bit
    for bit. Optimizer state starts fresh.

    A run that diverges mid-way keeps the snapshots collected so far and has
    its truncated flag set; the others are unaffected.
    """
    for base in bases:
        if base.config is None:
            raise ValueError(f"base checkpoint {base.id} has no config to derive the fission run from")
    total = fission_total_steps(schedule, n_collect)
    if not bases:
        return []
    arch = bases[0].arch
    rates = np.repeat([[cyclical_alpha(s, schedule)] for s in range(1, total + 1)], len(bases), axis=1)
    collect = frozenset(s for s in range(1, total + 1) if is_collection_point(s, schedule.cycle_steps))
    members = [_Member(base.params, replace(base.config, schedule="cyclical", cyclical=schedule),
                       _rng(base.config.seed, _RNG_FISSION)) for base in bases]
    _train_population(members, arch, train, rates, collect_steps=collect)
    spe = steps_per_epoch(train.n, members[0].config.batch_size)
    metrics = iter(_val_metric_maps([params for m in members for _, params in m.collected], arch, val))
    results = []
    for base, m in zip(bases, members):
        if m.error is not None:
            log.warning("fission from %s truncated after %d snapshots: %s",
                        base.id, len(m.collected), m.error)
        checkpoints = []
        prev = 0
        for k, (step, params) in enumerate(m.collected, start=1):
            checkpoints.append(_checkpoint("fission", arch, m.config, params, train, next(metrics),
                                           (step - prev) / spe, base=base, cycle=k))
            prev = step
        results.append(FissionResult(checkpoints, m.error is not None, [s for s, _ in m.collected]))
    return results


def fgg_fission(base: Checkpoint, schedule: CyclicalSchedule, n_collect: int,
                train: LabeledDataset, val: LabeledDataset) -> FissionResult:
    """`fgg_fission_many` for one base: on mid-run divergence the snapshots
    collected so far are returned with the truncated flag set."""
    return fgg_fission_many([base], schedule, n_collect, train, val)[0]
