"""Training-stage tests: determinism, lineage, freezing, and fission capture."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soupkit import pipeline
from soupkit.data import AugmentLevel, TaskKind, TaskSpec, augment, gen_task
from soupkit.nn import ArchSpec, Batch, MetricKind, ParamVector, gradient, init_params, last_layer_slice
from soupkit.optim import (
    AdamWState,
    CosineSchedule,
    CyclicalSchedule,
    adamw_step,
    cosine_lr,
    cyclical_alpha,
    is_collection_point,
)
from soupkit.pipeline import (
    Checkpoint,
    FissionResult,
    GridFailure,
    HyperConfig,
    Lineage,
    TrainingDivergedError,
    _cosine_rates,
    _Member,
    _train_population,
    checkpoint_id,
    fgg_base_generate,
    fgg_fission,
    fgg_fission_many,
    fission_total_steps,
    grid_generate,
    linear_probe_warmup,
    pretrain_source,
    steps_per_epoch,
    val_metric_map,
)

ARCH = ArchSpec((4, 8, 3), "relu")


@pytest.fixture(scope="module")
def bundle():
    spec = TaskSpec(kind=TaskKind.ROUGH, seed=0, dims=4, class_count=3, n_samples=240,
                    imbalance_ratio=3.0, label_noise_rate=0.1, cluster_heterogeneity=1.0,
                    shift_magnitude=1.0)
    return gen_task(spec, ratios=(0.6, 0.2, 0.2))


@pytest.fixture(scope="module")
def theta0(bundle):
    pre = pretrain_source(ARCH, bundle.source, HyperConfig(lr=1e-2, seed=0, epochs=3))
    return linear_probe_warmup(pre, bundle.train,
                               HyperConfig(lr=1e-2, seed=0, warmup_epochs=2), val=bundle.val)


# ---------------------------------------------------------------------------
# Config and id plumbing

def test_hyper_config_validation():
    with pytest.raises(ValueError):
        HyperConfig(lr=0.0, seed=0)
    with pytest.raises(ValueError):
        HyperConfig(lr=0.1, seed=0, epochs=-1)
    with pytest.raises(ValueError):
        HyperConfig(lr=0.1, seed=0, schedule="cyclical")  # missing settings
    with pytest.raises(ValueError):
        HyperConfig(lr=0.1, seed=0, cyclical=CyclicalSchedule(4, 1e-2, 1e-4))  # wrong schedule
    with pytest.raises(ValueError):
        HyperConfig(lr=0.1, seed=0, schedule="linear")


@pytest.mark.parametrize("field", ["lr", "weight_decay"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_hyper_config_refuses_a_non_finite_rate(field, value):
    with pytest.raises(ValueError, match=f"{field} must be .*finite"):
        HyperConfig(**{"lr": 0.1, "seed": 0, field: value})


def test_hyper_config_dict_roundtrip():
    cfg = HyperConfig(lr=3e-3, seed=2, augment=AugmentLevel.HEAVY, epochs=5,
                      schedule="cyclical", cyclical=CyclicalSchedule(6, 1e-2, 1e-5))
    assert HyperConfig.from_dict(cfg.to_dict()) == cfg


def test_hyper_config_from_dict_refuses_unknown_and_missing_keys():
    d = HyperConfig(lr=3e-3, seed=2).to_dict()
    with pytest.raises(ValueError, match="unknown key 'lrr'"):
        HyperConfig.from_dict({**d, "lrr": 1e-3})
    del d["seed"]
    with pytest.raises(ValueError, match="missing key 'seed'"):
        HyperConfig.from_dict(d)


def test_lineage_validation_and_roundtrip():
    with pytest.raises(ValueError):
        Lineage("nonsense")
    lin = Lineage("fission", base_id="base-abc", cycle_index=2, root_id="warmstart-xyz")
    assert Lineage.from_dict(lin.to_dict()) == lin


def test_checkpoint_id_content_derived():
    cfg = HyperConfig(lr=1e-2, seed=0)
    a = checkpoint_id("grid", ARCH, cfg, "b1", None, "t/train/100")
    b = checkpoint_id("grid", ARCH, cfg, "b1", None, "t/train/100")
    assert a == b
    assert a.startswith("grid-")
    suffix = a.split("-", 1)[1]
    assert len(suffix) == 12 and all(ch in "0123456789abcdef" for ch in suffix)
    # any ingredient change moves the id
    assert a != checkpoint_id("grid", ARCH, cfg, "b2", None, "t/train/100")
    assert a != checkpoint_id("grid", ARCH, cfg, "b1", 1, "t/train/100")
    assert a != checkpoint_id("grid", ARCH, cfg, "b1", None, "t/train/101")
    assert a != checkpoint_id("grid", ARCH, HyperConfig(lr=2e-2, seed=0), "b1", None, "t/train/100")


def test_steps_per_epoch_ceil():
    assert steps_per_epoch(100, 32) == 4
    assert steps_per_epoch(96, 32) == 3
    assert steps_per_epoch(1, 32) == 1


# ---------------------------------------------------------------------------
# Pretrain / warmup

def test_pretrain_zero_epochs_is_seeded_init(bundle):
    ck = pretrain_source(ARCH, bundle.source, HyperConfig(lr=1e-2, seed=3, epochs=0))
    assert np.array_equal(ck.params.values, init_params(ARCH, 3).values)
    assert ck.epochs_consumed == 0.0
    assert ck.lineage.stage == "pretrained"


def test_pretrain_deterministic(bundle):
    cfg = HyperConfig(lr=1e-2, seed=1, epochs=2)
    a = pretrain_source(ARCH, bundle.source, cfg)
    b = pretrain_source(ARCH, bundle.source, cfg)
    assert a.id == b.id
    assert np.array_equal(a.params.values, b.params.values)
    assert a.trained_on == f"{bundle.source.task_id}/source/{bundle.source.n}"


def test_warmup_freezes_body_bitwise(bundle, theta0):
    pre = pretrain_source(ARCH, bundle.source, HyperConfig(lr=1e-2, seed=0, epochs=3))
    head = last_layer_slice(ARCH)
    body = slice(0, head.start)
    assert np.array_equal(theta0.params.values[body], pre.params.values[body])
    assert not np.array_equal(theta0.params.values[head], pre.params.values[head])


def test_warmup_lineage_roots_itself(bundle, theta0):
    assert theta0.lineage.stage == "warmstart"
    assert theta0.lineage.root_id == theta0.id
    assert theta0.epochs_consumed == 2.0
    assert set(theta0.val_metrics) == {m.value for m in MetricKind}


# ---------------------------------------------------------------------------
# Fine-tuning and the grid

def test_fine_tune_deterministic_and_lineage(bundle, theta0):
    cfg = HyperConfig(lr=1e-2, seed=0, epochs=2)
    (a,), _ = grid_generate(theta0, [cfg.lr], [cfg.augment], [cfg.seed], bundle.train, bundle.val, cfg)
    (b,), _ = grid_generate(theta0, [cfg.lr], [cfg.augment], [cfg.seed], bundle.train, bundle.val, cfg)
    assert a.id == b.id
    assert np.array_equal(a.params.values, b.params.values)
    assert a.lineage.stage == "grid"
    assert a.lineage.base_id == theta0.id
    assert a.lineage.root_id == theta0.id
    assert a.epochs_consumed == 2.0
    assert isinstance(a.epochs_consumed, float)


def test_fine_tune_improves_val_over_theta0(bundle, theta0):
    cfg = HyperConfig(lr=1e-2, seed=0, epochs=8)
    (ck,), _ = grid_generate(theta0, [cfg.lr], [cfg.augment], [cfg.seed], bundle.train, bundle.val, cfg)
    assert ck.val_metrics["accuracy"] >= theta0.val_metrics["accuracy"]


def test_grid_generate_full_factorial(bundle, theta0):
    template = HyperConfig(lr=1.0, seed=0, epochs=1)
    cks, failures = grid_generate(theta0, [1e-2, 1e-3], ["minimal", "heavy"], [0, 1],
                                  bundle.train, bundle.val, template)
    assert failures == []
    assert len(cks) == 8
    assert len({c.id for c in cks}) == 8
    combos = {(c.config.lr, c.config.augment.value, c.config.seed) for c in cks}
    assert combos == {(lr, aug, s) for lr in (1e-2, 1e-3) for aug in ("minimal", "heavy") for s in (0, 1)}


def test_grid_generate_records_divergence(bundle, theta0):
    # an absurd rate explodes the decoupled decay term within an epoch
    template = HyperConfig(lr=1.0, seed=0, epochs=2)
    cks, failures = grid_generate(theta0, [1e30, 1e-2], ["minimal"], [0],
                                  bundle.train, bundle.val, template)
    assert len(cks) == 1
    assert len(failures) == 1
    assert isinstance(failures[0], GridFailure)
    assert failures[0].config.lr == 1e30
    assert "non-finite" in failures[0].error


def test_fgg_base_generate_one_per_lr(bundle, theta0):
    template = HyperConfig(lr=1.0, seed=0, epochs=1, augment=AugmentLevel.HEAVY)
    cks, failures = fgg_base_generate(theta0, [1e-2, 3e-3, 1e-3], bundle.train, bundle.val, template)
    assert failures == []
    assert [c.config.lr for c in cks] == [1e-2, 3e-3, 1e-3]
    assert all(c.lineage.stage == "base" for c in cks)
    assert all(c.config.augment is AugmentLevel.HEAVY for c in cks)


# ---------------------------------------------------------------------------
# Fission

def test_fission_total_steps_formula():
    sched = CyclicalSchedule(4, 1e-2, 1e-4)
    assert fission_total_steps(sched, 1) == 2
    assert fission_total_steps(sched, 3) == 10
    assert fission_total_steps(CyclicalSchedule(6, 1e-2, 1e-4), 5) == 27
    with pytest.raises(ValueError):
        fission_total_steps(sched, 0)


def _base(bundle, theta0, lr=1e-2):
    cfg = HyperConfig(lr=lr, seed=0, epochs=2, augment=AugmentLevel.HEAVY)
    (base,), _ = fgg_base_generate(theta0, [lr], bundle.train, bundle.val, cfg)
    return base


def test_fission_captures_at_troughs(bundle, theta0):
    base = _base(bundle, theta0)
    sched = CyclicalSchedule(4, 1e-3, 1e-6)
    result = fgg_fission(base, sched, 3, bundle.train, bundle.val)
    assert isinstance(result, FissionResult)
    assert not result.truncated
    assert result.capture_steps == [2, 6, 10]
    assert len(result.checkpoints) == 3
    for step in result.capture_steps:
        assert is_collection_point(step, 4)
        assert cyclical_alpha(step, sched) == sched.alpha2
    for k, ck in enumerate(result.checkpoints, start=1):
        assert ck.lineage.stage == "fission"
        assert ck.lineage.base_id == base.id
        assert ck.lineage.cycle_index == k
        assert ck.lineage.root_id == theta0.id
        assert ck.val_metrics  # populated
    # snapshots differ from the base and from each other
    mats = [base.params.values] + [c.params.values for c in result.checkpoints]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            assert not np.array_equal(mats[i], mats[j])


def test_fission_epoch_accounting(bundle, theta0):
    base = _base(bundle, theta0)
    sched = CyclicalSchedule(4, 1e-3, 1e-6)
    result = fgg_fission(base, sched, 3, bundle.train, bundle.val)
    spe = steps_per_epoch(bundle.train.n, base.config.batch_size)
    total = sum(c.epochs_consumed for c in result.checkpoints)
    assert total == pytest.approx(fission_total_steps(sched, 3) / spe, abs=1e-12)
    assert result.checkpoints[0].epochs_consumed == pytest.approx(2 / spe)
    assert result.checkpoints[1].epochs_consumed == pytest.approx(4 / spe)


def test_fission_deterministic(bundle, theta0):
    base = _base(bundle, theta0)
    sched = CyclicalSchedule(4, 1e-3, 1e-6)
    a = fgg_fission(base, sched, 2, bundle.train, bundle.val)
    b = fgg_fission(base, sched, 2, bundle.train, bundle.val)
    assert [c.id for c in a.checkpoints] == [c.id for c in b.checkpoints]
    for ca, cb in zip(a.checkpoints, b.checkpoints):
        assert np.array_equal(ca.params.values, cb.params.values)


def test_fission_truncates_on_divergence(bundle, theta0):
    base = _base(bundle, theta0)
    # trough collections early, then let the absurd peak rate blow up
    sched = CyclicalSchedule(2, 1e30, 1e-6)
    result = fgg_fission(base, sched, 50, bundle.train, bundle.val)
    assert result.truncated
    assert len(result.checkpoints) < 50
    for ck in result.checkpoints:
        assert np.all(np.isfinite(ck.params.values))


class _Stop(Exception):
    pass


@settings(max_examples=60)
@given(half=st.integers(1, 120), alphas=st.tuples(*[st.floats(1e-8, 1.0)] * 2),
       n_collect=st.integers(1, 6), n_bases=st.integers(1, 4))
def test_fission_table_follows_the_schedule_and_snapshots_fall_on_collection_points(
        bundle, theta0, half, alphas, n_collect, n_bases):
    sched = CyclicalSchedule(2 * half, max(alphas), min(alphas))
    bases = [replace(theta0, config=replace(theta0.config, seed=k)) for k in range(n_bases)]
    seen = {}

    def spy(members, arch, train, rates, trainable=None, collect_steps=frozenset()):
        seen.update(rates=rates, collect=collect_steps)
        raise _Stop

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_train_population", spy)
        with pytest.raises(_Stop):
            fgg_fission_many(bases, sched, n_collect, bundle.train, bundle.val)
    total = fission_total_steps(sched, n_collect)
    assert seen["rates"].shape == (total, n_bases)
    for step, row in enumerate(seen["rates"].tolist(), start=1):
        assert row == [cyclical_alpha(step, sched)] * n_bases
    points = [s for s in range(1, total + 1) if is_collection_point(s, sched.cycle_steps)]
    assert sorted(seen["collect"]) == points and len(points) == n_collect and points[-1] == total


def test_fission_requires_config(bundle, theta0):
    base = _base(bundle, theta0)
    orphan = Checkpoint(id="base-ffffffffffff", arch=base.arch, params=base.params,
                        config=None, lineage=base.lineage, val_metrics={}, epochs_consumed=0.0)
    with pytest.raises(ValueError):
        fgg_fission(orphan, CyclicalSchedule(4, 1e-3, 1e-6), 1, bundle.train, bundle.val)


def test_val_metric_map_skips_undefined(bundle, theta0):
    # single-class slice: AUC is undefined and must be omitted, not raised
    ds = bundle.val
    mask = ds.labels == ds.labels[0]
    from soupkit.data import LabeledDataset
    single = LabeledDataset(ds.features[mask], ds.labels[mask], ds.class_count, "val", ds.task_id)
    metrics = val_metric_map(theta0.params, ARCH, single)
    assert "accuracy" in metrics
    assert "roc_auc_ovr" not in metrics


def test_val_metric_map_equals_separate_evaluations(bundle, theta0):
    from soupkit.nn import evaluate
    for split in (bundle.val, bundle.test, bundle.ood):
        metrics = val_metric_map(theta0.params, ARCH, split)
        assert metrics == {kind.value: evaluate(theta0.params, ARCH, split, kind) for kind in MetricKind}
        assert list(metrics) == [kind.value for kind in MetricKind]


# ---------------------------------------------------------------------------
# Trainer parity with the per-step reference loop

def _reference_train_loop(params, arch, train, config, lr_for_step, total_steps, rng,
                          trainable=None, collect_steps=frozenset(), collect_out=None):
    """The trainer as it was before its inputs were checked once per stage:
    a validated Batch, augment, gradient and adamw_step on every step."""
    n = train.n
    spe = steps_per_epoch(n, config.batch_size)
    params = params.copy()
    width = params.size if trainable is None else (trainable.stop - trainable.start)
    state = AdamWState.fresh(width, weight_decay=config.weight_decay)
    collected = [] if collect_out is None else collect_out
    step = 0
    while step < total_steps:
        perm = rng.permutation(n)
        for b in range(spe):
            if step >= total_steps:
                break
            step += 1
            rows = perm[b * config.batch_size : (b + 1) * config.batch_size]
            batch = augment(Batch(train.features[rows], train.labels[rows]), config.augment, rng)
            with np.errstate(over="ignore", invalid="ignore"):
                grads = gradient(params, arch, batch)
            if not np.all(np.isfinite(grads.values)):
                raise TrainingDivergedError(f"non-finite gradient at step {step}/{total_steps}")
            lr = lr_for_step(step)
            if trainable is None:
                adamw_step(params, grads, state, lr)
            else:
                # the slice's ParamVector is a view, so the update lands in params
                adamw_step(ParamVector(params.values[trainable], params.arch_signature),
                           ParamVector(grads.values[trainable], grads.arch_signature), state, lr)
            if not np.all(np.isfinite(params.values)):
                raise TrainingDivergedError(f"non-finite parameters at step {step}/{total_steps}")
            if step in collect_steps:
                collected.append((step, params.copy()))
    return params, collected


def _train_both(arch, train, config, rates, ref_lr, trainable=None, collect_steps=frozenset()):
    """(final values or None, collected, divergence message or None) for a
    one-member population trained on the (T,) `rates` and for the reference
    run for T steps at `ref_lr(step)`, from the same init and rng seed."""
    member = _Member(init_params(arch, 5), config, np.random.default_rng(9))
    values = _train_population([member], arch, train, np.asarray(rates)[:, None], trainable, collect_steps)
    new = (None if member.error else values[0], [(s, p.values) for s, p in member.collected], member.error)
    collected = []
    final, error = None, None
    # the reference leaves the overflow inside adamw_step on the way to a
    # divergence unsilenced
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            params, _ = _reference_train_loop(init_params(arch, 5), arch, train, config, ref_lr,
                                              len(rates), np.random.default_rng(9), trainable,
                                              collect_steps, collected)
            final = params.values
        except TrainingDivergedError as exc:
            error = str(exc)
    return new, (final, [(s, p.values) for s, p in collected], error)


def _assert_same_run(new, ref):
    (final, collected, error), (ref_final, ref_collected, ref_error) = new, ref
    assert error == ref_error
    assert (final is None) == (ref_final is None)
    if final is not None:
        assert np.array_equal(final, ref_final)
    assert [s for s, _ in collected] == [s for s, _ in ref_collected]
    for (_, p), (_, q) in zip(collected, ref_collected):
        assert np.array_equal(p, q)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("level", list(AugmentLevel))
def test_trainer_matches_reference_loop(bundle, activation, level):
    arch = ArchSpec((4, 8, 3), activation)
    config = HyperConfig(lr=1e-2, seed=0, epochs=3, augment=level)
    spe = steps_per_epoch(bundle.train.n, config.batch_size)
    sched = CosineSchedule(config.lr, config.epochs)
    # the last epoch stops part-way through
    rates = _cosine_rates(config.lr, config.epochs, spe)[: 2 * spe + 3]
    new, ref = _train_both(arch, bundle.train, config, rates, lambda step: cosine_lr((step - 1) // spe, sched))
    assert new[2] is None
    _assert_same_run(new, ref)


def test_trainer_matches_reference_on_trainable_slice(bundle):
    config = HyperConfig(lr=1e-2, seed=0, warmup_epochs=2, augment=AugmentLevel.HEAVY)
    spe = steps_per_epoch(bundle.train.n, config.batch_size)
    new, ref = _train_both(ARCH, bundle.train, config, np.full(2 * spe, config.lr), lambda step: config.lr,
                           trainable=last_layer_slice(ARCH))
    _assert_same_run(new, ref)


def test_trainer_matches_reference_on_fission_snapshots(bundle):
    sched = CyclicalSchedule(4, 1e-2, 1e-5)
    config = HyperConfig(lr=1e-2, seed=0, augment=AugmentLevel.MEDIUM,
                         schedule="cyclical", cyclical=sched)
    lr = lambda step: cyclical_alpha(step, sched)
    rates = [lr(step) for step in range(1, fission_total_steps(sched, 3) + 1)]
    new, ref = _train_both(ARCH, bundle.train, config, rates, lr, collect_steps=frozenset({2, 6, 10}))
    assert [s for s, _ in new[1]] == [2, 6, 10]
    _assert_same_run(new, ref)


@pytest.mark.parametrize("activation, lr, kind", [("relu", 1e30, "gradient"),
                                                  ("tanh", 1e300, "parameters")])
def test_trainer_diverges_like_reference(bundle, activation, lr, kind):
    arch = ArchSpec((4, 8, 3), activation)
    sched = CyclicalSchedule(4, lr, 1e-6)
    config = HyperConfig(lr=1e-2, seed=0, augment=AugmentLevel.HEAVY,
                         schedule="cyclical", cyclical=sched)
    rate = lambda step: cyclical_alpha(step, sched)
    new, ref = _train_both(arch, bundle.train, config, [rate(step) for step in range(1, 41)], rate,
                           collect_steps=frozenset(range(2, 41, 4)))
    assert new[2] is not None and new[2].startswith(f"non-finite {kind} at step ")
    _assert_same_run(new, ref)
