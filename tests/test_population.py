"""The population trainer: a (K, P) stack trains every member exactly as its
solo run would, bit for bit, and a member that diverges freezes alone."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soupkit import pipeline
from soupkit.data import AugmentLevel, TaskKind, TaskSpec, gen_task
from soupkit.nn import ArchSpec, MetricKind, ParamVector, init_params
from soupkit.optim import CyclicalSchedule, cyclical_alpha
from soupkit.pipeline import (
    HyperConfig,
    _cosine_rates,
    _Member,
    _train_population,
    fgg_base_generate,
    fgg_fission,
    fgg_fission_many,
    grid_generate,
    linear_probe_warmup,
    pretrain_source,
    steps_per_epoch,
    val_metric_map,
)

ARCH = ArchSpec((4, 8, 3), "relu")


@pytest.fixture(scope="module")
def bundle():
    spec = TaskSpec(kind=TaskKind.ROUGH, seed=3, dims=4, class_count=3, n_samples=200,
                    imbalance_ratio=3.0, label_noise_rate=0.1, cluster_heterogeneity=1.0,
                    shift_magnitude=1.0)
    return gen_task(spec, ratios=(0.6, 0.2, 0.2))


@pytest.fixture(scope="module")
def theta0(bundle):
    pre = pretrain_source(ARCH, bundle.source, HyperConfig(lr=1e-2, seed=1, epochs=2))
    return linear_probe_warmup(pre, bundle.train, HyperConfig(lr=1e-2, seed=1, warmup_epochs=1),
                               val=bundle.val)


def _spec(arch, init_seed, lr, seed, level):
    """(start, config) of one member: a cosine run from a seeded init."""
    config = HyperConfig(lr=lr, seed=seed, epochs=3, augment=level)
    return init_params(arch, init_seed), config


def _rates(config, spe, total):
    """A member's rates at steps 1 to `total`, as its stage would give them."""
    if config.schedule == "cyclical":
        return [cyclical_alpha(step, config.cyclical) for step in range(1, total + 1)]
    return _cosine_rates(config.lr, config.epochs, spe)[:total]


def _population(arch, train, specs, total, rng_seeds, collect_steps):
    spe = steps_per_epoch(train.n, specs[0][1].batch_size)
    members = [_Member(start, config, np.random.default_rng(seed)) for (start, config), seed in zip(specs, rng_seeds)]
    rates = np.stack([_rates(config, spe, total) for _, config in specs], axis=1)
    values = _train_population(members, arch, train, rates, collect_steps=collect_steps)
    return [(None if m.error else row, [(s, p.values) for s, p in m.collected], m.error)
            for m, row in zip(members, values)]


def _solo(arch, train, start, config, total, rng_seed, collect_steps):
    """(final values or None, snapshots, error or None) of a one-member population."""
    return _population(arch, train, [(start, config)], total, [rng_seed], collect_steps)[0]


def _assert_same(run, ref):
    (final, collected, error), (ref_final, ref_collected, ref_error) = run, ref
    assert error == ref_error
    assert (final is None) == (ref_final is None)
    if final is not None:
        assert np.array_equal(final, ref_final)
    assert [s for s, _ in collected] == [s for s, _ in ref_collected]
    for (_, p), (_, q) in zip(collected, ref_collected):
        assert np.array_equal(p, q)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_population_equals_solo_runs(bundle, activation):
    arch = ArchSpec((4, 8, 3), activation)
    specs = [_spec(arch, init_seed, lr, seed, level)
             for init_seed, (lr, seed, level) in enumerate(
                 [(1e-2, 0, AugmentLevel.MINIMAL), (3e-3, 1, AugmentLevel.MEDIUM),
                  (1e-2, 2, AugmentLevel.HEAVY), (3e-2, 0, AugmentLevel.HEAVY),
                  (1e-3, 0, AugmentLevel.MEDIUM)])]
    spe = steps_per_epoch(bundle.train.n, 32)
    total = 2 * spe + 3  # the last epoch stops part-way through
    collect = frozenset({1, spe, spe + 1, total})
    rng_seeds = [10, 11, 12, 13, 13]  # two members may share a stream's seed
    runs = _population(arch, bundle.train, specs, total, rng_seeds, collect)
    for (start, config), seed, run in zip(specs, rng_seeds, runs):
        assert run[2] is None and [s for s, _ in run[1]] == sorted(collect)
        _assert_same(run, _solo(arch, bundle.train, start, config, total, seed, collect))


def test_diverging_member_freezes_alone(bundle):
    spe = steps_per_epoch(bundle.train.n, 32)
    blowup = CyclicalSchedule(2 * spe, 1e30, 1e-6)
    wild = HyperConfig(lr=1e-2, seed=0, augment=AugmentLevel.HEAVY,
                       schedule="cyclical", cyclical=blowup)
    specs = [_spec(ARCH, 0, 1e-2, 0, AugmentLevel.MEDIUM), (init_params(ARCH, 1), wild),
             _spec(ARCH, 2, 3e-3, 1, AugmentLevel.HEAVY)]
    total = 3 * spe
    # the wild member's rate is near 1e30 only around its cycle boundary, so
    # it collects a few snapshots before blowing up mid-run
    collect = frozenset(range(1, total + 1, 3))
    runs = _population(ARCH, bundle.train, specs, total, [5, 6, 7], collect)
    assert runs[1][2] is not None and runs[1][2].startswith("non-finite ")
    assert runs[1][1], "the diverging member should have snapshots from before its divergence"
    for (start, config), seed, run in zip(specs, [5, 6, 7], runs):
        _assert_same(run, _solo(ARCH, bundle.train, start, config, total, seed, collect))
    assert runs[0][2] is None and runs[2][2] is None


def test_members_that_stop_or_never_draw_leave_their_rows_alone(bundle, monkeypatch):
    """Every member's rng ends where its solo run's does, so a frozen member
    stops drawing; the rows of a member that never draws, and of a frozen
    one after it froze, reach the gradient exactly as gathered."""
    spe = steps_per_epoch(bundle.train.n, 32)
    assert bundle.train.n % 32, "each epoch should end on a partial batch"
    wild = HyperConfig(lr=1e-2, seed=0, augment=AugmentLevel.HEAVY,
                       schedule="cyclical", cyclical=CyclicalSchedule(2 * spe, 1e30, 1e-6))
    specs = [_spec(ARCH, 0, 1e-2, 0, AugmentLevel.MINIMAL), (init_params(ARCH, 1), wild),
             _spec(ARCH, 2, 3e-3, 1, AugmentLevel.MEDIUM), _spec(ARCH, 3, 1e-2, 2, AugmentLevel.HEAVY)]
    seeds, total = [5, 6, 7, 8], 3 * spe
    batches = []
    gradient_into = pipeline._gradient_into

    def spy(layers, activation, features, labels, out):
        batches.append(features.copy())
        gradient_into(layers, activation, features, labels, out)
    monkeypatch.setattr(pipeline, "_gradient_into", spy)

    def run(specs, seeds):
        members = [_Member(start, config, np.random.default_rng(seed)) for (start, config), seed in zip(specs, seeds)]
        rates = np.stack([_rates(config, spe, total) for _, config in specs], axis=1)
        _train_population(members, ARCH, bundle.train, rates)
        return members

    members = run(specs, seeds)
    steps = batches[:]
    assert [m.error is None for m in members] == [True, False, True, True]
    frozen_at = int(members[1].error.split(" at step ")[1].split("/")[0])
    assert 1 < frozen_at <= 2 * spe, "the wild member should freeze before the last epoch starts"
    for m, spec, seed in zip(members, specs, seeds):
        [solo] = run([spec], [seed])
        assert m.rng.bit_generator.state == solo.rng.bit_generator.state

    gathered = {row.tobytes() for row in bundle.train.features}
    untouched = lambda rows: all(row.tobytes() in gathered for row in rows)
    assert len(steps) == total and {f.shape[1] for f in steps} == {32, bundle.train.n % 32}
    for step, features in enumerate(steps, start=1):
        assert untouched(features[0])
        assert untouched(features[1]) == (step > frozen_at)
        assert not untouched(features[2]) and not untouched(features[3])


def test_population_rejects_mixed_batch_sizes(bundle):
    specs = [_spec(ARCH, 0, 1e-2, 0, AugmentLevel.MINIMAL),
             (init_params(ARCH, 1), HyperConfig(lr=1e-2, seed=0, batch_size=16))]
    with pytest.raises(ValueError, match="batch size"):
        _population(ARCH, bundle.train, specs, 4, [0, 1], frozenset())


@pytest.mark.parametrize("shape", [(6,), (6, 1), (6, 3), (6, 2, 1)])
def test_population_rejects_a_rate_table_of_the_wrong_shape(bundle, shape):
    members = [_Member(*_spec(ARCH, i, 1e-2, i, AugmentLevel.MINIMAL), np.random.default_rng(i)) for i in range(2)]
    with pytest.raises(ValueError, match=r"rates must be a \(steps, 2\) table"):
        _train_population(members, ARCH, bundle.train, np.full(shape, 1e-2))


@settings(max_examples=12, deadline=None)
@given(order=st.permutations(range(4)))
def test_member_order_permutes_results(bundle, order):
    specs = [_spec(ARCH, i, lr, i % 2, level)
             for i, (lr, level) in enumerate([(1e-2, AugmentLevel.MINIMAL), (3e-3, AugmentLevel.HEAVY),
                                              (3e-2, AugmentLevel.MEDIUM), (1e-3, AugmentLevel.HEAVY)])]
    seeds = [20, 21, 22, 23]
    collect = frozenset({2, 7})
    base = _population(ARCH, bundle.train, specs, 9, seeds, collect)
    permuted = _population(ARCH, bundle.train, [specs[i] for i in order], 9,
                           [seeds[i] for i in order], collect)
    for i, run in zip(order, permuted):
        _assert_same(run, base[i])


# ---------------------------------------------------------------------------
# The stages that train populations equal their one-run forms

def test_grid_equals_solo_fine_tunes(bundle, theta0):
    template = HyperConfig(lr=1.0, seed=0, epochs=2)
    cks, failures = grid_generate(theta0, [1e30, 1e-2, 3e-3], list(AugmentLevel), [0, 1],
                                  bundle.train, bundle.val, template)
    assert len(cks) == 12 and len(failures) == 6
    def solo(cfg):
        return grid_generate(theta0, [cfg.lr], [cfg.augment], [cfg.seed], bundle.train, bundle.val, cfg)

    for ck in cks:
        (one,), no_failures = solo(ck.config)
        assert no_failures == []
        assert ck.id == one.id
        assert np.array_equal(ck.params.values, one.params.values)
        assert ck.val_metrics == one.val_metrics
    for failure in failures:
        no_checkpoints, (one,) = solo(failure.config)
        assert no_checkpoints == []
        assert one.error == failure.error


def test_fission_population_equals_solo_fissions(bundle, theta0):
    template = HyperConfig(lr=1.0, seed=0, epochs=1, augment=AugmentLevel.HEAVY)
    bases, _ = fgg_base_generate(theta0, [1e-2, 3e-3, 1e-3], bundle.train, bundle.val, template)
    spe = steps_per_epoch(bundle.train.n, 32)
    sched = CyclicalSchedule(2 * spe, 3e-3, 1e-6)
    results = fgg_fission_many(bases, sched, 3, bundle.train, bundle.val)
    for base, result in zip(bases, results):
        solo = fgg_fission(base, sched, 3, bundle.train, bundle.val)
        assert result.truncated is solo.truncated is False
        assert result.capture_steps == solo.capture_steps
        assert [c.id for c in result.checkpoints] == [c.id for c in solo.checkpoints]
        for a, b in zip(result.checkpoints, solo.checkpoints):
            assert np.array_equal(a.params.values, b.params.values)
            assert a.val_metrics == b.val_metrics
            assert a.epochs_consumed == b.epochs_consumed


def test_stage_scoring_equals_val_metric_map_per_snapshot(bundle, theta0):
    # every run diverges after two of three snapshots, the middle one before
    # its first, so one stacked scoring serves runs of different lengths
    template = HyperConfig(lr=1.0, seed=0, epochs=1, augment=AugmentLevel.MEDIUM)
    bases, _ = fgg_base_generate(theta0, [1e-2, 3e-3, 1e-3], bundle.train, bundle.val, template)
    spe = steps_per_epoch(bundle.train.n, 32)
    sched = CyclicalSchedule(2 * spe, 1e12, 1e-6)
    blowup = replace(bases[1], params=ParamVector(bases[1].params.values * 1e150, ARCH.signature))
    results = fgg_fission_many([bases[0], blowup, bases[2]], sched, 3, bundle.train, bundle.val)
    assert [len(r.checkpoints) for r in results] == [2, 0, 2]
    for result in results:
        for ck in result.checkpoints:
            assert ck.val_metrics == val_metric_map(ck.params, ARCH, bundle.val)
            assert list(ck.val_metrics) == [kind.value for kind in MetricKind]
