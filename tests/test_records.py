"""Every config record survives its own codec: `from_dict(to_dict(r)) == r`,
also through JSON text, for random records of every `_Record` type."""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soupkit.data import AugmentLevel, TaskKind, TaskSpec
from soupkit.experiment import SOUPS, AnalysisSection, ExperimentConfig, FggSection, GridSection
from soupkit.nn import ACTIVATIONS, ArchSpec, MetricKind, _Record
from soupkit.optim import CyclicalSchedule
from soupkit.pipeline import STAGES, HyperConfig, Lineage
from soupkit.soup import AuditEntry

_ints = st.integers(-(2**70), 2**70)
_counts = st.integers(0, 2**40)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_non_negative = st.floats(min_value=0.0, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_texts = st.text(max_size=12)
_augments = st.sampled_from(AugmentLevel)

_cyclical = st.builds(lambda half, a, b: CyclicalSchedule(2 * half, max(a, b), min(a, b)),
                      st.integers(1, 2**40), _positive, _positive)
_hyper = st.builds(HyperConfig, lr=_positive, seed=_ints, augment=_augments, epochs=_counts,
                   warmup_epochs=_counts, batch_size=st.integers(1, 2**40), weight_decay=_non_negative)
# Sections a config may hold: stage lists non-empty and without repeats, positive rates, epoch counts
# non-negative, alpha2 <= alpha1.
_lrs = st.lists(_positive, min_size=1, unique=True).map(tuple)
_grid = st.builds(GridSection, _lrs, st.lists(_augments, min_size=1, unique=True).map(tuple),
                  st.lists(_ints, min_size=1, unique=True).map(tuple), _counts)
_fgg = st.builds(lambda a, b, **kw: FggSection(alpha1=max(a, b), alpha2=min(a, b), **kw), _positive, _positive,
                 lrs=_lrs, epochs=_counts, cycle_epochs=_ints, n_collect=st.integers(1, 2**40), augment=_augments,
                 seed=_ints)


@st.composite
def _experiment(draw):
    """A config that loads: also valid split ratios over at least 20 rows, valid pretraining and warmup
    settings, and an even number of fgg cycle epochs, so that the cycle is an even number of steps."""
    grid, fgg = draw(st.none() | _grid), draw(st.none() | _fgg)
    if fgg is not None:
        fgg = replace(fgg, cycle_epochs=2 * draw(st.integers(1, 2**40)))
    val, test = draw(st.floats(0.05, 0.45)), draw(st.floats(0.05, 0.45))
    sections = {"grid": grid, "fgg": fgg}
    allowed = [s for s, (section, _) in SOUPS.items() if sections[section] is not None]
    return ExperimentConfig(
        name=draw(st.text(min_size=1, max_size=12).filter(lambda s: "/" not in s and not s.startswith("."))),
        metric=draw(st.sampled_from(MetricKind)), arch=draw(_RECORDS[ArchSpec]),
        task=replace(draw(_RECORDS[TaskSpec]), n_samples=draw(st.integers(20, 2**40))),
        split_ratios=(1.0 - val - test, val, test), batch_size=draw(st.integers(1, 2**40)),
        weight_decay=draw(_non_negative), pretrain_lr=draw(_positive), pretrain_epochs=draw(_counts),
        pretrain_seed=draw(_ints), warmup_lr=draw(_positive), warmup_epochs=draw(_counts), grid=grid, fgg=fgg,
        soups=tuple(draw(st.lists(st.sampled_from(allowed), max_size=8, unique=True))) if allowed else (),
        analysis=draw(st.none() | _RECORDS[AnalysisSection]),
    )


_RECORDS = {
    ArchSpec: st.builds(ArchSpec, st.lists(st.integers(1, 2**20), min_size=2, max_size=6).map(tuple),
                        st.sampled_from(ACTIVATIONS)),
    TaskSpec: st.builds(TaskSpec, kind=st.sampled_from(TaskKind), seed=_ints, dims=st.integers(1, 2**40),
                        class_count=st.integers(2, 2**40), n_samples=st.integers(1, 2**40),
                        imbalance_ratio=st.floats(min_value=1.0, allow_infinity=False),
                        label_noise_rate=st.floats(0.0, 1.0, exclude_max=True),
                        cluster_heterogeneity=_non_negative, shift_magnitude=_non_negative,
                        source_shift=_non_negative),
    CyclicalSchedule: _cyclical,
    Lineage: st.builds(Lineage, st.sampled_from(STAGES), st.none() | _texts, st.none() | _ints, st.none() | _texts),
    HyperConfig: _hyper | _cyclical.flatmap(lambda c: st.builds(HyperConfig, lr=_positive, seed=_ints,
                                                                schedule=st.just("cyclical"), cyclical=st.just(c))),
    GridSection: _grid,
    FggSection: _fgg,
    AnalysisSection: st.builds(AnalysisSection, st.integers(2, 2**70), st.tuples(*[st.integers(2, 2**70)] * 2),
                               st.floats(min_value=-0.5, exclude_min=True, allow_infinity=False)),
    ExperimentConfig: _experiment(),
    AuditEntry: st.builds(AuditEntry, _texts, _finite, st.booleans()),
}


def _record_types(cls=_Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _record_types(sub)


def test_every_record_type_is_drawn():
    assert {c for c in _record_types() if c.__module__.startswith("soupkit.")} == set(_RECORDS)


@pytest.mark.parametrize("kind", list(_RECORDS), ids=lambda kind: kind.__name__)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_record_survives_its_codec(kind, data):
    record = data.draw(_RECORDS[kind], label=kind.__name__)
    d = record.to_dict()
    assert kind.from_dict(d) == record
    text = json.dumps(d)
    back = kind.from_dict(json.loads(text))
    assert back == record
    assert json.dumps(back.to_dict()) == text  # the bytes too: -0.0 keeps its sign


@pytest.mark.parametrize("sections", [(), ("grid",), ("fgg",), ("grid", "fgg", "analysis")])
def test_an_experiment_config_survives_its_codec_with_and_without_sections(sections):
    record = ExperimentConfig(
        name="x", metric=MetricKind.ACCURACY, arch=ArchSpec((2, 2)), task=TaskSpec(TaskKind.ROUGH, 0, 2, 2, 40),
        grid=GridSection((0.01,), (AugmentLevel.HEAVY,), (0,), 1) if "grid" in sections else None,
        fgg=FggSection((0.01,), 1, 2, 0.1, 0.001, 3) if "fgg" in sections else None,
        analysis=AnalysisSection() if "analysis" in sections else None)
    assert ExperimentConfig.from_dict(json.loads(json.dumps(record.to_dict()))) == record
