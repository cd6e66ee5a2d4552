"""Soup math and membership tests against hand-simulated oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soupkit.data import LabeledDataset
from soupkit.experiment import build_soups
from soupkit.nn import ArchSpec, MetricKind, ParamVector, _evaluator, evaluate, init_params
from soupkit.pipeline import Checkpoint, Lineage
from soupkit.soup import (
    AuditEntry,
    LineageError,
    SoupMethod,
    SoupResult,
    greedy_soup,
    hierarchical_soup,
    uniform_soup,
)

ARCH = ArchSpec((3, 4, 2))


def _pv(values):
    return ParamVector(np.asarray(values, dtype=np.float64), ARCH.signature)


def _ck(cid, values, val_acc=None, stage="grid", base_id=None, root_id="warmstart-0"):
    metrics = {} if val_acc is None else {"accuracy": val_acc}
    return Checkpoint(
        id=cid, arch=ARCH, params=_pv(values), config=None,
        lineage=Lineage(stage, base_id=base_id, root_id=root_id),
        val_metrics=metrics, epochs_consumed=1.0,
    )


def _byte_scorer(table):
    """Evaluator keyed on exact parameter bytes; fails loudly on surprises."""
    def fn(params: ParamVector) -> float:
        key = params.values.tobytes()
        assert key in table, f"unexpected trial params {params.values}"
        return table[key]
    return fn


# ---------------------------------------------------------------------------
# uniform_soup

def test_uniform_identity_on_equal_members():
    base = init_params(ARCH, 0)
    for m in (1, 2, 5):
        out = uniform_soup([base.copy() for _ in range(m)])
        assert np.array_equal(out.values, base.values)  # exact, not approximate


def test_uniform_permutation_invariant_bitwise():
    rng = np.random.default_rng(0)
    members = [_pv(rng.normal(size=ARCH.param_count)) for _ in range(5)]
    ref = uniform_soup(members)
    for trial in range(10):
        shuffled = list(members)
        np.random.default_rng(trial).shuffle(shuffled)
        assert np.array_equal(uniform_soup(shuffled).values, ref.values)


_vectors = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=ARCH.param_count, max_size=ARCH.param_count)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), values=st.lists(_vectors, min_size=1, max_size=6))
def test_uniform_soup_is_the_same_bytes_in_any_member_order(data, values):
    members = [_pv(v) for v in values]
    order = data.draw(st.permutations(range(len(members))))
    with np.errstate(over="ignore", invalid="ignore"):  # huge members may overflow the mean
        want, got = uniform_soup(members), uniform_soup([members[i] for i in order])
    assert got.values.tobytes() == want.values.tobytes()


def test_uniform_matches_plain_mean():
    rng = np.random.default_rng(1)
    for m in (1, 2, 5, 9):
        members = [_pv(rng.normal(size=ARCH.param_count)) for _ in range(m)]
        want = np.mean([p.values for p in members], axis=0)
        np.testing.assert_allclose(uniform_soup(members).values, want, rtol=0, atol=1e-12)


def test_uniform_two_member_hand_case():
    out = uniform_soup([_pv([1.0] * ARCH.param_count), _pv([3.0] * ARCH.param_count)])
    assert np.all(out.values == 2.0)


def test_uniform_returns_copy_not_alias():
    member = _pv([1.0] * ARCH.param_count)
    out = uniform_soup([member])
    out.values[0] = 99.0
    assert member.values[0] == 1.0


def test_uniform_validation():
    with pytest.raises(ValueError):
        uniform_soup([])
    with pytest.raises(ValueError):
        uniform_soup([_pv(np.zeros(ARCH.param_count)),
                      ParamVector(np.zeros(ARCH.param_count), "other-arch")])
    with pytest.raises(ValueError):
        uniform_soup([_pv(np.zeros(ARCH.param_count)),
                      ParamVector(np.zeros(3), ARCH.signature)])


# ---------------------------------------------------------------------------
# greedy_soup

def _const(v):
    return [v] * ARCH.param_count


def test_greedy_scripted_accept_and_reject():
    # rank order by recorded val: a (.9), b (.8), c (.7)
    a = _ck("grid-a", _const(0.0), val_acc=0.9)
    b = _ck("grid-b", _const(2.0), val_acc=0.8)
    c = _ck("grid-c", _const(10.0), val_acc=0.7)
    mean_ab = np.mean([a.params.values, b.params.values], axis=0)
    mean_abc = np.mean([a.params.values, b.params.values, c.params.values], axis=0)
    scores = {
        mean_ab.tobytes(): 0.92,   # accept: 0.92 >= 0.9
        mean_abc.tobytes(): 0.50,  # reject: 0.50 < 0.92
    }
    result = greedy_soup([c, a, b], MetricKind.ACCURACY, evaluate_fn=_byte_scorer(scores))
    assert result.members == ["grid-a", "grid-b"]
    assert result.val_score == 0.92
    np.testing.assert_allclose(result.params.values, mean_ab, atol=0)
    assert [(e.candidate_id, e.trial_score, e.accepted) for e in result.audit] == [
        ("grid-a", 0.9, True),
        ("grid-b", 0.92, True),
        ("grid-c", 0.50, False),
    ]


def test_greedy_tie_accepts():
    a = _ck("grid-a", _const(0.0), val_acc=0.9)
    b = _ck("grid-b", _const(2.0), val_acc=0.8)
    trial = np.mean([a.params.values, b.params.values], axis=0)
    result = greedy_soup([a, b], MetricKind.ACCURACY,
                         evaluate_fn=_byte_scorer({trial.tobytes(): 0.9}))
    assert result.members == ["grid-a", "grid-b"]  # equal score keeps the member


def test_greedy_all_rejected_returns_best_alone():
    a = _ck("grid-a", _const(0.0), val_acc=0.9)
    b = _ck("grid-b", _const(2.0), val_acc=0.8)
    c = _ck("grid-c", _const(4.0), val_acc=0.7)
    table = {}
    for other in (b, c):
        table[np.mean([a.params.values, other.params.values], axis=0).tobytes()] = 0.1
    result = greedy_soup([a, b, c], MetricKind.ACCURACY, evaluate_fn=_byte_scorer(table))
    assert result.members == ["grid-a"]
    assert np.array_equal(result.params.values, a.params.values)
    assert result.val_score == 0.9


def test_greedy_rank_ties_break_on_id():
    a = _ck("grid-a", _const(0.0), val_acc=0.8)
    b = _ck("grid-b", _const(2.0), val_acc=0.8)
    trial = np.mean([a.params.values, b.params.values], axis=0)
    result = greedy_soup([b, a], MetricKind.ACCURACY,
                         evaluate_fn=_byte_scorer({trial.tobytes(): 0.0}))
    # same recorded score: "grid-a" sorts first and seeds the soup
    assert result.audit[0].candidate_id == "grid-a"
    assert result.members == ["grid-a"]


def test_greedy_all_accepted_equals_uniform():
    rng = np.random.default_rng(2)
    cks = [_ck(f"grid-{i}", rng.normal(size=ARCH.param_count), val_acc=0.5) for i in range(4)]
    result = greedy_soup(cks, MetricKind.ACCURACY, evaluate_fn=lambda p: 1.0)
    want = uniform_soup([c.params for c in cks])
    assert np.array_equal(result.params.values, want.values)
    assert len(result.members) == 4


def test_greedy_monotone_over_seeded_candidates():
    # invariant: final val score never drops below the best single candidate
    for trial in range(20):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(2, 7))
        cks = [_ck(f"grid-{i:02d}", rng.normal(size=ARCH.param_count),
                   val_acc=float(rng.random())) for i in range(n)]
        # a deterministic but arbitrary evaluator
        fn = lambda p: float(np.abs(np.sin(p.values.sum())))
        result = greedy_soup(cks, MetricKind.ACCURACY, evaluate_fn=fn)
        best = max(c.val_metrics["accuracy"] for c in cks)
        assert result.val_score >= best or result.val_score == pytest.approx(best)
        accepted = [e.trial_score for e in result.audit if e.accepted]
        assert accepted == sorted(accepted)  # accepted running scores never decrease


@settings(max_examples=60, deadline=None)
@given(data=st.data(), recorded=st.lists(st.none() | st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                                         min_size=1, max_size=6))
def test_greedy_never_scores_below_its_best_candidate(data, recorded):
    # a table scorer: each parameter vector's score is drawn the first time it
    # is scored, and the same vector always gets the same score
    table = {}
    scores = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0)

    def scorer(params):
        key = params.values.tobytes()
        if key not in table:
            table[key] = data.draw(scores)
        return table[key]

    rng = np.random.default_rng(len(recorded))
    cks = [_ck(f"grid-{i:02d}", rng.normal(size=ARCH.param_count), val_acc=r) for i, r in enumerate(recorded)]
    result = greedy_soup(cks, MetricKind.ACCURACY, evaluate_fn=scorer)
    best = max(c.val_metrics.get("accuracy", table.get(c.params.values.tobytes())) for c in cks)
    assert result.val_score >= best
    assert result.val_score == max(e.trial_score for e in result.audit if e.accepted)


def test_greedy_falls_back_to_evaluator_for_unscored():
    a = _ck("grid-a", _const(0.0))  # no recorded metrics
    b = _ck("grid-b", _const(2.0))
    table = {
        a.params.values.tobytes(): 0.9,
        b.params.values.tobytes(): 0.3,
        np.mean([a.params.values, b.params.values], axis=0).tobytes(): 0.95,
    }
    result = greedy_soup([a, b], MetricKind.ACCURACY, evaluate_fn=_byte_scorer(table))
    assert result.members == ["grid-a", "grid-b"]


def test_greedy_scores_each_unscored_candidate_once():
    cks = [_ck(f"grid-{i}", _const(float(i))) for i in range(4)]  # no recorded metrics
    scored = []

    def score(params):
        scored.append(params.values.tobytes())
        return float(params.values[0])

    result = greedy_soup(cks, MetricKind.ACCURACY, evaluate_fn=score)
    # one ranking score per candidate, then one trial per candidate after the seed
    assert len(scored) == len(cks) + len(cks) - 1
    assert result.audit[0] == AuditEntry("grid-3", 3.0, True)


def test_greedy_soup_checks_the_val_split_once(split_checks):
    rng = np.random.default_rng(9)
    val = LabeledDataset(rng.normal(size=(40, 3)), rng.integers(0, 2, size=40), class_count=2,
                         role="val", task_id="t")
    # unscored candidates, so ranking scores each of them too
    cks = [_ck(f"grid-{i}", rng.normal(size=ARCH.param_count)) for i in range(5)]
    result = greedy_soup(cks, MetricKind.MACRO_F1, evaluate_fn=_evaluator(ARCH, val, MetricKind.MACRO_F1))
    assert len(split_checks) == 1 and split_checks[0] is val.features
    want = greedy_soup(cks, MetricKind.MACRO_F1, evaluate_fn=lambda p: evaluate(p, ARCH, val, MetricKind.MACRO_F1))
    assert result.audit == want.audit and np.array_equal(result.params.values, want.params.values)


def test_greedy_rejects_mixed_roots():
    a = _ck("grid-a", _const(0.0), val_acc=0.9, root_id="warmstart-0")
    b = _ck("grid-b", _const(1.0), val_acc=0.8, root_id="warmstart-1")
    with pytest.raises(LineageError):
        greedy_soup([a, b], MetricKind.ACCURACY, evaluate_fn=lambda p: 0.0)


def test_greedy_refuses_an_empty_candidate_list():
    with pytest.raises(ValueError, match="empty candidate list"):
        greedy_soup([], MetricKind.ACCURACY, evaluate_fn=lambda p: 0.0)


# ---------------------------------------------------------------------------
# Local soups: the lower level of hierarchical_soup over a single group

def _family(m):
    """A base plus m fission snapshots with valid lineage."""
    rng = np.random.default_rng(m)
    base = _ck("base-0000000000ab", rng.normal(size=ARCH.param_count), val_acc=0.6,
               stage="base")
    fissions = [
        _ck(f"fission-{i:012d}", rng.normal(size=ARCH.param_count), val_acc=0.5,
            stage="fission", base_id=base.id)
        for i in range(m)
    ]
    return base, fissions


@pytest.mark.parametrize("m", [0, 1, 2, 5])
def test_local_uniform_weights_base_equally(m):
    base, fissions = _family(m)
    # one group: the top level has a single candidate and returns it as is
    result = hierarchical_soup({base.id: [base, *fissions]}, SoupMethod.GOU,
                               MetricKind.ACCURACY, evaluate_fn=lambda p: 0.0)
    want = np.mean([base.params.values] + [f.params.values for f in fissions], axis=0)
    np.testing.assert_allclose(result.params.values, want, rtol=0, atol=1e-12)
    assert result.level_members[f"local-{base.id}"] == [base.id] + [f.id for f in fissions]
    if m == 0:
        assert np.array_equal(result.params.values, base.params.values)


def test_local_greedy_base_is_ordinary_candidate():
    base, fissions = _family(2)
    # make one snapshot outrank the base
    fissions[0].val_metrics["accuracy"] = 0.95
    seen = []
    def fn(p):
        seen.append(p.values.tobytes())
        return 0.0  # reject every merge trial
    result = hierarchical_soup({base.id: [base, *fissions]}, SoupMethod.GOG,
                               MetricKind.ACCURACY, evaluate_fn=fn)
    local_id = f"local-{base.id}"
    assert result.level_members[local_id] == [fissions[0].id]  # the snapshot won the seed slot
    assert result.method.lower_level is SoupMethod.GREEDY
    assert [a.candidate_id for a in result.local_audits[local_id]] == [fissions[0].id, base.id, fissions[1].id]


def test_local_greedy_empty_fissions_collapses_to_base():
    base, _ = _family(0)
    result = hierarchical_soup({base.id: [base]}, SoupMethod.GOG,
                               MetricKind.ACCURACY, evaluate_fn=lambda p: 0.0)
    assert result.level_members[f"local-{base.id}"] == [base.id]
    assert np.array_equal(result.params.values, base.params.values)


def test_local_soup_rejects_foreign_snapshots():
    base, fissions = _family(1)
    foreign = _ck("fission-ffffffffffff", _const(1.0), stage="fission", base_id="base-other")
    with pytest.raises(LineageError):
        # the lineage check runs before anything is scored, so no val split is needed
        build_soups(["gou"], MetricKind.ACCURACY, ARCH, None, [], [(base, [foreign])])
    with pytest.raises(ValueError):
        hierarchical_soup({base.id: [base, *fissions]}, SoupMethod.UNIFORM,
                          MetricKind.ACCURACY, evaluate_fn=lambda p: 0.0)


# ---------------------------------------------------------------------------
# hierarchical_soup

def _two_groups():
    rng = np.random.default_rng(5)
    groups = []
    for g in range(2):
        base = _ck(f"base-{g:012d}", rng.normal(size=ARCH.param_count), val_acc=0.6,
                   stage="base")
        fissions = [
            _ck(f"fission-{g}{i:011d}", rng.normal(size=ARCH.param_count), val_acc=0.5,
                stage="fission", base_id=base.id)
            for i in range(2)
        ]
        groups.append((base, fissions))
    return groups


def _keyed(groups):
    """(base, snapshots) pairs as the engine's groups: keyed by base id."""
    return {base.id: [base, *fissions] for base, fissions in groups}


def _expected_locals(groups):
    """Byte-exact expected local soups, built with the same averaging routine."""
    return {
        f"local-{base.id}": uniform_soup([base.params] + [f.params for f in fissions])
        for base, fissions in groups
    }


def test_hierarchical_gou_membership_and_structure():
    groups = _two_groups()
    locals_ = {k: v.values for k, v in _expected_locals(groups).items()}
    ids = sorted(locals_)
    top_mean = uniform_soup([_pv(locals_[i]) for i in ids]).values
    # score local soups 0.7/0.6; accept the merge at 0.75
    table = {locals_[ids[0]].tobytes(): 0.7,
             locals_[ids[1]].tobytes(): 0.6,
             top_mean.tobytes(): 0.75}
    result = hierarchical_soup(_keyed(groups), SoupMethod.GOU, MetricKind.ACCURACY,
                               evaluate_fn=_byte_scorer(table))
    assert result.method is SoupMethod.GOU
    assert sorted(result.members) == ids
    assert result.level_members == {
        f"local-{base.id}": [base.id] + [f.id for f in fissions] for base, fissions in groups
    }
    assert set(result.local_audits) == set(ids)
    # gou lower level is uniform: no local decisions recorded
    assert all(a == [] for a in result.local_audits.values())
    np.testing.assert_allclose(result.params.values, top_mean, atol=0)
    assert result.val_score == 0.75


def test_hierarchical_gog_runs_local_greedy():
    groups = _two_groups()
    # every trial beats the recorded seeds (0.6), so local greedy accepts all
    result = hierarchical_soup(_keyed(groups), SoupMethod.GOG, MetricKind.ACCURACY,
                               evaluate_fn=lambda p: 0.7)
    assert result.method is SoupMethod.GOG
    for (base, fissions), local_id in zip(groups, sorted(result.level_members)):
        member_ids = result.level_members[local_id]
        assert member_ids[0] == base.id  # base outranks its snapshots here
        assert set(member_ids) == {base.id, fissions[0].id, fissions[1].id}
    assert all(len(a) == 3 for a in result.local_audits.values())
    assert len(result.members) == 2  # both local soups survive the top level


def test_hierarchical_top_level_can_reject_a_local_soup():
    groups = _two_groups()
    locals_ = {k: v.values for k, v in _expected_locals(groups).items()}
    ids = sorted(locals_)
    top_mean = uniform_soup([_pv(locals_[i]) for i in ids]).values
    table = {locals_[ids[0]].tobytes(): 0.7,
             locals_[ids[1]].tobytes(): 0.6,
             top_mean.tobytes(): 0.1}  # merging hurts: reject
    result = hierarchical_soup(_keyed(groups), SoupMethod.GOU, MetricKind.ACCURACY,
                               evaluate_fn=_byte_scorer(table))
    assert result.members == [ids[0]]
    np.testing.assert_allclose(result.params.values, locals_[ids[0]], atol=0)


def test_hierarchical_validation():
    groups = _two_groups()
    with pytest.raises(ValueError):
        hierarchical_soup(_keyed(groups), SoupMethod.UNIFORM, MetricKind.ACCURACY, evaluate_fn=lambda p: 0.0)
    with pytest.raises(ValueError):
        hierarchical_soup({}, SoupMethod.GOU, MetricKind.ACCURACY, evaluate_fn=lambda p: 0.0)


# ---------------------------------------------------------------------------
# SoupResult

def test_soup_result_id_depends_on_method_and_members():
    p = _pv(np.zeros(ARCH.param_count))
    a = SoupResult(params=p, method=SoupMethod.UNIFORM, members=["x", "y"], val_score=None)
    b = SoupResult(params=p, method=SoupMethod.UNIFORM, members=["x", "y"], val_score=0.5)
    c = SoupResult(params=p, method=SoupMethod.GREEDY, members=["x", "y"], val_score=None)
    d = SoupResult(params=p, method=SoupMethod.UNIFORM, members=["y", "x"], val_score=None)
    assert a.id == b.id  # score does not enter the id
    assert a.id != c.id
    assert a.id != d.id
    assert a.id.startswith("soup-")


def test_soup_result_requires_members():
    with pytest.raises(ValueError):
        SoupResult(params=_pv(np.zeros(ARCH.param_count)), method=SoupMethod.UNIFORM,
                   members=[], val_score=None)


def test_audit_entry_round_trips_both_decisions():
    for accepted in (True, False):
        entry = AuditEntry("grid-a", 0.5, accepted)
        assert AuditEntry.from_dict(entry.to_dict()) == entry
        assert AuditEntry.from_dict(entry.to_dict()).accepted is accepted


@pytest.mark.parametrize("value", ["false", 0, 1, None])
def test_audit_entry_takes_only_true_or_false(value):
    with pytest.raises(ValueError, match="accepted: expected true or false"):
        AuditEntry.from_dict({"candidate_id": "grid-a", "trial_score": 0.5, "accepted": value})


def test_audit_dict_shape():
    p = _pv(np.zeros(ARCH.param_count))
    result = SoupResult(params=p, method=SoupMethod.GOU, members=["local-a"], val_score=0.5,
                        audit=[AuditEntry("local-a", 0.5, True)],
                        level_members={"local-a": ["base-1", "fission-1"]},
                        local_audits={"local-a": []})
    d = result.audit_dict()
    assert d["method"] == "gou"
    assert d["decisions"] == [{"candidate_id": "local-a", "trial_score": 0.5, "accepted": True}]
    assert d["level_members"] == {"local-a": ["base-1", "fission-1"]}
    assert d["local_decisions"] == {"local-a": []}
