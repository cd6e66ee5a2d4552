"""Weight-space model merging: uniform and greedy soups, and the two-level
hierarchical variants.

Hierarchical methods build one local soup per named group of checkpoints
(uniform lower level for "gou", greedy for "gog"), score each on
validation data, and run a greedy soup across the local results. Greedy
acceptance keeps ties, so the final validation score never drops below the
best single candidate.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping, Sequence

import numpy as np

from .nn import MetricKind, ParamVector, _Record
from .pipeline import Checkpoint, Lineage


class LineageError(ValueError):
    """Members come from incompatible lineages and cannot be merged."""


class SoupMethod(str, Enum):
    UNIFORM = "uniform"
    GREEDY = "greedy"
    GOU = "gou"
    GOG = "gog"

    @property
    def lower_level(self) -> "SoupMethod | None":
        if self is SoupMethod.GOU:
            return SoupMethod.UNIFORM
        if self is SoupMethod.GOG:
            return SoupMethod.GREEDY
        return None


@dataclass(frozen=True)
class AuditEntry(_Record):
    candidate_id: str
    trial_score: float
    accepted: bool


@dataclass
class SoupResult:
    params: ParamVector
    method: SoupMethod
    members: list[str]
    val_score: float | None
    audit: list[AuditEntry] = field(default_factory=list)
    level_members: dict[str, list[str]] | None = None
    local_audits: dict[str, list[AuditEntry]] | None = None

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a soup must have at least one member")

    @property
    def id(self) -> str:
        payload = self.method.value + "|" + "|".join(self.members)
        return f"soup-{hashlib.sha256(payload.encode('ascii')).hexdigest()[:12]}"

    def audit_dict(self) -> dict:
        out: dict = {
            "method": self.method.value,
            "members": list(self.members),
            "val_score": self.val_score,
            "decisions": [a.to_dict() for a in self.audit],
        }
        if self.level_members is not None:
            out["level_members"] = {k: list(v) for k, v in self.level_members.items()}
        if self.local_audits is not None:
            out["local_decisions"] = {k: [a.to_dict() for a in v] for k, v in self.local_audits.items()}
        return out


def uniform_soup(members: Sequence[ParamVector]) -> ParamVector:
    """Elementwise mean, computed in a canonical member order.

    Members are sorted by raw bytes before summing, which makes the result
    exactly permutation-invariant, and differences are accumulated against
    an anchor so a soup of identical vectors returns that vector bit for bit.
    """
    if not members:
        raise ValueError("cannot soup an empty member list")
    signatures = {m.arch_signature for m in members}
    if len(signatures) > 1:
        raise ValueError(f"members span multiple architectures: {sorted(signatures)}")
    sizes = {m.size for m in members}
    if len(sizes) > 1:
        raise ValueError(f"members have mismatched lengths: {sorted(sizes)}")
    keys = [m.values.tobytes() for m in members]
    order = sorted(range(len(members)), key=keys.__getitem__)
    anchor = members[order[0]].values
    if len(members) == 1:
        return ParamVector(anchor.copy(), members[0].arch_signature)
    acc = np.zeros_like(anchor)
    for i in order[1:]:
        acc += members[i].values - anchor
    return ParamVector(anchor + acc / len(members), members[0].arch_signature)


def _check_roots(candidates: Sequence[Checkpoint]) -> None:
    roots = {c.lineage.root_id for c in candidates if c.lineage.root_id is not None}
    if len(roots) > 1:
        raise LineageError(f"members descend from different warmstarts: {sorted(roots)}")


def greedy_soup(
    candidates: Sequence[Checkpoint],
    metric: MetricKind | str,
    evaluate_fn: Callable[[ParamVector], float],
) -> SoupResult:
    """Classic greedy soup: seed with the best validation candidate, then
    trial-average each remaining candidate in descending score order and
    keep it whenever the trial validation score does not drop.

    Ranking uses each candidate's recorded validation metric when present,
    falling back to `evaluate_fn`; ranking ties break on candidate id.
    """
    if not candidates:
        raise ValueError("cannot soup an empty candidate list")
    metric_key = MetricKind(metric).value
    _check_roots(candidates)

    def rank_score(c: Checkpoint) -> float:
        return c.val_metrics[metric_key] if metric_key in c.val_metrics else evaluate_fn(c.params)

    ordered = sorted(((rank_score(c), c) for c in candidates), key=lambda sc: (-sc[0], sc[1].id))
    current, best = ordered[0]
    member_params: list[ParamVector] = [best.params]
    members = [best.id]
    current_params = uniform_soup(member_params)
    audit = [AuditEntry(best.id, current, True)]
    for _, cand in ordered[1:]:
        trial = uniform_soup(member_params + [cand.params])
        score = evaluate_fn(trial)
        accepted = score >= current
        audit.append(AuditEntry(cand.id, score, accepted))
        if accepted:
            member_params.append(cand.params)
            members.append(cand.id)
            current_params = trial
            current = score
    return SoupResult(params=current_params, method=SoupMethod.GREEDY,
                      members=members, val_score=current, audit=audit)


def _flat_soup(method: SoupMethod, members: Sequence[Checkpoint], metric_key: str,
               evaluate_fn: Callable[[ParamVector], float]) -> SoupResult:
    """The one scored one-level soup: greedy, or uniform over every member."""
    if method is SoupMethod.GREEDY:
        return greedy_soup(members, metric_key, evaluate_fn=evaluate_fn)
    params = uniform_soup([c.params for c in members])
    return SoupResult(params=params, method=method, members=[c.id for c in members],
                      val_score=evaluate_fn(params))


def hierarchical_soup(
    groups: Mapping[str, Sequence[Checkpoint]],
    method: SoupMethod | str,
    metric: MetricKind | str,
    evaluate_fn: Callable[[ParamVector], float],
) -> SoupResult:
    """Two-level soup over named groups of checkpoints.

    Lower level: one local soup per group, named ``local-<key>``; uniform
    over the whole group for gou, greedy for gog. Top level: always a
    greedy soup across the scored local results.
    """
    method = SoupMethod(method)
    lower = method.lower_level
    if lower is None:
        raise ValueError(f"hierarchical method must be gou or gog, got {method.value}")
    if not groups or not all(groups.values()):
        raise ValueError("need at least one group, and no empty groups")
    metric_key = MetricKind(metric).value
    _check_roots([c for members in groups.values() for c in members])

    pseudo: list[Checkpoint] = []
    level_members: dict[str, list[str]] = {}
    local_audits: dict[str, list[AuditEntry]] = {}
    for key, members in groups.items():
        local = _flat_soup(lower, members, metric_key, evaluate_fn)
        local_id = f"local-{key}"
        first = members[0]
        pseudo.append(Checkpoint(
            id=local_id, arch=first.arch, params=local.params, config=first.config,
            lineage=Lineage("soup", root_id=first.lineage.root_id),
            val_metrics={metric_key: local.val_score}, epochs_consumed=0.0,
        ))
        level_members[local_id] = list(local.members)
        local_audits[local_id] = list(local.audit)
    top = greedy_soup(pseudo, metric_key, evaluate_fn=evaluate_fn)
    return SoupResult(
        params=top.params, method=method, members=top.members,
        val_score=top.val_score, audit=top.audit,
        level_members=level_members, local_audits=local_audits,
    )
