"""AdamW with decoupled weight decay, plus the learning-rate schedules.

Two schedules: per-epoch cosine annealing for ordinary fine-tuning, and a
triangular cyclical schedule indexed by optimizer step, whose mid-cycle steps
are the snapshot-collection points. The rate bottoms out there at alpha2, or up
to alpha1 * 2**-52 above it where the phase (1 / c) * (c // 2) rounds below 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import ParamVector, _Record

# AdamW's moment decay rates and denominator guard, the same for every run.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamWState:
    """First/second moment estimates and the completed step count, all
    advanced in place by `adamw_step`."""

    m: np.ndarray
    v: np.ndarray
    step_count: int = 0
    weight_decay: float = 0.01

    def __post_init__(self) -> None:
        if self.weight_decay < 0.0:
            raise ValueError(f"weight decay must be non-negative, got {self.weight_decay}")
        if self.m.shape != self.v.shape:
            raise ValueError(f"moment shape mismatch: {self.m.shape} vs {self.v.shape}")
        if self.step_count < 0:
            raise ValueError("step_count must be non-negative")
        if np.any(self.v < 0.0):
            raise ValueError("second moments must be non-negative")

    @classmethod
    def fresh(cls, n_params: int, **kwargs) -> "AdamWState":
        return cls(m=np.zeros(n_params), v=np.zeros(n_params), step_count=0, **kwargs)


def adamw_step(params: ParamVector, grads: ParamVector, state: AdamWState, lr: float) -> None:
    """One decoupled-weight-decay update of `params.values`, `state.m` and
    `state.v` in place; `state.step_count` advances by one. Every check runs
    before the first write, so a refused call changes nothing."""
    if lr < 0.0:
        raise ValueError(f"learning rate must be non-negative, got {lr}")
    values, g = params.values, grads.values
    if values.size != g.size or values.size != state.m.size:
        raise ValueError(
            f"size mismatch: params {values.size}, grads {g.size}, state {state.m.size}"
        )
    if params.arch_signature != grads.arch_signature:
        raise ValueError("gradient signature does not match parameters")
    if not np.isfinite(g).all():
        raise ValueError("non-finite gradient")
    t = state.step_count + 1
    # m = BETA1 * m + (1 - BETA1) * g and v = BETA2 * v + (1 - BETA2) * g**2,
    # then p - lr * wd * p - lr * m_hat / (sqrt(v_hat) + EPS), in that float
    # order; two temporaries serve every intermediate.
    m, v = state.m, state.v
    m *= BETA1
    step = (1.0 - BETA1) * g
    m += step
    v *= BETA2
    denom = np.square(g)
    denom *= 1.0 - BETA2
    v += denom
    np.divide(m, 1.0 - BETA1**t, out=step)
    step *= lr
    np.divide(v, 1.0 - BETA2**t, out=denom)
    np.sqrt(denom, out=denom)
    denom += EPS
    step /= denom
    np.multiply(values, lr * state.weight_decay, out=denom)
    values -= denom
    values -= step
    state.step_count = t


@dataclass(frozen=True)
class CyclicalSchedule(_Record):
    """Triangular cycle over optimizer steps: peak alpha1, trough alpha2."""

    cycle_steps: int
    alpha1: float
    alpha2: float

    def __post_init__(self) -> None:
        if self.cycle_steps < 2 or self.cycle_steps % 2 != 0:
            raise ValueError(f"cycle length must be a positive even integer, got {self.cycle_steps}")
        if not (0.0 < self.alpha1 < np.inf and 0.0 < self.alpha2 < np.inf):
            raise ValueError(f"rates must be positive and finite, got alpha1={self.alpha1}, alpha2={self.alpha2}")
        if self.alpha2 > self.alpha1:
            raise ValueError(f"alpha2 must not exceed alpha1, got {self.alpha2} > {self.alpha1}")


def _check_step(i: int, c: int) -> None:
    if i < 1:
        raise ValueError(f"step index is 1-based, got {i}")
    if c < 2 or c % 2 != 0:
        raise ValueError(f"cycle length must be a positive even integer, got {c}")


def cyclical_t(i: int, c: int) -> float:
    """Phase in (0, 1]: position of 1-based step i within its cycle of length c."""
    _check_step(i, c)
    return (1.0 / c) * ((i - 1) % c + 1)


def cyclical_alpha(i: int, schedule: CyclicalSchedule) -> float:
    """Triangular rate: falls to the trough described above at mid-cycle, climbs back to alpha1."""
    t = cyclical_t(i, schedule.cycle_steps)
    a1, a2 = schedule.alpha1, schedule.alpha2
    if t <= 0.5:
        return a2 * (2.0 * t) + a1 * (1.0 - 2.0 * t)
    return a1 * (2.0 * t - 1.0) + a2 * (2.0 - 2.0 * t)


def is_collection_point(i: int, c: int) -> bool:
    """True at the mid-cycle step, the trough of the cyclical rate."""
    _check_step(i, c)
    return (i - 1) % c + 1 == c // 2


@dataclass(frozen=True)
class CosineSchedule:
    base_lr: float
    total_epochs: int

    def __post_init__(self) -> None:
        if self.total_epochs < 1:
            raise ValueError(f"total_epochs must be positive, got {self.total_epochs}")
        if not 0.0 <= self.base_lr < np.inf:
            raise ValueError(f"base_lr must be non-negative and finite, got {self.base_lr}")


def cosine_lr(epoch: int, schedule: CosineSchedule) -> float:
    """Half-cosine decay from base_lr (epoch 0) to 0 (epoch total_epochs)."""
    if epoch < 0 or epoch > schedule.total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {schedule.total_epochs}]")
    return 0.5 * schedule.base_lr * (1.0 + np.cos(np.pi * epoch / schedule.total_epochs))
