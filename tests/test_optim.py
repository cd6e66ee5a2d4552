"""Optimizer and schedule tests, including a scalar-loop AdamW oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soupkit.nn import ParamVector
from soupkit.optim import (
    BETA1,
    BETA2,
    EPS,
    AdamWState,
    CosineSchedule,
    CyclicalSchedule,
    adamw_step,
    cosine_lr,
    cyclical_alpha,
    cyclical_t,
    is_collection_point,
)


def _pv(values):
    return ParamVector(np.asarray(values, dtype=np.float64), "sig")


# ---------------------------------------------------------------------------
# AdamW

def _adamw_oracle(p, g_seq, lr, beta1=0.9, beta2=0.999, eps=1e-8, wd=0.01):
    """Pure-Python scalar AdamW, run over a gradient sequence."""
    m = v = 0.0
    for t, g in enumerate(g_seq, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        p = p - lr * wd * p - lr * m_hat / (math.sqrt(v_hat) + eps)
    return p


def _reference_adamw_step(params, grads, state, lr):
    """The update as one expression with fresh temporaries, as it was before
    the in-place rewrite; the float order must not have changed."""
    t = state.step_count + 1
    m = BETA1 * state.m + (1.0 - BETA1) * grads.values
    v = BETA2 * state.v + (1.0 - BETA2) * grads.values**2
    m_hat = m / (1.0 - BETA1**t)
    v_hat = v / (1.0 - BETA2**t)
    new = params.values - lr * state.weight_decay * params.values - lr * m_hat / (np.sqrt(v_hat) + EPS)
    return new, m, v


def test_adamw_matches_the_single_expression_bitwise():
    rng = np.random.default_rng(12)
    for trial in range(400):
        size = int(rng.integers(1, 200))
        p = rng.normal(size=size) * 10.0 ** rng.integers(-5, 5)
        g = rng.normal(size=size) * 10.0 ** rng.integers(-8, 8)
        g[rng.random(size) < 0.1] = 0.0
        g[rng.random(size) < 0.1] = -0.0
        p[rng.random(size) < 0.1] = -0.0
        state = AdamWState(m=rng.normal(size=size), v=rng.random(size) * 10.0 ** rng.integers(-10, 2),
                           step_count=int(rng.integers(0, 5000)),
                           weight_decay=float(rng.choice([0.0, 0.01, 0.3])))
        lr = float(rng.choice([0.0, 1e-3, 0.3, 1.0]))
        want_new, want_m, want_v = _reference_adamw_step(_pv(p), _pv(g), state, lr)
        params, step_count = _pv(p), state.step_count
        adamw_step(params, _pv(g), state, lr)
        assert params.values.tobytes() == want_new.tobytes(), trial
        assert state.m.tobytes() == want_m.tobytes() and state.v.tobytes() == want_v.tobytes(), trial
        assert state.step_count == step_count + 1


def test_adamw_single_step_hand_values():
    # p=1, g=0.5, lr=0.1: m_hat=g, v_hat=g^2, ratio ~ 1 => p' ~ 1 - 0.001 - 0.1
    params = _pv([1.0])
    state = AdamWState.fresh(1)
    assert adamw_step(params, _pv([0.5]), state, lr=0.1) is None
    want = 1.0 - 0.1 * 0.01 * 1.0 - 0.1 * 0.5 / (0.5 + 1e-8)
    assert abs(params.values[0] - want) < 1e-15
    assert state.step_count == 1  # the state advances in place


def test_adamw_matches_scalar_oracle_over_steps():
    rng = np.random.default_rng(0)
    grads = rng.normal(size=20)
    p = _pv([2.0])
    state = AdamWState.fresh(1)
    for g in grads:
        adamw_step(p, _pv([g]), state, lr=0.05)
    want = _adamw_oracle(2.0, grads, lr=0.05)
    assert abs(p.values[0] - want) < 1e-14


def test_adamw_elementwise_independence():
    # vector update must equal per-coordinate scalar updates
    rng = np.random.default_rng(1)
    p0 = rng.normal(size=5)
    g_seq = rng.normal(size=(7, 5))
    p = _pv(p0.copy())
    state = AdamWState.fresh(5)
    for g in g_seq:
        adamw_step(p, _pv(g), state, lr=0.02)
    for k in range(5):
        want = _adamw_oracle(p0[k], g_seq[:, k], lr=0.02)
        assert abs(p.values[k] - want) < 1e-14


def test_adamw_decay_is_decoupled():
    # zero gradient: the only movement is the weight-decay shrink
    p = _pv([3.0, -2.0])
    adamw_step(p, _pv([0.0, 0.0]), AdamWState.fresh(2), lr=0.5)
    np.testing.assert_allclose(p.values, np.array([3.0, -2.0]) * (1 - 0.5 * 0.01), rtol=0, atol=1e-16)


def test_adamw_zero_lr_is_identity_for_params():
    p = _pv([1.0, 2.0])
    state = AdamWState.fresh(2)
    adamw_step(p, _pv([5.0, -5.0]), state, lr=0.0)
    assert np.array_equal(p.values, [1.0, 2.0])
    assert state.step_count == 1  # moments still advance


def test_adamw_rewrites_one_row_of_a_stack_and_a_refused_call_changes_nothing():
    # the trainer's use: views of one row of a (K, P) parameter and gradient stack
    rng = np.random.default_rng(3)
    stack, grad = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
    state = AdamWState(m=rng.normal(size=6), v=rng.random(6), step_count=7)
    m, v = state.m, state.v
    want_row, want_m, want_v = _reference_adamw_step(_pv(stack[2].copy()), _pv(grad[2]), state, 0.01)
    stack_before, grad_before = stack.copy(), grad.copy()
    adamw_step(ParamVector(stack[2], "sig"), ParamVector(grad[2], "sig"), state, 0.01)
    assert stack[2].tobytes() == want_row.tobytes()
    others = [0, 1, 3]
    assert stack[others].tobytes() == stack_before[others].tobytes()
    assert grad.tobytes() == grad_before.tobytes()
    assert state.m is m and state.v is v
    assert m.tobytes() == want_m.tobytes() and v.tobytes() == want_v.tobytes()
    assert state.step_count == 8

    before = stack.tobytes(), m.tobytes(), v.tobytes()
    non_finite = grad[1].copy()
    non_finite[3] = np.nan
    for g, lr in ((grad[1], -0.1), (non_finite, 0.01), (grad[1, :5], 0.01)):
        with pytest.raises(ValueError):
            adamw_step(ParamVector(stack[1], "sig"), ParamVector(g, "sig"), state, lr)
    with pytest.raises(ValueError):
        adamw_step(ParamVector(stack[1], "sig"), ParamVector(grad[1], "other"), state, 0.01)
    assert (stack.tobytes(), m.tobytes(), v.tobytes()) == before
    assert state.step_count == 8


def test_adamw_validation():
    p = _pv([1.0])
    state = AdamWState.fresh(1)
    with pytest.raises(ValueError):
        adamw_step(p, _pv([1.0]), state, lr=-0.1)
    with pytest.raises(ValueError):
        adamw_step(p, _pv([1.0, 2.0]), AdamWState.fresh(2), lr=0.1)
    with pytest.raises(ValueError):
        adamw_step(p, _pv([np.nan]), state, lr=0.1)
    with pytest.raises(ValueError):
        adamw_step(p, ParamVector(np.ones(1), "other"), state, lr=0.1)


def test_adamw_state_validation():
    with pytest.raises(ValueError):
        AdamWState.fresh(2, weight_decay=-0.01)
    with pytest.raises(ValueError):
        AdamWState(m=np.zeros(2), v=np.zeros(3))
    with pytest.raises(ValueError):
        AdamWState(m=np.zeros(2), v=-np.ones(2))


@pytest.mark.parametrize("make, message", [
    (lambda: AdamWState(m=np.zeros(2), v=np.zeros(2), step_count=-1), "step_count must be non-negative"),
], ids=["negative step count"])
def test_adamw_state_refusals_name_their_cause(make, message):
    with pytest.raises(ValueError, match=message):
        make()


# ---------------------------------------------------------------------------
# Cyclical schedule

def test_cyclical_t_hand_table():
    # c=4: phases cycle 1/4, 2/4, 3/4, 4/4
    want = [0.25, 0.5, 0.75, 1.0, 0.25, 0.5, 0.75, 1.0]
    got = [cyclical_t(i, 4) for i in range(1, 9)]
    assert got == want


def test_cyclical_alpha_hand_table():
    sched = CyclicalSchedule(cycle_steps=4, alpha1=1.0, alpha2=0.1)
    # t=.25 -> midpoint of descent; t=.5 -> alpha2; t=.75 -> midpoint of ascent; t=1 -> alpha1
    want = [0.55, 0.1, 0.55, 1.0]
    got = [cyclical_alpha(i, sched) for i in range(1, 5)]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
    # periodic
    assert cyclical_alpha(7, sched) == cyclical_alpha(3, sched)


def test_cyclical_alpha_bounds_and_trough():
    sched = CyclicalSchedule(cycle_steps=10, alpha1=3e-3, alpha2=1e-6)
    vals = [cyclical_alpha(i, sched) for i in range(1, 31)]
    assert min(vals) == sched.alpha2
    assert max(vals) == sched.alpha1
    for i in range(1, 31):
        if is_collection_point(i, 10):
            assert cyclical_alpha(i, sched) == sched.alpha2


# Any even cycle length and any two positive rates, the larger one alpha1.
_schedules = st.builds(
    lambda half, rates: CyclicalSchedule(2 * half, max(rates), min(rates)),
    st.integers(1, 1000),
    st.tuples(*[st.floats(1e-12, 1e3, allow_nan=False, allow_infinity=False)] * 2),
)


@settings(max_examples=1000)
@given(sched=_schedules, step=st.integers(1, 10**6))
@example(sched=CyclicalSchedule(774, 1e-12, 1e-12), step=1)
def test_cyclical_alpha_stays_within_its_rates_and_repeats_every_cycle(sched, step):
    # The rate is a sum of two rounded products, so where alpha1 and alpha2
    # lie within a few ulps of each other it can step one ulp outside them.
    rate = cyclical_alpha(step, sched)
    assert sched.alpha2 * (1 - 2.0**-52) <= rate <= sched.alpha1 * (1 + 2.0**-52)
    assert cyclical_alpha(step + sched.cycle_steps, sched) == rate


@settings(max_examples=1000)
@given(sched=_schedules, cycle=st.integers(0, 10**4))
@example(sched=CyclicalSchedule(98, 3e-3, 1e-6), cycle=0)
def test_the_trough_is_alpha2_up_to_one_rounding_of_the_phase(sched, cycle):
    # For some cycle lengths, 98 the first, (1 / c) * (c // 2) is one ulp
    # below 0.5 and the trough sits a hair above alpha2.
    step = cycle * sched.cycle_steps + sched.cycle_steps // 2
    assert is_collection_point(step, sched.cycle_steps)
    assert sched.alpha2 <= cyclical_alpha(step, sched) <= sched.alpha2 + sched.alpha1 * 2.0**-52


def test_collection_points_exhaustive_small():
    # c=6: collection at steps 3, 9, 15, ... (mid-cycle)
    points = [i for i in range(1, 25) if is_collection_point(i, 6)]
    assert points == [3, 9, 15, 21]


def test_collection_point_never_at_cycle_end():
    for c in (2, 4, 8):
        for k in range(1, 4):
            assert not is_collection_point(k * c, c)


def test_cyclical_validation():
    with pytest.raises(ValueError):
        CyclicalSchedule(cycle_steps=3, alpha1=1.0, alpha2=0.1)
    with pytest.raises(ValueError):
        CyclicalSchedule(cycle_steps=0, alpha1=1.0, alpha2=0.1)
    with pytest.raises(ValueError):
        CyclicalSchedule(cycle_steps=4, alpha1=0.1, alpha2=1.0)
    with pytest.raises(ValueError):
        CyclicalSchedule(cycle_steps=4, alpha1=1.0, alpha2=0.0)
    with pytest.raises(ValueError):
        cyclical_t(0, 4)
    with pytest.raises(ValueError):
        cyclical_t(1, 5)


@pytest.mark.parametrize("alpha1, alpha2", [(math.nan, 1e-3), (math.inf, 1e-3), (1e-2, math.nan), (math.inf, math.inf)])
def test_cyclical_schedule_refuses_a_non_finite_rate(alpha1, alpha2):
    with pytest.raises(ValueError, match="finite"):
        CyclicalSchedule(cycle_steps=4, alpha1=alpha1, alpha2=alpha2)


def test_cyclical_schedule_dict_roundtrip():
    sched = CyclicalSchedule(cycle_steps=8, alpha1=1e-2, alpha2=1e-5)
    assert CyclicalSchedule.from_dict(sched.to_dict()) == sched


# ---------------------------------------------------------------------------
# Cosine schedule

def test_cosine_endpoints_and_midpoint():
    sched = CosineSchedule(base_lr=0.1, total_epochs=10)
    assert cosine_lr(0, sched) == pytest.approx(0.1, abs=1e-15)
    assert cosine_lr(10, sched) == pytest.approx(0.0, abs=1e-15)
    assert cosine_lr(5, sched) == pytest.approx(0.05, abs=1e-15)


def test_cosine_monotone_decreasing():
    sched = CosineSchedule(base_lr=1.0, total_epochs=20)
    vals = [cosine_lr(e, sched) for e in range(21)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("base_lr", [math.nan, math.inf])
def test_cosine_schedule_refuses_a_non_finite_rate(base_lr):
    with pytest.raises(ValueError, match="finite"):
        CosineSchedule(base_lr=base_lr, total_epochs=5)


def test_cosine_validation():
    with pytest.raises(ValueError):
        CosineSchedule(base_lr=0.1, total_epochs=0)
    with pytest.raises(ValueError):
        CosineSchedule(base_lr=-0.001, total_epochs=5)
    sched = CosineSchedule(base_lr=0.1, total_epochs=5)
    with pytest.raises(ValueError):
        cosine_lr(6, sched)
    with pytest.raises(ValueError):
        cosine_lr(-1, sched)
