import numpy as np
import pytest

from genieblue.autograd import NonFiniteError, Tensor
from genieblue.optim import AdamWState, LrSchedule, adamw_step, lr_at


def _single_param(value=1.0):
    p = {"w": Tensor(np.array([value]))}
    return p, AdamWState(p)


def test_zero_grad_zero_decay_is_identity():
    params, state = _single_param(1.234)
    adamw_step(params, {"w": np.zeros(1)}, state, lr=0.1)
    assert params["w"].data[0] == 1.234
    assert state.t == 1


def test_decay_only_update():
    params, state = _single_param(1.0)
    adamw_step(params, {"w": np.zeros(1)}, state, lr=0.1, weight_decay=0.05)
    assert params["w"].data[0] == pytest.approx(0.995, abs=0)


def test_single_step_hand_evaluation():
    # p=1, g=1, lr=0.1, beta1=0.9, beta2=0.98, eps=1e-6, wd=0:
    # m=0.1, v=0.02, bias-corrected both to 1.0 -> p = 1 - 0.1/(1+1e-6)
    params, state = _single_param(1.0)
    adamw_step(params, {"w": np.ones(1)}, state, lr=0.1)
    assert params["w"].data[0] == pytest.approx(0.9000001, abs=1e-9)
    assert state.t == 1


def test_step_count_increments_by_one():
    params, state = _single_param()
    for expected in (1, 2, 3):
        adamw_step(params, {"w": np.ones(1)}, state, lr=0.01)
        assert state.t == expected


def test_rejects_non_finite_gradient():
    params, state = _single_param()
    with pytest.raises(NonFiniteError, match="w"):
        adamw_step(params, {"w": np.array([np.nan])}, state, lr=0.1)


def test_rejects_shape_mismatch():
    params, state = _single_param()
    with pytest.raises(ValueError, match="shape"):
        adamw_step(params, {"w": np.zeros(2)}, state, lr=0.1)


def test_rejects_missing_grad():
    params, state = _single_param()
    with pytest.raises(ValueError, match="missing"):
        adamw_step(params, {}, state, lr=0.1)


def test_per_name_learning_rates():
    params = {"a": Tensor(np.array([1.0])), "b": Tensor(np.array([1.0]))}
    state = AdamWState(params)
    adamw_step(params, {"a": np.zeros(1), "b": np.zeros(1)}, state, lr={"a": 0.1, "b": 0.2}, weight_decay=0.1)
    assert params["a"].data[0] == pytest.approx(0.99, abs=0)
    assert params["b"].data[0] == pytest.approx(0.98, abs=0)


def test_moment_shapes_match_params():
    params = {"w": Tensor(np.zeros((3, 4)))}
    state = AdamWState(params)
    assert state.m["w"].shape == (3, 4)
    assert state.v["w"].shape == (3, 4)


# ----------------------------------------------------------------------------
# learning-rate schedule
# ----------------------------------------------------------------------------


def test_peak_reached_at_end_of_warmup():
    sched = LrSchedule(peak=1e-3, warmup_steps=34, total_steps=3434)
    assert lr_at(34, sched) == pytest.approx(1e-3, abs=0)


def test_linear_warmup_values():
    sched = LrSchedule(peak=1.0, warmup_steps=4, total_steps=100)
    np.testing.assert_allclose([lr_at(s, sched) for s in range(4)], [0.25, 0.5, 0.75, 1.0])


def test_cosine_midpoint_and_endpoint():
    sched = LrSchedule(peak=2.0, warmup_steps=10, total_steps=110)
    assert lr_at(60, sched) == pytest.approx(1.0, abs=1e-15)  # progress 0.5 -> peak/2
    assert lr_at(110, sched) == pytest.approx(0.0, abs=1e-15)


def test_continuous_at_warmup_boundary():
    sched = LrSchedule(peak=3e-4, warmup_steps=7, total_steps=200)
    assert lr_at(6, sched) == pytest.approx(3e-4)
    assert lr_at(7, sched) == pytest.approx(3e-4)


def test_monotone_non_increasing_after_warmup():
    sched = LrSchedule(peak=1e-3, warmup_steps=5, total_steps=50)
    values = [lr_at(s, sched) for s in range(5, 51)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(0.0, abs=1e-18)


def test_rejects_step_beyond_total():
    sched = LrSchedule(peak=1.0, warmup_steps=2, total_steps=10)
    with pytest.raises(ValueError):
        lr_at(11, sched)
    with pytest.raises(ValueError):
        lr_at(-1, sched)


def test_schedule_invariants():
    with pytest.raises(ValueError):
        LrSchedule(peak=1.0, warmup_steps=0, total_steps=10)
    with pytest.raises(ValueError):
        LrSchedule(peak=1.0, warmup_steps=10, total_steps=10)


@pytest.mark.parametrize(
    "kw, message",
    [
        ({"peak": -1.0}, "peak must be a finite non-negative number"),
        ({"peak": float("nan")}, "peak must be a finite non-negative number"),
        ({"peak": float("inf")}, "peak must be a finite non-negative number"),
        ({"warmup_steps": 1.5}, "warmup_steps must be an integer"),
        ({"total_steps": 10.0}, "total_steps must be an integer"),
    ],
    ids=["negative-peak", "nan-peak", "inf-peak", "fractional-warmup", "float-total"],
)
def test_schedule_rejects_bad_peak_and_step_counts(kw, message):
    with pytest.raises(ValueError, match=message):
        LrSchedule(**{"peak": 1e-3, "warmup_steps": 1, "total_steps": 10, **kw})


@pytest.mark.parametrize("field", ["warmup_steps", "total_steps"])
def test_schedule_rejects_bool_step_counts(field):
    with pytest.raises(ValueError, match=f"{field} must be an integer, got True"):
        LrSchedule(**{"peak": 1e-3, "warmup_steps": 1, "total_steps": 10, field: True})


def test_integer_lr_matches_float_lr():
    ints, floats = _single_param(0.5), _single_param(0.5)
    for _ in range(3):
        adamw_step(ints[0], {"w": np.array([0.3])}, ints[1], lr=1, weight_decay=0.05)
        adamw_step(floats[0], {"w": np.array([0.3])}, floats[1], lr=1.0, weight_decay=0.05)
    assert ints[0]["w"].data.tobytes() == floats[0]["w"].data.tobytes()
