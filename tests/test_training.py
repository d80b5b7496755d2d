import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from genieblue import training
from genieblue.adaptation import build_cogvlm, build_genieblue, count_trainable, freeze_mask, plan_placement
from genieblue.autograd import Tensor, masked_nll
from genieblue.data import TaskSpec, synth_dataset
from genieblue.model import ModelConfig, build_model
from genieblue.optim import LrSchedule, lr_at
from genieblue.training import (
    VIT_LR_DECAY,
    WARMUP_FRAC,
    WEIGHT_DECAY,
    StageConfig,
    StageOrderError,
    TrainingDiverged,
    _per_sample_weights,
    run_stage,
)
from genieblue.util import digest_tensors


def _small_world(seed=0, **config):
    cfg = ModelConfig(
        vocab_size=256, d_model=16, n_layers=4, n_heads=2, max_seq=48,
        grid_side=3, grid_alphabet=4, d_vision=8, n_vision_heads=2, **config,
    )
    base = build_model(cfg, seed=seed)
    hybrid = build_genieblue(base, plan_placement(4, Fraction(1, 4), "skip"), rank=4, seed=seed)
    data = synth_dataset(TaskSpec("grid-caption", n_samples=24, seed=seed), max_seq=48,
                         grid_side=3, grid_alphabet=4)
    return cfg, base, hybrid, data


def _stage(stage, steps, **kw):
    kw.setdefault("batch_size", 4)
    return StageConfig(stage=stage, total_steps=steps, **kw)


# ----------------------------------------------------------------------------
# cross entropy: masked_nll with mean weights, and the loop's weighting
# ----------------------------------------------------------------------------


def _mean_weights(keep: np.ndarray) -> np.ndarray:
    return keep / keep.sum()


def test_uniform_logits_loss_is_log_vocab():
    logits = Tensor(np.zeros((2, 3, 256)))
    targets = np.zeros((2, 3), dtype=int)
    loss = masked_nll(logits, targets, _mean_weights(np.ones((2, 3))))
    assert loss.item() == pytest.approx(math.log(256), abs=1e-12)


def test_confident_correct_logits_loss_near_zero():
    logits = np.zeros((1, 2, 8))
    logits[0, :, 3] = 50.0
    loss = masked_nll(Tensor(logits), np.full((1, 2), 3), _mean_weights(np.ones((1, 2))))
    assert loss.item() < 1e-12


def test_two_class_hand_example():
    # logits [0, ln 3], target class 1 -> loss = ln(4/3)
    logits = Tensor(np.array([[[0.0, math.log(3.0)]]]))
    loss = masked_nll(logits, np.array([[1]]), np.array([[1.0]]))
    assert loss.item() == pytest.approx(0.28768207245178085, abs=1e-15)


def test_ignore_mask_drops_positions():
    logits = np.zeros((1, 2, 4))
    logits[0, 0, 1] = 100.0  # confident-correct at kept position
    targets = np.array([[1, 2]])
    ignore = np.array([[False, True]])
    loss = masked_nll(Tensor(logits), targets, _mean_weights(~ignore))
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_all_ignored_rejected():
    # run_stage's per-sample weighting refuses a sample with every position ignored
    with pytest.raises(ValueError, match="no answer positions"):
        _per_sample_weights(np.array([[True, False], [False, False]]))


# ----------------------------------------------------------------------------
# layer-wise learning rates
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("stage, n_vision_layers", [(2, 2), (2, 0), (1, 2)])
def test_each_name_learns_at_the_scheduled_rate_times_its_vit_layer_decay(monkeypatch, stage, n_vision_layers):
    seen = []  # the lr map and weight decay of each optimizer step

    def record(params, grads, state, lr, weight_decay=0.0):
        seen.append((dict(lr), weight_decay))
        real(params, grads, state, lr, weight_decay)

    real = training.adamw_step
    monkeypatch.setattr(training, "adamw_step", record)
    _, _, hybrid, data = _small_world(n_vision_layers=n_vision_layers)
    cfg = _stage(stage, 3)
    trainable = set(freeze_mask(hybrid, stage))
    run_stage(hybrid, cfg, data, seed=0, allow_missing_stage1=True)
    schedule = LrSchedule(cfg.peak_lr, cfg.warmup_steps, cfg.total_steps)
    assert len(seen) == cfg.total_steps
    for step, (lr, weight_decay) in enumerate(seen):
        rate = lr_at(step, schedule)
        assert lr.keys() == trainable and weight_decay == WEIGHT_DECAY
        for name, got in lr.items():
            if name.startswith("vision.blocks.1."):
                assert got == rate, name
            elif name.startswith("vision.blocks.0."):
                assert got == rate * 0.9, name
            elif name in ("vision.sym_embed", "vision.pos_embed"):
                assert got == rate * 0.9 ** n_vision_layers, name
            else:
                assert got == rate, name
    groups = {n.split(".")[0] for n in trainable}
    assert groups == ({"projector"} if stage == 1 else {"projector", "adapter", "replicated", "vision"})


# ----------------------------------------------------------------------------
# run_stage
# ----------------------------------------------------------------------------


def test_stage1_changes_projector_only():
    _, base, hybrid, data = _small_world()
    before = {n: p.data.copy() for n, p in hybrid.named_parameters().items()}
    report = run_stage(hybrid, _stage(1, 6), data, seed=0)
    after = hybrid.named_parameters()
    changed = {n for n in before if not np.array_equal(before[n], after[n].data)}
    assert changed and all(n.startswith("projector.") for n in changed)
    assert report.frozen_digest_initial == report.frozen_digest_final
    assert hybrid.projector.pretrained


def test_stage2_keeps_base_bit_identical():
    _, base, hybrid, data = _small_world()
    run_stage(hybrid, _stage(1, 4), data, seed=0)
    lm_before = digest_tensors({n: p for n, p in hybrid.named_parameters().items() if n.startswith("lm.")})
    report = run_stage(hybrid, _stage(2, 8), data, seed=0)
    lm_after = digest_tensors({n: p for n, p in hybrid.named_parameters().items() if n.startswith("lm.")})
    assert lm_before == lm_after
    assert report.frozen_digest_initial == report.frozen_digest_final
    # trainable groups moved
    assert report.n_trainable == count_trainable(hybrid)["total"]


def test_training_one_adapted_model_leaves_base_and_sibling_untouched():
    _, base, hybrid, data = _small_world()
    sibling = build_cogvlm(base, plan_placement(4, Fraction(1, 4), "skip"), rank=4, seed=1)
    base_digest = digest_tensors(base.named_parameters())
    sibling_before = {n: p.data.tobytes() for n, p in sibling.named_parameters().items()}
    run_stage(hybrid, _stage(1, 2), data, seed=0)
    run_stage(hybrid, _stage(2, 3, peak_lr=1e-3), data, seed=0)
    assert digest_tensors(base.named_parameters()) == base_digest
    assert {n: p.data.tobytes() for n, p in sibling.named_parameters().items()} == sibling_before
    assert hybrid.projector.pretrained
    assert not base.projector.pretrained and not sibling.projector.pretrained
    base.projector.pretrained = True
    assert build_genieblue(base, plan_placement(4, Fraction(1, 4), "skip")).projector.pretrained


def test_stage2_requires_stage1_or_opt_out():
    _, _, hybrid, data = _small_world()
    with pytest.raises(StageOrderError):
        run_stage(hybrid, _stage(2, 2), data, seed=0)
    run_stage(hybrid, _stage(2, 2), data, seed=0, allow_missing_stage1=True)


def test_training_reduces_loss():
    _, _, hybrid, data = _small_world()
    report = run_stage(hybrid, _stage(2, 40, peak_lr=3e-3), data, seed=0,
                       allow_missing_stage1=True)
    assert report.losses[-1] < report.losses[0]


def test_full_determinism_bit_identical_reports():
    reports = []
    for _ in range(2):
        _, _, hybrid, data = _small_world()
        reports.append(run_stage(hybrid, _stage(2, 5), data, seed=3, allow_missing_stage1=True))
    a, b = reports
    assert a.losses == b.losses
    assert a.trainable_digest_final == b.trainable_digest_final
    assert a.frozen_digest_final == b.frozen_digest_final


def test_gradient_accumulation_matches_large_batch():
    results = []
    for batch_size, accum in ((4, 2), (8, 1)):
        _, _, hybrid, data = _small_world()
        run_stage(
            hybrid,
            StageConfig(stage=2, total_steps=3, batch_size=batch_size, grad_accum=accum),
            data,
            seed=1,
            allow_missing_stage1=True,
        )
        results.append({n: p.data.copy() for n, p in hybrid.named_parameters().items()})
    a, b = results
    for name in a:
        np.testing.assert_allclose(a[name], b[name], rtol=1e-9, atol=1e-12, err_msg=name)


def test_divergence_halts_with_step_index():
    _, _, hybrid, data = _small_world()
    hybrid.lm.params["head.w"].data[:] = np.nan  # poisoned head -> non-finite loss
    with pytest.raises(TrainingDiverged) as err:
        run_stage(hybrid, _stage(1, 3), data, seed=0)
    assert err.value.step == 0


def test_full_finetune_baseline_trains_all_parameters():
    cfg, base, _, data = _small_world()
    before = {n: p.data.copy() for n, p in base.named_parameters().items()}
    report = run_stage(base, _stage(2, 6, peak_lr=1e-3), data, seed=0,
                       allow_missing_stage1=True)
    after = base.named_parameters()
    changed = {n for n in before if not np.array_equal(before[n], after[n].data)}
    assert any(n.startswith("lm.blocks.") for n in changed)
    assert report.n_frozen == 0


def test_on_step_callback_fires_each_step():
    _, _, hybrid, data = _small_world()
    seen = []
    run_stage(hybrid, _stage(1, 4), data, seed=0, on_step=lambda s, m: seen.append(s))
    assert seen == [1, 2, 3, 4]


def test_stage_config_defaults():
    s1, s2 = StageConfig(stage=1), StageConfig(stage=2)
    assert (s1.total_steps, s1.peak_lr) == (300, 1e-3)
    assert (s2.total_steps, s2.peak_lr) == (2000, 1e-4)
    assert (WARMUP_FRAC, WEIGHT_DECAY, VIT_LR_DECAY) == (0.01, 0.05, 0.9)
    assert [f.name for f in dataclasses.fields(StageConfig)] == [
        "stage", "total_steps", "batch_size", "peak_lr", "grad_accum",
    ]
    assert StageConfig(stage=1, total_steps=3434).warmup_steps == 34
    with pytest.raises(ValueError):
        StageConfig(stage=3)


@pytest.mark.parametrize(
    "kw, field",
    [
        ({"total_steps": 1}, "warmup_steps"),
        ({"total_steps": -3}, "total_steps"),
        ({"peak_lr": -1e-3}, "peak_lr"),
    ],
    ids=["one-step", "negative-steps", "negative-lr"],
)
def test_stage_config_rejects_runs_that_cannot_start(kw, field):
    with pytest.raises(ValueError, match=field):
        StageConfig(stage=2, **kw)


@pytest.mark.parametrize(
    "kw, message",
    [
        ({"total_steps": 3.5}, "total_steps must be an integer"),
        ({"batch_size": 2.5}, "batch_size must be an integer"),
        ({"grad_accum": 1.5}, "grad_accum must be an integer"),
        ({"stage": 2.0}, "stage must be an integer"),
        ({"peak_lr": float("nan")}, "peak_lr must be a finite number"),
        ({"peak_lr": float("inf")}, "peak_lr must be a finite number"),
    ],
    ids=["fractional-steps", "fractional-batch", "fractional-accum", "float-stage", "nan-lr", "inf-lr"],
)
def test_stage_config_rejects_non_integer_counts_and_non_finite_rates(kw, message):
    with pytest.raises(ValueError, match=message):
        StageConfig(**{"stage": 2, **kw})


RATES = {
    "StageConfig.peak_lr": lambda r: StageConfig(stage=2, peak_lr=r),
    "LrSchedule.peak": lambda r: LrSchedule(r, 1, 10),
}


@pytest.mark.parametrize("rate", [True, math.nan, math.inf], ids=["bool", "nan", "inf"])
@pytest.mark.parametrize("target", sorted(RATES))
def test_rates_refuse_bools_and_non_finite_numbers(target, rate):
    with pytest.raises(ValueError, match=f"^{target.split('.')[1]} must be"):
        RATES[target](rate)


@pytest.mark.parametrize("field", ["stage", "total_steps", "batch_size", "grad_accum"])
def test_stage_config_rejects_bool_counts(field):
    with pytest.raises(ValueError, match=f"{field} must be an integer, got True"):
        StageConfig(**{"stage": 2, field: True})
