"""The two-stage training recipe.

Stage 1 trains the projector alone; stage 2 trains vision encoder,
projector, replicated/expert blocks, and adapters, with the base LM frozen
throughout. The loop is plain: seeded shuffling without replacement, masked
next-token loss averaged per sample then per batch, gradient accumulation
that divides by the factor, and one AdamW step per accumulation window.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .adaptation import freeze_mask
from .autograd import is_int, is_rate
from .data import Dataset, collate
from .model import VisionEncoder
from .optim import AdamWState, LrSchedule, adamw_step, lr_at
from .util import digest_tensors

__all__ = [
    "StageConfig",
    "TrainReport",
    "TrainingDiverged",
    "StageOrderError",
    "run_stage",
    "layerwise_lr",
]

STAGE_DEFAULT_STEPS = {1: 300, 2: 2000}
STAGE_DEFAULT_PEAK_LR = {1: 1e-3, 2: 1e-4}


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int, loss: float):
        super().__init__(f"non-finite loss {loss} at step {step}")
        self.step = step


class StageOrderError(RuntimeError):
    """Stage 2 requested without a stage-1 projector or explicit opt-out."""


@dataclass(frozen=True)
class StageConfig:
    """Hyperparameters for one training stage (0 fields mean stage defaults)."""

    stage: int
    total_steps: int = 0
    batch_size: int = 16
    peak_lr: float = 0.0
    warmup_frac: float = 0.01
    weight_decay: float = 0.05
    grad_accum: int = 1
    vit_lr_decay: float = 0.9

    def __post_init__(self):
        for name in ("stage", "total_steps", "batch_size", "grad_accum"):
            value = getattr(self, name)
            if not is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("peak_lr", "warmup_frac", "weight_decay", "vit_lr_decay"):
            value = getattr(self, name)
            if not is_rate(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.stage not in (1, 2):
            raise ValueError(f"stage must be 1 or 2, got {self.stage}")
        if self.total_steps == 0:
            object.__setattr__(self, "total_steps", STAGE_DEFAULT_STEPS[self.stage])
        if self.peak_lr == 0.0:
            object.__setattr__(self, "peak_lr", STAGE_DEFAULT_PEAK_LR[self.stage])
        if self.grad_accum < 1:
            raise ValueError("grad_accum must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (0 < self.vit_lr_decay <= 1):
            raise ValueError("vit_lr_decay must be in (0, 1]")
        for name in ("peak_lr", "warmup_frac", "weight_decay"):
            if getattr(self, name) < 0:  # a negative decay grows every weight
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.warmup_steps >= self.total_steps:
            raise ValueError(
                f"warmup_steps {self.warmup_steps} (total_steps {self.total_steps} * warmup_frac "
                f"{self.warmup_frac}) must be below total_steps"
            )

    @property
    def warmup_steps(self) -> int:
        return max(1, round(self.total_steps * self.warmup_frac))


@dataclass
class TrainReport:
    stage: int
    seed: int
    losses: list[float] = field(default_factory=list)
    wall_clock_s: float = 0.0
    frozen_digest_initial: str = ""
    frozen_digest_final: str = ""
    trainable_digest_final: str = ""
    n_trainable: int = 0
    n_frozen: int = 0


def layerwise_lr(vision: VisionEncoder, base_lr: float, decay: float = 0.9) -> list[float]:
    """Per-block learning rates, bottom to top; the top block gets base_lr, a finite non-negative number."""
    if not is_rate(base_lr) or base_lr < 0:
        raise ValueError(f"base_lr must be a finite non-negative number, got {base_lr!r}")
    if not is_rate(decay) or not (0 < decay <= 1):
        raise ValueError(f"decay must be in (0, 1], got {decay!r}")
    n = vision.config.n_vision_layers
    return [base_lr * decay ** (n - 1 - i) for i in range(n)]


def _lr_map(model, cfg: StageConfig, trainable: dict, base_lr: float) -> float | dict[str, float]:
    """Scalar lr, or a per-name map when the ViT layer-wise decay applies."""
    if cfg.stage != 2 or cfg.vit_lr_decay == 1.0:
        return base_lr
    vision_names = [n for n in trainable if n.startswith("vision.")]
    if not vision_names:
        return base_lr
    per_layer = layerwise_lr(model.vision, base_lr, cfg.vit_lr_decay)
    below_bottom = base_lr * cfg.vit_lr_decay ** len(per_layer)
    out = {}
    for name in trainable:
        if name.startswith("vision.blocks."):
            layer = int(name.split(".")[2])
            out[name] = per_layer[layer]
        elif name in ("vision.sym_embed", "vision.pos_embed"):
            out[name] = below_bottom
        else:
            out[name] = base_lr
    return out


def _per_sample_weights(predict_mask: np.ndarray) -> np.ndarray:
    """Per-sample token mean, then mean over the batch."""
    counts = predict_mask.sum(axis=1, keepdims=True)
    if (counts == 0).any():
        raise ValueError("a sample has no answer positions")
    return predict_mask / (counts * predict_mask.shape[0])


def _index_stream(n: int, rng: np.random.Generator):
    while True:
        for i in rng.permutation(n):
            yield int(i)


def run_stage(
    model,
    cfg: StageConfig,
    dataset: Dataset,
    *,
    seed: int = 0,
    on_step=None,
    allow_missing_stage1: bool = False,
) -> TrainReport:
    """Train one stage; only the stage's trainable set may change.

    ``on_step(step, model)`` fires after each optimizer step (1-based).
    Raises TrainingDiverged on a non-finite loss, StageOrderError when stage
    2 runs without a stage-1 projector and without the explicit opt-out.
    """
    if cfg.stage == 2 and not model.projector.pretrained and not allow_missing_stage1:
        raise StageOrderError("stage 2 requires a stage-1 projector (or allow_missing_stage1=True)")
    trainable = freeze_mask(model, cfg.stage)
    all_params = model.named_parameters()
    frozen = {n: p for n, p in all_params.items() if n not in trainable}
    name_of = {id(p): n for n, p in trainable.items()}

    report = TrainReport(
        stage=cfg.stage,
        seed=seed,
        frozen_digest_initial=digest_tensors(frozen),
        n_trainable=sum(p.size for p in trainable.values()),
        n_frozen=sum(p.size for p in frozen.values()),
    )
    schedule = LrSchedule(cfg.peak_lr, cfg.warmup_steps, cfg.total_steps)
    state = AdamWState(trainable)
    rng = np.random.default_rng(seed)
    stream = _index_stream(len(dataset), rng)
    pad_to = dataset.max_len

    for p in trainable.values():
        p.requires_grad = True
    t0 = time.monotonic()
    try:
        for step in range(cfg.total_steps):
            grad_sum: dict[str, np.ndarray] = {}
            loss_sum = 0.0
            for _ in range(cfg.grad_accum):
                idx = [next(stream) for _ in range(cfg.batch_size)]
                batch, targets, predict, grids = collate([dataset[i] for i in idx], pad_to)
                weights = _per_sample_weights(predict)
                with ag.GradTape() as tape:  # the logits stay on the tape only, which backward spends
                    loss = ag.masked_nll(model.forward(batch, grids), targets, weights)
                loss_val = loss.item()
                if not np.isfinite(loss_val):
                    raise TrainingDiverged(step, loss_val)
                loss_sum += loss_val
                for tensor, g in ag.backward(tape, loss).items():
                    name = name_of[id(tensor)]
                    if name in grad_sum:
                        grad_sum[name] += g
                    else:
                        grad_sum[name] = g
            if cfg.grad_accum > 1:
                for g in grad_sum.values():
                    g /= cfg.grad_accum
            for name, p in trainable.items():
                if name not in grad_sum:
                    grad_sum[name] = np.zeros_like(p.data)
            base_lr = lr_at(step, schedule)
            adamw_step(trainable, grad_sum, state, _lr_map(model, cfg, trainable, base_lr), cfg.weight_decay)
            report.losses.append(loss_sum / cfg.grad_accum)
            if on_step is not None:
                on_step(step + 1, model)
    finally:
        for p in trainable.values():
            p.requires_grad = False
    report.wall_clock_s = time.monotonic() - t0
    report.frozen_digest_final = digest_tensors(frozen)
    report.trainable_digest_final = digest_tensors(trainable)
    if cfg.stage == 1:
        model.projector.pretrained = True
    return report
