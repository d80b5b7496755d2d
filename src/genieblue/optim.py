"""AdamW with decoupled weight decay, and the warmup + cosine LR schedule."""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .autograd import NonFiniteError, Tensor, is_int

__all__ = ["AdamWState", "adamw_step", "LrSchedule", "lr_at"]

BETA1 = 0.9
BETA2 = 0.98
EPS = 1e-6


class AdamWState:
    """First/second moment buffers per trainable parameter, plus step count."""

    def __init__(self, params: Mapping[str, Tensor]):
        self.m = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.t = 0


def adamw_step(
    params: Mapping[str, Tensor],
    grads: Mapping[str, np.ndarray],
    state: AdamWState,
    lr: float | Mapping[str, float],
    weight_decay: float = 0.0,
) -> None:
    """One bias-corrected AdamW update, in place.

    Decoupled weight decay is applied multiplicatively (p <- p - lr*wd*p)
    before the adaptive term. Only trainable parameters may be passed;
    ``lr`` is either a scalar or a per-name mapping covering every name.
    """
    if params.keys() != state.m.keys():
        raise ValueError("adamw_step: params do not match optimizer state")
    missing = params.keys() - grads.keys()
    if missing:
        raise ValueError(f"adamw_step: missing gradients for {sorted(missing)[:3]}")
    t = state.t + 1
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"adamw_step: grad shape {g.shape} != param shape {p.shape} ({name})")
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"adamw_step: non-finite gradient for '{name}'")
        step_lr = lr[name] if isinstance(lr, Mapping) else lr
        if weight_decay:
            p.data *= 1.0 - step_lr * weight_decay
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p.data -= step_lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
    state.t = t


@dataclass(frozen=True)
class LrSchedule:
    """Linear warmup to the peak, then cosine decay to zero."""

    peak: float
    warmup_steps: int
    total_steps: int

    def __post_init__(self):
        if not isinstance(self.peak, numbers.Real) or not math.isfinite(self.peak) or self.peak < 0:
            raise ValueError(f"peak must be a finite non-negative number, got {self.peak!r}")
        for name in ("warmup_steps", "total_steps"):
            if not is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not (0 < self.warmup_steps < self.total_steps):
            raise ValueError(f"need 0 < warmup ({self.warmup_steps}) < total ({self.total_steps})")


def lr_at(step: int, schedule: LrSchedule) -> float:
    """Learning rate at an integer step in [0, total]."""
    if step < 0 or step > schedule.total_steps:
        raise ValueError(f"step {step} outside [0, {schedule.total_steps}]")
    if step < schedule.warmup_steps:
        return schedule.peak * (step + 1) / schedule.warmup_steps
    progress = (step - schedule.warmup_steps) / (schedule.total_steps - schedule.warmup_steps)
    return 0.5 * schedule.peak * (1.0 + math.cos(math.pi * progress))
