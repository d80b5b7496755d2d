"""Hybrid adaptation: block replication placements, LoRA, and visual experts.

An adapted model is the base stack with its own layer bindings: the base LM
stays frozen, the layers of a placement (a tuple of layer indices) get fully
trainable block copies, and every attention and FFN matrix of the remaining
layers gets a rank-r LoRA adapter: a ``(down, up)`` pair of factors whose
product ``up @ down`` is added to the matrix. GenieBlue swaps the copies in
as whole blocks for all tokens. The visual-expert baseline routes per token
instead: image positions go through the copied QKV/output/FFN weights and
the adapters, text positions through the base, while attention still mixes
all positions jointly. Full-LoRA is GenieBlue with no copies.

Adapters are zero at initialization (the up factor is all-zero, the down
factor seeded noise) and replicated blocks are bit-exact copies, so a
freshly built model computes exactly what the base computes on any input.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .autograd import Tensor, is_int, lora_weight
from .model import (
    BLOCK_MATRICES,
    BlockBinding,
    ModelConfig,
    MultimodalBase,
    Projector,
    VisionEncoder,
    block_param_shapes,
)

__all__ = [
    "plan_placement",
    "AdaptedModel",
    "HybridModel",
    "VisualExpertModel",
    "build_genieblue",
    "build_cogvlm",
    "build_full_lora",
    "count_trainable",
    "freeze_mask",
    "parameter_group",
]

PLACEMENT_MODES = ("post", "pre", "skip")
ADAPTER_INIT_STD = 0.02


def plan_placement(n_layers: int, fraction=Fraction(1, 4), mode: str = "skip") -> tuple[int, ...]:
    """The ascending indices of the k = max(1, floor(L*f)) replicated layers.

    post -> the last k layers; pre -> the first k; skip -> evenly spaced
    with the final layer always included.
    """
    if not is_int(n_layers) or n_layers < 1:
        raise ValueError(f"n_layers must be a positive integer, got {n_layers!r}")
    # also rules out NaN and inf; a bool is no fraction, True would replicate every layer
    if isinstance(fraction, bool) or not isinstance(fraction, numbers.Real) or not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction!r}")
    f = fraction if isinstance(fraction, Fraction) else Fraction(*float(fraction).as_integer_ratio())
    if not isinstance(mode, str) or mode.lower() not in PLACEMENT_MODES:
        raise ValueError(f"mode must be one of {PLACEMENT_MODES}, got {mode!r}")
    mode = mode.lower()
    k = max(1, math.floor(n_layers * f))
    if mode == "post":
        return tuple(range(n_layers - k, n_layers))
    if mode == "pre":
        return tuple(range(k))
    return tuple(-(-(j + 1) * n_layers // k) - 1 for j in range(k))


def _init_adapters(
    rng: np.random.Generator, config: ModelConfig, rank: int, indices: tuple[int, ...]
) -> dict[int, dict[str, tuple[Tensor, Tensor]]]:
    shapes = block_param_shapes(config.d_model, config.d_ffn)
    return {
        i: {
            mat: (
                Tensor(rng.normal(0.0, ADAPTER_INIT_STD, size=(rank, shapes[mat][1]))),
                Tensor(np.zeros((shapes[mat][0], rank))),
            )
            for mat in BLOCK_MATRICES
        }
        for i in indices
    }


def _copied(params: dict[str, Tensor]) -> dict[str, Tensor]:
    return {name: Tensor(t.data.copy()) for name, t in params.items()}


@dataclass
class AdaptedModel(MultimodalBase):
    """The base stack with trainable block copies and adapters bound in.

    ``routed`` is the per-layer binding policy. Unrouted (GenieBlue), a layer
    with a copy binds the copy as a whole block for every token. Routed
    (CogVLM-style), a copy holds matrices only and serves image positions as
    experts, and adapters apply at image positions only. ``adapters`` maps a
    layer to ``mat -> (down, up)``, down (r, d_in) and up (d_out, r): the form
    ``BlockBinding.adapters`` takes. The LM is the base's own; the vision
    encoder and projector are copies, so training the model leaves the base
    untouched.
    """

    copies: dict[int, dict[str, Tensor]]
    adapters: dict[int, dict[str, tuple[Tensor, Tensor]]]

    routed = False

    def named_parameters(self) -> dict[str, Tensor]:
        out = {f"lm.{k}": v for k, v in self.lm.params.items()}
        prefix = "expert" if self.routed else "replicated"
        for i, block in sorted(self.copies.items()):
            out.update({f"{prefix}.{i}.{k}": v for k, v in block.items()})
        for i, per_block in sorted(self.adapters.items()):
            for mat, (down, up) in per_block.items():
                out[f"adapter.{i}.{mat}.down"] = down
                out[f"adapter.{i}.{mat}.up"] = up
        out.update({f"vision.{k}": v for k, v in self.vision.params.items()})
        out.update({f"projector.{k}": v for k, v in self.projector.params.items()})
        return out

    def bindings(self) -> list[BlockBinding]:
        out = []
        for i in range(self.config.n_layers):
            copy = self.copies.get(i)
            if copy is not None and not self.routed:
                out.append(BlockBinding(copy))
                continue
            adapters = dict(self.adapters.get(i, {}))
            # routed: text positions stay on the exact base computation
            out.append(BlockBinding(self.lm.block_weights(i), adapters, dict(copy or {}), self.routed))
        return out


class HybridModel(AdaptedModel):
    """GenieBlue: copies replace whole blocks for every token."""


class VisualExpertModel(AdaptedModel):
    """CogVLM-style baseline: copies and adapters serve image positions only."""

    routed = True


def _build(cls, base: MultimodalBase, replicated: tuple[int, ...], rank: int, seed: int):
    config = base.config
    if not is_int(rank):
        raise ValueError(f"rank must be an integer, got {rank!r}")
    if rank < 0:
        raise ValueError(f"rank must be non-negative, got {rank}")
    if rank >= config.d_model:
        raise ValueError(f"rank {rank} is degenerate for width {config.d_model}")
    if not (is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if not isinstance(replicated, (tuple, list)):
        raise ValueError(f"placement {replicated!r} must be a tuple or list of layer indices")
    if not all(is_int(i) for i in replicated):
        raise ValueError(f"placement {replicated} must hold integer layer indices")
    if len(set(replicated)) != len(replicated):
        raise ValueError(f"placement {replicated} repeats a layer")
    if any(i < 0 or i >= config.n_layers for i in replicated):
        raise ValueError(f"placement {replicated} out of range for L={config.n_layers}")
    copies = {}
    for i in replicated:
        block = base.lm.block_weights(i)
        copies[i] = _copied({n: t for n, t in block.items() if n in BLOCK_MATRICES or not cls.routed})
    rng = np.random.default_rng(seed)
    adapted_layers = tuple(i for i in range(config.n_layers) if i not in copies)
    adapters = _init_adapters(rng, config, rank, adapted_layers) if rank else {}
    vision = VisionEncoder(config, _copied(base.vision.params))
    projector = Projector(config, _copied(base.projector.params), base.projector.pretrained)
    return cls(config, base.lm, vision, projector, copies, adapters)


def build_genieblue(
    base: MultimodalBase, replicated: tuple[int, ...], rank: int = 8, seed: int = 0
) -> HybridModel:
    """Replicate the blocks at ``replicated``; adapters go on every other layer."""
    return _build(HybridModel, base, replicated, rank, seed)


def build_cogvlm(
    base: MultimodalBase, replicated: tuple[int, ...], rank: int = 8, seed: int = 0
) -> VisualExpertModel:
    """Duplicate QKV/output/FFN experts at the ``replicated`` layers."""
    return _build(VisualExpertModel, base, replicated, rank, seed)


def build_full_lora(base: MultimodalBase, rank: int = 8, seed: int = 0) -> HybridModel:
    """Baseline: adapters on every block, no replication."""
    return _build(HybridModel, base, (), rank, seed)


def parameter_group(name: str) -> str:
    """Which of {base, replicated, adapter, vision, projector} a name is in."""
    if name.startswith("lm."):
        return "base"
    if name.startswith("replicated.") or name.startswith("expert."):
        return "replicated"
    for group in ("adapter", "vision", "projector"):
        if name.startswith(group + "."):
            return group
    raise ValueError(f"unknown parameter group for {name!r}")


def count_trainable(model) -> dict[str, int]:
    """Stage-2 trainable parameter counts by group, plus the total.

    For the full-finetune baseline (a plain ``MultimodalBase``), every
    parameter including the LM is trainable and counts under ``blocks``.
    """
    counts = {"blocks": 0, "adapters": 0, "vision": 0, "projector": 0}
    keys = {"base": "blocks", "replicated": "blocks", "adapter": "adapters"}
    for name, p in freeze_mask(model, 2).items():
        group = parameter_group(name)
        counts[keys.get(group, group)] += p.size
    counts["total"] = sum(counts.values())
    return counts


def merged_bindings(model: AdaptedModel | MultimodalBase) -> list[BlockBinding]:
    """The model's bindings with every adapter folded into its base weight.

    Only unrouted models fold: a routed delta applies at image positions
    alone, which no single merged weight computes. A plain
    ``MultimodalBase`` has no adapters, so its bindings come back as they are.
    """
    if not isinstance(model, AdaptedModel):
        return model.bindings()
    if model.routed:
        raise ValueError("routed adapters and experts apply per token and cannot be folded")
    out = []
    for binding in model.bindings():
        weights = dict(binding.weights)
        for mat, (down, up) in binding.adapters.items():
            weights[mat] = Tensor(lora_weight(weights[mat].data, down.data, up.data))
        out.append(BlockBinding(weights))
    return out


def freeze_mask(model, stage: int) -> dict[str, Tensor]:
    """The trainable parameter set for a training stage.

    Stage 1 trains the projector alone. Stage 2 trains vision, projector,
    replicated/expert blocks, and adapters. Base LM blocks, embeddings, and
    the LM head are never trainable for hybrid and expert models; the
    full-finetune baseline trains everything in stage 2.
    """
    if not is_int(stage) or stage not in (1, 2):
        raise ValueError(f"unknown training stage {stage!r}")
    params = model.named_parameters()
    if stage == 1:
        return {n: p for n, p in params.items() if n.startswith("projector.")}
    if isinstance(model, AdaptedModel):
        return {n: p for n, p in params.items() if parameter_group(n) != "base"}
    return dict(params)
