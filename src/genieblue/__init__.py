"""Desk-scale hybrid adaptation laboratory.

A frozen base language model acquires multimodal capability through fully
trained copies of some transformer blocks plus low-rank adapters on the
rest. Adapted models share the base LM's weights but never change them, so a
text request can run on ``base.lm`` and get exactly the base model's output.
"""

from .autograd import GradTape, NonFiniteError, ShapeMismatch, Tensor, backward
from .adaptation import (
    AdaptedModel,
    HybridModel,
    VisualExpertModel,
    build_cogvlm,
    build_full_lora,
    build_genieblue,
    count_trainable,
    freeze_mask,
    plan_placement,
)
from .data import Dataset, Sample, TaskSpec, collate, synth_dataset
from .model import ModelConfig, MultimodalBase, TokenBatch, build_model
from .optim import AdamWState, LrSchedule, adamw_step, lr_at
from .training import StageConfig, TrainReport, run_stage

__version__ = "0.1.0"
