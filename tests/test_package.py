import importlib
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest

import genieblue
from genieblue import autograd, model
from genieblue.adaptation import build_cogvlm, build_full_lora, build_genieblue, freeze_mask, plan_placement
from genieblue.data import TaskSpec, collate, synth_dataset
from genieblue.training import StageConfig, run_stage


def _tracing(monkeypatch):
    """The benchmark's tracer module, imported without installing it."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    return importlib.import_module("tracing")


def test_every_exported_name_resolves():
    modules = [genieblue] + [
        importlib.import_module(f"genieblue.{info.name}") for info in pkgutil.iter_modules(genieblue.__path__)
    ]
    missing = [f"{m.__name__}.{name}" for m in modules for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert missing == []
    assert all(hasattr(m, "__all__") for m in modules[1:])  # every submodule declares its exports


def test_benchmark_wrap_targets_exist(monkeypatch):
    """Every name the benchmark's tracer wraps exists; the tracer is read, not installed."""
    tracing = _tracing(monkeypatch)
    targets = list(tracing.FUNCTIONS) + [(autograd, op) for op in tracing.OPS]
    targets += [(model, "block_forward"), (autograd, "backward")]
    missing = [f"{mod.__name__}.{attr}" for mod, attr in targets if not callable(getattr(mod, attr, None))]
    missing += [
        f"{mod.__name__}.{cls}.{attr}"
        for mod, cls, attr in tracing.METHODS
        if not callable(getattr(getattr(mod, cls, None), attr, None))
    ]
    assert missing == []


PLACEMENT = plan_placement(4, Fraction(1, 4), "skip")
MODELS = {
    "genieblue": lambda base: build_genieblue(base, PLACEMENT, rank=4, seed=1),
    "cogvlm": lambda base: build_cogvlm(base, PLACEMENT, rank=4, seed=1),
    "full-lora": lambda base: build_full_lora(base, rank=4, seed=1),
    "full-finetune": lambda base: base,
}


@pytest.mark.parametrize("name, stage", [(name, 2) for name in MODELS] + [("genieblue", 1)], ids=str)
def test_every_recorded_op_has_a_benchmark_bucket(monkeypatch, name, stage):
    """A kernel fusion that records a new op name fails here, not only in the benchmark suite."""
    ops = _tracing(monkeypatch).OPS
    cfg = model.ModelConfig(
        vocab_size=256, d_model=16, n_layers=4, n_heads=2, max_seq=48, grid_side=3, grid_alphabet=4, d_vision=8
    )
    m = MODELS[name](model.build_model(cfg, seed=0))
    data = synth_dataset(TaskSpec("grid-caption", n_samples=2, seed=0), max_seq=48, grid_side=3, grid_alphabet=4)
    batch, targets, predict, grids = collate([data[0], data[1]], data.max_len)
    for t in freeze_mask(m, stage).values():
        t.requires_grad = True
    with autograd.GradTape() as tape:
        autograd.masked_nll(m.forward(batch, grids), targets, predict / predict.sum())
    recorded = {n.op for n in tape.nodes}
    assert "linear" in recorded and recorded - set(ops) == set()


TINY = model.ModelConfig(
    vocab_size=256, d_model=16, n_layers=4, n_heads=2, max_seq=48, grid_side=3, grid_alphabet=4, d_vision=8
)

SEEDED = {
    "build_model": lambda seed: model.build_model(TINY, seed),
    "build_genieblue": lambda seed: build_genieblue(model.build_model(TINY, 0), PLACEMENT, rank=4, seed=seed),
    "run_stage": lambda seed: run_stage(
        model.build_model(TINY, 0),
        StageConfig(stage=1, total_steps=2, batch_size=2),
        synth_dataset(TaskSpec("grid-caption", n_samples=2), max_seq=48, grid_side=3, grid_alphabet=4),
        seed=seed,
    ),
    "TaskSpec": lambda seed: TaskSpec("grid-caption", 2, seed=seed),
}


@pytest.mark.parametrize("seed", [1.5, -1, True, "1"], ids=repr)
@pytest.mark.parametrize("entry", sorted(SEEDED))
def test_entry_points_refuse_a_seed_that_is_not_a_non_negative_integer(entry, seed):
    with pytest.raises(ValueError, match="^seed must be"):
        SEEDED[entry](seed)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_the_tracer_counts_each_product_once(monkeypatch, name):
    """Every traced ``linear`` or ``routed_linear`` call is one product node on the tape.

    Both ops share one private core; a routed product that went through the
    public ``linear``, which the tracer wraps, would be counted twice.
    """
    tracing = _tracing(monkeypatch)
    m = MODELS[name](model.build_model(TINY, seed=0))
    data = synth_dataset(TaskSpec("grid-caption", n_samples=2, seed=0), max_seq=48, grid_side=3, grid_alphabet=4)
    batch, _, _, grids = collate([data[0], data[1]], data.max_len)
    for t in freeze_mask(m, 2).values():
        t.requires_grad = True
    with tracing.Tracer() as tracer, autograd.GradTape() as tape:
        m.forward(batch, grids)
    calls = tracer.calls("autograd.linear.fwd") + tracer.calls("autograd.routed_linear.fwd")
    assert calls == sum(n.op in ("linear", "routed_linear") for n in tape.nodes) > 0
    # only the CogVLM-style baseline routes; GenieBlue runs one product per matrix for every token
    assert (tracer.calls("autograd.routed_linear.fwd") > 0) == (name == "cogvlm")
