"""Self-tests of the benchmark at a tiny model config.

    python -m pytest -q benchmarks
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from genieblue import autograd  # noqa: E402
from genieblue.autograd import Tensor  # noqa: E402
from genieblue.model import ModelConfig  # noqa: E402

TINY = ModelConfig(
    d_model=16, n_layers=4, n_heads=2, max_seq=24, grid_side=3, grid_alphabet=4, d_vision=8, n_vision_heads=2
)
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(autouse=True)
def small_pool(monkeypatch):
    monkeypatch.setattr(workloads, "POOL", 64)


def test_spec_names_the_implemented_workloads():
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_emits_every_metric_with_a_unit(name, trace):
    outcome = workloads.WORKLOADS[name](0, 0.2, trace, config=TINY)
    assert outcome.failed == 0, outcome.detail
    assert outcome.attempted >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(outcome.metrics) == {m["name"] for m in wanted}
    line = run.result_line(SPEC, outcome, trace)
    assert line["correct"] is True
    for m in wanted:
        entry = line["metrics"][m["name"]]
        assert entry["unit"] == m["unit"] and np.isfinite(entry["value"])
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
    assert autograd.linear.__name__ == "linear" and not hasattr(autograd.linear, "__wrapped__")


@pytest.mark.parametrize("name", ["train-genieblue", "train-cogvlm"])
def test_every_tape_op_is_attributed(name):
    outcome = workloads.WORKLOADS[name](0, 0.2, True, config=TINY)
    assert outcome.detail["unattributed_ops"] == []
    assert outcome.detail["missing_wrap_targets"] == []
    m = outcome.metrics
    routed = m["autograd.routed_linear.calls"] + m["autograd.routed_lora.calls"]
    assert (routed > 0) == (name == "train-cogvlm")
    assert m["autograd.nodes_used_frac"] > 0.9
    assert 0.9 < m["trace.coverage"] <= 1.0


def test_unknown_tape_op_lands_in_other_bucket():
    tracer = tracing.Tracer()
    x = Tensor(np.ones(3), requires_grad=True)
    with tracer:
        with autograd.GradTape() as tape:
            loss = autograd.sum_all(autograd.gelu(x))
        autograd.backward(tape, loss)
    assert tracer.unattributed() == ["sum_all"]
    assert tracer.calls("autograd.other.bwd") == 1


def _serve_setup():
    return workloads.setup_serve(("text-copy", "grid-count"), 0, TINY)


def test_injected_bad_response_counts_as_failed():
    deployment, requests = _serve_setup()

    calls = 0

    def corrupt(dep, sample):
        nonlocal calls
        out = workloads.respond(dep, sample)
        calls += 1
        if calls == 3:
            out.data[0, 0, 0] = np.nan
        if calls == 9:  # a checked response, off by more than the tolerance
            out.data[0, -1, 1] += 1e-6
        return out

    p = workloads.serve_pass(deployment, requests, TINY, count=16, handler=corrupt)
    assert p.failed == 2
    clean = workloads.serve_pass(deployment, requests, TINY, count=16)
    assert clean.failed == 0


def test_base_lm_change_while_serving_fails_every_request():
    deployment, requests = _serve_setup()

    def tamper(dep, sample):
        dep.base.lm.params["head.w"].data[0, 0] += 1.0
        return workloads.respond(dep, sample)

    p = workloads.serve_pass(deployment, requests, TINY, count=4, handler=tamper)
    assert p.failed == 4


def test_injected_bad_loss_and_frozen_change_count_as_failed():
    model, dataset = workloads.setup_train("build_genieblue", 0, TINY)
    p = workloads.train_pass(model, dataset, 4, 3, snapshot=True)
    assert workloads.train_failures(p, dataset, 3, TINY) == (0, [])
    p.report.losses[-1] += 1e-6
    assert workloads.train_failures(p, dataset, 3, TINY)[0] == 1
    p.report.frozen_digest_final = "0" * 64
    assert workloads.train_failures(p, dataset, 3, TINY)[0] == 4

