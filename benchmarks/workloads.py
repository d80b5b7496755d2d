"""The benchmark's workloads and their output checks.

``train-genieblue`` and ``train-cogvlm`` run stage-2 ``run_stage`` on the two
adaptation paths (replicated blocks plus LoRA, and per-token visual experts)
over the same grid-caption data at B=16. ``serve-text`` and ``serve-image``
drive a modality-routed deployment in a closed loop with one client and B=1
forwards, tape off: text requests go to the pristine ``base.lm.forward`` and
image requests to the adapted model.

Every setup builds its own base stack from the seed, so no run shares a base
(adapted models alias the base's vision encoder and projector, so training
one would otherwise leak into another).

A run with ``trace=False`` produces the end-to-end metrics and installs no
wrappers. A run with ``trace=True`` makes an untraced pass, then a traced
pass of the same work on a fresh setup, checks that both computed the same
bits, and reports per-layer metrics from the traced pass.
"""

from __future__ import annotations

import hashlib
import math
import resource
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from time import perf_counter

import numpy as np

from genieblue import adaptation, data, training, util
from genieblue.autograd import NonFiniteError
from genieblue.model import ModelConfig, build_model

import reference
from tracing import Tracer

BATCH = 16
RANK = 8
PLACEMENT_MODE = "skip"
PLACEMENT_FRACTION = Fraction(1, 4)
TRAIN_SAMPLES = 256  # enough that the padded length is the task's maximum, 62
SETUP_REPEATS = 9
MIN_STEPS = 4
POOL = 2048  # distinct requests per run; the loop cycles through them
MAX_PAYLOAD = 28  # text requests span T = 5..59 at the default max_seq
CHECK_EVERY = 8  # one response in this many is compared with the reference
PERTURB_STD = 0.02  # stands in for trained weights in the served adapted model
TOL = 1e-9  # float64 outputs computed in another summation order
TRACE_SHARE = 0.45  # share of --seconds for each of a traced run's two passes


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: dict[str, float]
    detail: dict


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _ms(values, q) -> float:
    return 1e3 * float(np.percentile(values, q))


def _timed_setups(setup):
    """Set up SETUP_REPEATS times; return the median seconds, the times and the last result."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        out = setup()
        times.append(perf_counter() - t0)
    return float(np.median(times)), times, out


def _schedule(config: ModelConfig):
    return adaptation.plan_placement(config.n_layers, PLACEMENT_FRACTION, PLACEMENT_MODE)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def setup_train(builder: str, seed: int, config: ModelConfig):
    base = build_model(config, seed)
    model = getattr(adaptation, builder)(base, _schedule(config), rank=RANK, seed=seed + 1)
    spec = data.TaskSpec("grid-caption", TRAIN_SAMPLES, seed=seed + 2)
    dataset = data.synth_dataset(spec, config.max_seq, config.grid_side, config.grid_alphabet)
    return model, dataset


@dataclass
class TrainPass:
    steps: int
    report: object | None  # the TrainReport, or None when run_stage raised
    error: str | None
    wall_s: float  # run_stage wall time, callbacks excluded
    step_s: list[float]  # between on_step callbacks
    last_callback: float  # perf_counter at the last callback
    snapshot: dict | None  # parameters as the last step read them


def train_pass(model, dataset, steps: int, seed: int, snapshot: bool = False) -> TrainPass:
    step_s: list[float] = []
    params_before_last: dict = {}
    clock = {"last": 0.0, "entry": 0.0, "callbacks": 0.0}

    def on_step(step, m):
        now = perf_counter()
        step_s.append(now - clock["last"])
        clock["entry"] = now
        if snapshot and step == steps - 1:
            params_before_last.update({n: p.data.copy() for n, p in m.named_parameters().items()})
        clock["last"] = perf_counter()
        clock["callbacks"] += clock["last"] - now

    cfg = training.StageConfig(stage=2, total_steps=steps, batch_size=BATCH)
    report = error = None
    t0 = clock["last"] = perf_counter()
    try:
        report = training.run_stage(model, cfg, dataset, seed=seed, on_step=on_step, allow_missing_stage1=True)
    except (training.TrainingDiverged, NonFiniteError) as exc:
        error = repr(exc)
    wall = perf_counter() - t0 - clock["callbacks"]
    return TrainPass(steps, report, error, wall, step_s, clock["entry"], params_before_last or None)


def batch_indices(n: int, seed: int, step: int) -> list[int]:
    """Sample indices of 0-based ``step``, as run_stage draws them: batches
    taken in order from a stream of seeded permutations of the dataset."""
    rng = np.random.default_rng(seed)
    order: list[int] = []
    while len(order) < (step + 1) * BATCH:
        order.extend(int(i) for i in rng.permutation(n))
    return order[step * BATCH : (step + 1) * BATCH]


def train_failures(p: TrainPass, dataset, seed: int, config: ModelConfig) -> tuple[int, list[str]]:
    """Failed steps: a non-finite loss; every step when frozen weights moved;
    the last step when its loss differs from the reference loss."""
    if p.report is None:
        return p.steps, [f"run_stage raised {p.error}"]
    losses = p.report.losses
    if len(losses) != p.steps:
        return p.steps, [f"{len(losses)} losses for {p.steps} steps"]
    if p.report.frozen_digest_initial != p.report.frozen_digest_final:
        return p.steps, ["frozen parameters changed"]
    bad = {i for i, loss in enumerate(losses) if not math.isfinite(loss)}
    notes = [f"non-finite loss at steps {sorted(bad)}"] if bad else []
    if p.snapshot is not None:
        samples = [dataset[i] for i in batch_indices(len(dataset), seed, p.steps - 1)]
        ref = reference.answer_loss(p.snapshot, config, samples)
        if not abs(losses[-1] - ref) <= TOL:
            bad.add(p.steps - 1)
            notes.append(f"last loss {losses[-1]!r} != reference {ref!r}")
    return len(bad), notes


def train(builder: str, seed: int, seconds: float, trace: bool, config: ModelConfig = ModelConfig()) -> Outcome:
    run_seed = seed + 3
    # warm caches and size the run from one step; this model is discarded
    warm = train_pass(*setup_train(builder, seed, config), 2, run_seed)
    step_est = warm.step_s[-1] if warm.step_s else warm.wall_s

    if not trace:
        setup_s, setup_times, (model, dataset) = _timed_setups(lambda: setup_train(builder, seed, config))
        steps = max(MIN_STEPS, round(seconds / step_est))
        p = train_pass(model, dataset, steps, run_seed, snapshot=True)
        rss = _peak_rss_mb()
        failed, notes = train_failures(p, dataset, run_seed, config)
        # the first step also carries run_stage's prelude
        latency = p.step_s[1:] or p.step_s or [p.wall_s]
        width = dataset.max_len
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": rss,
            "tokens_per_s": BATCH * width * len(p.step_s) / p.wall_s,
            "latency_ms_p50": _ms(latency, 50),
            "latency_ms_p90": _ms(latency, 90),
        }
        detail = {
            "unit": "optimizer step",
            "steps": steps,
            "batch": BATCH,
            "padded_len": width,
            "latency_samples": len(latency),
            "samples_beyond_p90": len(latency) // 10,
            "setup_samples": len(setup_times),
            "last_loss": p.report.losses[-1] if p.report else None,
            "notes": notes,
        }
        return Outcome(steps, failed, metrics, detail)

    steps = max(MIN_STEPS, round(TRACE_SHARE * seconds / step_est))
    model, dataset = setup_train(builder, seed, config)
    plain = train_pass(model, dataset, steps, run_seed, snapshot=True)
    failed, notes = train_failures(plain, dataset, run_seed, config)
    tracer = Tracer()
    with tracer:
        model, dataset = setup_train(builder, seed, config)
        tracer.note_model(model)
        traced = train_pass(model, dataset, steps, run_seed)
    traced_failed, traced_notes = train_failures(traced, dataset, run_seed, config)
    if plain.report and traced.report and traced.report.losses != plain.report.losses:
        traced_failed = steps
        traced_notes.append("traced losses differ from untraced losses")
    metrics = tracer.layer_metrics(steps)
    loop_s = traced.last_callback - tracer.first_start.get("data.collate", traced.last_callback)
    metrics["training.overhead_ms"] = tracer.total_ms("training.run_stage") - 1e3 * loop_s
    metrics["optim.trainable_elems"] = traced.report.n_trainable if traced.report else 0
    metrics["trace.overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
    detail = {
        "unit": "optimizer step",
        "steps": steps,
        "notes": notes + traced_notes,
        "unattributed_ops": tracer.unattributed(),
        "missing_wrap_targets": tracer.missing,
    }
    return Outcome(2 * steps, failed + traced_failed, metrics, detail)


# ---------------------------------------------------------------------------
# serving
# ---------------------------------------------------------------------------


@dataclass
class Deployment:
    """The pristine base for text requests and the adapted model for images."""

    base: object
    adapted: object


def respond(deployment: Deployment, sample):
    """Serve one request: collate it, then route it by modality."""
    batch, _, _, grids = data.collate([sample])
    if batch.image_span:
        return deployment.adapted.forward(batch, grids)
    return deployment.base.lm.forward(batch)


def make_requests(kinds, seed: int, config: ModelConfig) -> list:
    rng = np.random.default_rng(seed)
    max_payload = min(MAX_PAYLOAD, (config.max_seq - 3) // 2)
    requests = []
    for _ in range(POOL):
        kind = kinds[int(rng.integers(len(kinds)))]
        payload = int(rng.integers(1, max_payload + 1)) if kind in data.TEXT_KINDS else 12
        spec = data.TaskSpec(kind, 1, seq_len=payload, seed=int(rng.integers(2**32)))
        requests.append(data.synth_dataset(spec, config.max_seq, config.grid_side, config.grid_alphabet)[0])
    return requests


def setup_serve(kinds, seed: int, config: ModelConfig):
    base = build_model(config, seed)
    adapted = adaptation.build_genieblue(base, _schedule(config), rank=RANK, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    for name, p in adapted.named_parameters().items():
        if not name.startswith("lm."):
            p.data += rng.normal(0.0, PERTURB_STD, p.shape)
    return Deployment(base, adapted), make_requests(kinds, seed + 3, config)


@dataclass
class ServePass:
    latency_s: list[float]
    tokens: int
    failed: int
    digest: str  # over every response, to compare a traced pass with an untraced one
    notes: list[str]


def serve_pass(deployment, requests, config, *, seconds=None, count=None, check=True, tracer=None, handler=respond):
    """Closed loop, one client: send the next request when the last returns.

    Runs for ``seconds`` of wall time or for ``count`` requests. Every
    response must be finite and (1, T, vocab); with ``check``, one in
    CHECK_EVERY is compared with the reference forward (outside the timer).
    """
    lm_digest = util.digest_tensors(deployment.base.lm.params)
    latency: list[float] = []
    tokens = failed = 0
    digest = hashlib.sha256()
    start = perf_counter()
    while (len(latency) < count) if count is not None else (perf_counter() - start < seconds):
        i = len(latency)
        sample = requests[i % len(requests)]
        t0 = perf_counter()
        out = tracer.timed("serve.request", handler, deployment, sample) if tracer else handler(deployment, sample)
        latency.append(perf_counter() - t0)
        arr = out.data
        n = len(sample.tokens)
        tokens += n
        digest.update(arr.tobytes())
        if arr.shape != (1, n, config.vocab_size) or not np.isfinite(arr).all():
            failed += 1
        elif check and i % CHECK_EVERY == 0:
            model = deployment.adapted if sample.grid is not None else deployment.base
            ref = reference.logits(model.named_parameters(), config, sample.tokens, sample.image_mask, sample.grid)
            if not np.allclose(arr[0], ref, rtol=TOL, atol=TOL):
                failed += 1
    notes = []
    if util.digest_tensors(deployment.base.lm.params) != lm_digest:
        failed = len(latency)
        notes.append("base LM parameters changed while serving")
    return ServePass(latency, tokens, failed, digest.hexdigest(), notes)


def warm_up(deployment, requests) -> None:
    """Serve a few requests untimed, so caches fill before timing."""
    for sample in requests[:32]:
        respond(deployment, sample)


def serve(kinds, seed: int, seconds: float, trace: bool, config: ModelConfig = ModelConfig()) -> Outcome:
    if not trace:
        setup_s, setup_times, (deployment, requests) = _timed_setups(lambda: setup_serve(kinds, seed, config))
        warm_up(deployment, requests)
        p = serve_pass(deployment, requests, config, seconds=seconds)
        rss = _peak_rss_mb()
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": rss,
            "tokens_per_s": p.tokens / sum(p.latency_s),
            "latency_ms_p50": _ms(p.latency_s, 50),
            "latency_ms_p90": _ms(p.latency_s, 90),
        }
        detail = {
            "unit": "request",
            "requests": len(p.latency_s),
            "distinct_requests": min(len(p.latency_s), POOL),
            "reference_checked": -(-len(p.latency_s) // CHECK_EVERY),
            "latency_samples": len(p.latency_s),
            "samples_beyond_p90": len(p.latency_s) // 10,
            "setup_samples": len(setup_times),
            "mean_tokens": p.tokens / len(p.latency_s),
            "notes": p.notes,
        }
        return Outcome(len(p.latency_s), p.failed, metrics, detail)

    deployment, requests = setup_serve(kinds, seed, config)
    warm_up(deployment, requests)
    plain = serve_pass(deployment, requests, config, seconds=TRACE_SHARE * seconds)
    n = len(plain.latency_s)
    tracer = Tracer()
    with tracer:
        deployment, requests = setup_serve(kinds, seed, config)
        tracer.note_model(deployment.adapted)
        traced = serve_pass(deployment, requests, config, count=n, check=False, tracer=tracer)
    traced_failed, notes = traced.failed, plain.notes + traced.notes
    if traced.digest != plain.digest:
        traced_failed = n
        notes.append("traced responses differ from untraced responses")
    metrics = tracer.layer_metrics(n)
    metrics["training.overhead_ms"] = 0.0
    metrics["optim.trainable_elems"] = 0
    metrics["trace.overhead_frac"] = sum(traced.latency_s) / sum(plain.latency_s) - 1.0
    detail = {
        "unit": "request",
        "requests": n,
        "notes": notes,
        "unattributed_ops": tracer.unattributed(),
        "missing_wrap_targets": tracer.missing,
    }
    return Outcome(2 * n, plain.failed + traced_failed, metrics, detail)


WORKLOADS = {
    "train-genieblue": partial(train, "build_genieblue"),
    "train-cogvlm": partial(train, "build_cogvlm"),
    "serve-text": partial(serve, data.TEXT_KINDS),
    "serve-image": partial(serve, data.GRID_KINDS),
}
