from fractions import Fraction

import numpy as np
import pytest

from genieblue.adaptation import (
    build_cogvlm,
    build_full_lora,
    build_genieblue,
    count_trainable,
    freeze_mask,
    merged_bindings,
    plan_placement,
)
from genieblue.autograd import GradTape, ShapeMismatch, Tensor, backward, lora_weight, sum_all
from genieblue.model import BlockBinding, ModelConfig, TokenBatch, block_forward, build_model, decode

from oracles import layers_from_bindings, ref_decode


def _mixed_batch(rng, config, bsz=2, t=None):
    t = t or config.max_seq
    span = config.grid_cells
    ids = rng.integers(0, config.vocab_size, size=(bsz, t))
    grids = rng.integers(0, config.grid_alphabet, size=(bsz, config.grid_side, config.grid_side))
    return TokenBatch(ids, span), grids


def _text_batch(rng, config, bsz=2, t=8):
    ids = rng.integers(0, config.vocab_size, size=(bsz, t))
    return TokenBatch(ids)


# ----------------------------------------------------------------------------
# placement planning
# ----------------------------------------------------------------------------


def test_placement_skip_8_quarter():
    assert plan_placement(8, Fraction(1, 4), "skip") == (3, 7)


def test_placement_pre_post_8_quarter():
    assert plan_placement(8, Fraction(1, 4), "pre") == (0, 1)
    assert plan_placement(8, Fraction(1, 4), "post") == (6, 7)


def test_placement_skip_10_quarter():
    assert plan_placement(10, Fraction(1, 4), "skip") == (4, 9)


def test_placement_accepts_plain_floats():
    assert plan_placement(8, 0.25, "skip") == (3, 7)


@pytest.mark.parametrize("n_layers", range(4, 13))
@pytest.mark.parametrize("mode", ["post", "pre", "skip"])
def test_placement_partition_invariants(n_layers, mode):
    sched = plan_placement(n_layers, Fraction(1, 4), mode)
    assert len(set(sched)) == len(sched) == max(1, (n_layers * 1) // 4)
    assert set(sched) <= set(range(n_layers))
    assert sched == tuple(sorted(sched))
    if mode == "skip":
        assert sched[-1] == n_layers - 1  # final block always included


def test_placement_rejects_bad_fraction():
    with pytest.raises(ValueError):
        plan_placement(8, 0.0)
    with pytest.raises(ValueError):
        plan_placement(8, 1.5)
    for fraction in (float("inf"), float("nan"), "0.25"):
        with pytest.raises(ValueError, match="fraction must be in"):
            plan_placement(8, fraction)
    for mode in (3, "SKIP"):
        with pytest.raises(ValueError, match="mode must be one of"):
            plan_placement(8, 0.25, mode)


@pytest.mark.parametrize("n_layers", [8.5, 8.0, "8", 0], ids=["fractional", "whole-float", "str", "zero"])
def test_placement_rejects_bad_layer_count(n_layers):
    with pytest.raises(ValueError, match="n_layers must be a positive integer"):
        plan_placement(n_layers)


def test_placement_rejects_bools():
    for flag in (True, np.bool_(True)):  # True would be a fraction of 1: every layer replicated
        with pytest.raises(ValueError, match="fraction must be in"):
            plan_placement(8, flag)
    with pytest.raises(ValueError, match="n_layers must be a positive integer, got True"):
        plan_placement(True)


def test_placement_full_fraction_replicates_everything(tiny_base):
    assert plan_placement(6, Fraction(1, 1), "skip") == tuple(range(6))
    hybrid = build_genieblue(tiny_base, plan_placement(4, Fraction(1, 1), "skip"), rank=4)
    assert sorted(hybrid.copies) == [0, 1, 2, 3]
    assert hybrid.adapters == {}


@pytest.mark.parametrize("mode", ["post", "pre", "skip"])
@pytest.mark.parametrize("build", [build_genieblue, build_cogvlm])
def test_build_partitions_layers_into_copies_and_adapters(tiny_base, mode, build):
    sched = plan_placement(tiny_base.config.n_layers, Fraction(1, 4), mode)
    model = build(tiny_base, sched, rank=4)
    assert tuple(model.copies) == sched
    assert set(model.adapters) == set(range(tiny_base.config.n_layers)) - set(sched)
    assert list(model.adapters) == sorted(model.adapters)  # adapters drawn in layer order


# ----------------------------------------------------------------------------
# hybrid construction
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["post", "pre", "skip"])
def test_genieblue_init_equivalence_bit_exact(tiny_base, rng, mode):
    sched = plan_placement(tiny_base.config.n_layers, Fraction(1, 4), mode)
    hybrid = build_genieblue(tiny_base, sched, rank=4, seed=1)
    for _ in range(5):
        batch, grids = _mixed_batch(rng, tiny_base.config)
        assert (
            hybrid.forward(batch, grids).data.tobytes()
            == tiny_base.forward(batch, grids).data.tobytes()
        )


@pytest.mark.parametrize("mode", ["post", "pre", "skip"])
def test_cogvlm_init_equivalence_bit_exact(tiny_base, rng, mode):
    sched = plan_placement(tiny_base.config.n_layers, Fraction(1, 4), mode)
    expert = build_cogvlm(tiny_base, sched, rank=4, seed=1)
    for _ in range(5):
        batch, grids = _mixed_batch(rng, tiny_base.config)
        assert (
            expert.forward(batch, grids).data.tobytes()
            == tiny_base.forward(batch, grids).data.tobytes()
        )


def test_replicated_block_count_for_skip():
    base = build_model(ModelConfig(), seed=0)
    hybrid = build_genieblue(base, plan_placement(8, Fraction(1, 4), "skip"), rank=8)
    assert len(hybrid.copies) == 2


def test_perturbing_replicated_block_isolates_base_path(tiny_base, rng):
    sched = plan_placement(tiny_base.config.n_layers, Fraction(1, 4), "skip")
    hybrid = build_genieblue(tiny_base, sched, rank=4)
    batch, grids = _mixed_batch(rng, tiny_base.config)
    before_mm = hybrid.forward(batch, grids).data
    text = _text_batch(rng, tiny_base.config)
    before_text = tiny_base.lm.forward(text).data

    idx = sched[0]
    hybrid.copies[idx]["attn.wq"].data += 0.05

    after_mm = hybrid.forward(batch, grids).data
    after_text = tiny_base.lm.forward(text).data
    assert not np.array_equal(before_mm, after_mm)
    assert before_text.tobytes() == after_text.tobytes()


def test_degenerate_rank_rejected(tiny_base):
    sched = plan_placement(tiny_base.config.n_layers, Fraction(1, 4), "skip")
    with pytest.raises(ValueError, match="degenerate"):
        build_genieblue(tiny_base, sched, rank=tiny_base.config.d_model)


@pytest.mark.parametrize("build", [build_genieblue, build_cogvlm])
@pytest.mark.parametrize(
    "placement, rank, message",
    [
        ((3.0,), 4, "integer layer indices"),
        ((3, 3), 4, "repeats a layer"),
        ((3,), 2.5, "rank must be an integer"),
        (3, 4, "placement 3 must be a tuple or list"),
        (None, 4, "placement None must be a tuple or list"),
    ],
    ids=["float-index", "repeated-index", "float-rank", "int-placement", "none-placement"],
)
def test_build_rejects_malformed_placement_or_rank(tiny_base, build, placement, rank, message):
    with pytest.raises(ValueError, match=message):
        build(tiny_base, placement, rank=rank)


@pytest.mark.parametrize("build", [build_genieblue, build_cogvlm])
def test_build_rejects_bool_placement_or_rank(tiny_base, build):
    with pytest.raises(ValueError, match="integer layer indices"):
        build(tiny_base, (True,), rank=4)
    with pytest.raises(ValueError, match="rank must be an integer, got True"):
        build(tiny_base, (3,), rank=True)


def test_adapter_zero_at_init(tiny_base):
    sched = plan_placement(tiny_base.config.n_layers, Fraction(1, 4), "skip")
    hybrid = build_genieblue(tiny_base, sched, rank=4, seed=5)
    for per_block in hybrid.adapters.values():
        for down, up in per_block.values():
            assert not up.data.any()
            assert down.data.any()  # seeded noise, not zero
            delta = up.data @ down.data
            assert not delta.any()


# ----------------------------------------------------------------------------
# cogvlm routing
# ----------------------------------------------------------------------------


def test_cogvlm_text_batch_never_reaches_experts(tiny_base, rng):
    sched = plan_placement(tiny_base.config.n_layers, Fraction(1, 4), "skip")
    expert = build_cogvlm(tiny_base, sched, rank=4)
    for per_block in expert.copies.values():
        for t in per_block.values():
            t.data[:] = np.nan  # poison: must be unreachable for text tokens
    batch = _text_batch(rng, tiny_base.config)
    out = expert.forward(batch).data
    assert np.isfinite(out).all()
    assert out.tobytes() == tiny_base.lm.forward(batch).data.tobytes()


def test_cogvlm_all_image_at_init_equals_base(tiny_base, rng):
    cfg = tiny_base.config
    sched = plan_placement(cfg.n_layers, Fraction(1, 4), "skip")
    expert = build_cogvlm(tiny_base, sched, rank=4)
    span = cfg.grid_cells
    ids = np.full((2, span), 0, dtype=np.int64)
    batch = TokenBatch(ids, span)
    grids = rng.integers(0, cfg.grid_alphabet, size=(2, cfg.grid_side, cfg.grid_side))
    assert (
        expert.forward(batch, grids).data.tobytes()
        == tiny_base.forward(batch, grids).data.tobytes()
    )


def test_cogvlm_mixed_routing_matches_dense_reference(tiny_base, rng):
    cfg = tiny_base.config
    sched = plan_placement(cfg.n_layers, Fraction(1, 4), "skip")
    expert = build_cogvlm(tiny_base, sched, rank=4, seed=2)
    # perturb the experts and adapters so routing actually matters
    for per_block in expert.copies.values():
        for t in per_block.values():
            t.data += rng.normal(scale=0.05, size=t.shape)
    for per_block in expert.adapters.values():
        for _, up in per_block.values():
            up.data += rng.normal(scale=0.05, size=up.shape)
    batch, grids = _mixed_batch(rng, cfg)
    injected = expert.projector.project(expert.vision.encode(grids))
    got = decode(cfg, expert.lm.params, expert.bindings(), batch, injected).data
    ref = ref_decode(
        {k: v.data for k, v in expert.lm.params.items()},
        layers_from_bindings(expert.bindings()),
        batch.ids,
        np.broadcast_to(np.arange(batch.ids.shape[1]) < batch.image_span, batch.ids.shape),
        injected.data,
        cfg.n_heads,
    )
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


def test_cogvlm_text_batch_never_reads_poisoned_experts_or_adapters(tiny_base, rng):
    sched = plan_placement(tiny_base.config.n_layers, Fraction(1, 4), "skip")
    expert = build_cogvlm(tiny_base, sched, rank=4, seed=1)
    for per_block in expert.adapters.values():
        for _, up in per_block.values():
            up.data += rng.normal(scale=0.05, size=up.shape)
    batch = _text_batch(rng, tiny_base.config)
    want = tiny_base.lm.forward(batch).data.tobytes()
    assert expert.forward(batch).data.tobytes() == want  # the perturbed adapters are routed away
    for per_block in expert.copies.values():
        for t in per_block.values():
            t.data[:] = np.nan
    for per_block in expert.adapters.values():
        for down, up in per_block.values():
            down.data[:] = np.nan
            up.data[:] = np.nan
    assert expert.forward(batch).data.tobytes() == want
    trainable = freeze_mask(expert, 2)
    for t in trainable.values():
        t.requires_grad = True
    try:
        with GradTape() as tape:
            logits = expert.forward(batch)
            loss = sum_all(logits)
        grads = backward(tape, loss)
    finally:
        for t in trainable.values():
            t.requires_grad = False
    assert logits.data.tobytes() == want
    routed = [t for n, t in trainable.items() if n.startswith(("expert.", "adapter."))]
    assert routed and not any(grads[t].any() for t in routed)  # zero, not NaN


def test_routed_binding_rejects_expert_and_adapter_on_one_matrix(tiny_base, rng):
    cfg = tiny_base.config
    weights = tiny_base.lm.block_weights(0)
    wq = weights["attn.wq"]
    nan_adapter = (Tensor(np.full((4, cfg.d_model), np.nan)), Tensor(np.full((cfg.d_model, 4), np.nan)))
    x = Tensor(rng.normal(size=(2, cfg.max_seq, cfg.d_model)))
    for routed in (False, True):
        binding = BlockBinding(weights, {"attn.wq": nan_adapter}, {"attn.wq": Tensor(wq.data.copy())}, routed)
        with pytest.raises(ValueError, match="exactly one"):
            block_forward(x, binding, cfg.n_heads, span=cfg.grid_cells)


# ----------------------------------------------------------------------------
# trainable-parameter accounting
# ----------------------------------------------------------------------------


def test_count_parity_across_placements():
    base = build_model(ModelConfig(), seed=0)
    totals = []
    for mode in ("post", "pre", "skip"):
        model = build_genieblue(base, plan_placement(8, Fraction(1, 4), mode), rank=8)
        totals.append(count_trainable(model)["total"])
    assert totals[0] == totals[1] == totals[2]


def test_count_zero_rank_empty_replication():
    base = build_model(ModelConfig(), seed=0)
    model = build_full_lora(base, rank=0)
    counts = count_trainable(model)
    assert counts["blocks"] == 0 and counts["adapters"] == 0
    assert counts["total"] == counts["vision"] + counts["projector"]


def test_count_matches_enumeration_oracle():
    base = build_model(ModelConfig(), seed=0)
    model = build_genieblue(base, plan_placement(8, Fraction(1, 4), "skip"), rank=8)
    counts = count_trainable(model)
    # walk every parameter the slow way and bucket by name prefix
    walked = {"blocks": 0, "adapters": 0, "vision": 0, "projector": 0}
    for name, p in model.named_parameters().items():
        n = int(np.prod(p.shape))
        if name.startswith("replicated."):
            walked["blocks"] += n
        elif name.startswith("adapter."):
            walked["adapters"] += n
        elif name.startswith("vision."):
            walked["vision"] += n
        elif name.startswith("projector."):
            walked["projector"] += n
    for key, val in walked.items():
        assert counts[key] == val
    assert counts["total"] == sum(walked.values())


def test_cogvlm_experts_exclude_norm_gains():
    base = build_model(ModelConfig(), seed=0)
    sched = plan_placement(8, Fraction(1, 4), "skip")
    gb = count_trainable(build_genieblue(base, sched, rank=8))["total"]
    cv = count_trainable(build_cogvlm(base, sched, rank=8))["total"]
    assert gb - cv == 2 * 2 * base.config.d_model  # two norm gains per replicated block


# ----------------------------------------------------------------------------
# LoRA merging
# ----------------------------------------------------------------------------


def test_merge_zero_up_factor_is_bit_exact():
    w = np.random.default_rng(0).normal(size=(6, 4))
    assert lora_weight(w, np.ones((2, 4)), np.zeros((6, 2))).tobytes() == w.tobytes()


def test_merge_one_by_one_case():
    assert lora_weight(np.array([[2.0]]), np.array([[4.0]]), np.array([[3.0]]))[0, 0] == 14.0


def test_merge_shape_mismatch_rejected():
    with pytest.raises(ShapeMismatch):
        lora_weight(np.zeros((6, 4)), np.zeros((2, 5)), np.zeros((6, 2)))


def test_merge_rejects_a_weight_that_is_not_a_matrix():
    with pytest.raises(ShapeMismatch, match="^lora_weight: weight"):
        lora_weight(np.zeros(4), np.zeros((2, 4)), np.zeros((4, 2)))


def test_merged_forward_equals_adapter_forward(rng):
    cfg = ModelConfig(
        vocab_size=32, d_model=16, n_layers=4, n_heads=2, max_seq=12,
        grid_side=3, grid_alphabet=4, d_vision=8, n_vision_heads=2,
    )
    base = build_model(cfg, seed=0)
    hybrid = build_genieblue(base, plan_placement(4, Fraction(1, 4), "skip"), rank=8, seed=1)
    for per_block in hybrid.adapters.values():
        for _, up in per_block.values():
            up.data += rng.normal(scale=0.1, size=up.shape)
    batch = _text_batch(rng, cfg, bsz=3, t=12)
    via_adapters = decode(cfg, hybrid.lm.params, hybrid.bindings(), batch).data
    via_merged = decode(cfg, hybrid.lm.params, merged_bindings(hybrid), batch).data
    err = np.abs(via_adapters - via_merged)
    denom = np.maximum(np.abs(via_adapters), 1e-30)
    assert (err / denom).max() < 1e-9


def test_merged_decode_is_byte_identical_to_adapted_decode(tiny_base, rng):
    cfg = tiny_base.config
    hybrid = build_genieblue(tiny_base, plan_placement(cfg.n_layers, Fraction(1, 4), "skip"), rank=4, seed=1)
    for per_block in hybrid.adapters.values():
        for _, up in per_block.values():
            up.data += rng.normal(scale=0.1, size=up.shape)
    batch, grids = _mixed_batch(rng, cfg)
    injected = hybrid.projector.project(hybrid.vision.encode(grids))
    text = _text_batch(rng, cfg)
    for b, inj in ((batch, injected), (text, None)):
        via_adapters = decode(cfg, hybrid.lm.params, hybrid.bindings(), b, inj).data
        via_merged = decode(cfg, hybrid.lm.params, merged_bindings(hybrid), b, inj).data
        assert via_adapters.tobytes() == via_merged.tobytes()
    # the perturbed adapters are live: this is not two base forwards agreeing
    assert not np.array_equal(via_adapters, tiny_base.lm.forward(text).data)


def test_merged_bindings_rejects_routed_model(tiny_base):
    sched = plan_placement(tiny_base.config.n_layers, Fraction(1, 4), "skip")
    with pytest.raises(ValueError, match="routed"):
        merged_bindings(build_cogvlm(tiny_base, sched, rank=4))


def test_merged_bindings_of_a_plain_base_are_its_own(tiny_base):
    merged, own = merged_bindings(tiny_base), tiny_base.bindings()
    assert [b.weights for b in merged] == [b.weights for b in own] and not any(b.adapters for b in merged)


# ----------------------------------------------------------------------------
# stage-2 tapes: what each layer binding records
# ----------------------------------------------------------------------------

# each block is two nodes: the attention half (norm, q, k, v, attention and
# the wo product adding the block input), then the FFN half, one product
# over w2 with the norm, w1 and its GELU inside, adding the mid-block stream
BLOCK_OPS = ["attention", "linear"]


def _stage2_block_tapes(model, rng):
    """The tape of one block_forward per layer binding, stage-2 leaves tracked."""
    cfg = model.config
    for t in freeze_mask(model, 2).values():
        t.requires_grad = True
    x = Tensor(rng.normal(size=(2, cfg.max_seq, cfg.d_model)), requires_grad=True)
    tapes = []
    for binding in model.bindings():
        with GradTape() as tape:
            block_forward(x, binding, cfg.n_heads, span=cfg.grid_cells)
        tapes.append(tape)
    return tapes


def test_adapted_block_tape_matches_replicated_block(tiny_base, rng):
    sched = plan_placement(tiny_base.config.n_layers, Fraction(1, 4), "skip")
    hybrid = build_genieblue(tiny_base, sched, rank=4, seed=1)
    tapes = _stage2_block_tapes(hybrid, rng)
    for i, tape in enumerate(tapes):
        assert [n.op for n in tape.nodes] == BLOCK_OPS, i
        # an adapted matrix has the operands (w, down, up), a replicated one
        # (w): the attention node is over x, the operands of wo, wv, wk and
        # wq, and norm1's gain; the FFN node over the mid-block stream, the
        # operands of w2 and w1, and norm2's gain, each half adding its x
        k = 1 if i in sched else 3
        assert [len(n.inputs) for n in tape.nodes] == [4 * k + 2, 2 * k + 2], i
        assert tape.nodes[1].inputs[0] is tape.nodes[0].out


def test_routed_block_tape_keeps_routed_kernels(tiny_base, rng):
    sched = plan_placement(tiny_base.config.n_layers, Fraction(1, 4), "skip")
    expert = build_cogvlm(tiny_base, sched, rank=4, seed=1)
    routed_ops = ["routed_linear" if op == "linear" else op for op in BLOCK_OPS]
    for i, tape in enumerate(_stage2_block_tapes(expert, rng)):
        assert [n.op for n in tape.nodes] == routed_ops, i
        # each matrix has the operands (w, expert) or (w, down, up), in the
        # attention node and in the FFN node between x and the norm's gain
        k = 2 if i in sched else 3
        assert [len(n.inputs) for n in tape.nodes] == [4 * k + 2, 2 * k + 2], i


# ----------------------------------------------------------------------------
# static graphs: a merged GenieBlue forward runs the base's graph
# ----------------------------------------------------------------------------


def _graph(model, run):
    """Op and input shapes of each node ``run()`` records, the LM and vision embedding tables tracked.

    With the two tables tracked, every node of encode, project and decode
    reaches the tape.
    """
    tables = (model.lm.params["embed.tokens"], model.vision.params["sym_embed"])
    for t in tables:
        t.requires_grad = True
    try:
        with GradTape() as tape:
            run()
    finally:
        for t in tables:
            t.requires_grad = False
    return [(n.op, [x.shape for x in n.inputs]) for n in tape.nodes]


def test_merged_genieblue_forward_has_the_base_graph_and_cogvlm_routes(tiny_config, rng):
    """The paper's NPU argument: merged GenieBlue has no per-token routing, CogVLM-style does."""
    cfg = tiny_config
    base = build_model(cfg, seed=0)  # not the shared fixture, whose tables this test tracks
    sched = plan_placement(cfg.n_layers, Fraction(1, 4), "skip")
    hybrid = build_genieblue(base, sched, rank=4, seed=1)
    for t in [up for block in hybrid.adapters.values() for _, up in block.values()] + [
        w for block in hybrid.copies.values() for w in block.values()
    ]:
        t.data += rng.normal(scale=0.1, size=t.shape)
    expert = build_cogvlm(base, sched, rank=4, seed=1)
    with pytest.raises(ValueError, match="routed"):
        merged_bindings(expert)
    merged = merged_bindings(hybrid)
    vision_ops = ["embed"] + BLOCK_OPS * cfg.n_vision_layers + ["rms_norm", "linear", "gelu", "linear"]
    lm_ops = ["embed"] + BLOCK_OPS * cfg.n_layers + ["rms_norm", "linear"]
    for batch, grids in (_mixed_batch(rng, cfg), (_text_batch(rng, cfg), None)):

        def merged_forward():
            injected = hybrid.projector.project(hybrid.vision.encode(grids)) if grids is not None else None
            return decode(cfg, hybrid.lm.params, merged, batch, injected)

        graph = _graph(base, lambda: base.forward(batch, grids))
        assert [op for op, _ in graph] == (vision_ops if grids is not None else []) + lm_ops
        assert _graph(hybrid, merged_forward) == graph
        assert _graph(hybrid, lambda: hybrid.forward(batch, grids)) != graph  # unmerged adapters add operands
        assert "routed_linear" not in {op for op, _ in graph}
        assert "routed_linear" in {op for op, _ in _graph(expert, lambda: expert.forward(batch, grids))}
        # the perturbed adapters and copies are live: the same graph computes other logits
        assert not np.array_equal(merged_forward().data, base.forward(batch, grids).data)


# ----------------------------------------------------------------------------
# freeze masks
# ----------------------------------------------------------------------------


def test_stage1_trains_projector_only(tiny_base):
    sched = plan_placement(tiny_base.config.n_layers, Fraction(1, 4), "skip")
    hybrid = build_genieblue(tiny_base, sched, rank=4)
    mask = freeze_mask(hybrid, 1)
    assert set(mask) == {n for n in hybrid.named_parameters() if n.startswith("projector.")}
    total = sum(p.size for p in mask.values())
    assert total == count_trainable(hybrid)["projector"]


def test_stage2_excludes_base_everywhere(tiny_base):
    sched = plan_placement(tiny_base.config.n_layers, Fraction(1, 4), "skip")
    hybrid = build_genieblue(tiny_base, sched, rank=4)
    mask = freeze_mask(hybrid, 2)
    assert not any(n.startswith("lm.") for n in mask)
    assert any(n.startswith("replicated.") for n in mask)
    assert any(n.startswith("adapter.") for n in mask)
    assert any(n.startswith("vision.") for n in mask)
    assert any(n.startswith("projector.") for n in mask)


@pytest.mark.parametrize(
    "build",
    [
        lambda base, sched: build_genieblue(base, sched, rank=4),
        lambda base, sched: build_cogvlm(base, sched, rank=4),
        lambda base, sched: build_full_lora(base, rank=4),
        lambda base, sched: base,
    ],
    ids=["genieblue", "cogvlm", "full-lora", "full-finetune"],
)
def test_stage2_trainable_count_matches_count_trainable(tiny_base, build):
    sched = plan_placement(tiny_base.config.n_layers, Fraction(1, 4), "skip")
    model = build(tiny_base, sched)
    mask = freeze_mask(model, 2)
    assert sum(p.size for p in mask.values()) == count_trainable(model)["total"]


def test_unknown_stage_rejected(tiny_base):
    for stage in (3, True, 2.0):  # True and 2.0 are not stages, though True in (1, 2)
        with pytest.raises(ValueError, match="stage"):
            freeze_mask(tiny_base, stage)


def test_full_finetune_stage2_trains_everything(tiny_base):
    mask = freeze_mask(tiny_base, 2)
    assert set(mask) == set(tiny_base.named_parameters())
