import numpy as np
import pytest

from genieblue.autograd import Tensor
from genieblue.model import ModelConfig, TokenBatch, build_model, decode

from oracles import count_params_by_walk, expected_parameter_count, layers_from_bindings, ref_decode


def _text_batch(rng, config, bsz=3, t=None):
    t = t or config.max_seq
    ids = rng.integers(0, config.vocab_size, size=(bsz, t))
    return TokenBatch(ids)


def _prefix_mask(batch):
    """The (B, T) image mask the dense oracle reads, built from the batch's span."""
    return np.broadcast_to(np.arange(batch.ids.shape[1]) < batch.image_span, batch.ids.shape)


def _mixed_batch(rng, config, bsz=2, span=None, t=None):
    t = t or config.max_seq
    span = span if span is not None else config.grid_cells
    ids = rng.integers(0, config.vocab_size, size=(bsz, t))
    grids = rng.integers(0, config.grid_alphabet, size=(bsz, config.grid_side, config.grid_side))
    return TokenBatch(ids, span), grids


def test_build_is_deterministic(tiny_config):
    a = build_model(tiny_config, seed=7)
    b = build_model(tiny_config, seed=7)
    pa, pb = a.named_parameters(), b.named_parameters()
    assert pa.keys() == pb.keys()
    for k in pa:
        assert pa[k].data.tobytes() == pb[k].data.tobytes(), k


def test_different_seeds_differ(tiny_config):
    a = build_model(tiny_config, seed=0)
    b = build_model(tiny_config, seed=1)
    assert any(
        not np.array_equal(a.named_parameters()[k].data, b.named_parameters()[k].data)
        for k in a.named_parameters()
    )


@pytest.mark.parametrize(
    "config",
    [
        ModelConfig(),
        ModelConfig(vocab_size=300, d_model=48, n_layers=5, n_heads=6, max_seq=40),
        ModelConfig(d_model=32, n_layers=6, n_heads=4, grid_side=4, d_vision=16),
        ModelConfig(vocab_size=200, d_model=24, n_layers=4, n_heads=3, d_ffn=50),
    ],
)
def test_parameter_count_formula_matches_enumeration(config):
    model = build_model(config, seed=0)
    assert count_params_by_walk(model.named_parameters()) == expected_parameter_count(config)


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        ModelConfig(d_model=10, n_heads=3)
    with pytest.raises(ValueError, match="layers"):
        ModelConfig(n_layers=2)
    with pytest.raises(ValueError, match="positive"):
        ModelConfig(vocab_size=0)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"n_layers": 8.0}, "n_layers"),
        ({"d_model": 64.0}, "d_model"),
        ({"vocab_size": "256"}, "vocab_size"),
        ({"d_ffn": 128.5}, "d_ffn"),
        ({"n_vision_layers": None}, "n_vision_layers"),
    ],
    ids=["float-layers", "float-width", "str-vocab", "fractional-ffn", "none-vision-layers"],
)
def test_config_rejects_non_integer_extents(kwargs, field):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        ModelConfig(**kwargs)


@pytest.mark.parametrize("field", ["n_heads", "d_model", "n_vision_layers"])
@pytest.mark.parametrize("flag", [True, False, np.bool_(True)], ids=["true", "false", "numpy-true"])
def test_config_rejects_bool_extents(field, flag):
    with pytest.raises(ValueError, match=f"{field} must be an integer, got"):
        ModelConfig(**{field: flag})


@pytest.mark.parametrize(
    "span",
    [1.5, np.float64(2.0), "2", None, np.array([True, True, False, False]), -1, 5],
    ids=["fractional", "whole-float", "str", "none", "mask", "negative", "past-end"],
)
def test_token_batch_rejects_bad_span(span):
    with pytest.raises(ValueError, match=r"image_span must be an integer in \[0, 4\]"):
        TokenBatch(np.zeros((2, 4), dtype=np.int64), span)


@pytest.mark.parametrize("flag", [True, False], ids=["true", "false"])
def test_token_batch_rejects_bool_span(flag):
    with pytest.raises(ValueError, match=rf"image_span must be an integer in \[0, 4\], got {flag}"):
        TokenBatch(np.zeros((2, 4), dtype=np.int64), image_span=flag)


def test_token_batch_keeps_numpy_integer_span_as_int():
    batch = TokenBatch(np.zeros((2, 4), dtype=np.int64), np.int32(4))
    assert type(batch.image_span) is int and batch.image_span == 4
    assert TokenBatch(np.zeros((2, 4), dtype=np.int64)).image_span == 0


@pytest.mark.parametrize(
    "ids, dtype",
    [([[1.7, 2.2]], "float64"), ([[1.0, 2.0]], "float64"), ([[True, False]], "bool"), ([["1", "2"]], "<U1")],
    ids=["fractional", "whole-float", "bool", "str"],
)
def test_token_batch_rejects_non_integer_ids(ids, dtype):
    with pytest.raises(ValueError, match=dtype):
        TokenBatch(ids)


@pytest.mark.parametrize(
    "ids",
    [[[3, -1]], np.array([[3, -1]], dtype=np.int8), np.array([[3, 2**63]], dtype=np.uint64)],
    ids=["negative", "negative-int8", "uint64-above-int64"],
)
def test_token_batch_rejects_ids_outside_int64_range(ids):
    # these used to reach autograd.embed as negative int64 and fail there with IndexError
    with pytest.raises(ValueError, match="token ids must lie in"):
        TokenBatch(ids)


def test_token_batch_keeps_largest_uint64_id_that_fits():
    batch = TokenBatch(np.array([[0, 2**63 - 1]], dtype=np.uint64))
    assert batch.ids.dtype == np.int64 and batch.ids.tolist() == [[0, 2**63 - 1]]


def test_token_batch_keeps_integer_ids_of_any_width():
    batch = TokenBatch(np.array([[1, 2]], dtype=np.int16))
    assert batch.ids.dtype == np.int64 and batch.ids.tolist() == [[1, 2]]


def test_causality_suffix_perturbation(tiny_base, rng):
    cfg = tiny_base.config
    batch = _text_batch(rng, cfg, bsz=2)
    cut = cfg.max_seq // 2
    logits_a = tiny_base.lm.forward(batch).data
    ids2 = batch.ids.copy()
    ids2[:, cut + 1 :] = rng.integers(0, cfg.vocab_size, size=ids2[:, cut + 1 :].shape)
    batch2 = TokenBatch(ids2, batch.image_span)
    logits_b = tiny_base.lm.forward(batch2).data
    assert logits_a[:, : cut + 1].tobytes() == logits_b[:, : cut + 1].tobytes()
    assert not np.array_equal(logits_a[:, cut + 1 :], logits_b[:, cut + 1 :])


def test_all_text_batch_ignores_empty_injection(tiny_base, rng):
    batch = _text_batch(rng, tiny_base.config, bsz=2, t=8)
    plain = tiny_base.lm.forward(batch).data
    empty = Tensor(np.zeros((2, 0, tiny_base.config.d_model)))
    with_empty = decode(tiny_base.config, tiny_base.lm.params, tiny_base.bindings(), batch, empty).data
    assert plain.tobytes() == with_empty.tobytes()


def test_image_positions_require_injection(tiny_base, rng):
    batch, _ = _mixed_batch(rng, tiny_base.config)
    with pytest.raises(ValueError, match="injected"):
        tiny_base.lm.forward(batch)


def test_rejects_overlong_sequence(tiny_base, rng):
    cfg = tiny_base.config
    ids = rng.integers(0, cfg.vocab_size, size=(1, cfg.max_seq + 1))
    batch = TokenBatch(ids)
    with pytest.raises(ValueError, match="exceeds"):
        tiny_base.lm.forward(batch)


def test_rejects_empty_sequence(tiny_base):
    batch = TokenBatch(np.zeros((1, 0), np.int64))
    with pytest.raises(ValueError, match="empty sequence"):
        tiny_base.lm.forward(batch)


def test_rejects_out_of_vocab_ids(tiny_base):
    ids = np.full((1, 4), tiny_base.config.vocab_size, dtype=np.int64)
    batch = TokenBatch(ids)
    with pytest.raises(ValueError, match="vocab"):
        tiny_base.lm.forward(batch)


def test_single_block_matches_hand_computation():
    # width-4 block with hand-set weights, 3-token input, vs the dense oracle
    from genieblue.model import BlockBinding, block_forward
    from oracles import ref_block

    weights = {
        "attn.wq": Tensor(np.arange(16, dtype=float).reshape(4, 4) / 10),
        "attn.wk": Tensor(np.eye(4) * 0.5),
        "attn.wv": Tensor(np.full((4, 4), 0.25)),
        "attn.wo": Tensor(np.diag([1.0, -1.0, 0.5, 2.0])),
        "ffn.w1": Tensor(np.arange(64, dtype=float).reshape(16, 4) / 100),
        "ffn.w2": Tensor(np.arange(64, dtype=float).reshape(4, 16) / 100),
        "norm1.g": Tensor(np.array([1.0, 2.0, 1.0, 0.5])),
        "norm2.g": Tensor(np.ones(4)),
    }
    x = np.array([[[0.1, -0.2, 0.3, 0.4], [1.0, 0.0, -1.0, 0.5], [0.2, 0.2, 0.2, 0.2]]])
    got = block_forward(Tensor(x), BlockBinding(weights), n_heads=2).data
    layer = {"weights": {k: v.data for k, v in weights.items()}}
    ref = ref_block(x[0], layer, n_heads=2, img_row=np.zeros(3, dtype=bool))
    np.testing.assert_allclose(got[0], ref, rtol=1e-13, atol=1e-14)


def test_forward_matches_dense_reference_small_model(rng):
    cfg = ModelConfig(
        vocab_size=6, d_model=4, n_layers=4, n_heads=2, max_seq=3,
        grid_side=2, grid_alphabet=2, d_vision=4, n_vision_heads=2,
    )
    model = build_model(cfg, seed=3)
    batch = TokenBatch(np.array([[0, 3, 5]]))
    got = model.lm.forward(batch).data
    lm_arrays = {k: v.data for k, v in model.lm.params.items()}
    ref = ref_decode(
        lm_arrays,
        layers_from_bindings(model.lm.base_bindings()),
        batch.ids,
        _prefix_mask(batch),
        None,
        cfg.n_heads,
    )
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


def test_mixed_forward_matches_dense_reference(tiny_base, rng):
    batch, grids = _mixed_batch(rng, tiny_base.config)
    injected = tiny_base.projector.project(tiny_base.vision.encode(grids))
    got = tiny_base.forward(batch, grids).data
    lm_arrays = {k: v.data for k, v in tiny_base.lm.params.items()}
    ref = ref_decode(
        lm_arrays,
        layers_from_bindings(tiny_base.lm.base_bindings()),
        batch.ids,
        _prefix_mask(batch),
        injected.data,
        tiny_base.config.n_heads,
    )
    np.testing.assert_allclose(got, ref, rtol=1e-11, atol=1e-12)


def test_text_forward_never_touches_vision_or_projector(tiny_base, rng):
    poisoned = build_model(tiny_base.config, seed=0)
    for p in poisoned.vision.params.values():
        p.data[:] = np.nan
    for p in poisoned.projector.params.values():
        p.data[:] = np.nan
    batch = _text_batch(rng, poisoned.config, bsz=2, t=10)
    logits = poisoned.forward(batch).data
    assert np.isfinite(logits).all()


def test_encode_then_project_deterministic(tiny_base, rng):
    grids = rng.integers(0, tiny_base.config.grid_alphabet, size=(2, 3, 3))
    a = tiny_base.projector.project(tiny_base.vision.encode(grids)).data
    b = tiny_base.projector.project(tiny_base.vision.encode(grids.copy())).data
    assert a.tobytes() == b.tobytes()


def test_encode_output_length_is_cell_count():
    cfg = ModelConfig()
    model = build_model(cfg, seed=0)
    grids = np.zeros((1, 6, 6), dtype=np.int64)
    out = model.projector.project(model.vision.encode(grids))
    assert out.shape == (1, 36, cfg.d_model)


def test_zero_projector_second_layer_gives_bias(tiny_base, rng):
    model = build_model(tiny_base.config, seed=0)
    model.projector.params["p2.w"].data[:] = 0.0
    model.projector.params["p2.b"].data[:] = rng.normal(size=tiny_base.config.d_model)
    grids = rng.integers(0, model.config.grid_alphabet, size=(1, 3, 3))
    out = model.projector.project(model.vision.encode(grids)).data
    expected = np.broadcast_to(model.projector.params["p2.b"].data, out.shape)
    np.testing.assert_array_equal(out, expected)


def test_encode_rejects_out_of_alphabet(tiny_base):
    grids = np.full((1, 3, 3), tiny_base.config.grid_alphabet)
    with pytest.raises(ValueError, match="alphabet"):
        tiny_base.vision.encode(grids)


@pytest.mark.parametrize(
    "grids, message",
    [
        (np.zeros((1, 3, 3)), "must be integers"),
        (np.zeros((0, 3, 3), dtype=np.int64), "no grids"),
    ],
    ids=["float-symbols", "empty-batch"],
)
def test_encode_rejects_malformed_grids(tiny_base, grids, message):
    with pytest.raises(ValueError, match=message):
        tiny_base.vision.encode(grids)
