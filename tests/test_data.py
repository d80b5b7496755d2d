import hashlib

import numpy as np
import pytest
from oracles import rle_caption

from genieblue.data import (
    BOS,
    COUNT_BASE,
    EOS,
    GRID_TOKEN_BASE,
    IMG,
    PAYLOAD_BASE,
    SEP,
    Sample,
    TaskSpec,
    answer_start,
    collate,
    synth_dataset,
)


def test_same_spec_gives_identical_datasets():
    spec = TaskSpec("grid-caption", n_samples=10, seed=3)
    a = synth_dataset(spec)
    b = synth_dataset(spec)
    for sa, sb in zip(a.samples, b.samples):
        assert sa.tokens.tobytes() == sb.tokens.tobytes()
        assert sa.grid.tobytes() == sb.grid.tobytes()


def _dataset_digest(ds) -> str:
    """sha256 over every sample's tokens, image mask and grid, with their dtypes and shapes."""
    h = hashlib.sha256()
    for s in ds.samples:
        for a in (s.tokens, s.image_mask) + (() if s.grid is None else (s.grid,)):
            h.update(str((a.dtype.str, a.shape)).encode())
            h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "kind, seed, sizes, digest",
    [
        ("text-copy", 0, {}, "24f09c189aa638d34b36f5453f2349062fe3ec61577beafc6ab17944f7fc5160"),
        ("text-copy", 7, {}, "f72b93558ed80d2da88ee791dbcb3334569d697bdd1cadba1a85f9e286a9c580"),
        ("text-reverse", 0, {}, "1dc0634c05ce5db2e3b6aec769c0d3025c9ddb02d75d9e8ce0cb01766b175ad7"),
        ("text-reverse", 7, {}, "9fee8447cadd96c14a659a8a0b5ec751fb4f685fec2bfdd457babdb78deb32bb"),
        ("text-arith", 0, {}, "872d1da4358512a6bf7544867301ea1b677d985e07e34dc9cf2540dc51bb3704"),
        ("text-arith", 7, {}, "8eb389eafb0fb8a6e7a4543540b6f7b3d1ee3c64aa9abf6caa589dee3893ae9a"),
        ("grid-caption", 0, {}, "e711808d1f8d0e0353e15da4696c15bba9a0b401e28e37d1dae61a88c8962982"),
        ("grid-caption", 7, {}, "5bb21dc8b6d29c5558f34e9234fa0ce0e6802663f254b049c66cfa0ac881ccde"),
        (
            "grid-caption", 3, {"max_seq": 48, "grid_side": 3, "grid_alphabet": 4},
            "57be78dd73e841b955d9d3e1103836bfd807f76b4598f294872cad0762ea435e",
        ),
        (
            "grid-caption", 5, {"grid_side": 4, "grid_alphabet": 2},
            "c6dbc310c43940df57c121c7f44b714be9727cba10f1a9a56ef826b063cea168",
        ),
        ("grid-count", 0, {}, "ab3a7fb22aa1b86acf3ae7afd23f49d43b1d4f5f01646b1be5d3a52f4be54d1a"),
        ("grid-count", 7, {}, "9ee1d0a1ca2cd606daca3d9b33ce87203f4e0e13b07cd3d6e37a6f6e7d9c0439"),
    ],
)
def test_synth_dataset_bytes_are_pinned(kind, seed, sizes, digest):
    """Every kind keeps the exact samples it generated when these digests were taken."""
    assert _dataset_digest(synth_dataset(TaskSpec(kind, n_samples=50, seq_len=12, seed=seed), **sizes)) == digest


def test_reverse_task_reverses_payload():
    ds = synth_dataset(TaskSpec("text-reverse", n_samples=5, seq_len=4, seed=0))
    for s in ds.samples:
        start = answer_start(s.tokens)
        payload = s.tokens[1 : start - 1]
        answer = s.tokens[start:-1]
        np.testing.assert_array_equal(answer, payload[::-1])
        assert s.tokens[0] == BOS and s.tokens[-1] == EOS


def test_copy_task_copies_payload():
    ds = synth_dataset(TaskSpec("text-copy", n_samples=5, seq_len=6, seed=1))
    for s in ds.samples:
        start = answer_start(s.tokens)
        np.testing.assert_array_equal(s.tokens[start:-1], s.tokens[1 : start - 1])


def test_arith_task_is_modular_addition():
    ds = synth_dataset(TaskSpec("text-arith", n_samples=20, seed=2))
    for s in ds.samples:
        a, b = s.tokens[1] - PAYLOAD_BASE, s.tokens[2] - PAYLOAD_BASE
        ans = s.tokens[answer_start(s.tokens)] - PAYLOAD_BASE
        assert ans == (a + b) % 64


def test_uniform_grid_has_single_run_caption():
    grid = np.full((6, 6), 7)
    assert rle_caption(grid) == [GRID_TOKEN_BASE + 7, COUNT_BASE + 36]


def test_caption_is_rle_of_generated_grid():
    ds = synth_dataset(TaskSpec("grid-caption", n_samples=20, seed=4))
    for s in ds.samples:
        start = answer_start(s.tokens)
        np.testing.assert_array_equal(s.tokens[start:-1], rle_caption(s.grid))
        assert s.image_mask[:36].all() and not s.image_mask[36:].any()
        assert s.tokens[36] == SEP
        assert (s.tokens[:36] == IMG).all()


def test_count_task_counts_query_symbol():
    ds = synth_dataset(TaskSpec("grid-count", n_samples=20, seed=5))
    for s in ds.samples:
        query = s.tokens[37] - GRID_TOKEN_BASE
        count = s.tokens[answer_start(s.tokens)] - COUNT_BASE
        assert count == (s.grid == query).sum()


def test_rejects_overlong_sequences():
    with pytest.raises(ValueError, match="max_seq"):
        synth_dataset(TaskSpec("text-copy", n_samples=1, seq_len=31), max_seq=64)
    with pytest.raises(ValueError):
        synth_dataset(TaskSpec("grid-count", n_samples=1), max_seq=40)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        TaskSpec("text-sort", n_samples=1)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"n_samples": 2.5}, "n_samples"),
        ({"n_samples": 2.0}, "n_samples"),
        ({"n_samples": 2, "seq_len": 2.5}, "seq_len"),
        ({"n_samples": 2, "seq_len": "4"}, "seq_len"),
        ({"n_samples": 2, "seed": 0.5}, "seed"),
    ],
)
def test_task_spec_rejects_non_integer_counts(kwargs, field):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        TaskSpec("text-copy", **kwargs)


@pytest.mark.parametrize("field", ["n_samples", "seq_len", "seed"])
def test_task_spec_rejects_bool_counts(field):
    kwargs = {"n_samples": 2, field: True}
    with pytest.raises(ValueError, match=f"{field} must be an integer, got True"):
        TaskSpec("text-copy", **kwargs)
    if field == "n_samples":  # positionally too
        with pytest.raises(ValueError, match="n_samples must be an integer, got True"):
            TaskSpec("text-copy", True)


def test_task_spec_keeps_numpy_integer_counts():
    ds = synth_dataset(TaskSpec("text-copy", np.int64(2), seq_len=np.int32(3), seed=np.uint32(1)))
    assert len(ds) == 2


def test_collate_targets_and_predict_mask():
    ds = synth_dataset(TaskSpec("text-arith", n_samples=3, seed=0))
    batch, targets, predict, grids = collate(ds.samples, pad_to=10)
    assert grids is None
    assert batch.ids.shape == (3, 10)
    for b, s in enumerate(ds.samples):
        ln = len(s.tokens)
        start = answer_start(s.tokens)
        np.testing.assert_array_equal(targets[b, : ln - 1], s.tokens[1:])
        expect = np.zeros(10, dtype=bool)
        expect[start - 1 : ln - 1] = True
        np.testing.assert_array_equal(predict[b], expect)
    # every predicted target is an answer token or the end marker
    assert (targets[predict] != 0).all()


def test_collate_rejects_empty_sample_list():
    with pytest.raises(ValueError, match="empty list of samples"):
        collate([])


def test_collate_stacks_grids():
    ds = synth_dataset(TaskSpec("grid-count", n_samples=4, seed=1))
    batch, _, _, grids = collate(ds.samples)
    assert grids.shape == (4, 6, 6)
    assert batch.image_span == 36


def test_collate_rejects_malformed_sample():
    good = synth_dataset(TaskSpec("text-copy", n_samples=1, seq_len=3, seed=0))[0]
    short_mask = Sample(good.tokens, good.image_mask[:-1])
    two_d = Sample(good.tokens[None], good.image_mask[None])
    for bad in (short_mask, two_d):
        with pytest.raises(ValueError, match="sample 1"):
            collate([good, bad])


def test_collate_rejects_non_prefix_image_mask():
    good = synth_dataset(TaskSpec("grid-count", n_samples=1, seed=0))[0]
    mask = good.image_mask.copy()
    mask[0] = False  # the image positions now start at 1
    with pytest.raises(ValueError, match="sample 1: image positions are not a contiguous prefix"):
        collate([good, Sample(good.tokens, mask, good.grid)])


def test_collate_rejects_mixed_image_spans():
    text = synth_dataset(TaskSpec("text-copy", n_samples=1, seq_len=3, seed=0))[0]
    grid = synth_dataset(TaskSpec("grid-caption", n_samples=1, seed=0))[0]
    for samples in ([text, grid], [grid, text]):
        with pytest.raises(ValueError, match=r"image spans \[0, 36\]; a batch needs one span"):
            collate(samples)


def _float_tokens(text, grid):
    return [text, Sample(np.array([1.7, 16.2, 2.0, 16.9, 3.0]), np.zeros(5, bool))]


def _grid_missing(text, grid):
    return [grid, Sample(grid.tokens, grid.image_mask)]


def _grid_reshaped(text, grid):
    return [grid, Sample(grid.tokens, grid.image_mask, grid.grid.reshape(4, -1))]


@pytest.mark.parametrize(
    "make, message",
    [
        (_float_tokens, "sample 1: tokens must be integers, got dtype float64"),
        (_grid_missing, r"sample 1: grid None vs sample 0's \(6, 6\)"),
        (_grid_reshaped, r"sample 1: grid \(4, 9\) vs sample 0's \(6, 6\)"),
    ],
    ids=["float-tokens", "grid-missing", "grid-shape"],
)
def test_collate_rejects_what_a_batch_cannot_hold(make, message):
    text = synth_dataset(TaskSpec("text-copy", n_samples=1, seq_len=3, seed=0))[0]
    grid = synth_dataset(TaskSpec("grid-caption", n_samples=1, seed=0))[0]
    with pytest.raises(ValueError, match=message):
        collate(make(text, grid))


@pytest.mark.parametrize("pad_to", [-3, 0, 20.5, "20"], ids=["negative", "zero", "fractional", "str"])
def test_collate_rejects_bad_pad_width(pad_to):
    ds = synth_dataset(TaskSpec("text-arith", n_samples=2, seed=0))
    with pytest.raises(ValueError, match="pad_to must be a positive integer"):
        collate(ds.samples, pad_to=pad_to)


@pytest.mark.parametrize("flag", [True, False], ids=["true", "false"])
def test_collate_rejects_bool_pad_width(flag):
    ds = synth_dataset(TaskSpec("text-arith", n_samples=2, seed=0))
    with pytest.raises(ValueError, match=f"pad_to must be a positive integer, got {flag}"):
        collate(ds.samples, pad_to=flag)


@pytest.mark.parametrize("size", ["max_seq", "grid_side", "grid_alphabet"])
def test_synth_dataset_rejects_bool_sizes(size):
    with pytest.raises(ValueError, match=f"{size} must be a positive integer, got True"):
        synth_dataset(TaskSpec("grid-caption", 2), **{size: True})


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"grid_alphabet": 1}, "grid_alphabet of at least 2"),
        ({"grid_alphabet": 0}, "grid_alphabet must be a positive integer"),
        ({"grid_alphabet": 4.0}, "grid_alphabet must be a positive integer"),
        ({"grid_alphabet": 17}, "grid_alphabet must be at most 16"),
        ({"grid_side": 2.5}, "grid_side must be a positive integer"),
        ({"grid_side": 10, "max_seq": 256}, "past the 256-id token space"),
        ({"max_seq": -1}, "max_seq must be a positive integer"),
    ],
    ids=[
        "one-symbol",
        "no-symbol",
        "float-alphabet",
        "alphabet-past-grid-tokens",
        "fractional-side",
        "side-past-count-tokens",
        "negative-seq",
    ],
)
def test_synth_dataset_rejects_bad_sizes(kwargs, message):
    with pytest.raises(ValueError, match=message):
        synth_dataset(TaskSpec("grid-caption", 2), **kwargs)


@pytest.mark.parametrize("tokens", [[[1, SEP, 3], [1, SEP, 3]], SEP], ids=["2d", "0d"])
def test_answer_start_refuses_tokens_that_are_not_one_sequence(tokens):
    with pytest.raises(ValueError, match="tokens must be one 1-D sequence"):
        answer_start(np.array(tokens))


def test_answer_start_and_collate_take_tokens_as_a_list():
    tokens = [BOS, 20, SEP, 21, EOS]
    assert answer_start(tokens) == 3
    batch, targets, predict, _ = collate([Sample(tokens, [False] * 5)])
    want_batch, want_targets, want_predict, _ = collate([Sample(np.array(tokens), np.zeros(5, bool))])
    assert batch.ids.tobytes() == want_batch.ids.tobytes() and batch.image_span == want_batch.image_span == 0
    assert targets.tobytes() == want_targets.tobytes() and predict.tobytes() == want_predict.tobytes()
