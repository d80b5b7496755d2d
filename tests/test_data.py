import numpy as np
import pytest

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
    rle_caption,
    synth_dataset,
)


def test_same_spec_gives_identical_datasets():
    spec = TaskSpec("grid-caption", n_samples=10, seed=3)
    a = synth_dataset(spec)
    b = synth_dataset(spec)
    for sa, sb in zip(a.samples, b.samples):
        assert sa.tokens.tobytes() == sb.tokens.tobytes()
        assert sa.grid.tobytes() == sb.grid.tobytes()


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
