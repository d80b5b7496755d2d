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
    TaskSpec,
    answer_start,
    collate,
    read_cache,
    rle_caption,
    synth_dataset,
    write_cache,
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


def test_cache_round_trip_and_byte_identity(tmp_path):
    for kind in ("text-copy", "grid-caption", "grid-count"):
        spec = TaskSpec(kind, n_samples=7, seq_len=5, seed=9)
        ds = synth_dataset(spec)
        p1, p2 = tmp_path / f"{kind}-1.bin", tmp_path / f"{kind}-2.bin"
        write_cache(ds, p1)
        write_cache(synth_dataset(spec), p2)
        assert p1.read_bytes() == p2.read_bytes()  # regeneration is byte-identical
        back = read_cache(p1)
        assert back.spec == spec
        for sa, sb in zip(ds.samples, back.samples):
            np.testing.assert_array_equal(sa.tokens, sb.tokens)
            np.testing.assert_array_equal(sa.image_mask, sb.image_mask)
            if sa.grid is None:
                assert sb.grid is None
            else:
                np.testing.assert_array_equal(sa.grid, sb.grid)


def test_cache_rejects_foreign_files(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"not a dataset")
    with pytest.raises(ValueError):
        read_cache(p)


# layout: magic 0..3, version 4..5, kind 6, n_samples 7..10, seq_len 11..14,
# seed 15..22, grid side 23, then records from byte 24
@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda b: b[:6], id="cut-in-header"),
        pytest.param(lambda b: b[:23], id="cut-before-grid-side"),
        pytest.param(lambda b: b[:25], id="cut-in-length"),
        pytest.param(lambda b: b[:60], id="cut-in-tokens"),
        pytest.param(lambda b: b[:-1], id="cut-in-last-grid"),
        pytest.param(lambda b: b[:6] + bytes([99]) + b[7:], id="bad-kind-code"),
        pytest.param(lambda b: b[:23] + bytes([5]) + b[24:], id="grid-side-mismatch"),
        pytest.param(lambda b: b + b"\x00", id="trailing-byte"),
    ],
)
def test_read_cache_rejects_corrupt_files(tmp_path, corrupt):
    good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
    write_cache(synth_dataset(TaskSpec("grid-count", n_samples=3, seed=2)), good)
    blob = good.read_bytes()
    read_cache(good)  # the uncorrupted file parses
    bad.write_bytes(corrupt(blob))
    with pytest.raises(ValueError):
        read_cache(bad)


def test_write_cache_rejects_values_that_do_not_fit(tmp_path):
    wide_grid = synth_dataset(TaskSpec("grid-count", n_samples=8, seed=1), grid_alphabet=300)
    assert max(s.grid.max() for s in wide_grid.samples) >= 256  # a uint8 field would wrap it
    path = tmp_path / "wide-grid.bin"
    with pytest.raises(ValueError, match="grid symbol"):
        write_cache(wide_grid, path)
    assert not path.exists()

    text = synth_dataset(TaskSpec("text-copy", n_samples=2, seed=1))
    text.samples[1].tokens[1] = 65536  # one past the <u2 field
    path = tmp_path / "wide-token.bin"
    with pytest.raises(ValueError, match="token id"):
        write_cache(text, path)
    assert not path.exists()
