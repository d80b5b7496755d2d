"""Synthetic self-checking tasks over a fixed 256-id token space.

Text tasks (copy, reverse, modular addition) encode their own answer in the
prompt. Grid tasks pair a symbol grid with its unique description: the
caption task emits the run-length encoding of the row-major cell sequence,
the count task asks how often a queried symbol occurs. Every generator is a
pure function of its TaskSpec, and the cache file format reproduces
byte-identically for a fixed spec.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .model import TokenBatch

__all__ = [
    "PAD",
    "BOS",
    "SEP",
    "EOS",
    "QRY",
    "IMG",
    "TaskSpec",
    "Sample",
    "Dataset",
    "synth_dataset",
    "collate",
    "answer_start",
    "write_cache",
    "read_cache",
]

PAD, BOS, SEP, EOS, QRY, IMG = 0, 1, 2, 3, 4, 5

PAYLOAD_BASE = 16
PAYLOAD_SIZE = 128  # ids 16..143
ARITH_MOD = 64  # operands and sums live in the low payload range
GRID_TOKEN_BASE = 144  # one token per grid symbol, 144..159
COUNT_BASE = 160  # counts 0..36 -> 160..196

TEXT_KINDS = ("text-copy", "text-reverse", "text-arith")
GRID_KINDS = ("grid-caption", "grid-count")
KINDS = TEXT_KINDS + GRID_KINDS

_KIND_CODES = {k: i + 1 for i, k in enumerate(KINDS)}
_CODE_KINDS = {v: k for k, v in _KIND_CODES.items()}

_CACHE_MAGIC = b"GBDS"
_CACHE_VERSION = 1
_CACHE_HEADER = struct.Struct("<HBIIQB")  # version, kind, n_samples, seq_len, seed, grid side


@dataclass(frozen=True)
class TaskSpec:
    """What to generate: task kind, sample count, payload length, seed."""

    kind: str
    n_samples: int
    seq_len: int = 12  # payload tokens for text tasks; grid tasks derive their own
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown task kind {self.kind!r}")
        if self.n_samples < 1:
            raise ValueError("need at least one sample")
        if self.seq_len < 1:
            raise ValueError("seq_len must be positive")


@dataclass
class Sample:
    tokens: np.ndarray  # full sequence including specials and the answer
    image_mask: np.ndarray  # True at image positions (contiguous prefix)
    grid: np.ndarray | None = None  # (side, side) symbol ids for grid tasks


class Dataset:
    def __init__(self, samples: list[Sample], spec: TaskSpec, grid_side: int = 0):
        self.samples = samples
        self.spec = spec
        self.grid_side = grid_side

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, i: int) -> Sample:
        return self.samples[i]

    @property
    def max_len(self) -> int:
        return max(len(s.tokens) for s in self.samples)


def answer_start(tokens: np.ndarray) -> int:
    """First answer position: right after the last separator token."""
    sep = np.flatnonzero(tokens == SEP)
    if sep.size == 0:
        raise ValueError("sequence has no separator")
    return int(sep[-1]) + 1


def _text_sample(kind: str, rng: np.random.Generator, payload_len: int) -> Sample:
    if kind == "text-arith":
        a, b = rng.integers(0, ARITH_MOD, size=2)
        body = [PAYLOAD_BASE + int(a), PAYLOAD_BASE + int(b)]
        answer = [PAYLOAD_BASE + int((a + b) % ARITH_MOD)]
    else:
        payload = rng.integers(PAYLOAD_BASE, PAYLOAD_BASE + PAYLOAD_SIZE, size=payload_len)
        body = [int(t) for t in payload]
        answer = body[::-1] if kind == "text-reverse" else list(body)
    tokens = np.array([BOS] + body + [SEP] + answer + [EOS], dtype=np.int64)
    return Sample(tokens=tokens, image_mask=np.zeros(len(tokens), dtype=bool))


def _caption_runs(rng: np.random.Generator, cells: int, alphabet: int, max_runs: int) -> list[tuple[int, int]]:
    """Adjacent-distinct (symbol, length) runs covering the grid exactly."""
    n_runs = int(rng.integers(2, max_runs + 1))
    cuts = np.sort(rng.choice(np.arange(1, cells), size=n_runs - 1, replace=False))
    lengths = np.diff(np.concatenate([[0], cuts, [cells]]))
    runs = []
    prev = -1
    for ln in lengths:
        sym = int(rng.integers(0, alphabet - 1))
        if sym >= prev and prev >= 0:
            sym += 1  # skip the previous symbol so runs never merge
        runs.append((sym, int(ln)))
        prev = sym
    return runs


def rle_caption(grid: np.ndarray) -> list[int]:
    """Caption tokens: the run-length encoding of the row-major cell sequence."""
    flat = np.asarray(grid).reshape(-1)
    caption: list[int] = []
    run_sym, run_len = int(flat[0]), 0
    for sym in flat:
        if int(sym) == run_sym:
            run_len += 1
        else:
            caption.extend([GRID_TOKEN_BASE + run_sym, COUNT_BASE + run_len])
            run_sym, run_len = int(sym), 1
    caption.extend([GRID_TOKEN_BASE + run_sym, COUNT_BASE + run_len])
    return caption


def _grid_caption_sample(rng: np.random.Generator, side: int, alphabet: int, max_runs: int) -> Sample:
    cells = side * side
    runs = _caption_runs(rng, cells, alphabet, max_runs)
    flat = np.concatenate([np.full(ln, sym, dtype=np.int64) for sym, ln in runs])
    caption = rle_caption(flat)
    tokens = np.array([IMG] * cells + [SEP] + caption + [EOS], dtype=np.int64)
    mask = np.zeros(len(tokens), dtype=bool)
    mask[:cells] = True
    return Sample(tokens=tokens, image_mask=mask, grid=flat.reshape(side, side))


def _grid_count_sample(rng: np.random.Generator, side: int, alphabet: int) -> Sample:
    cells = side * side
    flat = rng.integers(0, alphabet, size=cells)
    query = int(rng.integers(0, alphabet))
    count = int((flat == query).sum())
    tokens = np.array(
        [IMG] * cells + [QRY, GRID_TOKEN_BASE + query, SEP, COUNT_BASE + count, EOS],
        dtype=np.int64,
    )
    mask = np.zeros(len(tokens), dtype=bool)
    mask[:cells] = True
    return Sample(tokens=tokens, image_mask=mask, grid=flat.reshape(side, side))


def synth_dataset(
    spec: TaskSpec,
    max_seq: int = 64,
    grid_side: int = 6,
    grid_alphabet: int = 16,
) -> Dataset:
    """Generate a dataset; rejects specs whose sequences exceed max_seq."""
    rng = np.random.default_rng(spec.seed)
    cells = grid_side * grid_side
    samples: list[Sample] = []
    if spec.kind in TEXT_KINDS:
        worst = 2 * spec.seq_len + 3 if spec.kind != "text-arith" else 6
        if worst > max_seq:
            raise ValueError(f"{spec.kind} with payload {spec.seq_len} needs {worst} > max_seq {max_seq}")
        for _ in range(spec.n_samples):
            samples.append(_text_sample(spec.kind, rng, spec.seq_len))
        return Dataset(samples, spec)

    if spec.kind == "grid-caption":
        max_runs = min(spec.seq_len, (max_seq - cells - 2) // 2, cells)
        if max_runs < 2:
            raise ValueError(f"grid-caption needs room for 2 runs within max_seq {max_seq}")
        for _ in range(spec.n_samples):
            samples.append(_grid_caption_sample(rng, grid_side, grid_alphabet, max_runs))
    else:
        if cells + 5 > max_seq:
            raise ValueError(f"grid-count needs {cells + 5} > max_seq {max_seq}")
        for _ in range(spec.n_samples):
            samples.append(_grid_count_sample(rng, grid_side, grid_alphabet))
    return Dataset(samples, spec, grid_side=grid_side)


def collate(
    samples: list[Sample], pad_to: int | None = None
) -> tuple[TokenBatch, np.ndarray, np.ndarray, np.ndarray | None]:
    """Stack samples into (batch, next-token targets, predict mask, grids).

    ``predict_mask[b, t]`` is True when position t predicts an answer token
    (everything after the final separator, including the end marker).
    """
    n = len(samples)
    if n == 0:
        raise ValueError("cannot collate an empty list of samples")
    width = pad_to or max(len(s.tokens) for s in samples)
    ids = np.full((n, width), PAD, dtype=np.int64)
    image_mask = np.zeros((n, width), dtype=bool)
    targets = np.zeros((n, width), dtype=np.int64)
    predict = np.zeros((n, width), dtype=bool)
    for b, s in enumerate(samples):
        ln = len(s.tokens)
        if ln > width:
            raise ValueError(f"sample length {ln} exceeds pad width {width}")
        ids[b, :ln] = s.tokens
        image_mask[b, :ln] = s.image_mask
        start = answer_start(s.tokens)
        targets[b, : ln - 1] = s.tokens[1:]
        predict[b, start - 1 : ln - 1] = True
    grids = None
    if all(s.grid is not None for s in samples):
        grids = np.stack([s.grid for s in samples])
    return TokenBatch(ids, image_mask), targets, predict, grids


def _check_field(what: str, values: np.ndarray, limit: int) -> None:
    if values.size and (values.min() < 0 or values.max() > limit):
        raise ValueError(f"{what} outside [0, {limit}] cannot be cached")


def write_cache(dataset: Dataset, path) -> None:
    """One record per sample: length-prefixed ids, modality mask, grid symbols.

    A token id, grid symbol or length that does not fit its field is a
    ValueError, raised before the file is opened.
    """
    spec = dataset.spec
    header = _CACHE_HEADER.pack(
        _CACHE_VERSION, _KIND_CODES[spec.kind], spec.n_samples, spec.seq_len, spec.seed, dataset.grid_side
    )
    for s in dataset.samples:
        if len(s.tokens) > 0xFFFF:
            raise ValueError(f"sequence of {len(s.tokens)} tokens cannot be cached")
        _check_field("token id", s.tokens, 0xFFFF)
        if s.grid is not None:
            _check_field("grid symbol", s.grid, 0xFF)
    with open(path, "wb") as f:
        f.write(_CACHE_MAGIC)
        f.write(header)
        for s in dataset.samples:
            f.write(struct.pack("<H", len(s.tokens)))
            f.write(s.tokens.astype("<u2").tobytes())
            f.write(s.image_mask.astype(np.uint8).tobytes())
            grid = s.grid.reshape(-1) if s.grid is not None else np.zeros(0, dtype=np.int64)
            f.write(struct.pack("<H", grid.size))
            f.write(grid.astype(np.uint8).tobytes())


def read_cache(path) -> Dataset:
    """Parse a cache file; a truncated, malformed or overlong file is a ValueError."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != _CACHE_MAGIC:
        raise ValueError("not a dataset cache file")
    off = 4

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(blob):
            raise ValueError(f"cache truncated: {n} bytes needed at offset {off} of {len(blob)}")
        off += n
        return blob[off - n : off]

    version, kind_code, n_samples, seq_len, seed, grid_side = _CACHE_HEADER.unpack(take(_CACHE_HEADER.size))
    if version != _CACHE_VERSION:
        raise ValueError(f"unsupported cache version {version}")
    if kind_code not in _CODE_KINDS:
        raise ValueError(f"unknown task kind code {kind_code}")
    spec = TaskSpec(kind=_CODE_KINDS[kind_code], n_samples=n_samples, seq_len=seq_len, seed=seed)
    samples = []
    for _ in range(n_samples):
        (n_tok,) = struct.unpack("<H", take(2))
        tokens = np.frombuffer(take(2 * n_tok), dtype="<u2").astype(np.int64)
        mask = np.frombuffer(take(n_tok), dtype=np.uint8).astype(bool)
        (n_grid,) = struct.unpack("<H", take(2))
        grid = None
        if n_grid:
            if n_grid != grid_side * grid_side:
                raise ValueError(f"grid of {n_grid} cells in a cache of side {grid_side}")
            cells = np.frombuffer(take(n_grid), dtype=np.uint8)
            grid = cells.astype(np.int64).reshape(grid_side, grid_side)
        samples.append(Sample(tokens=tokens, image_mask=mask, grid=grid))
    if off != len(blob):
        raise ValueError(f"{len(blob) - off} trailing bytes after the last record")
    return Dataset(samples, spec, grid_side=grid_side)
