"""Synthetic self-checking tasks over a fixed 256-id token space.

Text tasks (copy, reverse, modular addition) encode their own answer in the
prompt. Grid tasks pair a symbol grid with its unique description: the
caption task emits the run-length encoding of the row-major cell sequence,
the count task asks how often a queried symbol occurs. Every generator is a
pure function of its TaskSpec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import is_int
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
        for field_name in ("n_samples", "seq_len", "seed"):
            value = getattr(self, field_name)
            if not is_int(value):
                raise ValueError(f"{field_name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.n_samples < 1:
            raise ValueError("need at least one sample")
        if self.seq_len < 1:
            raise ValueError("seq_len must be positive")


@dataclass
class Sample:
    tokens: np.ndarray  # full sequence including specials and the answer
    image_mask: np.ndarray  # True at image positions, which must be a prefix
    grid: np.ndarray | None = None  # (side, side) symbol ids for grid tasks


class Dataset:
    def __init__(self, samples: list[Sample]):
        self.samples = samples

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, i: int) -> Sample:
        return self.samples[i]

    @property
    def max_len(self) -> int:
        return max(len(s.tokens) for s in self.samples)


def answer_start(tokens: np.ndarray) -> int:
    """First answer position: right after the last separator token of a 1-D sequence, an array or a list."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 1:
        raise ValueError(f"tokens must be one 1-D sequence, got shape {tokens.shape}")
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


def _caption_runs(rng: np.random.Generator, cells: int, alphabet: int, max_runs: int) -> tuple[np.ndarray, np.ndarray]:
    """Adjacent-distinct runs covering the grid exactly: (symbols, lengths)."""
    n_runs = int(rng.integers(2, max_runs + 1))
    cuts = np.sort(rng.choice(cells - 1, size=n_runs - 1, replace=False) + 1)
    lengths = np.diff(cuts, prepend=0, append=cells)
    syms = np.empty(n_runs, dtype=np.int64)
    prev = -1
    for i in range(n_runs):
        sym = int(rng.integers(0, alphabet - 1))
        if sym >= prev and prev >= 0:
            sym += 1  # skip the previous symbol so runs never merge
        syms[i] = prev = sym
    return syms, lengths


def _grid_caption_sample(rng: np.random.Generator, side: int, alphabet: int, max_runs: int) -> Sample:
    cells = side * side
    syms, lengths = _caption_runs(rng, cells, alphabet, max_runs)
    # the runs are maximal, so the caption, the grid's run-length encoding, is the runs themselves
    tokens = np.empty(cells + 2 * len(syms) + 2, dtype=np.int64)
    tokens[:cells] = IMG
    tokens[cells] = SEP
    tokens[cells + 1 : -1 : 2] = GRID_TOKEN_BASE + syms
    tokens[cells + 2 : -1 : 2] = COUNT_BASE + lengths
    tokens[-1] = EOS
    mask = np.zeros(len(tokens), dtype=bool)
    mask[:cells] = True
    return Sample(tokens=tokens, image_mask=mask, grid=np.repeat(syms, lengths).reshape(side, side))


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
    for name, value in (("max_seq", max_seq), ("grid_side", grid_side), ("grid_alphabet", grid_alphabet)):
        if not is_int(value) or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    if grid_alphabet > COUNT_BASE - GRID_TOKEN_BASE:  # symbol ids would run into the count tokens
        raise ValueError(f"grid_alphabet must be at most {COUNT_BASE - GRID_TOKEN_BASE}, got {grid_alphabet}")
    if COUNT_BASE + grid_side * grid_side >= 256:  # a count of every cell would leave the token space
        raise ValueError(f"grid_side {grid_side} has counts past the 256-id token space")
    rng = np.random.default_rng(spec.seed)
    cells = grid_side * grid_side
    samples: list[Sample] = []
    if spec.kind in TEXT_KINDS:
        worst = 2 * spec.seq_len + 3 if spec.kind != "text-arith" else 6
        if worst > max_seq:
            raise ValueError(f"{spec.kind} with payload {spec.seq_len} needs {worst} > max_seq {max_seq}")
        for _ in range(spec.n_samples):
            samples.append(_text_sample(spec.kind, rng, spec.seq_len))
        return Dataset(samples)

    if spec.kind == "grid-caption":
        if grid_alphabet < 2:
            raise ValueError(f"grid-caption needs a grid_alphabet of at least 2 for adjacent runs, got {grid_alphabet}")
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
    return Dataset(samples)


def collate(
    samples: list[Sample], pad_to: int | None = None
) -> tuple[TokenBatch, np.ndarray, np.ndarray, np.ndarray | None]:
    """Stack samples into (batch, next-token targets, predict mask, grids).

    Tokens must be integers. Each sample's ``image_mask`` must be a prefix,
    and every sample must have the same span, which becomes the batch's
    ``image_span``. Either every sample has a grid, all of one shape, or
    none has; a malformed sample raises ``ValueError`` naming it.
    ``predict_mask[b, t]`` is True when position t predicts an answer token
    (everything after the final separator, including the end marker).
    """
    n = len(samples)
    if n == 0:
        raise ValueError("cannot collate an empty list of samples")
    if pad_to is not None and (not is_int(pad_to) or pad_to < 1):
        raise ValueError(f"pad_to must be a positive integer, got {pad_to!r}")
    spans = []
    for b, s in enumerate(samples):
        if np.ndim(s.tokens) != 1 or np.shape(s.image_mask) != np.shape(s.tokens):
            raise ValueError(
                f"sample {b}: tokens {np.shape(s.tokens)} and image_mask {np.shape(s.image_mask)} "
                "must be 1-D and of one length"
            )
        dtype = np.asarray(s.tokens).dtype
        if not np.issubdtype(dtype, np.integer):  # the copy into the id array would truncate them
            raise ValueError(f"sample {b}: tokens must be integers, got dtype {dtype}")
        span = int(np.count_nonzero(s.image_mask))
        if not np.all(s.image_mask[:span]):
            raise ValueError(f"sample {b}: image positions are not a contiguous prefix")
        spans.append(span)
    if len(set(spans)) > 1:
        raise ValueError(f"samples have image spans {sorted(set(spans))}; a batch needs one span")
    grid_shapes = [None if s.grid is None else np.shape(s.grid) for s in samples]
    for b, shape in enumerate(grid_shapes):
        if shape != grid_shapes[0]:
            raise ValueError(
                f"sample {b}: grid {shape} vs sample 0's {grid_shapes[0]}; "
                "a batch needs a grid of one shape in every sample, or none"
            )
    width = pad_to or max(len(s.tokens) for s in samples)
    ids = np.full((n, width), PAD, dtype=np.int64)
    targets = np.zeros((n, width), dtype=np.int64)
    predict = np.zeros((n, width), dtype=bool)
    for b, s in enumerate(samples):
        tokens = np.asarray(s.tokens)
        ln = len(tokens)
        if ln > width:
            raise ValueError(f"sample length {ln} exceeds pad width {width}")
        ids[b, :ln] = tokens
        start = answer_start(tokens)
        targets[b, : ln - 1] = tokens[1:]
        predict[b, start - 1 : ln - 1] = True
    grids = None if samples[0].grid is None else np.stack([s.grid for s in samples])
    return TokenBatch(ids, spans[0]), targets, predict, grids
