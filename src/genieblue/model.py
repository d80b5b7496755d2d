"""Desk-scale multimodal stack: decoder-only LM, grid vision encoder, projector.

The LM is a pre-norm transformer with learned absolute positions, GELU FFNs,
RMS block norms, and no weight tying between the embedding table and the LM
head. Images are discrete symbol grids; the vision encoder emits one token
per cell (single-patch regime) and the projector maps them into the LM width.

Every forward pass runs through ``decode`` against a list of per-layer
``BlockBinding``s. A binding is a view: plain base weights, base weights plus
low-rank adapter factors, or base weights paired with per-token expert
copies; ``block_forward`` runs a layer's binding as two tape nodes. A
batch's image positions are one integer span shared by every row, from
``collate`` down to the kernels. ``MultimodalBase`` binds the LM's own
blocks; each adapted model of the adaptation module is the same stack with
its own bindings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import autograd as ag
from .autograd import Tensor, is_int

__all__ = [
    "ModelConfig",
    "TokenBatch",
    "BlockBinding",
    "LanguageModel",
    "VisionEncoder",
    "Projector",
    "MultimodalBase",
    "build_model",
    "block_param_shapes",
]

INIT_STD = 0.02

# matrices that adapters / visual experts attach to, in a fixed order
BLOCK_MATRICES = ("attn.wq", "attn.wk", "attn.wv", "attn.wo", "ffn.w1", "ffn.w2")
BLOCK_NORMS = ("norm1.g", "norm2.g")


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions for the desk model family."""

    vocab_size: int = 256
    d_model: int = 64
    n_layers: int = 8
    n_heads: int = 4
    d_ffn: int = 0  # 0 means 4 * d_model
    max_seq: int = 64
    grid_side: int = 6
    grid_alphabet: int = 16
    d_vision: int = 32
    n_vision_layers: int = 2
    n_vision_heads: int = 2

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not is_int(value):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
        if self.d_ffn == 0:
            object.__setattr__(self, "d_ffn", 4 * self.d_model)
        dims = (
            self.vocab_size,
            self.d_model,
            self.n_layers,
            self.n_heads,
            self.d_ffn,
            self.max_seq,
            self.grid_side,
            self.grid_alphabet,
            self.d_vision,
            self.n_vision_heads,
        )
        if any(x <= 0 for x in dims) or self.n_vision_layers < 0:
            raise ValueError(f"all config extents must be positive, got {self}")
        if self.d_model % self.n_heads:
            raise ValueError(f"d_model {self.d_model} not divisible by {self.n_heads} heads")
        if self.d_vision % self.n_vision_heads:
            raise ValueError(f"d_vision {self.d_vision} not divisible by {self.n_vision_heads} heads")
        if self.n_layers < 4:
            raise ValueError(f"need at least 4 layers for quarter placements, got {self.n_layers}")

    @property
    def grid_cells(self) -> int:
        return self.grid_side * self.grid_side


@dataclass
class TokenBatch:
    """Token ids (B, T) whose first ``image_span`` positions are image positions.

    Every row has the same image prefix ``[:, :image_span]``; an all-text
    batch has span 0. Padding sits at the end of a row, where causal
    attention keeps it from reaching real positions and the loss's predict
    mask keeps it out of the loss.
    """

    ids: np.ndarray
    image_span: int = 0

    def __post_init__(self):
        ids = np.asarray(self.ids)
        if not np.issubdtype(ids.dtype, np.integer):  # bool is not an integer dtype here
            raise ValueError(f"token ids must be integers, got dtype {ids.dtype}")
        # compared before the cast, which would wrap uint64 ids >= 2**63 to negatives
        if ids.size and (ids.min() < 0 or ids.max() > np.iinfo(np.int64).max):
            raise ValueError(f"token ids must lie in [0, 2**63), got range [{ids.min()}, {ids.max()}]")
        self.ids = ids.astype(np.int64, copy=False)
        if self.ids.ndim != 2:
            raise ValueError(f"token ids must be (B, T), got shape {self.ids.shape}")
        span, t = self.image_span, self.ids.shape[1]
        if not is_int(span) or not 0 <= span <= t:
            raise ValueError(f"image_span must be an integer in [0, {t}], got {span!r}")
        self.image_span = int(span)


@dataclass
class BlockBinding:
    """Resolved weights for one transformer layer.

    ``adapters`` maps a matrix name to its (down, up) factors; ``experts`` maps a
    matrix name to a full replacement weight applied at image positions.
    Unrouted adapters apply as the merged weight ``w + up @ down`` to every
    row. ``route_adapters`` confines the merged weight to the image prefix,
    which is how the visual-expert baseline keeps text tokens on the exact
    base computation; experts are always routed. A routed matrix takes an
    expert or an adapter, never both.
    """

    weights: dict[str, Tensor]
    adapters: dict[str, tuple[Tensor, Tensor]] = field(default_factory=dict)
    experts: dict[str, Tensor] = field(default_factory=dict)
    route_adapters: bool = False


def _matrix(binding: BlockBinding, mat: str, span: int) -> tuple:
    """The binding's view of one matrix as a spec ``(w, expert, adapter, span)``, as the kernels take it.

    A routed matrix (an expert, or an adapter with ``route_adapters``) keeps
    ``span``; an unrouted one gets span None, so its adapter serves every row.
    """
    expert = binding.experts.get(mat)
    adapter = binding.adapters.get(mat)
    routed = expert is not None or (adapter is not None and binding.route_adapters)
    return binding.weights[mat], expert, adapter, span if routed else None


def block_forward(x: Tensor, binding: BlockBinding, n_heads: int, causal: bool = True, span: int = 0) -> Tensor:
    """Pre-norm block: attention then FFN, each with a residual, as two tape nodes.

    ``span`` is the image prefix length that routed matrices serve. The
    attention half, ``rms_norm``, the q, k and v products, attention and the
    ``attn.wo`` product adding ``x``, is one ``attention`` node. The FFN half
    is one product node over the mid-block stream ``x``: its norm, ``ffn.w1``
    and the GELU go in front of ``ffn.w2``, and the node adds ``x`` back, as
    the attention half does: ``linear`` over an unrouted ``ffn.w2`` and
    ``routed_linear`` over a routed one.
    """
    q, k, v, o = (_matrix(binding, mat, span) for mat in BLOCK_MATRICES[:4])
    x = ag.attention(q, k, v, n_heads, causal=causal, x=x, gain=binding.weights["norm1.g"], wo=o)
    w, expert, adapter, routed_span = _matrix(binding, "ffn.w2", span)
    inner, gain = _matrix(binding, "ffn.w1", span), binding.weights["norm2.g"]
    if routed_span is None:
        return ag.linear(x, w, adapter, inner=inner, norm=gain)
    return ag.routed_linear(x, w, expert, routed_span, adapter=adapter, inner=inner, norm=gain)


def block_param_shapes(d: int, d_ffn: int) -> dict[str, tuple[int, ...]]:
    return {
        "attn.wq": (d, d),
        "attn.wk": (d, d),
        "attn.wv": (d, d),
        "attn.wo": (d, d),
        "ffn.w1": (d_ffn, d),
        "ffn.w2": (d, d_ffn),
        "norm1.g": (d,),
        "norm2.g": (d,),
    }


def init_block(rng: np.random.Generator, d: int, d_ffn: int) -> dict[str, Tensor]:
    params = {}
    for name, shape in block_param_shapes(d, d_ffn).items():
        if name in BLOCK_NORMS:
            params[name] = Tensor(np.ones(shape))
        else:
            params[name] = Tensor(rng.normal(0.0, INIT_STD, size=shape))
    return params


def _block_weights(params: dict[str, Tensor], i: int) -> dict[str, Tensor]:
    """Block ``i``'s tensors of a flat parameter store, named without the ``blocks.{i}.`` prefix."""
    prefix = f"blocks.{i}."
    return {k[len(prefix) :]: v for k, v in params.items() if k.startswith(prefix)}


class LanguageModel:
    """Decoder-only LM over a flat name -> Tensor parameter store."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    @classmethod
    def build(cls, config: ModelConfig, rng: np.random.Generator) -> "LanguageModel":
        c = config
        params: dict[str, Tensor] = {
            "embed.tokens": Tensor(rng.normal(0.0, INIT_STD, size=(c.vocab_size, c.d_model))),
            "embed.pos": Tensor(rng.normal(0.0, INIT_STD, size=(c.max_seq, c.d_model))),
        }
        for i in range(c.n_layers):
            for name, t in init_block(rng, c.d_model, c.d_ffn).items():
                params[f"blocks.{i}.{name}"] = t
        params["final_norm.g"] = Tensor(np.ones(c.d_model))
        params["head.w"] = Tensor(rng.normal(0.0, INIT_STD, size=(c.vocab_size, c.d_model)))
        return cls(config, params)

    def block_weights(self, i: int) -> dict[str, Tensor]:
        return _block_weights(self.params, i)

    def base_bindings(self) -> list[BlockBinding]:
        return [BlockBinding(self.block_weights(i)) for i in range(self.config.n_layers)]

    def forward(self, batch: TokenBatch) -> Tensor:
        """Text-path logits from the LM's own blocks."""
        return decode(self.config, self.params, self.base_bindings(), batch)


def decode(
    config: ModelConfig,
    lm_params: dict[str, Tensor],
    bindings: list[BlockBinding],
    batch: TokenBatch,
    injected: Tensor | None = None,
) -> Tensor:
    """Run the decoder over a batch, injecting image embeddings at the prefix.

    Text positions come from the embedding table; image positions take the
    injected (projector output) embeddings. Returns (B, T, vocab) logits.
    """
    c = config
    bsz, t = batch.ids.shape
    if t == 0:
        raise ValueError("cannot decode an empty sequence (T == 0)")
    if t > c.max_seq:
        raise ValueError(f"sequence length {t} exceeds max {c.max_seq}")
    if batch.ids.size and batch.ids.max() >= c.vocab_size:
        raise ValueError(f"token id {batch.ids.max()} out of range for vocab {c.vocab_size}")
    if len(bindings) != c.n_layers:
        raise ValueError(f"expected {c.n_layers} block bindings, got {len(bindings)}")
    span = batch.image_span
    if span:
        if injected is None:
            raise ValueError("batch has image positions but no injected embeddings")
        if injected.shape != (bsz, span, c.d_model):
            raise ValueError(f"injected shape {injected.shape} != {(bsz, span, c.d_model)}")
    elif injected is not None and injected.size:
        raise ValueError("injected embeddings supplied for an all-text batch")
    # position table is frozen base state, so slicing the raw array is safe
    pos = lm_params["embed.pos"].data[:t]
    x = ag.embed(lm_params["embed.tokens"], batch.ids[:, span:], prefix=injected if span else None, pos=pos)
    for binding in bindings:
        x = block_forward(x, binding, c.n_heads, causal=True, span=span)
    x = ag.rms_norm(x, lm_params["final_norm.g"])
    return ag.linear(x, lm_params["head.w"])


class VisionEncoder:
    """Two bidirectional blocks over per-cell symbol embeddings."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    @classmethod
    def build(cls, config: ModelConfig, rng: np.random.Generator) -> "VisionEncoder":
        c = config
        params: dict[str, Tensor] = {
            "sym_embed": Tensor(rng.normal(0.0, INIT_STD, size=(c.grid_alphabet, c.d_vision))),
            "pos_embed": Tensor(rng.normal(0.0, INIT_STD, size=(c.grid_cells, c.d_vision))),
        }
        for i in range(c.n_vision_layers):
            for name, t in init_block(rng, c.d_vision, 4 * c.d_vision).items():
                params[f"blocks.{i}.{name}"] = t
        params["final_norm.g"] = Tensor(np.ones(c.d_vision))
        return cls(config, params)

    def encode(self, grids: np.ndarray) -> Tensor:
        """Grids (B, side, side) of symbol ids -> (B, cells, d_vision)."""
        c = self.config
        grids = np.asarray(grids)
        if not np.issubdtype(grids.dtype, np.integer):
            raise ValueError(f"grid symbols must be integers, got dtype {grids.dtype}")
        if grids.ndim == 2:
            grids = grids[None]
        if grids.shape[1:] != (c.grid_side, c.grid_side):
            raise ValueError(f"grid shape {grids.shape[1:]} != {(c.grid_side, c.grid_side)}")
        if grids.shape[0] == 0:
            raise ValueError("no grids to encode")
        if grids.min() < 0 or grids.max() >= c.grid_alphabet:
            raise ValueError(f"grid symbol out of alphabet range [0, {c.grid_alphabet})")
        flat = grids.reshape(grids.shape[0], -1)
        x = ag.embed(self.params["sym_embed"], flat, pos=self.params["pos_embed"])
        for i in range(c.n_vision_layers):
            x = block_forward(x, BlockBinding(_block_weights(self.params, i)), c.n_vision_heads, causal=False)
        return ag.rms_norm(x, self.params["final_norm.g"])


class Projector:
    """Two-layer GELU MLP from vision width into the LM width."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor], pretrained: bool = False):
        self.config = config
        self.params = params
        self.pretrained = pretrained  # set by a completed stage-1 run

    @classmethod
    def build(cls, config: ModelConfig, rng: np.random.Generator) -> "Projector":
        c = config
        params = {
            "p1.w": Tensor(rng.normal(0.0, INIT_STD, size=(c.d_model, c.d_vision))),
            "p1.b": Tensor(np.zeros(c.d_model)),
            "p2.w": Tensor(rng.normal(0.0, INIT_STD, size=(c.d_model, c.d_model))),
            "p2.b": Tensor(np.zeros(c.d_model)),
        }
        return cls(config, params)

    def project(self, x: Tensor) -> Tensor:
        h = ag.gelu(ag.linear(x, self.params["p1.w"], bias=self.params["p1.b"]))
        return ag.linear(h, self.params["p2.w"], bias=self.params["p2.b"])


@dataclass
class MultimodalBase:
    """The base stack: LM + vision encoder + projector.

    ``forward`` is the one multimodal forward; an adapted model overrides
    only which weights ``bindings`` hands it.
    """

    config: ModelConfig
    lm: LanguageModel
    vision: VisionEncoder
    projector: Projector

    def named_parameters(self) -> dict[str, Tensor]:
        out = {f"lm.{k}": v for k, v in self.lm.params.items()}
        out.update({f"vision.{k}": v for k, v in self.vision.params.items()})
        out.update({f"projector.{k}": v for k, v in self.projector.params.items()})
        return out

    def bindings(self) -> list[BlockBinding]:
        """The multimodal-path binding of every LM layer."""
        return self.lm.base_bindings()

    def forward(self, batch: TokenBatch, grids: np.ndarray | None = None) -> Tensor:
        """Logits with the grids encoded, projected and injected at the image prefix."""
        injected = None
        if batch.image_span:
            if grids is None:
                raise ValueError("batch has image positions but no grids were supplied")
            injected = self.projector.project(self.vision.encode(grids))
        elif grids is not None:
            raise ValueError("grids supplied for an all-text batch")
        return decode(self.config, self.lm.params, self.bindings(), batch, injected)


def build_model(config: ModelConfig, seed: int) -> MultimodalBase:
    """Deterministically initialize a base stack from a non-negative integer seed."""
    if not (is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    lm = LanguageModel.build(config, rng)
    vision = VisionEncoder.build(config, rng)
    projector = Projector.build(config, rng)
    return MultimodalBase(config, lm, vision, projector)
