"""Independent reference implementations used as test oracles.

Everything here is deliberately written against plain numpy arrays with
per-sample / per-position loops, separate from the library's kernels, so a
bug in the library's fused paths cannot hide in the oracle.
"""

from __future__ import annotations

import math

import numpy as np

from genieblue.data import COUNT_BASE, GRID_TOKEN_BASE


def central_diff_grad(loss_fn, array: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function w.r.t. one array.

    ``loss_fn`` takes no arguments and reads ``array`` (mutated in place).
    """
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = loss_fn()
        flat[i] = orig - eps
        fm = loss_fn()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


def ref_softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def ref_rms_norm(x: np.ndarray, gain: np.ndarray | None) -> np.ndarray:
    y = x / np.sqrt((x * x).mean(axis=-1, keepdims=True) + 1e-12)
    return y if gain is None else y * gain


def ref_gelu(x: np.ndarray) -> np.ndarray:
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))


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


def _position_weight(layer: dict, mat: str, is_image: bool) -> np.ndarray:
    experts = layer.get("experts") or {}
    if is_image and mat in experts:
        return experts[mat]
    return layer["weights"][mat]


def _ref_project(h: np.ndarray, layer: dict, mat: str, img_row: np.ndarray) -> np.ndarray:
    """Materialize the per-position weight choice, then apply position by position."""
    t = h.shape[0]
    w0 = layer["weights"][mat]
    out = np.zeros((t, w0.shape[0]))
    for p in range(t):
        w = _position_weight(layer, mat, bool(img_row[p]))
        out[p] = w @ h[p]
    adapters = layer.get("adapters") or {}
    if mat in adapters:
        down, up = adapters[mat]
        routed = layer.get("route_adapters", False)
        for p in range(t):
            if routed and not img_row[p]:
                continue
            out[p] = out[p] + up @ (down @ h[p])
    return out


def _ref_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int, causal: bool) -> np.ndarray:
    t, d = q.shape
    hd = d // n_heads
    out = np.zeros_like(q)
    for h in range(n_heads):
        sl = slice(h * hd, (h + 1) * hd)
        qh, kh, vh = q[:, sl], k[:, sl], v[:, sl]
        for i in range(t):
            limit = i + 1 if causal else t
            scores = np.array([qh[i] @ kh[j] for j in range(limit)]) / math.sqrt(hd)
            w = np.exp(scores - scores.max())
            w = w / w.sum()
            out[i, sl] = sum(w[j] * vh[j] for j in range(limit))
    return out


def ref_block(x: np.ndarray, layer: dict, n_heads: int, img_row: np.ndarray, causal: bool = True) -> np.ndarray:
    h = ref_rms_norm(x, layer["weights"]["norm1.g"])
    q = _ref_project(h, layer, "attn.wq", img_row)
    k = _ref_project(h, layer, "attn.wk", img_row)
    v = _ref_project(h, layer, "attn.wv", img_row)
    a = _ref_attention(q, k, v, n_heads, causal)
    x = x + _ref_project(a, layer, "attn.wo", img_row)
    h = ref_rms_norm(x, layer["weights"]["norm2.g"])
    f = _ref_project(h, layer, "ffn.w1", img_row)
    f = ref_gelu(f)
    f = _ref_project(f, layer, "ffn.w2", img_row)
    return x + f


def ref_decode(
    lm_params: dict,
    layers: list[dict],
    ids: np.ndarray,
    image_mask: np.ndarray,
    injected: np.ndarray | None,
    n_heads: int,
) -> np.ndarray:
    """Dense per-token reference for the whole decoder, one sample at a time.

    ``layers`` entries hold plain arrays: {"weights": {...}, "adapters":
    {mat: (down, up)}, "experts": {mat: W}}.
    """
    bsz, t = ids.shape
    vocab = lm_params["head.w"].shape[0]
    logits = np.zeros((bsz, t, vocab))
    for b in range(bsz):
        span = int(image_mask[b].sum())
        x = np.zeros((t, lm_params["embed.tokens"].shape[1]))
        for p in range(t):
            if p < span:
                x[p] = injected[b, p]
            else:
                x[p] = lm_params["embed.tokens"][ids[b, p]]
            x[p] = x[p] + lm_params["embed.pos"][p]
        for layer in layers:
            x = ref_block(x, layer, n_heads, image_mask[b], causal=True)
        x = ref_rms_norm(x, lm_params["final_norm.g"])
        for p in range(t):
            logits[b, p] = lm_params["head.w"] @ x[p]
    return logits


def layers_from_bindings(bindings) -> list[dict]:
    """Convert library BlockBindings into the oracle's plain-array form."""
    out = []
    for b in bindings:
        out.append(
            {
                "weights": {k: v.data for k, v in b.weights.items()},
                "adapters": {
                    m: (down.data, up.data) for m, (down, up) in (b.adapters or {}).items()
                },
                "experts": {m: w.data for m, w in (b.experts or {}).items()},
                "route_adapters": b.route_adapters,
            }
        )
    return out


def count_params_by_walk(named: dict) -> int:
    """Enumeration oracle: walk every tensor and sum element counts."""
    total = 0
    for _, p in named.items():
        n = 1
        for extent in p.shape:
            n *= extent
        total += n
    return total


def expected_parameter_count(config) -> int:
    """Closed-form parameter count for a base stack built from ``config``."""
    c = config
    block = 4 * c.d_model**2 + 2 * c.d_model * c.d_ffn + 2 * c.d_model
    lm = (
        c.vocab_size * c.d_model  # token embeddings
        + c.max_seq * c.d_model  # positions
        + c.n_layers * block
        + c.d_model  # final norm
        + c.vocab_size * c.d_model  # head
    )
    vblock = 4 * c.d_vision**2 + 2 * c.d_vision * (4 * c.d_vision) + 2 * c.d_vision
    vision = (
        c.grid_alphabet * c.d_vision
        + c.grid_cells * c.d_vision
        + c.n_vision_layers * vblock
        + c.d_vision
    )
    projector = c.d_model * c.d_vision + c.d_model + c.d_model * c.d_model + c.d_model
    return lm + vision + projector
