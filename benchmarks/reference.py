"""Independent numpy forward pass used to check the program's outputs.

Written from the model's definition against plain arrays, without the
library's kernels, bindings or tape, so a defect in those cannot hide here.
It reads parameters by their public names (``model.named_parameters()``):

- ``lm.*``, ``vision.*``, ``projector.*``: the base stack;
- ``replicated.{i}.*``: a full block copy that replaces LM layer ``i``;
- ``expert.{i}.{mat}``: a matrix applied at image positions of layer ``i``;
- ``adapter.{i}.{mat}.down|up``: a rank-r delta on layer ``i`` (scale 1, as
  the builders make them). When the model has experts, adapter deltas apply
  at image positions only, as in the visual-expert baseline.
"""

from __future__ import annotations

import math

import numpy as np

from genieblue.data import SEP

MATRICES = ("attn.wq", "attn.wk", "attn.wv", "attn.wo", "ffn.w1", "ffn.w2")
GELU_C = math.sqrt(2.0 / math.pi)


def _rms(x, gain):
    return x / np.sqrt((x * x).mean(axis=-1, keepdims=True) + 1e-12) * gain


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(GELU_C * (x + 0.044715 * x * x * x)))


def _softmax(s):
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _attend(q, k, v, heads, causal):
    t, d = q.shape
    hd = d // heads
    out = np.empty_like(q)
    allowed = np.tri(t, dtype=bool) if causal else np.ones((t, t), dtype=bool)
    for h in range(heads):
        sl = slice(h * hd, (h + 1) * hd)
        s = np.where(allowed, q[:, sl] @ k[:, sl].T / math.sqrt(hd), -np.inf)
        out[:, sl] = _softmax(s) @ v[:, sl]
    return out


def _block(x, layer, heads, causal, image):
    def proj(h, mat):
        y = h @ layer["w"][mat].T
        expert = layer["experts"].get(mat)
        if expert is not None:
            y[image] = h[image] @ expert.T
        adapter = layer["adapters"].get(mat)
        if adapter is not None:
            rows = image if layer["routed"] else slice(None)
            down, up = adapter
            y[rows] += (h[rows] @ down.T) @ up.T
        return y

    h = _rms(x, layer["w"]["norm1.g"])
    a = _attend(proj(h, "attn.wq"), proj(h, "attn.wk"), proj(h, "attn.wv"), heads, causal)
    x = x + proj(a, "attn.wo")
    h = _rms(x, layer["w"]["norm2.g"])
    return x + proj(_gelu(proj(h, "ffn.w1")), "ffn.w2")


def _sub(params, prefix):
    return {k[len(prefix) :]: v for k, v in params.items() if k.startswith(prefix)}


def logits(params: dict, config, tokens: np.ndarray, image_mask: np.ndarray, grid) -> np.ndarray:
    """(T, vocab) logits for one unpadded sequence."""
    p = {k: np.asarray(getattr(v, "data", v), dtype=np.float64) for k, v in params.items()}
    image = np.asarray(image_mask, dtype=bool)
    span = int(image.sum())
    x = p["lm.embed.tokens"][np.asarray(tokens)]
    if span:
        v = p["vision.sym_embed"][np.asarray(grid).reshape(-1)] + p["vision.pos_embed"]
        plain = {"experts": {}, "adapters": {}, "routed": False}
        for i in range(config.n_vision_layers):
            v = _block(v, {"w": _sub(p, f"vision.blocks.{i}."), **plain}, config.n_vision_heads, False, None)
        v = _rms(v, p["vision.final_norm.g"])
        v = _gelu(v @ p["projector.p1.w"].T + p["projector.p1.b"])
        x[:span] = v @ p["projector.p2.w"].T + p["projector.p2.b"]
    x = x + p["lm.embed.pos"][: len(tokens)]
    routed = any(k.startswith("expert.") for k in p)
    for i in range(config.n_layers):
        replica = _sub(p, f"replicated.{i}.")
        adapters = {}
        for mat in MATRICES:
            down = p.get(f"adapter.{i}.{mat}.down")
            if down is not None:
                adapters[mat] = (down, p[f"adapter.{i}.{mat}.up"])
        layer = {
            "w": replica or _sub(p, f"lm.blocks.{i}."),
            "experts": _sub(p, f"expert.{i}."),
            "adapters": {} if replica else adapters,
            "routed": routed,
        }
        x = _block(x, layer, config.n_heads, True, image)
    return _rms(x, p["lm.final_norm.g"]) @ p["lm.head.w"].T


def answer_loss(params: dict, config, samples) -> float:
    """Mean over samples of the mean answer-token NLL (the training objective)."""
    per_sample = []
    for s in samples:
        tokens = np.asarray(s.tokens)
        z = logits(params, config, tokens, s.image_mask, s.grid)
        logp = z - z.max(axis=-1, keepdims=True)
        logp = logp - np.log(np.exp(logp).sum(axis=-1, keepdims=True))
        start = int(np.flatnonzero(tokens == SEP)[-1]) + 1
        pos = np.arange(start - 1, len(tokens) - 1)
        per_sample.append(-logp[pos, tokens[pos + 1]].mean())
    return float(np.mean(per_sample))
