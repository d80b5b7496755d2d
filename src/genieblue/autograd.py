"""Dense float64 tensor kernels with a reverse-mode gradient tape.

Everything downstream (blocks, adapters, training) is built from the kernels
in this module. All data is contiguous row-major float64; kernels are pure
functions of their inputs, so identical inputs give bit-identical outputs.

Gradients are recorded on an explicit tape (a Wengert list): while a
``GradTape`` is active, every kernel whose inputs are tracked appends one
node holding its inputs and output and the values its backward pass needs
that are not cheap to rebuild. What is cheap is rebuilt from the inputs with
the forward's own operations, so the gradients keep their bits: the product
nodes keep no GELU derivative and no merged LoRA weight, ``gelu`` keeps no
derivative, and ``masked_nll`` keeps no probabilities. ``backward`` replays
the list in reverse, which visits each node exactly once in reverse
topological order because recording order is execution order.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "Tensor",
    "GradTape",
    "ShapeMismatch",
    "NonFiniteError",
    "backward",
    "add",
    "mul",
    "linear",
    "lora_weight",
    "routed_lora",
    "routed_linear",
    "gelu",
    "rms_norm",
    "embed",
    "concat_seq",
    "attention",
    "masked_nll",
    "sum_all",
]


class ShapeMismatch(ValueError):
    """Operand shapes do not conform for the requested kernel."""


class NonFiniteError(FloatingPointError):
    """A non-finite value appeared where the contract requires finite data."""


class Tensor:
    """A shape plus contiguous row-major float64 data.

    ``requires_grad`` marks leaves (parameters) whose gradients ``backward``
    should return; intermediates get the flag set automatically while a tape
    is recording.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:  # 0-d arrays are already contiguous
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class _Node:
    __slots__ = ("op", "out", "inputs", "vjp")

    def __init__(self, op, out, inputs, vjp):
        self.op = op
        self.out = out
        self.inputs = inputs
        self.vjp = vjp


_TAPE_STACK: list["GradTape"] = []


class GradTape:
    """Records kernel applications in execution order for reverse replay."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "GradTape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not _TAPE_STACK or _TAPE_STACK[-1] is not self:
            raise RuntimeError("GradTape exited out of order")
        _TAPE_STACK.pop()

    def __len__(self) -> int:
        return len(self.nodes)


def _will_record(inputs: tuple[Tensor, ...]) -> bool:
    """Whether ``_maybe_record`` would put a node over these inputs on the tape."""
    return bool(_TAPE_STACK) and any(t.requires_grad for t in inputs)


def _maybe_record(op: str, out: Tensor, inputs: tuple[Tensor, ...], vjp) -> Tensor:
    if _will_record(inputs):
        out.requires_grad = True
        _TAPE_STACK[-1].nodes.append(_Node(op, out, inputs, vjp))
    return out


def backward(tape: GradTape, loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Accumulate d(loss)/d(leaf) for every tracked leaf on the tape.

    Returns a dict keyed by the leaf Tensor objects themselves. Raises if the
    loss is not a scalar or if a non-finite gradient shows up mid-replay (the
    offending node's op name is included).
    """
    if loss.shape != ():
        raise ShapeMismatch(f"loss must be a scalar, got shape {loss.shape}")
    grads: dict[Tensor, np.ndarray] = {loss: np.ones((), dtype=np.float64)}
    # Tensors whose gradient is a sum allocated here, so safe to add into in
    # place. A first contribution is stored as the vjp returned it and may be
    # shared (add hands one g to both inputs, concat_seq returns views of g).
    owned: set[Tensor] = set()
    for node in reversed(tape.nodes):
        g = grads.pop(node.out, None)
        if g is None:
            continue  # output never contributed to the loss
        owned.discard(node.out)  # g may now be handed on by the vjp
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"non-finite gradient flowing into node '{node.op}'")
        for inp, gi in zip(node.inputs, node.vjp(g)):
            if gi is None:
                continue
            acc = grads.get(inp)
            if acc is None:
                grads[inp] = gi
            elif inp in owned:
                np.add(acc, gi, out=acc)
            else:
                # out= keeps a 0-d sum an array; a + b would give a numpy scalar
                grads[inp] = np.add(acc, gi, out=np.empty(np.shape(acc)))
                owned.add(inp)
    return {t: g for t, g in grads.items() if t.requires_grad}


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g back down to `shape` after a broadcasting forward op."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise / broadcasting kernels
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = Tensor(a.data + b.data)
    except ValueError:
        raise ShapeMismatch(f"add: shapes {a.shape} and {b.shape} do not broadcast")

    def vjp(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(g, b.shape) if b.requires_grad else None,
        )

    return _maybe_record("add", out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = Tensor(a.data * b.data)
    except ValueError:
        raise ShapeMismatch(f"mul: shapes {a.shape} and {b.shape} do not broadcast")
    ad, bd = a.data, b.data

    def vjp(g):
        return (
            _unbroadcast(g * bd, a.shape) if a.requires_grad else None,
            _unbroadcast(g * ad, b.shape) if b.requires_grad else None,
        )

    return _maybe_record("mul", out, (a, b), vjp)


# ---------------------------------------------------------------------------
# matrix products
# ---------------------------------------------------------------------------


def _check_lora(w, down, up) -> None:
    """Raise unless arrays or tensors ``down``, ``up`` are LoRA factors of ``w``."""
    if down.ndim != 2 or up.ndim != 2 or down.shape[1] != w.shape[1] or up.shape != (w.shape[0], down.shape[0]):
        raise ShapeMismatch(f"lora_weight: weight {w.shape}, down {down.shape}, up {up.shape}")


def lora_weight(w: np.ndarray, down: np.ndarray, up: np.ndarray) -> np.ndarray:
    """The dense weight ``w + up @ down`` of a matrix with LoRA factors.

    ``w`` is (out, k), ``down`` (r, k) and ``up`` (out, r). Every merged
    weight in the package comes from this one expression, so a forward over
    folded weights computes the bits that training computed.
    """
    _check_lora(w, down, up)
    return w + up @ down


def _is_int(v) -> bool:
    """Whether ``v`` is an integer and not a bool; a plain int takes the fast path."""
    return type(v) is int or (not isinstance(v, bool) and isinstance(v, numbers.Integral))


def _check_span(op: str, span, t: int) -> None:
    """Raise unless ``span`` is an integer image-prefix length in [0, t]."""
    if not _is_int(span) or not 0 <= span <= t:
        raise ShapeMismatch(f"{op}: span must be an integer in [0, {t}], got {span!r}")


def _routed_weight(w: np.ndarray, expert, adapter, span) -> np.ndarray | None:
    """``W_m``: the expert, else the merged weight of ``adapter=(down, up)``, else ``w``; None at span 0."""
    if span == 0:
        return None
    if expert is not None:
        return expert.data
    return w if adapter is None else lora_weight(w, adapter[0].data, adapter[1].data)


def _pre_activation(xd: np.ndarray, wd: np.ndarray, wm, span) -> np.ndarray:
    """A product node's result before GELU and residual; its forward and its vjp both call this.

    ``xd @ wm.T`` when every row is routed (span None), else ``xd @ wd.T``
    with the prefix rows ``[:, :span]`` overwritten by their product with
    ``wm``.
    """
    if span is None:
        return xd @ wm.T
    y = xd @ wd.T
    if span:
        y[:, :span] = (xd[:, :span].reshape(-1, xd.shape[-1]) @ wm.T).reshape(xd.shape[0], span, -1)
    return y


def _product(op: str, x, w, expert, adapter, span, residual, gelu: bool) -> Tensor:
    """The one product node behind ``linear`` and ``routed_linear``.

    The routed rows are every row when ``span`` is None (``linear``) and the
    image prefix ``[:, :span]`` of a (B, T, k) ``x`` otherwise. They take
    the routed weight ``W_m``: the ``expert``, else ``lora_weight(w, down,
    up)`` of a LoRA ``adapter=(down, up)``, else ``w`` itself. ``W_m`` is
    formed only when ``span != 0``, so an all-text batch never reads the
    expert or the factors. A routed product runs ``x @ w.T`` over every row,
    then overwrites the prefix with its ``x @ W_m.T`` rows.

    GELU then runs value-only in the product's buffer with the arithmetic of
    ``gelu``, and the residual, shaped like the output, is added after it,
    so the result has the bits of ``add(residual, gelu(product))``. The node
    keeps only its inputs: no product, no GELU derivative and no merged
    weight. Its vjp forms ``W_m`` again and, under a GELU, rebuilds the
    pre-activation with the forward's own ``_pre_activation`` and takes the
    derivative from it, so the gradients have the bits a kept derivative
    gave. The residual's gradient is the incoming one.

    The backward stays factored. With ``gp`` the gradient behind the GELU
    and ``gs``, ``xs`` the routed rows of ``gp`` and ``x`` as 2-D arrays,
    ``gx`` is ``gp @ W_m``, or for a routed product ``gp @ w`` with the
    prefix replaced by ``gs @ W_m``. ``w`` gets a gradient only when it is
    trainable itself, from the rows after the prefix beside an expert and
    from every row otherwise. The expert gets ``gs.T @ xs`` and the factors
    ``(gs @ up).T @ xs`` and ``gs.T @ (xs @ down.T)``. The node is recorded
    as ``op`` over ``(x, w[, expert][, down, up][, residual])``.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    xd, wd = x.data, w.data
    routed = op == "routed_linear"  # ``linear`` passes span None: every row is routed
    if not xd.ndim or (routed and xd.ndim != 3) or wd.ndim != 2 or xd.shape[-1] != wd.shape[-1]:
        raise ShapeMismatch(f"{op}: x {x.shape} incompatible with weight {w.shape}")
    inputs = (x, w)
    if expert is not None:
        expert = _as_tensor(expert)
        if expert.shape != w.shape:
            raise ShapeMismatch(f"{op}: base {w.shape} vs expert {expert.shape}")
        inputs += (expert,)
    if adapter is not None:
        down, up = _as_tensor(adapter[0]), _as_tensor(adapter[1])
        _check_lora(wd, down.data, up.data)
        adapter = (down, up)
        inputs += adapter
    if routed:
        _check_span(op, span, x.shape[1])
    if residual is not None:
        residual, out_shape = _as_tensor(residual), x.shape[:-1] + (w.shape[0],)
        if residual.shape != out_shape:
            raise ShapeMismatch(f"{op}: residual {residual.shape} vs output {out_shape}")
        inputs += (residual,)
    y = _pre_activation(xd, wd, _routed_weight(wd, expert, adapter, span), span)
    if gelu:
        _gelu_(y)
    if residual is not None:
        y += residual.data
    out = Tensor(y)

    def vjp(g):
        (n, k), bsz = wd.shape, x.shape[0]
        wm = _routed_weight(wd, expert, adapter, span)
        gp = _gelu_grad(_pre_activation(xd, wd, wm, span), g) if gelu else g
        # the routed rows as 2-D arrays; empty at span 0, so the routed gradients are zero
        if span is None:
            gs, xs = gp.reshape(-1, n), xd.reshape(-1, k)
        else:
            gs, xs = gp[:, :span].reshape(-1, n), xd[:, :span].reshape(-1, k)
        gx = gw = None
        if x.requires_grad and span is None:
            gx = gp @ wm
        elif x.requires_grad:
            gx = gp @ wd
            if span:
                gx[:, :span] = (gs @ wm).reshape(bsz, span, k)
        if w.requires_grad and expert is not None:  # beside an expert, w serves the rows after the prefix only
            gw = gp[:, span:].reshape(-1, n).T @ xd[:, span:].reshape(-1, k)
        elif w.requires_grad:  # w itself or inside the merged weight: every row reaches it
            gw = gp.reshape(-1, n).T @ xd.reshape(-1, k)
        grads = (gx, gw)
        if expert is not None:
            grads += (gs.T @ xs if expert.requires_grad else None,)
        if adapter is not None:
            grads += (
                (gs @ up.data).T @ xs if down.requires_grad else None,
                gs.T @ (xs @ down.data.T) if up.requires_grad else None,
            )
        if residual is not None:
            grads += (g if residual.requires_grad else None,)
        return grads

    return _maybe_record(op, out, inputs, vjp)


def linear(x, w, adapter=None, *, residual=None, gelu=False) -> Tensor:
    """``gelu?(x @ W.T) + residual`` for x (..., k) and a weight stored (out, k).

    ``W`` is ``w``, or the merged weight ``lora_weight(w, down, up)`` of a
    LoRA ``adapter=(down, up)``. This is ``_product`` with every row routed:
    the result has the bits of ``add(residual, gelu(linear(x, w, adapter)))``,
    the backward stays factored, and the node is recorded as ``linear`` over
    ``(x, w[, down, up][, residual])``. The node keeps only those inputs; its
    vjp rebuilds the merged weight and, under ``gelu``, the pre-activation.
    """
    return _product("linear", x, w, None, adapter, None, residual, gelu)


def routed_linear(x, w_base, w_expert, span: int, *, adapter=None, residual=None, gelu=False) -> Tensor:
    """Per-position ``gelu?(x @ W.T) + residual``: the image prefix takes a routed weight.

    ``x`` is (B, T, k) and ``span`` an integer in [0, T]: rows ``[:, :span]``
    are image positions and take the expert ``w_expert``, shaped like
    ``w_base``, or the merged weight of a LoRA ``adapter=(down, up)``;
    exactly one of the two is given. Rows from ``span`` on have the bits of
    ``linear(x, w_base, residual=, gelu=)``, and at span 0 neither the expert
    nor the factors are read. This is ``_product`` over the prefix, recorded
    as ``routed_linear`` over ``(x, w_base, w_expert | down, up[,
    residual])``. The node keeps only those inputs; its vjp rebuilds the
    merged weight and, under ``gelu``, the pre-activation: the base product
    with its prefix rows overwritten, as in the forward.
    """
    if (w_expert is None) == (adapter is None):
        raise ValueError("routed_linear: give exactly one of w_expert and adapter")
    return _product("routed_linear", x, w_base, w_expert, adapter, span, residual, gelu)


def routed_lora(x, down, up, span: int) -> Tensor:
    """Low-rank delta (x @ down.T) @ up.T applied at the image prefix only.

    Rows ``[:, :span]`` get the delta; every later row of the output is
    exactly zero without ever touching the adapter factors, so a text
    position can never observe adapter state. The package itself no longer
    calls this: routed adapters run inside ``routed_linear``. It stays
    because ``benchmarks/tracing.py`` wraps it by name, and goes once the
    tracer no longer does.
    """
    x, down, up = _as_tensor(x), _as_tensor(down), _as_tensor(up)
    if x.ndim != 3 or down.ndim != 2 or up.ndim != 2 or x.shape[-1] != down.shape[-1]:
        raise ShapeMismatch(f"routed_lora: x {x.shape}, down {down.shape}, up {up.shape}")
    if up.shape[-1] != down.shape[0]:
        raise ShapeMismatch(f"routed_lora: rank mismatch, down {down.shape} vs up {up.shape}")
    _check_span("routed_lora", span, x.shape[1])
    bsz, k = x.shape[0], x.shape[-1]
    xd, dd, ud = x.data, down.data, up.data
    y = np.zeros(x.shape[:2] + (up.shape[0],))
    if span:
        y[:, :span] = ((xd[:, :span].reshape(-1, k) @ dd.T) @ ud.T).reshape(bsz, span, -1)
    out = Tensor(y)

    def vjp(g):  # at span 0 the products are empty, so the factor gradients are zero
        gs, xs = g[:, :span].reshape(-1, g.shape[-1]), xd[:, :span].reshape(-1, k)
        gx = np.zeros_like(xd) if x.requires_grad else None
        if gx is not None:
            gx[:, :span] = ((gs @ ud) @ dd).reshape(bsz, span, k)
        return (
            gx,
            (gs @ ud).T @ xs if down.requires_grad else None,
            gs.T @ (xs @ dd.T) if up.requires_grad else None,
        )

    return _maybe_record("routed_lora", out, (x, down, up), vjp)


# ---------------------------------------------------------------------------
# nonlinearities and normalization
# ---------------------------------------------------------------------------

_GELU_C = math.sqrt(2.0 / math.pi)


# elements per pass, so a tile and its temporaries stay in L2: at (16, 62, 256) on a
# Xeon with 2 MiB of L2 per core, 16384-32768 were fastest, and one whole-array pass
# took _gelu_grad over twice as long
_GELU_TILE = 16384


def _tiles(a: np.ndarray):
    """``a`` itself, or when larger than a tile, flat views of ``_GELU_TILE`` elements.

    A larger ``a`` must be C-contiguous: only then are its tiles views, so
    that writes to them land in ``a``.
    """
    if a.size <= _GELU_TILE:
        return (a,)
    if not a.flags.c_contiguous:
        raise ValueError(f"GELU tiles need a C-contiguous array, got strides {a.strides}")
    flat = a.reshape(-1)
    return [flat[i : i + _GELU_TILE] for i in range(0, flat.size, _GELU_TILE)]


def _gelu_tanh(q: np.ndarray) -> np.ndarray:
    """tanh(c*(q + 0.044715*q^3)) in a new array."""
    # the cube by multiplication: q**3 takes numpy's generic pow loop, ~40x slower
    t = q * q
    t *= q
    t *= 0.044715
    t += q
    t *= _GELU_C
    np.tanh(t, out=t)
    return t


def _gelu_(p: np.ndarray) -> None:
    """Overwrite ``p`` with its GELU, value only; ``p`` is C-contiguous when larger than a tile.

    Tanh form: 0.5*p*(1 + t) with t = tanh(c*(p + 0.044715*p^3)). It runs
    in tiles of ``_GELU_TILE`` elements, each with the same elementwise
    operations as one whole-array pass, so the bits do not depend on the
    tiling. The standalone ``gelu`` and ``linear(..., gelu=True)`` both run
    this, so they give the same bits; neither keeps the derivative, which
    their vjps rebuild with ``_gelu_grad``.
    """
    for q in _tiles(p):
        t = _gelu_tanh(q)
        t += 1.0
        q *= t
        q *= 0.5


def _gelu_grad(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Overwrite ``p`` with GELU'(p) * g and return it; ``p`` as for ``_gelu_``, ``g`` of any layout.

    The derivative of ``_gelu_``'s arithmetic, tile by tile with the same
    tiles: d = 0.5*(1 + t) + u*(1 - t^2) with u = 0.5*c*p*(1 + 3*0.044715*p^2),
    evaluated as (1 + t) * (0.5 + u*(1 - t)), then multiplied by ``g``.
    """
    for q, gq in zip(_tiles(p), _tiles(np.ascontiguousarray(g))):
        t = _gelu_tanh(q)
        d = q * q
        d *= 3 * 0.044715
        d += 1.0
        d *= q
        d *= 0.5 * _GELU_C
        d *= np.subtract(1.0, t)
        d += 0.5
        t += 1.0
        d *= t
        np.multiply(d, gq, out=q)
    return p


def gelu(x) -> Tensor:
    """GELU, tanh form; a recorded node keeps only its input and rebuilds the derivative."""
    x = _as_tensor(x)
    xd = x.data
    y = xd.copy()
    _gelu_(y)
    out = Tensor(y)

    def vjp(g):
        return (_gelu_grad(xd.copy(), g),)

    return _maybe_record("gelu", out, (x,), vjp)


_RMS_EPS = 1e-12


def rms_norm(x, gain) -> Tensor:
    """Scale each last-axis row to unit root-mean-square, then apply gain.

    The epsilon only guards all-zero rows; on ordinary data the output RMS
    is 1 to within float64 rounding.
    """
    x, gain = _as_tensor(x), _as_tensor(gain)
    xd, gd = x.data, gain.data
    if xd.ndim == 0 or gain.shape != (xd.shape[-1],):
        raise ShapeMismatch(f"rms_norm: gain {gain.shape} vs x {x.shape}")
    n = xd.shape[-1]
    inv = 1.0 / np.sqrt((xd * xd).mean(axis=-1, keepdims=True) + _RMS_EPS)
    y = xd * inv
    y *= gd
    out = Tensor(y)

    def vjp(g):
        gx = ggain = None
        if x.requires_grad:
            h = g * gd
            gx = inv * h - xd * (inv**3 / n) * (xd * h).sum(axis=-1, keepdims=True)
        if gain.requires_grad:
            # the pre-gain rows are recomputed rather than kept on the tape
            yg = xd * inv
            yg *= g
            ggain = yg.reshape(-1, n).sum(axis=0)
        return gx, ggain

    return _maybe_record("rms_norm", out, (x, gain), vjp)


# ---------------------------------------------------------------------------
# embedding lookup and sequence concat
# ---------------------------------------------------------------------------


def embed(table, ids: np.ndarray) -> Tensor:
    """Gather rows of an embedding table; ids are a constant int array."""
    table = _as_tensor(table)
    ids = np.asarray(ids)
    if table.ndim == 0 or ids.dtype.kind not in "iu":  # bool ids would select rows as a mask
        raise ShapeMismatch(f"embed: needs a table and integer ids, got table {table.shape} and ids {ids.dtype}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(f"embed: id out of range for table with {table.shape[0]} rows")
    out = Tensor(table.data[ids])

    def vjp(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return _maybe_record("embed", out, (table,), vjp)


def concat_seq(a, b) -> Tensor:
    """Concatenate two (B, T, d) tensors along the sequence axis."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 3 or b.ndim != 3 or a.shape[0] != b.shape[0] or a.shape[2] != b.shape[2]:
        raise ShapeMismatch(f"concat_seq: shapes {a.shape} and {b.shape}")
    out = Tensor(np.concatenate([a.data, b.data], axis=1))
    ta = a.shape[1]

    def vjp(g):
        return (
            g[:, :ta] if a.requires_grad else None,
            g[:, ta:] if b.requires_grad else None,
        )

    return _maybe_record("concat_seq", out, (a, b), vjp)


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

_CAUSAL_MASKS: dict[int, np.ndarray] = {}


def _causal_mask(t: int) -> np.ndarray:
    m = _CAUSAL_MASKS.get(t)
    if m is None:
        m = np.triu(np.full((t, t), -np.inf), k=1)
        _CAUSAL_MASKS[t] = m
    return m


def attention(q, k, v, n_heads: int, causal: bool = True) -> Tensor:
    """Multi-head scaled-dot-product attention over (B, T, d) streams."""
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if not (q.shape == k.shape == v.shape) or q.ndim != 3:
        raise ShapeMismatch(f"attention: q {q.shape}, k {k.shape}, v {v.shape}")
    bsz, t, d = q.shape
    if not _is_int(n_heads) or n_heads <= 0:
        raise ShapeMismatch(f"attention: n_heads must be a positive integer, got {n_heads!r}")
    if d % n_heads:
        raise ShapeMismatch(f"attention: width {d} not divisible by {n_heads} heads")
    hd = d // n_heads
    scale = 1.0 / math.sqrt(hd)

    def split(x):
        return x.reshape(bsz, t, n_heads, hd).transpose(0, 2, 1, 3)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    s = np.matmul(qh, kh.swapaxes(-1, -2))
    s *= scale
    if causal:
        s += _causal_mask(t)
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    p = s
    o = np.matmul(p, vh)
    out = Tensor(o.transpose(0, 2, 1, 3).reshape(bsz, t, d))

    def vjp(g):
        gh = g.reshape(bsz, t, n_heads, hd).transpose(0, 2, 1, 3)
        gq = gk = gv = None
        if v.requires_grad:
            gv = np.matmul(p.swapaxes(-1, -2), gh).transpose(0, 2, 1, 3).reshape(bsz, t, d)
        if q.requires_grad or k.requires_grad:
            # gs = p * (gp - rowsum(gp * p)) * scale, built in gp's buffer
            gs = np.matmul(gh, vh.swapaxes(-1, -2))
            gs -= (gs * p).sum(axis=-1, keepdims=True)
            gs *= p
            gs *= scale
            if q.requires_grad:
                gq = np.matmul(gs, kh).transpose(0, 2, 1, 3).reshape(bsz, t, d)
            if k.requires_grad:
                gk = np.matmul(gs.swapaxes(-1, -2), qh).transpose(0, 2, 1, 3).reshape(bsz, t, d)
        return gq, gk, gv

    return _maybe_record("attention", out, (q, k, v), vjp)


# ---------------------------------------------------------------------------
# loss kernels and reductions
# ---------------------------------------------------------------------------


def masked_nll(logits, targets: np.ndarray, weights: np.ndarray) -> Tensor:
    """Weighted negative log-likelihood: sum_p weights[p] * nll[p].

    ``targets`` (integer ids in [0, vocab)) and ``weights`` are constants
    shaped like logits minus the vocabulary axis. The caller encodes its
    averaging convention in the weights (zero at ignored positions).

    A recorded node keeps the row max and the softmax denominator, (..., 1)
    each, not the (..., vocab) probabilities: its vjp rebuilds them as
    ``exp(logits - max) / denom``, the forward's own operations, then
    multiplies by the weights.
    """
    logits = _as_tensor(logits)
    targets = np.asarray(targets)
    weights = np.asarray(weights, dtype=np.float64)
    if logits.ndim == 0 or logits.shape[:-1] != targets.shape or targets.shape != weights.shape:
        raise ShapeMismatch(
            f"masked_nll: logits {logits.shape}, targets {targets.shape}, weights {weights.shape}"
        )
    vocab = logits.shape[-1]
    if not np.issubdtype(targets.dtype, np.integer):  # bool is not an integer dtype here
        raise ValueError(f"masked_nll: targets must be integers, got dtype {targets.dtype}")
    if targets.size and (targets.min() < 0 or targets.max() >= vocab):
        raise IndexError(
            f"masked_nll: targets span [{targets.min()}, {targets.max()}], outside vocabulary of {vocab}"
        )
    ld = logits.data
    mx = ld.max(axis=-1, keepdims=True)
    z = ld - mx
    zt = np.take_along_axis(z, targets[..., None], axis=-1)
    denom = np.exp(z, out=z).sum(axis=-1, keepdims=True)
    picked = (zt - np.log(denom))[..., 0]  # log-probs at the targets only
    out = Tensor(-(weights * picked).sum())

    def vjp(g):
        # the probabilities, rebuilt from the logits as the forward computed them
        gl = ld - mx
        np.exp(gl, out=gl)
        gl /= denom
        gl *= weights[..., None]
        np.subtract.at(
            gl.reshape(-1, gl.shape[-1]),
            (np.arange(targets.size), targets.reshape(-1)),
            weights.reshape(-1),
        )
        gl *= g
        return (gl,)

    return _maybe_record("masked_nll", out, (logits,), vjp)


def sum_all(x) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(x.data.sum())
    shape = x.shape

    def vjp(g):
        return (np.broadcast_to(g, shape).copy(),)

    return _maybe_record("sum_all", out, (x,), vjp)
