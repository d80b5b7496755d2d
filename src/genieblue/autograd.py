"""Dense float64 tensor kernels with a reverse-mode gradient tape.

Everything downstream (blocks, adapters, training) is built from the kernels
in this module. All data is contiguous row-major float64; kernels are pure
functions of their inputs, so identical inputs give bit-identical outputs.

Gradients are recorded on an explicit tape (a Wengert list): while a
``GradTape`` is active, every kernel whose inputs are tracked appends one
node holding its inputs and output and the values its backward pass needs
that are not cheap to rebuild. What is cheap is rebuilt from the inputs with
the forward's own operations, so the gradients keep their bits. A pre-norm
transformer block is two nodes: the attention half, entered through
``attention``, and the FFN half, a product node with a norm prologue. They
keep the block input and the mid-block stream, their operands and
attention's (B, H, T, 1) row max and softmax denominator; the normed rows,
q, k, v, the attention probabilities and output, the FFN hidden rows, GELU
derivatives and merged LoRA weights are all rebuilt. ``gelu`` keeps no
derivative, and ``masked_nll`` keeps a row max and a denominator, not the
probabilities. ``backward`` replays the list in reverse, which visits each
node exactly once in reverse topological order because recording order is
execution order, and spends the tape as it goes: a replayed node drops its
arrays and keeps only its op name.
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

    The replay spends the tape: once a node has been replayed, or skipped
    because its output never reached the loss, it drops its output, inputs
    and vjp and keeps only its ``op``. Every consumer of a node's output was
    recorded after it and so replayed before it, so by then nothing needs
    that output, and an array the tape alone held (the logits, a block's
    stream) is freed as soon as backward has passed its producer.
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
        inputs, vjp = node.inputs, node.vjp
        owned.discard(node.out)  # g may now be handed on by the vjp
        node.out = node.inputs = node.vjp = None
        if g is None:
            continue  # output never contributed to the loss
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"non-finite gradient flowing into node '{node.op}'")
        for inp, gi in zip(inputs, vjp(g)):
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


def is_int(v) -> bool:
    """Whether ``v`` is an integer and not a bool; a plain int takes the fast path.

    This is the package's one integer check: every entry point that takes a
    count, a size or a span tests it with this, so ``True`` is never 1.
    """
    return type(v) is int or (not isinstance(v, bool) and isinstance(v, numbers.Integral))


def _check_span(op: str, span, t: int) -> None:
    """Raise unless ``span`` is an integer image-prefix length in [0, t]."""
    if not is_int(span) or not 0 <= span <= t:
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


def _checked_matrix(op: str, rows: tuple[int, ...], w, expert, adapter, span, routed: bool):
    """One matrix of a product node as Tensors ``(w, expert, adapter)``, checked against its rows.

    ``rows`` is the shape of the array the matrix multiplies. ``w`` must be
    2-D and as wide as a row, an ``expert`` shaped like ``w`` and an
    ``adapter`` LoRA factors of ``w``. A ``routed`` matrix needs (B, T, k)
    rows and an integer ``span`` in [0, T].
    """
    w = _as_tensor(w)
    ws = w.data.shape
    if not rows or (routed and len(rows) != 3) or len(ws) != 2 or rows[-1] != ws[1]:
        raise ShapeMismatch(f"{op}: x {rows} incompatible with weight {ws}")
    if expert is not None:
        expert = _as_tensor(expert)
        if expert.shape != w.shape:
            raise ShapeMismatch(f"{op}: base {w.shape} vs expert {expert.shape}")
    if adapter is not None:
        adapter = (_as_tensor(adapter[0]), _as_tensor(adapter[1]))
        _check_lora(w.data, adapter[0].data, adapter[1].data)
    if routed:
        _check_span(op, span, rows[1])
    return w, expert, adapter


def _operands(w: Tensor, expert, adapter) -> tuple[Tensor, ...]:
    """A matrix's inputs in node order: ``(w[, expert][, down, up])``."""
    return (w,) + ((expert,) if expert is not None else ()) + (adapter or ())


def _rows_grad(gp, wd: np.ndarray, wm, span) -> np.ndarray:
    """The gradient ``gp @ W_m`` of a product's rows, ``gp`` that of its result; see ``_factored_grads``.

    A routed product takes ``gp @ w`` with the prefix rows replaced by
    their product with ``W_m``. Needing no rows, it can run before they are
    rebuilt.
    """
    if span is None:
        return gp @ wm
    gx = gp @ wd
    if span:
        (n, k), bsz = wd.shape, gp.shape[0]
        gx[:, :span] = (gp[:, :span].reshape(-1, n) @ wm).reshape(bsz, span, k)
    return gx


def _factored_grads(gp, xd, w, expert, adapter, span, wm, x_grad: bool) -> tuple:
    """The gradients of one product over rows ``xd``, ``gp`` being the gradient of its result.

    Returns ``(gx, gw[, g_expert][, g_down, g_up])``, with None for a frozen
    operand, and for ``gx`` unless ``x_grad``. With ``gs``, ``xs`` the
    routed rows of ``gp`` and ``xd`` as 2-D arrays, ``gx`` is
    ``_rows_grad``. ``w`` gets a gradient only when it is trainable itself,
    from the rows after the prefix beside an expert and from every row
    otherwise. The expert gets ``gs.T @ xs`` and the factors
    ``(gs @ up).T @ xs`` and ``gs.T @ (xs @ down.T)``.
    """
    wd = w.data
    n, k = wd.shape
    # the routed rows as 2-D arrays; empty at span 0, so the routed gradients are zero
    if span is None:
        gs, xs = gp.reshape(-1, n), xd.reshape(-1, k)
    else:
        gs, xs = gp[:, :span].reshape(-1, n), xd[:, :span].reshape(-1, k)
    gx = _rows_grad(gp, wd, wm, span) if x_grad else None
    gw = None
    if w.requires_grad and expert is not None:  # beside an expert, w serves the rows after the prefix only
        gw = gp[:, span:].reshape(-1, n).T @ xd[:, span:].reshape(-1, k)
    elif w.requires_grad:  # w itself or inside the merged weight: every row reaches it
        gw = gp.reshape(-1, n).T @ xd.reshape(-1, k)
    grads = (gx, gw)
    if expert is not None:
        grads += (gs.T @ xs if expert.requires_grad else None,)
    if adapter is not None:
        down, up = adapter
        grads += (
            (gs @ up.data).T @ xs if down.requires_grad else None,
            gs.T @ (xs @ down.data.T) if up.requires_grad else None,
        )
    return grads


def _checked_spec(op: str, rows: tuple[int, ...], spec) -> tuple:
    """A matrix spec ``(w, expert, adapter, span)`` as Tensors, checked against the rows it multiplies.

    A span None routes every row and takes no expert; an integer span routes
    the image prefix and takes exactly one of an expert and an adapter.
    """
    w, expert, adapter, span = spec
    if (expert is not None and span is None) or (span is not None and (expert is None) == (adapter is None)):
        raise ValueError(
            f"{op}: a routed matrix takes exactly one of an expert and an adapter, an unrouted one no expert"
        )
    return _checked_matrix(op, rows, w, expert, adapter, span, span is not None) + (span,)


def _product(op: str, x, w, expert, adapter, span, residual, inner=None, norm=None) -> Tensor:
    """The one product node behind ``linear`` and ``routed_linear``.

    The routed rows are every row when ``span`` is None (``linear``) and the
    image prefix ``[:, :span]`` of a (B, T, k) ``x`` otherwise. They take
    the routed weight ``W_m``: the ``expert``, else ``lora_weight(w, down,
    up)`` of a LoRA ``adapter=(down, up)``, else ``w`` itself. ``W_m`` is
    formed only when ``span != 0``, so an all-text batch never reads the
    expert or the factors. A routed product runs ``x @ w.T`` over every row,
    then overwrites the prefix with its ``x @ W_m.T`` rows.

    ``inner``, a matrix spec ``(w_h, expert_h, adapter_h, span_h)`` whose
    span None means every row, puts a hidden layer in front: the product
    then runs over ``gelu(x @ W_h.T)`` instead of ``x``, with ``W_h`` routed
    as above. That is a whole FFN in one node, with the bits of the inner
    product, ``gelu`` and the outer product as three nodes. ``norm``, a gain
    as wide as a row of ``x``, puts ``rms_norm(x, norm)`` in front of
    everything, with ``rms_norm``'s own arithmetic (``_rms_rows``). The
    residual, shaped like the output, is added last, so the result has the
    bits of ``add(residual, product)``. With ``norm``, ``inner`` and the
    residual ``x``, the node is the FFN half of a pre-norm block.

    The node keeps only its inputs: no normed rows, no hidden rows, no GELU
    derivative and no merged weight. Its vjp forms the merged weights again
    and rebuilds the normed and hidden rows with the forward's own
    ``_rms_rows`` and ``_pre_activation``, so the gradients have the bits of
    kept arrays. With ``inner``, it takes the hidden rows' gradient
    (``_rows_grad``) before it rebuilds them; one tiled pass then turns the
    rebuilt pre-activations into their GELU and multiplies that gradient by
    the GELU slope in place, from one ``tanh`` per element, so no slope
    array is built. The outer product's weight gradients are taken over the
    hidden rows, and the hidden gradient gives the inner product's; both use
    ``_factored_grads``, and each rebuilt array is dropped after its last
    use. The normed rows' gradient gives those of ``x`` and the gain
    through ``_rms_grads``, and the residual's gradient is the incoming
    one. The node is recorded as
    ``op`` over ``(x, w[, expert][, down, up][, w_h[, expert_h][, down_h,
    up_h]][, gain][, residual])``.
    """
    x = _as_tensor(x)
    rows = x.data.shape
    gain = None if norm is None else _checked_gain(op, rows, norm)
    if inner is not None:
        inner = _checked_spec(op, rows, inner)
        rows = rows[:-1] + (inner[0].shape[0],)
    w, expert, adapter = _checked_matrix(op, rows, w, expert, adapter, span, op == "routed_linear")
    inputs = (x,) + _operands(w, expert, adapter)
    if inner is not None:
        inputs += _operands(*inner[:3])
    if gain is not None:
        inputs += (gain,)
    if residual is not None:
        residual, out_shape = _as_tensor(residual), rows[:-1] + (w.shape[0],)
        if residual.shape != out_shape:
            raise ShapeMismatch(f"{op}: residual {residual.shape} vs output {out_shape}")
        inputs += (residual,)
    xd, wd = x.data, w.data
    h = xd if gain is None else _rms_rows(xd, gain.data)[0]
    if inner is not None:
        wh, eh, ah, sh = inner
        h = _pre_activation(h, wh.data, _routed_weight(wh.data, eh, ah, sh), sh)
        _gelu_(h)
    y = _pre_activation(h, wd, _routed_weight(wd, expert, adapter, span), span)
    if residual is not None:
        y += residual.data
    out = Tensor(y)
    if not _will_record(inputs):  # the tape-off path builds no vjp closure
        return out
    # whether the rows the products run over, x or its normed rows, need a gradient
    xn_grad = x.requires_grad or (gain is not None and gain.requires_grad)

    def vjp(g):
        if gain is None:
            xn = xd
        else:  # the normed rows, rebuilt
            xn, inv = _rms_rows(xd, gain.data)
        wm = _routed_weight(wd, expert, adapter, span)
        if inner is None:
            grads = _factored_grads(g, xn, w, expert, adapter, span, wm, xn_grad)
        else:  # the hidden rows' gradient first, then the rows, rebuilt, and both through GELU
            wh, eh, ah, sh = inner
            wmh = _routed_weight(wh.data, eh, ah, sh)
            gh = _rows_grad(g, wd, wm, span)
            hd = _pre_activation(xn, wh.data, wmh, sh)
            _gelu_and_grad_(hd, gh)
            grads = _factored_grads(g, hd, w, expert, adapter, span, wm, False)
            del hd
            inner_grads = _factored_grads(gh, xn, wh, eh, ah, sh, wmh, xn_grad)
            del gh
            grads = inner_grads[:1] + grads[1:] + inner_grads[1:]
        del xn
        if gain is not None:
            gx, ggain = _rms_grads(grads[0], xd, gain.data, inv, x.requires_grad, gain.requires_grad)
            grads = (gx,) + grads[1:] + (ggain,)
        if residual is not None:
            grads += (g if residual.requires_grad else None,)
        return grads

    return _maybe_record(op, out, inputs, vjp)


def linear(x, w, adapter=None, *, residual=None, inner=None, norm=None) -> Tensor:
    """``x @ W.T + residual`` for x (..., k) and a weight stored (out, k).

    ``W`` is ``w``, or the merged weight ``lora_weight(w, down, up)`` of a
    LoRA ``adapter=(down, up)``. This is ``_product`` with every row routed:
    the result has the bits of ``add(residual, linear(x, w, adapter))``, the
    backward stays factored, and the node is recorded as ``linear`` over
    ``(x, w[, down, up][, residual])``. The node keeps only those inputs; its
    vjp rebuilds the merged weight.

    ``inner=(w_h, expert_h, adapter_h, span_h)`` makes the node a whole FFN:
    ``x`` first goes through ``gelu(x @ W_h.T)``, with ``W_h`` routed as in
    ``routed_linear`` when ``span_h`` is an integer and merged over every
    row when it is None. ``norm=gain`` puts ``rms_norm(x, gain)`` in front
    of that. The result has the bits of ``linear(gelu(linear(rms_norm(x,
    gain), w_h, adapter_h)), w, adapter, residual=)`` (or ``routed_linear``
    inside), the operands of ``inner`` and then the gain join the node's
    inputs before the residual, and the vjp rebuilds the normed and hidden
    rows, which the node does not keep.
    """
    return _product("linear", x, w, None, adapter, None, residual, inner, norm)


def routed_linear(x, w_base, w_expert, span: int, *, adapter=None, residual=None, inner=None, norm=None) -> Tensor:
    """Per-position ``x @ W.T + residual``: the image prefix takes a routed weight.

    ``x`` is (B, T, k) and ``span`` an integer in [0, T]: rows ``[:, :span]``
    are image positions and take the expert ``w_expert``, shaped like
    ``w_base``, or the merged weight of a LoRA ``adapter=(down, up)``;
    exactly one of the two is given. Rows from ``span`` on have the bits of
    ``linear(x, w_base, residual=)``, and at span 0 neither the expert nor
    the factors are read. This is ``_product`` over the prefix, recorded as
    ``routed_linear`` over ``(x, w_base, w_expert | down, up[, residual])``.
    The node keeps only those inputs; its vjp rebuilds the merged weight.
    ``inner`` puts a GELU hidden layer in front and ``norm`` an RMS norm in
    front of that, as in ``linear``.
    """
    if (w_expert is None) == (adapter is None):
        raise ValueError("routed_linear: give exactly one of w_expert and adapter")
    return _product("routed_linear", x, w_base, w_expert, adapter, span, residual, inner, norm)


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
    tiling. The standalone ``gelu`` and the hidden layer of a product node
    both run this, so they give the same bits; neither keeps the derivative,
    which their vjps rebuild with ``_gelu_grad`` or ``_gelu_with_slope_``.
    """
    for q in _tiles(p):
        t = _gelu_tanh(q)
        t += 1.0
        q *= t
        q *= 0.5


def _gelu_slope(q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """0.5 + u*(1 - t) in a new array, u = 0.5*c*q*(1 + 3*0.044715*q^2), ``t`` the tanh of ``q``.

    GELU'(q) = 0.5*(1 + t) + u*(1 - t^2) is this times (1 + t).
    """
    d = q * q
    d *= 3 * 0.044715
    d += 1.0
    d *= q
    d *= 0.5 * _GELU_C
    d *= np.subtract(1.0, t)
    d += 0.5
    return d


def _gelu_grad(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Overwrite ``p`` with GELU'(p) * g and return it; ``p`` as for ``_gelu_``, ``g`` of any layout.

    The derivative of ``_gelu_``'s arithmetic, tile by tile with the same
    tiles: (1 + t) * ``_gelu_slope``, then multiplied by ``g``.
    """
    for q, gq in zip(_tiles(p), _tiles(np.ascontiguousarray(g))):
        t = _gelu_tanh(q)
        d = _gelu_slope(q, t)
        t += 1.0
        d *= t
        np.multiply(d, gq, out=q)
    return p


def _gelu_and_grad_(p: np.ndarray, g: np.ndarray) -> None:
    """Overwrite ``p`` with its GELU and ``g`` with GELU'(p) * g, from one tanh per element.

    ``p`` and ``g`` are alike in shape and, when larger than a tile,
    C-contiguous. Each tile runs the operations of ``_gelu_`` and of
    ``_gelu_grad`` on one shared tanh, so ``p`` gets ``_gelu_``'s bits and
    ``g`` ``_gelu_grad``'s, and no slope array is built.
    """
    for q, gq in zip(_tiles(p), _tiles(g)):
        t = _gelu_tanh(q)
        d = _gelu_slope(q, t)
        t += 1.0
        d *= t
        gq *= d
        q *= t
        q *= 0.5


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


def _checked_gain(op: str, shape: tuple[int, ...], gain) -> Tensor:
    """``gain`` as a Tensor, checked as the norm gain of rows of an array shaped ``shape``."""
    gain = _as_tensor(gain)
    if not shape or gain.shape != (shape[-1],):
        raise ShapeMismatch(f"{op}: gain {gain.shape} vs x {shape}")
    if not shape[-1]:
        raise ShapeMismatch(f"{op}: rows of x {shape} have no elements to normalise")
    return gain


def _rms_rows(xd: np.ndarray, gd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The normed rows ``xd * inv * gd`` and their (..., 1) inverse RMS ``inv``.

    ``rms_norm`` and the norm prologues of the block halves run this in
    their forwards, and the halves again in their vjps, so the rebuilt rows
    have the bits of the kept ones.
    """
    inv = 1.0 / np.sqrt((xd * xd).mean(axis=-1, keepdims=True) + _RMS_EPS)
    y = xd * inv
    y *= gd
    return y, inv


def _rms_grads(g, xd, gd, inv, x_grad: bool, gain_grad: bool) -> tuple:
    """``(gx, ggain)`` of ``_rms_rows(xd, gd)`` for the gradient ``g`` of its rows, None where not wanted."""
    gx = ggain = None
    n = xd.shape[-1]
    if x_grad:
        h = g * gd
        gx = inv * h - xd * (inv**3 / n) * (xd * h).sum(axis=-1, keepdims=True)
    if gain_grad:
        # the pre-gain rows are recomputed rather than kept on the tape
        yg = xd * inv
        yg *= g
        ggain = yg.reshape(-1, n).sum(axis=0)
    return gx, ggain


def rms_norm(x, gain) -> Tensor:
    """Scale each last-axis row to unit root-mean-square, then apply gain.

    The epsilon only guards all-zero rows; on ordinary data the output RMS
    is 1 to within float64 rounding. A recorded node keeps the (..., 1)
    inverse RMS besides its inputs.
    """
    x = _as_tensor(x)
    gain = _checked_gain("rms_norm", x.shape, gain)
    xd, gd = x.data, gain.data
    y, inv = _rms_rows(xd, gd)
    out = Tensor(y)

    def vjp(g):
        return _rms_grads(g, xd, gd, inv, x.requires_grad, gain.requires_grad)

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


def _attention_probs(qh, kh, scale: float, causal: bool, mx=None, denom=None):
    """Softmax rows of the scaled, masked scores ``qh @ kh.T``: ``(p, row max, denominator)``.

    The forward lets this find the row max and the denominator, (B, H, T, 1)
    each; the vjp passes them back in and so rebuilds the probabilities
    with the forward's own operations.
    """
    p = np.matmul(qh, kh.swapaxes(-1, -2))
    p *= scale
    if causal:
        p += _causal_mask(p.shape[-1])
    if mx is None:
        mx = p.max(axis=-1, keepdims=True)
    p -= mx
    np.exp(p, out=p)
    if denom is None:
        denom = p.sum(axis=-1, keepdims=True)
    p /= denom
    return p, mx, denom


def _heads(a: np.ndarray, n_heads: int) -> np.ndarray:
    """(B, T, d) rows as a (B, H, T, d / H) view of heads."""
    bsz, t, d = a.shape
    return a.reshape(bsz, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge(a: np.ndarray) -> np.ndarray:
    """(B, H, T, hd) heads as new contiguous (B, T, H * hd) rows."""
    bsz, n_heads, t, hd = a.shape
    return a.transpose(0, 2, 1, 3).reshape(bsz, t, n_heads * hd)


def _attention_scale(shape: tuple[int, ...], n_heads) -> float:
    """The score scale ``1 / sqrt(d / H)`` for (B, T, d) streams, T > 0, checked."""
    bsz, t, d = shape
    if not t:
        raise ShapeMismatch(f"attention: empty sequence, q {shape}")
    if not is_int(n_heads) or n_heads <= 0:
        raise ShapeMismatch(f"attention: n_heads must be a positive integer, got {n_heads!r}")
    if d % n_heads:
        raise ShapeMismatch(f"attention: width {d} not divisible by {n_heads} heads")
    return 1.0 / math.sqrt(d // n_heads)


# score elements per chunk of samples in an attention backward, so that the chunk's
# (b, H, T, T) probabilities and score gradient stay small: at the default LM shape
# (H 4, T 62) that is 4 of 16 samples, and the vision encoder's 16 samples fit in one
_ATTENTION_TILE = 65536


def _attention_grads(gh, qh, kh, vh, p, scale: float, out) -> None:
    """Write the gradients of q, k and v for the gradient ``gh`` of the output heads into ``out``.

    ``qh``, ``kh``, ``vh`` and ``gh`` are heads, ``p`` the probabilities,
    and ``out = (gq, gk, gv)`` head views to write into, None where not
    wanted.
    """
    gq, gk, gv = out
    if gv is not None:
        gv[...] = np.matmul(p.swapaxes(-1, -2), gh)
    if gq is not None or gk is not None:
        # gs = p * (gp - rowsum(gp * p)) * scale, built in gp's buffer
        gs = np.matmul(gh, vh.swapaxes(-1, -2))
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gs *= scale
        if gq is not None:
            gq[...] = np.matmul(gs, kh)
        if gk is not None:
            gk[...] = np.matmul(gs.swapaxes(-1, -2), qh)


def _attention_backward(ga, qh, kh, vh, mx, denom, scale: float, causal: bool, wanted, ao=None) -> list:
    """``[gq, gk, gv]`` as (B, T, d) rows for the gradient ``ga`` of the output rows, a few samples at a time.

    None where not ``wanted``, and all None when ``ga`` is. The heads
    ``qh``, ``kh``, ``vh`` and the row max and denominator of the forward
    rebuild each chunk's probabilities through ``_attention_probs``; when
    given, ``ao`` receives the attention output rows. A stacked matmul is
    one product per (sample, head) and the softmax works row by row, so
    the chunks give the bits of one whole-batch pass without ever holding
    the (B, H, T, T) probabilities.
    """
    bsz, n_heads, t, hd = qh.shape
    grads = [np.empty((bsz, t, n_heads * hd)) if w and ga is not None else None for w in wanted]
    step = max(1, _ATTENTION_TILE // (n_heads * t * t))
    for b in range(0, bsz, step):
        c = slice(b, b + step)
        p = _attention_probs(qh[c], kh[c], scale, causal, mx[c], denom[c])[0]
        if ao is not None:
            _heads(ao[c], n_heads)[...] = np.matmul(p, vh[c])
        if ga is not None:
            out = [None if a is None else _heads(a[c], n_heads) for a in grads]
            _attention_grads(_heads(ga[c], n_heads), qh[c], kh[c], vh[c], p, scale, out)
        del p  # before the next chunk's probabilities are built
    return grads


def attention(q, k, v, n_heads: int, causal: bool = True, *, x=None, gain=None, wo=None) -> Tensor:
    """Multi-head scaled-dot-product attention over (B, T, d) streams, T > 0.

    A recorded node keeps the row max and the softmax denominator, (B, H,
    T, 1) each, not the (B, H, T, T) probabilities: its vjp rebuilds them
    from q and k through ``_attention_probs``, as the forward made them, a
    few samples at a time (``_attention_backward``).

    Given the block input ``x``, a norm ``gain`` and an output matrix
    ``wo``, the node is instead the attention half of a pre-norm block (see
    ``_attention_half``): ``q``, ``k``, ``v`` and ``wo`` are then matrix
    specs ``(w, expert, adapter, span)``, as ``linear``'s ``inner`` takes.
    """
    if x is not None or gain is not None or wo is not None:
        if x is None or gain is None or wo is None:
            raise ValueError("attention: the block half takes all of x, gain and wo")
        return _attention_half(x, gain, (q, k, v), wo, n_heads, causal)
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if not (q.shape == k.shape == v.shape) or q.ndim != 3:
        raise ShapeMismatch(f"attention: q {q.shape}, k {k.shape}, v {v.shape}")
    scale = _attention_scale(q.shape, n_heads)
    qh, kh, vh = _heads(q.data, n_heads), _heads(k.data, n_heads), _heads(v.data, n_heads)
    p, mx, denom = _attention_probs(qh, kh, scale, causal)
    out = Tensor(_merge(np.matmul(p, vh)))
    if not _will_record((q, k, v)):  # the tape-off path builds no vjp closure
        return out

    def vjp(g):
        wanted = [t.requires_grad for t in (q, k, v)]
        return tuple(_attention_backward(g, qh, kh, vh, mx, denom, scale, causal, wanted))

    return _maybe_record("attention", out, (q, k, v), vjp)


def _qkv_heads(hn: np.ndarray, mats, n_heads: int) -> tuple[list, list]:
    """The routed weights of the q, k, v specs ``mats`` and the heads of their products over ``hn``."""
    wms = [_routed_weight(w.data, e, a, s) for w, e, a, s in mats]
    return wms, [_heads(_pre_activation(hn, m[0].data, wm, m[3]), n_heads) for m, wm in zip(mats, wms)]


def _attention_half(x, gain, mats, wo, n_heads: int, causal: bool) -> Tensor:
    """``x + attention(q, k, v) @ W_o.T``, q, k, v the ``mats`` products of ``rms_norm(x, gain)``, as one node.

    ``mats`` are the q, k and v matrix specs and ``wo`` the output's, each
    routed as in ``_product``. The result has the bits of the flat graph:
    ``rms_norm``, a product node per matrix (the ``wo`` one adding ``x``)
    and ``attention``. The node keeps its inputs and attention's (B, H, T,
    1) row max and softmax denominator, nothing of (B, T, d) size besides
    ``x``. The forward drops the probabilities, q, k and v before the
    ``wo`` product. The vjp rebuilds the normed rows, q, k and v with the
    forward's own ``_rms_rows`` and ``_pre_activation`` and takes the flat
    graph's gradients: the attention output's through ``wo`` first, which
    needs no rows; then ``_attention_backward``, a few samples at a time,
    rebuilds the probabilities with ``_attention_probs``, writes the
    attention output rows and takes q, k and v's gradients, so the (B, H,
    T, T) probabilities never exist whole; then ``wo``'s own gradients over
    the whole attention output; then v, k and q, whose row gradients sum as
    ``(gx_v + gx_k) + gx_q``; then the norm, and ``x`` gets ``g +
    gx_norm``. Each rebuilt array is dropped after its last use, and only
    the gradients the flat graph would have are computed. The node is
    recorded as ``attention`` over ``(x, wo, v, k and q operands, gain)``,
    the matrices in the flat graph's reverse order, so a tensor shared by
    two of them sums its gradients as before.
    """
    op = "attention"
    x = _as_tensor(x)
    if x.ndim != 3:
        raise ShapeMismatch(f"{op}: x {x.shape} is not (B, T, d)")
    gain = _checked_gain(op, x.shape, gain)
    mats = [_checked_spec(op, x.shape, m) for m in mats]
    widths = {m[0].shape[0] for m in mats}
    if len(widths) != 1:
        raise ShapeMismatch(f"{op}: q, k and v widths {[m[0].shape[0] for m in mats]} differ")
    rows = x.shape[:2] + tuple(widths)
    scale = _attention_scale(rows, n_heads)
    wo = _checked_spec(op, rows, wo)
    if wo[0].shape[0] != x.shape[-1]:
        raise ShapeMismatch(f"{op}: output width {wo[0].shape[0]} vs residual {x.shape}")
    replay = (wo,) + tuple(reversed(mats))  # the flat graph's replay order
    inputs = (x,) + tuple(t for m in replay for t in _operands(*m[:3])) + (gain,)
    xd, gd = x.data, gain.data
    hn = _rms_rows(xd, gd)[0]
    qh, kh, vh = _qkv_heads(hn, mats, n_heads)[1]
    p, mx, denom = _attention_probs(qh, kh, scale, causal)
    ao = _merge(np.matmul(p, vh))
    del hn, qh, kh, vh, p  # not alive through the output product
    w, e, a, s = wo
    y = _pre_activation(ao, w.data, _routed_weight(w.data, e, a, s), s)
    y += xd
    out = Tensor(y)
    if not _will_record(inputs):  # the tape-off path builds no vjp closure
        return out
    # which arrays of the flat graph needed a gradient: the normed rows, q, k and v, the attention output
    hn_grad = x.requires_grad or gain.requires_grad
    qkv_grad = [hn_grad or any(t.requires_grad for t in _operands(*m[:3])) for m in mats]
    a_grad = any(qkv_grad)

    def vjp(g):
        hn, inv = _rms_rows(xd, gd)
        wms, heads = _qkv_heads(hn, mats, n_heads)
        w, e, a, s = wo
        wmo = _routed_weight(w.data, e, a, s)
        # the attention output's gradient needs no rows, so it comes first; then the
        # chunks rebuild the output and take q, k and v's gradients from it
        ga = _rows_grad(g, w.data, wmo, s) if a_grad else None
        ao = np.empty(rows)
        gqkv = _attention_backward(ga, *heads, mx, denom, scale, causal, qkv_grad, ao)
        del ga, heads
        grads = _factored_grads(g, ao, w, e, a, s, wmo, False)[1:]
        del ao
        gh = None
        for i in (2, 1, 0):  # v, k, q: the flat graph's replay order
            m, gm = mats[i], gqkv[i]
            gqkv[i] = None  # gm is then the last reference, dropped after its use
            if gm is None:  # nothing under this matrix trains
                grads += (None,) * len(_operands(*m[:3]))
                continue
            gx_m, *g_ops = _factored_grads(gm, hn, *m, wms[i], hn_grad)
            del gm
            grads += tuple(g_ops)
            # the row gradients sum as the flat graph's backward summed them: (v + k) + q
            if gh is None:
                gh = gx_m
            elif gx_m is not None:
                gh += gx_m
            del gx_m
        del hn
        gx, ggain = _rms_grads(gh, xd, gd, inv, x.requires_grad, gain.requires_grad)
        if gx is not None:
            gx = g + gx
        return (gx,) + grads + (ggain,)

    return _maybe_record(op, out, inputs, vjp)


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
