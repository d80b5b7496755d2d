"""Dense float64 tensor kernels with a reverse-mode gradient tape.

Everything downstream (blocks, adapters, training) is built from the kernels
in this module. All data is contiguous row-major float64; kernels are pure
functions of their inputs, so identical inputs give bit-identical outputs.

Gradients are recorded on an explicit tape (a Wengert list): while a
``GradTape`` is active, every kernel whose inputs are tracked appends one
node holding its inputs and output and the values its backward pass needs
that are not cheap to rebuild. What is cheap is rebuilt from the inputs with
the forward's own operations, so the gradients keep their bits; each
kernel's docstring says what its node keeps. A pre-norm transformer block is
two nodes, each adding its own input ``x``: the attention half,
``attention``, and the FFN half, ``linear`` or ``routed_linear`` with
``inner`` and ``norm``. Attention is entered only as a block half; there is
no plain attention node. A product is otherwise plain, with at most a bias.

Causal attention skips its masked upper triangle in the forward, the
backward's rebuild and the gradients, with the same bits (``_row_blocks``);
heads wider than 24, whose products BLAS rounds differently in blocks, keep
the whole score matrix.
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

    The replay walks the list in reverse, which visits each node exactly
    once in reverse topological order because recording order is execution
    order. It spends the tape: once a node has been replayed, or skipped
    because its output never reached the loss, it drops its output, inputs
    and vjp and keeps only its ``op``. Every consumer of a node's output was
    recorded after it and so replayed before it, so by then nothing needs
    that output, and an array the tape alone held (the logits, a block's
    stream) is freed as soon as backward has passed its producer. A tape is
    replayed once: ``RuntimeError`` when a node was spent by an earlier
    ``backward``, also one that stopped partway. No gradient outlives its
    use: while a vjp runs, backward holds only the gradients of the nodes
    it has still to replay and of the leaves.
    """
    if loss.shape != ():
        raise ShapeMismatch(f"loss must be a scalar, got shape {loss.shape}")
    grads: dict[Tensor, np.ndarray] = {loss: np.ones((), dtype=np.float64)}
    for node in reversed(tape.nodes):
        inputs, vjp = node.inputs, node.vjp
        if vjp is None:
            raise RuntimeError(f"backward: node '{node.op}' was spent by an earlier backward; record a new tape")
        g = grads.pop(node.out, None)  # the last node's g goes here, before the next vjp runs
        node.out = node.inputs = node.vjp = None
        if g is None:
            continue  # output never contributed to the loss
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"non-finite gradient flowing into node '{node.op}'")
        _accumulate(grads, inputs, vjp(g))
    return {t: g for t, g in grads.items() if t.requires_grad}


def _accumulate(grads: dict, inputs: tuple[Tensor, ...], contributions) -> None:
    """Add a vjp's ``contributions`` into the ``grads`` of its ``inputs``, skipping None.

    A sum is a new array, since a contribution may be shared (``add`` hands
    one g to both inputs, ``concat_seq`` returns views of g);
    ``out=`` keeps a 0-d sum an array. Its own frame holds the summands, so
    they are dropped on return, not kept through the next vjp.
    """
    for inp, gi in zip(inputs, contributions):
        if gi is not None:
            acc = grads.get(inp)
            grads[inp] = gi if acc is None else np.add(acc, gi, out=np.empty(np.shape(acc)))


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
    """Broadcasting ``a + b``.

    The package itself no longer calls this: biases run inside ``linear``
    and positions inside ``embed``. It stays because
    ``benchmarks/tracing.py`` wraps it by name, as ``routed_lora`` does.
    """
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
    """Raise unless ``w`` is a matrix and arrays or tensors ``down``, ``up`` are its LoRA factors."""
    if w.ndim != 2 or down.ndim != 2 or down.shape[1] != w.shape[1] or up.shape != (w.shape[0], down.shape[0]):
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


def is_rate(v) -> bool:
    """Whether ``v`` is a finite real number and not a bool: the package's one rate check, so ``True`` is never 1.0."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def _check_span(op: str, span, t: int) -> None:
    """Raise unless ``span`` is an integer image-prefix length in [0, t]."""
    if not is_int(span) or not 0 <= span <= t:
        raise ShapeMismatch(f"{op}: span must be an integer in [0, {t}], got {span!r}")


def _routed_weight(spec) -> np.ndarray | None:
    """``W_m`` of a checked spec: the expert, else the merged weight of the adapter, else ``w``; None at span 0."""
    w, expert, adapter, span = spec
    if span == 0:
        return None
    if expert is not None:
        return expert.data
    return w.data if adapter is None else lora_weight(w.data, adapter[0].data, adapter[1].data)


def _pre_activation(xd: np.ndarray, spec, wm) -> np.ndarray:
    """A product's result over rows ``xd``, ``wm`` being ``_routed_weight(spec)``; forwards and vjps both call this.

    ``xd @ wm.T`` when every row is routed (span None), else ``xd @ w.T``
    with the prefix rows ``[:, :span]`` overwritten by their product with
    ``wm``.
    """
    wd, span = spec[0].data, spec[3]
    if span is None:
        return xd @ wm.T
    y = xd @ wd.T
    if span:
        y[:, :span] = (xd[:, :span].reshape(-1, xd.shape[-1]) @ wm.T).reshape(xd.shape[0], span, -1)
    return y


def _checked_spec(op: str, rows: tuple[int, ...], spec, routed: bool = False) -> tuple:
    """A matrix spec ``(w, expert, adapter, span)`` as Tensors, checked against the rows it multiplies.

    ``rows`` is the shape of the array the matrix multiplies; ``w`` must be
    2-D and as wide as a row, an ``expert`` shaped like ``w`` and an
    ``adapter`` LoRA factors of ``w``. A span None routes every row and
    takes no expert. A routed matrix (``routed``, or any span but None)
    routes the image prefix of (B, T, k) rows, needs an integer span in
    [0, T] and takes exactly one of an expert and an adapter.
    """
    w, expert, adapter, span = spec
    routed = routed or span is not None
    if (expert is not None and not routed) or (routed and (expert is None) == (adapter is None)):
        raise ValueError(
            f"{op}: a routed matrix takes exactly one of an expert and an adapter, an unrouted one no expert"
        )
    w = _as_tensor(w)
    if not rows or (routed and len(rows) != 3) or w.ndim != 2 or rows[-1] != w.shape[1]:
        raise ShapeMismatch(f"{op}: x {rows} incompatible with weight {w.shape}")
    if expert is not None:
        expert = _as_tensor(expert)
        if expert.shape != w.shape:
            raise ShapeMismatch(f"{op}: base {w.shape} vs expert {expert.shape}")
    if adapter is not None:
        adapter = (_as_tensor(adapter[0]), _as_tensor(adapter[1]))
        _check_lora(w.data, adapter[0].data, adapter[1].data)
    if routed:
        _check_span(op, span, rows[1])
    return w, expert, adapter, span


def _operands(spec) -> tuple[Tensor, ...]:
    """A checked spec's inputs in node order: ``(w[, expert][, down, up])``."""
    w, expert, adapter, _ = spec
    return (w,) + ((expert,) if expert is not None else ()) + (adapter or ())


def _rows_grad(gp, spec, wm) -> np.ndarray:
    """The gradient ``gp @ W_m`` of a product's rows, ``gp`` that of its result; see ``_factored_grads``.

    A routed product takes ``gp @ w`` with the prefix rows replaced by
    their product with ``W_m``. Needing no rows, it can run before they are
    rebuilt.
    """
    wd, span = spec[0].data, spec[3]
    if span is None:
        return gp @ wm
    gx = gp @ wd
    if span:
        (n, k), bsz = wd.shape, gp.shape[0]
        gx[:, :span] = (gp[:, :span].reshape(-1, n) @ wm).reshape(bsz, span, k)
    return gx


def _factored_grads(gp, xd, spec, wm, x_grad: bool) -> tuple:
    """The gradients of one product over rows ``xd``, ``gp`` being the gradient of its result.

    Returns ``(gx, gw[, g_expert][, g_down, g_up])``, with None for a frozen
    operand, and for ``gx`` unless ``x_grad``. With ``gs``, ``xs`` the
    routed rows of ``gp`` and ``xd`` as 2-D arrays, ``gx`` is
    ``_rows_grad``. ``w`` gets a gradient only when it is trainable itself,
    from the rows after the prefix beside an expert and from every row
    otherwise. The expert gets ``gs.T @ xs`` and the factors
    ``(gs @ up).T @ xs`` and ``gs.T @ (xs @ down.T)``.
    """
    w, expert, adapter, span = spec
    n, k = w.shape
    # the routed rows as 2-D arrays; empty at span 0, so the routed gradients are zero
    if span is None:
        gs, xs = gp.reshape(-1, n), xd.reshape(-1, k)
    else:
        gs, xs = gp[:, :span].reshape(-1, n), xd[:, :span].reshape(-1, k)
    gx = _rows_grad(gp, spec, wm) if x_grad else None
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


def _product(op: str, x, mat, inner=None, norm=None, bias=None) -> Tensor:
    """The one product node behind ``linear`` and ``routed_linear``: ``x @ W.T (+ bias)``, or a block's FFN half.

    ``mat`` and ``inner`` are matrix specs (``_checked_spec``). The routed
    rows, every row at span None and the image prefix ``[:, :span]`` of a
    (B, T, k) ``x`` otherwise, take the routed weight ``W_m``: the expert,
    else ``lora_weight(w, down, up)`` of a LoRA ``adapter=(down, up)``, else
    ``w`` itself. ``W_m`` is formed only when ``span != 0``, so an all-text
    batch never reads the expert or the factors. A routed product runs
    ``x @ w.T`` over every row, then overwrites the prefix with its
    ``x @ W_m.T`` rows.

    A plain product may add a ``bias``, shaped ``(out,)``, last, with the
    bits of ``add(product, bias)``. ``inner`` and ``norm``, which come
    together and take no bias, make the node the FFN half of a pre-norm
    block: ``x + gelu(rms_norm(x, norm) @ W_h.T) @ W.T``, ``W_h`` routed as
    above and ``W`` as wide as ``x``. It has the bits of the flat graph of
    ``rms_norm`` (``_rms_rows``), the inner product, ``gelu``, the outer
    product and an ``add`` of ``x``.

    The node keeps only its inputs: no normed rows, no hidden rows, no GELU
    derivative and no merged weight. Its vjp forms the merged weights again
    and rebuilds the normed and hidden rows with the forward's own
    ``_rms_rows`` and ``_pre_activation``, so the gradients have the bits of
    kept arrays. The FFN half rebuilds the hidden pre-activations and drops
    the normed rows before it takes the hidden rows' gradient
    (``_rows_grad``), so that no normed rows live beside the two hidden-size
    arrays; ``_gelu_and_grad_`` turns the pre-activations into their GELU
    and that gradient into the pre-activations' own, and the normed rows
    are rebuilt once more for the inner product's gradients. Both products'
    gradients come from ``_factored_grads``, the normed rows' gradient gives
    those of ``x`` and the gain through ``_rms_grads``, and ``x`` adds the
    incoming gradient, the sum its two uses make in the flat graph. The bias
    gets the incoming gradient summed to ``(out,)``. Each rebuilt array is
    dropped after its last use. The node is recorded as ``op`` over ``(x,
    w[, expert][, down, up][, bias])``, or for the FFN half over ``(x, w[,
    expert][, down, up], w_h[, expert_h][, down_h, up_h], gain)``.
    """
    if (inner is None) != (norm is None):
        raise ValueError(f"{op}: inner and norm come together, as a block's FFN half")
    if inner is not None and bias is not None:
        raise ValueError(f"{op}: a bias goes on a plain product, not on a block's FFN half")
    x = _as_tensor(x)
    rows = x.data.shape
    if inner is not None:
        gain = _checked_gain(op, rows, norm)
        inner = _checked_spec(op, rows, inner)
        rows = rows[:-1] + (inner[0].shape[0],)
    mat = _checked_spec(op, rows, mat, op == "routed_linear")
    out_shape = rows[:-1] + (mat[0].shape[0],)
    inputs = (x,) + _operands(mat)
    if inner is not None:
        if out_shape != x.shape:
            raise ShapeMismatch(f"{op}: output {out_shape} vs residual {x.shape}")
        inputs += _operands(inner) + (gain,)
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != out_shape[-1:]:
            raise ShapeMismatch(f"{op}: bias {bias.shape} vs output {out_shape}")
        inputs += (bias,)
    xd = x.data
    if inner is None:
        y = _pre_activation(xd, mat, _routed_weight(mat))
    else:
        h = _pre_activation(_rms_rows(xd, gain.data)[0], inner, _routed_weight(inner))
        _gelu_(h)
        y = _pre_activation(h, mat, _routed_weight(mat))
        y += xd
    if bias is not None:
        y += bias.data
    out = Tensor(y)
    if not _will_record(inputs):  # the tape-off path builds no vjp closure
        return out

    def vjp(g):
        wm = _routed_weight(mat)
        if inner is None:
            grads = _factored_grads(g, xd, mat, wm, x.requires_grad)
            if bias is not None:
                grads += (_unbroadcast(g, bias.shape) if bias.requires_grad else None,)
            return grads
        # the hidden rows, rebuilt, and their gradient, both through GELU
        xn, inv = _rms_rows(xd, gain.data)
        wmh = _routed_weight(inner)
        hd = _pre_activation(xn, inner, wmh)
        del xn
        gh = _rows_grad(g, mat, wm)
        _gelu_and_grad_(hd, gh)
        grads = _factored_grads(g, hd, mat, wm, False)[1:]
        del hd
        xn_grad = x.requires_grad or gain.requires_grad  # whether the normed rows need a gradient
        gxn, *inner_grads = _factored_grads(gh, _rms_rows(xd, gain.data)[0], inner, wmh, xn_grad)
        del gh
        gx, ggain = _rms_grads(gxn, xd, gain.data, inv, x.requires_grad, gain.requires_grad)
        if gx is not None:
            gx += g
        return (gx,) + grads + tuple(inner_grads) + (ggain,)

    return _maybe_record(op, out, inputs, vjp)


def linear(x, w, adapter=None, *, bias=None, inner=None, norm=None) -> Tensor:
    """``x @ W.T + bias`` for x (..., k) and a weight stored (out, k), or a block's FFN half.

    ``W`` is ``w``, or the merged weight ``lora_weight(w, down, up)`` of a
    LoRA ``adapter=(down, up)``, for every row. This is ``_product`` over
    the spec ``(w, None, adapter, None)``, recorded as ``linear`` over
    ``(x, w[, down, up][, bias])``; a ``bias`` must be shaped ``(out,)``.

    ``inner=(w_h, expert_h, adapter_h, span_h)`` and ``norm=gain`` together,
    with no bias, make the node the FFN half ``x + gelu(rms_norm(x, gain) @
    W_h.T) @ W.T``, ``W_h`` routed as in ``routed_linear`` when ``span_h``
    is an integer and merged over every row when it is None, and ``W`` as
    wide as ``x``. The operands of ``inner`` and then the gain follow those
    of ``w`` among the node's inputs. One of the two without the other, or
    either beside a bias, raises ``ValueError``.
    """
    return _product("linear", x, (w, None, adapter, None), inner, norm, bias)


def routed_linear(x, w_base, w_expert, span: int, *, adapter=None, inner, norm) -> Tensor:
    """Per-position ``x @ W.T``, or a block's FFN half over it: the image prefix takes a routed weight.

    ``x`` is (B, T, k) and ``span`` an integer in [0, T]: rows ``[:, :span]``
    are image positions and take the expert ``w_expert``, shaped like
    ``w_base``, or the merged weight of a LoRA ``adapter=(down, up)``;
    exactly one of the two is given. Rows from ``span`` on have the bits of
    ``linear(x, w_base)``, and at span 0 neither the expert nor the factors
    are read. This is ``_product`` over the spec ``(w_base, w_expert,
    adapter, span)``, recorded as ``routed_linear`` over ``(x, w_base,
    w_expert | down, up)``. ``inner`` and ``norm`` are required: both None
    give the plain product, and both given the FFN half, as in ``linear``.
    """
    return _product("routed_linear", x, (w_base, w_expert, adapter, span), inner, norm)


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
# took the GELU backward over twice as long
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
    both run this, so they give the same bits; neither keeps the
    derivative, which their vjps rebuild with ``_gelu_and_grad_``.
    """
    for q in _tiles(p):
        t = _gelu_tanh(q)
        t += 1.0
        q *= t
        q *= 0.5


def _gelu_and_grad_(p: np.ndarray, g: np.ndarray) -> None:
    """Overwrite ``p`` with its GELU and ``g`` with GELU'(p) * g, from one tanh per element.

    ``p`` and ``g`` are alike in shape and, when larger than a tile,
    C-contiguous. Each tile runs ``_gelu_``'s operations on ``p``, so ``p``
    gets its bits, and builds the slope (1 + t) * (0.5 + u*(1 - t)), u =
    0.5*c*q*(1 + 3*0.044715*q^2), which is GELU'(q) = 0.5*(1 + t) +
    u*(1 - t^2); no slope array of ``p``'s size is built.
    """
    for q, gq in zip(_tiles(p), _tiles(g)):
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
        gx = np.array(g, order="C")  # a new array: g may be shared, and is written in place
        _gelu_and_grad_(xd.copy(), gx)
        return (gx,)

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


def embed(table, ids: np.ndarray, *, prefix=None, pos=None) -> Tensor:
    """Gather rows of an embedding table; ids are a constant int array.

    ``prefix``, (B, S, d) rows, goes in front of the gathered (B, T', d)
    rows along the sequence axis, and ``pos``, which must broadcast to the
    output without growing it, is added last. The result has the bits of
    ``add(concat_seq(prefix, embed(table, ids)), pos)`` from one node, so
    no concatenated rows wait on the tape for a vjp that never reads them.
    The node keeps its inputs and the ids, and is recorded over ``(table[,
    prefix][, pos])``. The prefix's gradient is a copy of the incoming
    gradient's prefix rows, not a view, so that it does not keep the whole
    incoming gradient alive through the vjps of the prefix's producers.
    """
    table = _as_tensor(table)
    ids = np.asarray(ids)
    if table.ndim != 2 or ids.dtype.kind not in "iu":  # bool ids would select rows as a mask
        raise ShapeMismatch(f"embed: needs a 2-D table and integer ids, got table {table.shape} and ids {ids.dtype}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ValueError(f"embed: id out of range for table with {table.shape[0]} rows")
    y = np.take(table.data, ids, axis=0)  # a new array, also for 0-d ids, since pos is added in place
    inputs, span = (table,), 0
    if prefix is not None:
        prefix = _as_tensor(prefix)
        if prefix.ndim != 3 or y.ndim != 3 or prefix.shape[::2] != y.shape[::2]:
            raise ShapeMismatch(f"embed: prefix {prefix.shape} vs gathered rows {y.shape}")
        span = prefix.shape[1]
        y = np.concatenate([prefix.data, y], axis=1)
        inputs += (prefix,)
    if pos is not None:
        pos = _as_tensor(pos)
        if pos.ndim > y.ndim or any(p not in (1, n) for p, n in zip(pos.shape[::-1], y.shape[::-1])):
            raise ShapeMismatch(f"embed: pos {pos.shape} does not broadcast to the output {y.shape}")
        y += pos.data
        inputs += (pos,)
    out = Tensor(y)

    def vjp(g):
        gt = None
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            np.add.at(gt, ids, g if prefix is None else g[:, span:])
        grads = (gt,)
        if prefix is not None:
            grads += (g[:, :span].copy() if prefix.requires_grad else None,)
        if pos is not None:
            grads += (_unbroadcast(g, pos.shape) if pos.requires_grad else None,)
        return grads

    return _maybe_record("embed", out, inputs, vjp)


def concat_seq(a, b) -> Tensor:
    """Concatenate two (B, T, d) tensors along the sequence axis.

    The package itself no longer calls this: the LM's injected image rows
    go in front of the token rows inside ``embed``. It stays because
    ``benchmarks/tracing.py`` wraps it by name, as ``routed_lora`` does.
    """
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


def _attention_probs(qh, kh, scale: float, causal: bool, mx, denom, rebuild: bool) -> np.ndarray:
    """Softmax rows of the scaled, masked scores ``qh @ kh.T``, the probabilities.

    ``qh`` are the last query rows of ``kh``'s sequence: a row block [r0,
    r1) passes the key rows [0, r1). ``mx`` and ``denom`` hold the row max
    and the denominator, one per query row: the forward finds them into
    these arrays, and the vjp passes them back in with ``rebuild`` and so
    rebuilds the probabilities with the forward's own operations.
    """
    p = np.matmul(qh, kh.swapaxes(-1, -2))
    p *= scale
    if causal:
        n, t = p.shape[-2:]
        p += _causal_mask(t)[t - n :]
    if not rebuild:
        p.max(axis=-1, keepdims=True, out=mx)
    p -= mx
    np.exp(p, out=p)
    if not rebuild:
        p.sum(axis=-1, keepdims=True, out=denom)
    p /= denom
    return p


def _heads(a: np.ndarray, n_heads: int) -> np.ndarray:
    """(B, T, d) rows as a (B, H, T, d / H) view of heads."""
    bsz, t, d = a.shape
    return a.reshape(bsz, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


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

# score elements (B * H * T * T) from which causal attention works in row blocks: below
# it the blocks' extra numpy calls cost more than the masked entries save. On one BLAS
# thread at H 4 the forward gains from ~9k and the backward from ~25k (B 2: T 52 took
# 1.10x the whole-matrix time, T 56 0.65x); one threshold serves both
_BLOCKED_SCORES = 24576


def _row_blocks(n: int, t: int, width: int, causal: bool) -> list[tuple[int, int]]:
    """The query-row blocks ``[(r0, r1), ...]`` that tile [0, t) for ``n`` (t, t) scores of ``width``-wide heads.

    Block [r0, r1) of causal scores reads only the key columns [0, r1);
    the later ones are masked, so only exact zeros of the sums are skipped.
    Inner edges at multiples of 16 make a block's rows span a multiple of 8
    columns or all t, so numpy's 8-lane row sum keeps the whole row's order
    (rows past 128, summed in halves, stay one block); no block has one
    row, which numpy would multiply as a vector. BLAS must give a product
    element the same bits whatever the matrix sizes: OpenBLAS 0.3.31 does
    for head widths up to 24, while wider heads move in the last bits from
    T 35 on, so they stay one block. Non-causal scores, and fewer than
    ``_BLOCKED_SCORES``, are one block.
    """
    if not causal or width > 24 or t > 128 or n * t * t < _BLOCKED_SCORES:
        return [(0, t)]
    edges = [0, *range(16, t - 1, 16), t]
    return list(zip(edges[:-1], edges[1:]))


def _attention_forward(q, k, v, scale: float, causal: bool, n_heads: int) -> tuple:
    """Attention output rows of (B, T, d) q, k and v rows, with the softmax's row max and denominator.

    Each row block of ``_row_blocks`` reads only its key columns and
    writes its output rows in place.
    """
    ao = np.empty(v.shape)
    qh, kh, vh, oh = (_heads(a, n_heads) for a in (q, k, v, ao))
    mx, denom = np.empty(qh.shape[:-1] + (1,)), np.empty(qh.shape[:-1] + (1,))
    for r0, r1 in _row_blocks(qh.shape[0] * n_heads, qh.shape[2], qh.shape[3], causal):
        rows = np.s_[..., r0:r1, :]
        p = _attention_probs(qh[rows], kh[..., :r1, :], scale, causal, mx[rows], denom[rows], False)
        np.matmul(p, vh[..., :r1, :], out=oh[rows])
    return ao, mx, denom


def _attention_backward(ga, qkv, mx, denom, scale: float, causal: bool, n_heads: int) -> None:
    """Write q, k and v's gradients over ``qkv`` and the output rows over ``ga``, a few samples at a time.

    ``qkv`` are the (B, T, d) q, k and v rows and ``ga`` the gradient of the
    output rows; with the forward's row max and denominator they rebuild
    each chunk's probabilities through ``_attention_probs``. A chunk reads
    only its own samples and forms its gradients and output whole before it
    writes any. A stacked matmul is one product per (sample, head) and the
    softmax works row by row, so the chunks give the bits of one
    whole-batch pass without ever holding the (B, H, T, T) probabilities.

    In a chunk, each row block [r0, r1) of ``_row_blocks`` rebuilds p, the
    output rows, the score gradient ``gs`` and q's gradient from keys [0,
    r1) into chunk buffers; then key-column block [c0, c1) takes k and v's
    gradients from rows c0: of them, the only rows that see its keys.
    """
    bsz, t, d = qkv[0].shape
    step = min(bsz, max(1, _ATTENTION_TILE // (n_heads * t * t)))
    blocks = _row_blocks(step * n_heads, t, d // n_heads, causal)
    # a lone block is its own buffer; a block works in new contiguous arrays, since numpy
    # runs elementwise loops over a strided block view row by row
    p_buf = np.empty((step, n_heads, t, t)) if len(blocks) > 1 else None
    gs_buf = np.empty(p_buf.shape) if len(blocks) > 1 else None
    for b in range(0, bsz, step):
        c = slice(b, b + step)
        qh, kh, vh, gh = (_heads(a[c], n_heads) for a in (*qkv, ga))
        n = qh.shape[0]
        p, gs = (None if a is None else a[:n] for a in (p_buf, gs_buf))
        gq, oh = np.empty((n, t, d)), np.empty((n, t, d))
        for r0, r1 in blocks:
            rows, keys, block = np.s_[..., r0:r1, :], np.s_[..., :r1, :], np.s_[..., r0:r1, :r1]
            pb = _attention_probs(qh[rows], kh[keys], scale, causal, mx[c][rows], denom[c][rows], True)
            np.matmul(pb, vh[keys], out=_heads(oh, n_heads)[rows])
            # gs = p * (gp - rowsum(gp * p)) * scale, built in gp's buffer
            gsb = np.matmul(gh[rows], vh[keys].swapaxes(-1, -2))
            gsb -= (gsb * pb).sum(axis=-1, keepdims=True)
            gsb *= pb
            gsb *= scale
            np.matmul(gsb, kh[keys], out=_heads(gq, n_heads)[rows])
            if len(blocks) == 1:
                p, gs = pb, gsb
            else:
                p[block], gs[block] = pb, gsb
            del pb, gsb  # before the next block's arrays, or the column passes'
        gk, gv = np.empty((n, t, d)), np.empty((n, t, d))
        for c0, c1 in blocks:
            cols, later = np.s_[..., c0:, c0:c1], np.s_[..., c0:, :]
            np.matmul(gs[cols].swapaxes(-1, -2), qh[later], out=_heads(gk, n_heads)[..., c0:c1, :])
            np.matmul(p[cols].swapaxes(-1, -2), gh[later], out=_heads(gv, n_heads)[..., c0:c1, :])
        for o, a in zip((*qkv, ga), (gq, gk, gv, oh)):
            o[c] = a
        del gq, gk, gv, oh, a  # before the next chunk's arrays are made


def attention(q, k, v, n_heads: int, causal: bool = True, *, x, gain, wo) -> Tensor:
    """``x + attention(q, k, v) @ W_o.T``, q, k, v the products of ``rms_norm(x, gain)``, as one node.

    Attention is entered only as this, the attention half of a pre-norm
    block. ``q``, ``k``, ``v`` and ``wo`` are matrix specs ``(w, expert,
    adapter, span)``, as ``linear``'s ``inner`` takes, each routed as in
    ``_product``; the attention is multi-head scaled-dot-product attention
    over the (B, T, d) q, k and v rows, T > 0. The result has the bits of
    the flat graph: ``rms_norm``, a product node per matrix (the ``wo`` one
    adding ``x``) and attention over whole (T, T) score matrices.

    The node keeps its inputs and the softmax's (B, H, T, 1) row max and
    denominator, nothing of (B, T, d) size besides ``x``. The forward
    (``_attention_forward``) drops the probabilities, q, k and v before the
    ``wo`` product. Causal scores go in row blocks that read only the keys
    up to their last row, so no masked score past it is made, exponentiated
    or multiplied; edges at multiples of 16 and no one-row block keep the
    bits (``_row_blocks``). The vjp rebuilds the normed rows, q, k and v
    with the forward's own ``_rms_rows`` and ``_pre_activation`` and takes
    the flat graph's gradients: the attention output's through ``wo``
    first, which needs no rows; then ``_attention_backward``, a few samples
    at a time and in the forward's row blocks, rebuilds the probabilities
    with ``_attention_probs`` and takes q, k and v's gradients, which it
    writes over the chunk's q, k and v rows, and the attention output,
    which it writes over the chunk's rows of its gradient; so the (B, H, T,
    T) probabilities never exist whole and no (B, T, d) array is made for
    the gradients or the output. Then come ``wo``'s own gradients over the
    whole attention output; then v, k and q, whose row gradients sum as
    ``(gx_v + gx_k) + gx_q``; then the norm, and ``x`` gets ``g +
    gx_norm``. Each rebuilt array is dropped after its last use. Frozen
    operands get None, but q, k and v's gradients are always taken: every
    tape the package records trains something below them. The node is
    recorded as ``attention`` over ``(x, wo, v, k and q operands, gain)``,
    the matrices in the flat graph's reverse order, so a tensor shared by
    two of them sums its gradients as before.
    """
    op = "attention"
    x = _as_tensor(x)
    if x.ndim != 3:
        raise ShapeMismatch(f"{op}: x {x.shape} is not (B, T, d)")
    gain = _checked_gain(op, x.shape, gain)
    mats = [_checked_spec(op, x.shape, m) for m in (q, k, v)]
    widths = {m[0].shape[0] for m in mats}
    if len(widths) != 1:
        raise ShapeMismatch(f"{op}: q, k and v widths {[m[0].shape[0] for m in mats]} differ")
    rows = x.shape[:2] + tuple(widths)
    scale = _attention_scale(rows, n_heads)
    wo = _checked_spec(op, rows, wo)
    if wo[0].shape[0] != x.shape[-1]:
        raise ShapeMismatch(f"{op}: output width {wo[0].shape[0]} vs residual {x.shape}")
    replay = (wo,) + tuple(reversed(mats))  # the flat graph's replay order
    inputs = (x,) + tuple(t for m in replay for t in _operands(m)) + (gain,)
    xd, gd = x.data, gain.data
    hn = _rms_rows(xd, gd)[0]
    qkv = [_pre_activation(hn, m, _routed_weight(m)) for m in mats]
    ao, mx, denom = _attention_forward(*qkv, scale, causal, n_heads)
    del hn, qkv  # not alive through the output product
    y = _pre_activation(ao, wo, _routed_weight(wo))
    y += xd
    out = Tensor(y)
    if not _will_record(inputs):  # the tape-off path builds no vjp closure
        return out
    hn_grad = x.requires_grad or gain.requires_grad  # whether the normed rows need a gradient

    def vjp(g):
        hn, inv = _rms_rows(xd, gd)
        wms = [_routed_weight(m) for m in mats]
        qkv = [_pre_activation(hn, m, wm) for m, wm in zip(mats, wms)]
        wmo = _routed_weight(wo)
        # the attention output's gradient needs no rows, so it comes first; then the chunks
        # write q, k and v's gradients over their rows, and the output over its gradient
        ga = _rows_grad(g, wo, wmo)
        _attention_backward(ga, qkv, mx, denom, scale, causal, n_heads)
        grads = _factored_grads(g, ga, wo, wmo, False)[1:]
        del ga
        gh = None
        for i in (2, 1, 0):  # v, k, q: the flat graph's replay order
            gm, qkv[i] = qkv[i], None  # gm is then the last reference, dropped after its use
            gx_m, *g_ops = _factored_grads(gm, hn, mats[i], wms[i], hn_grad)
            del gm
            grads += tuple(g_ops)
            # the row gradients sum as the flat graph's backward summed them: (v + k) + q
            gh = gx_m if gh is None else np.add(gh, gx_m, out=gh)
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
        raise ValueError(
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
