import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from genieblue import autograd as ag
from genieblue.adaptation import build_cogvlm, build_genieblue, freeze_mask, plan_placement
from genieblue.autograd import GradTape, NonFiniteError, ShapeMismatch, Tensor, backward
from genieblue.data import TaskSpec, collate, synth_dataset
from genieblue.model import ModelConfig, build_model

from memtrace import vjp_peaks
from oracles import central_diff_grad, ref_gelu, ref_softmax, routed_product_node


def _softmax_via_nll(x: np.ndarray) -> np.ndarray:
    """Every class probability of every row, as exp(-nll) from masked_nll.

    The library's softmax lives on only as masked_nll's log-softmax.
    """
    rows, n = x.shape
    logits = Tensor(np.repeat(x[:, None, :], n, axis=1))  # (rows, n classes, n)
    targets = np.tile(np.arange(n), (rows, 1))
    out = np.empty((rows, n))
    for r in range(rows):
        for c in range(n):
            weights = np.zeros((rows, n))
            weights[r, c] = 1.0
            out[r, c] = math.exp(-ag.masked_nll(logits, targets, weights).item())
    return out


def test_softmax_symmetry():
    p = _softmax_via_nll(np.zeros((1, 3)))
    np.testing.assert_array_equal(p[0], np.full(3, 1.0 / 3.0))


def test_softmax_known_values():
    # frozen from a high-precision exp/sum evaluation of [1, 2, 3]
    expected = [0.09003057317038046, 0.24472847105479767, 0.6652409557748219]
    p = _softmax_via_nll(np.array([[1.0, 2.0, 3.0]]))
    np.testing.assert_allclose(p[0], expected, rtol=0, atol=1e-15)


def test_softmax_rows_are_probability_vectors(rng):
    p = _softmax_via_nll(rng.normal(scale=5.0, size=(40, 17)))
    assert (p >= 0).all()
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=0, atol=1e-12)


def test_matmul_identity():
    x = np.random.default_rng(1).normal(size=(3, 7))
    out = ag.linear(Tensor(x), Tensor(np.eye(7)))
    np.testing.assert_array_equal(out.data, x)


def test_shape_mismatch_messages_carry_shapes():
    with pytest.raises(ShapeMismatch, match=r"\(2, 3\)"):
        ag.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))
    with pytest.raises(ShapeMismatch, match=r"\(4,\)"):
        ag.add(Tensor(np.zeros((3,))), Tensor(np.zeros((4,))))


def test_rms_norm_unit_rms(rng):
    x = Tensor(rng.normal(size=(20, 33)))
    y = ag.rms_norm(x, np.ones(33)).data
    rms = np.sqrt((y * y).mean(axis=-1))
    np.testing.assert_allclose(rms, 1.0, rtol=0, atol=1e-9)


def test_kernels_finite_on_finite_inputs(rng):
    x = Tensor(rng.normal(scale=50.0, size=(8, 12)))
    for out in (ag.rms_norm(x, np.ones(12)), ag.gelu(x), ag.masked_nll(x, np.zeros(8, dtype=int), np.ones(8))):
        assert np.isfinite(out.data).all()
    assert np.isfinite(ag.rms_norm(Tensor(np.zeros((2, 4))), np.ones(4)).data).all()


def test_backward_linear_map_structure():
    # loss = sum(W @ x) with x fixed: dL/dW[i, j] = x[j]
    x = np.array([[2.0, 3.0, 5.0]])
    w = Tensor(np.random.default_rng(0).normal(size=(4, 3)), requires_grad=True)
    with GradTape() as tape:
        loss = ag.sum_all(ag.linear(Tensor(x), w))
    grads = backward(tape, loss)
    np.testing.assert_array_equal(grads[w], np.tile(x.reshape(1, 3), (4, 1)))


def test_backward_zero_loss_gives_zero_grads():
    w = Tensor(np.ones((3, 3)), requires_grad=True)
    with GradTape() as tape:
        loss = ag.sum_all(ag.mul(ag.linear(w, w), 0.0))
    grads = backward(tape, loss)
    np.testing.assert_array_equal(grads[w], np.zeros((3, 3)))


def test_backward_rejects_non_scalar_loss():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with GradTape() as tape:
        out = ag.mul(w, 2.0)
    with pytest.raises(ShapeMismatch, match="scalar"):
        backward(tape, out)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_backward_rejects_non_finite_with_node_name():
    w = Tensor(np.array([[700.0, 710.0]]), requires_grad=True)
    with GradTape() as tape:
        # exp overflow inside softmax-free path: gelu of huge is fine, so use
        # mul to push a inf through the graph instead
        big = ag.mul(w, 1e308)
        loss = ag.sum_all(ag.mul(big, big))
    with pytest.raises(NonFiniteError, match="mul"):
        backward(tape, loss)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_backward_refuses_a_spent_tape():
    w = Tensor(np.array([[1.0, 1.5]]), requires_grad=True)
    with GradTape() as tape:
        loss = ag.sum_all(ag.mul(w, 3.0))
    backward(tape, loss)
    with pytest.raises(RuntimeError, match="spent by an earlier backward"):
        backward(tape, loss)
    with GradTape() as tape:
        big = ag.mul(ag.mul(w, 1.0), 1e308)
        loss = ag.sum_all(ag.mul(big, big))  # big's gradient, 2 * big, overflows
    with pytest.raises(NonFiniteError, match="mul"):
        backward(tape, loss)
    assert tape.nodes[0].vjp is not None  # the replay stopped partway
    with pytest.raises(RuntimeError, match="spent by an earlier backward"):
        backward(tape, loss)


def test_tape_visits_each_node_once_in_reverse():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with GradTape() as tape:
        a = ag.mul(w, 2.0)
        b = ag.add(a, a)  # a consumed twice: grads must accumulate once
        loss = ag.sum_all(b)
    assert len(tape) == 3
    grads = backward(tape, loss)
    np.testing.assert_array_equal(grads[w], np.full((2, 2), 4.0))


def test_tape_exit_out_of_order_leaves_stack_unchanged():
    outer, inner = GradTape(), GradTape()
    with outer:
        inner.__enter__()
        with pytest.raises(RuntimeError, match="out of order"):
            outer.__exit__(None, None, None)
        w = Tensor(np.ones(2), requires_grad=True)
        ag.mul(w, 2.0)  # still recorded on the innermost tape
        inner.__exit__(None, None, None)
        ag.mul(w, 3.0)
    assert len(inner) == 1 and len(outer) == 1
    with pytest.raises(RuntimeError, match="out of order"):
        outer.__exit__(None, None, None)  # no longer on the stack at all


def test_ops_do_not_record_without_tape():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    out = ag.mul(w, 3.0)
    assert out.requires_grad is False


def test_determinism_bit_identical(rng):
    x = rng.normal(size=(6, 8))
    w = rng.normal(size=(5, 8))
    a = ag.linear(Tensor(x), Tensor(w)).data
    b = ag.linear(Tensor(x.copy()), Tensor(w.copy())).data
    assert a.tobytes() == b.tobytes()


# ----------------------------------------------------------------------------
# finite-difference checks, one per differentiable kernel
# ----------------------------------------------------------------------------


def _check_grads(build_loss, arrays: dict, eps=1e-6, rtol=1e-4, atol=1e-7):
    tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    with GradTape() as tape:
        loss = build_loss(tensors)
    grads = backward(tape, loss)
    for name, t in tensors.items():
        fd = central_diff_grad(lambda: build_loss(tensors).item(), t.data, eps=eps)
        np.testing.assert_allclose(grads[t], fd, rtol=rtol, atol=atol, err_msg=name)


@pytest.fixture()
def probe(rng):
    # a fixed projection so losses depend on every output entry unevenly
    def make(shape):
        return rng.normal(size=shape)

    return make


def test_grad_add_mul_broadcast(probe):
    c = probe((4, 5))
    _check_grads(
        lambda t: ag.sum_all(ag.mul(ag.add(t["a"], t["b"]), c)),
        {"a": probe((4, 5)), "b": probe((5,))},
    )


def test_grad_linear(probe):
    c = probe((2, 3, 6))
    _check_grads(
        lambda t: ag.sum_all(ag.mul(ag.linear(t["x"], t["w"]), c)),
        {"x": probe((2, 3, 5)), "w": probe((6, 5))},
    )


def test_grad_linear_with_adapter(probe):
    c = probe((2, 3, 6))
    _check_grads(
        lambda t: ag.sum_all(ag.mul(ag.linear(t["x"], t["w"], (t["down"], t["up"])), c)),
        {"x": probe((2, 3, 5)), "w": probe((6, 5)), "down": probe((2, 5)), "up": probe((6, 2))},
    )


def test_grad_gelu(probe):
    c = probe((3, 7))
    _check_grads(lambda t: ag.sum_all(ag.mul(ag.gelu(t["x"]), c)), {"x": probe((3, 7))})


def test_gelu_tiles_need_a_contiguous_target_and_read_any_gradient(rng):
    x = Tensor(rng.normal(scale=3.0, size=(3, ag._GELU_TILE + 5)), requires_grad=True)  # the last tile short
    g = rng.normal(size=x.shape[::-1]).T  # an upstream gradient that is not C-contiguous
    with GradTape() as tape:
        ag.gelu(x)
    vjp = tape.nodes[-1].vjp
    assert vjp(g)[0].tobytes() == vjp(np.ascontiguousarray(g))[0].tobytes()
    with pytest.raises(ValueError, match="C-contiguous"):  # its tiles would be copies, the writes lost
        ag._gelu_(np.zeros((2, 2 * ag._GELU_TILE))[:, ::2])


def test_grad_rms_norm(probe):
    c = probe((5, 8))
    _check_grads(
        lambda t: ag.sum_all(ag.mul(ag.rms_norm(t["x"], t["g"]), c)),
        {"x": probe((5, 8)), "g": probe((8,))},
    )


def test_grad_embed(probe):
    ids = np.array([[0, 2, 1], [2, 2, 0]])
    c = probe((2, 3, 4))
    _check_grads(
        lambda t: ag.sum_all(ag.mul(ag.embed(t["tab"], ids, pos=t["pos"]), c)),
        {"tab": probe((3, 4)), "pos": probe((3, 4))},
    )


def test_grad_concat_seq(probe):
    c = probe((2, 5, 3))
    _check_grads(
        lambda t: ag.sum_all(ag.mul(ag.concat_seq(t["a"], t["b"]), c)),
        {"a": probe((2, 2, 3)), "b": probe((2, 3, 3))},
    )


def test_grad_embed_with_prefix_and_positions(probe):
    ids = np.array([[0, 2, 1], [2, 2, 0]])
    c = probe((2, 5, 4))
    _check_grads(
        lambda t: ag.sum_all(ag.mul(ag.embed(t["tab"], ids, prefix=t["pre"], pos=t["pos"]), c)),
        {"tab": probe((3, 4)), "pre": probe((2, 2, 4)), "pos": probe((5, 4))},
    )


@pytest.mark.parametrize("frozen", [None, "table", "prefix", "pos"])
# the positions are always one sample's (T, d) rows, the "rows" of the ids
@pytest.mark.parametrize("prefix", [False, True], ids=["no-prefix-rows", "prefix-rows"])
def test_embed_fold_bits_equal_unfused_graph(rng, prefix, frozen):
    """One embed node gives the bits of embed, concat_seq and add: output and every gradient."""
    ids = rng.integers(0, 6, size=(3, 5))
    t = 5 + 2 * prefix
    arrays = {"table": rng.normal(size=(6, 4)), "pos": rng.normal(size=(t, 4))}
    if prefix:
        arrays["prefix"] = rng.normal(size=(3, 2, 4))
    g = rng.normal(size=(3, t, 4))

    def fused(a):
        return ag.embed(a["table"], ids, prefix=a.get("prefix"), pos=a["pos"])

    def unfused(a):
        # the gathered rows: no table entry is -0.0, so adding +0.0 keeps their bits
        x = ag.embed(a["table"], ids, pos=np.zeros((5, 4)))
        x = ag.concat_seq(a["prefix"], x) if "prefix" in a else x
        return ag.add(x, a["pos"])

    (out, grads, ops), (ref, ref_grads, _) = (_fold_and_grads(f, arrays, frozen, g) for f in (fused, unfused))
    assert ops == ["embed", "mul", "sum_all"]
    assert out.tobytes() == ref.tobytes()
    for name in arrays:
        assert (grads[name] is None) == (name == frozen), name
        if name != frozen:
            assert grads[name].tobytes() == ref_grads[name].tobytes(), name
    plain = {k: Tensor(v) for k, v in arrays.items()}
    assert fused(plain).data.tobytes() == unfused(plain).data.tobytes() == out.tobytes()


@pytest.mark.parametrize("bad", [-1, 3])
def test_embed_rejects_ids_outside_the_table(bad):
    with pytest.raises(ValueError, match="embed: id out of range for table with 3 rows"):
        ag.embed(np.eye(3), np.array([[0, bad]]), pos=np.zeros((2, 3)))


def test_embed_adds_positions_to_a_copy_of_the_table_rows():
    table = Tensor(np.eye(3))
    out = ag.embed(table, np.array([[1]]), pos=np.ones((1, 3)))
    assert out.data.tolist() == [[[1.0, 2.0, 1.0]]] and table.data.tolist() == np.eye(3).tolist()


@pytest.mark.parametrize("causal", [True, False])
def test_grad_attention(probe, causal):
    c = probe((2, 4, 8))

    def loss(t):
        q, k, v, o = ((t[w], None, None, None) for w in ("wq", "wk", "wv", "wo"))
        return ag.sum_all(ag.mul(ag.attention(q, k, v, 2, causal=causal, x=t["x"], gain=t["gain"], wo=o), c))

    weights = {w: probe((8, 8)) for w in ("wq", "wk", "wv", "wo")}
    _check_grads(loss, {"x": probe((2, 4, 8)), "gain": probe(8), **weights})


def test_grad_routed_linear(probe):
    """The FFN half with both products routing the prefix to experts."""
    c = probe((2, 4, 5))

    def loss(t):
        inner = (t["wh"], t["weh"], None, 2)
        return ag.sum_all(ag.mul(ag.routed_linear(t["x"], t["wb"], t["we"], 2, inner=inner, norm=t["gain"]), c))

    shapes = {"x": (2, 4, 5), "wb": (5, 6), "we": (5, 6), "wh": (6, 5), "weh": (6, 5), "gain": (5,)}
    _check_grads(loss, {k: probe(s) for k, s in shapes.items()})


def test_grad_masked_nll(probe, rng):
    targets = rng.integers(0, 7, size=(2, 4))
    weights = rng.uniform(size=(2, 4))
    _check_grads(
        lambda t: ag.masked_nll(t["logits"], targets, weights),
        {"logits": probe((2, 4, 7))},
    )


def test_grad_two_layer_mlp_matches_central_differences(rng):
    # 2-layer 8-wide MLP, seed 0, central differences with step 1e-5
    r = np.random.default_rng(0)
    x = r.normal(size=(4, 8))
    arrays = {
        "w1": r.normal(size=(8, 8)),
        "b1": r.normal(size=(8,)),
        "w2": r.normal(size=(8, 8)),
        "b2": r.normal(size=(8,)),
    }
    c = r.normal(size=(4, 8))

    def build(t):
        h = ag.gelu(ag.add(ag.linear(Tensor(x), t["w1"]), t["b1"]))
        out = ag.add(ag.linear(h, t["w2"]), t["b2"])
        return ag.sum_all(ag.mul(out, c))

    _check_grads(build, arrays, eps=1e-5, rtol=1e-4, atol=1e-7)


def test_softmax_matches_reference(rng):
    x = rng.normal(scale=3.0, size=(5, 11))
    np.testing.assert_allclose(_softmax_via_nll(x), ref_softmax(x), rtol=0, atol=1e-15)


# ----------------------------------------------------------------------------
# linear with a LoRA adapter: one merged product, factored backward
# ----------------------------------------------------------------------------


def _linear_and_grads(build, arrays, g):
    tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    with GradTape() as tape:
        out = build(tensors)
        loss = ag.sum_all(ag.mul(out, g))
    grads = backward(tape, loss)
    return out.data, {k: grads.get(t) for k, t in tensors.items()}


def _adapter_arrays(rng, up_scale=1.0):
    return {
        "x": rng.normal(size=(3, 7, 12)),
        "w": rng.normal(size=(10, 12)),
        "down": rng.normal(size=(4, 12)),
        "up": rng.normal(scale=up_scale, size=(10, 4)),
    }


def test_linear_adapter_matches_unfused_graph(rng):
    arrays, g = _adapter_arrays(rng), rng.normal(size=(3, 7, 10))
    fused, fused_grads = _linear_and_grads(lambda t: ag.linear(t["x"], t["w"], (t["down"], t["up"])), arrays, g)
    unfused, unfused_grads = _linear_and_grads(
        lambda t: ag.add(ag.linear(t["x"], t["w"]), ag.linear(ag.linear(t["x"], t["down"]), t["up"])), arrays, g
    )
    np.testing.assert_allclose(fused, unfused, rtol=0, atol=1e-12)
    for name in arrays:
        np.testing.assert_allclose(fused_grads[name], unfused_grads[name], rtol=0, atol=1e-12, err_msg=name)


def test_linear_zero_up_factor_is_bit_exact(rng):
    arrays, g = _adapter_arrays(rng, up_scale=0.0), rng.normal(size=(3, 7, 10))
    fused, fused_grads = _linear_and_grads(lambda t: ag.linear(t["x"], t["w"], (t["down"], t["up"])), arrays, g)
    plain, plain_grads = _linear_and_grads(lambda t: ag.linear(t["x"], t["w"]), arrays, g)
    assert fused.tobytes() == plain.tobytes()
    for name in ("x", "w"):
        assert fused_grads[name].tobytes() == plain_grads[name].tobytes(), name


def test_linear_adapter_records_one_linear_node(rng):
    arrays = {k: Tensor(v, requires_grad=k in ("down", "up")) for k, v in _adapter_arrays(rng).items()}
    with GradTape() as tape:
        ag.linear(arrays["x"], arrays["w"], (arrays["down"], arrays["up"]))
    assert [n.op for n in tape.nodes] == ["linear"]
    gx, gw, gdown, gup = tape.nodes[0].vjp(rng.normal(size=(3, 7, 10)))
    assert gx is None and gw is None and gdown.shape == (4, 12) and gup.shape == (10, 4)


@pytest.mark.parametrize(
    "down_shape, up_shape",
    [((4, 11), (10, 4)), ((4, 12), (9, 4)), ((4, 12), (10, 3)), ((12,), (10, 4)), ((4, 12), (10, 4, 1))],
    ids=["down-width", "up-height", "rank", "down-1d", "up-3d"],
)
def test_linear_adapter_rejects_mismatched_factors(rng, down_shape, up_shape):
    x, w = Tensor(rng.normal(size=(3, 7, 12))), Tensor(rng.normal(size=(10, 12)))
    adapter = (Tensor(np.zeros(down_shape)), Tensor(np.zeros(up_shape)))
    with pytest.raises(ShapeMismatch, match="down"):
        ag.linear(x, w, adapter)


# ----------------------------------------------------------------------------
# linear with a folded bias, or as a block's FFN half: the bits of the unfused graph
# ----------------------------------------------------------------------------


def _fold_arrays(rng, adapter, fold):
    """(3, 7, 12) rows ``x``, a (12, 12) ``w``, its LoRA factors with ``adapter``, and what ``fold`` adds.

    The "bias" fold adds a bias; the "gelu" fold is a block's FFN half, with
    a GELU hidden layer's weight ``wh`` and a norm ``gain``.
    """
    arrays = {"x": rng.normal(size=(3, 7, 12)), "w": rng.normal(size=(12, 12))}
    if fold == "bias":
        arrays["b"] = rng.normal(size=(12,))
    else:
        arrays["wh"] = rng.normal(size=(12, 12))
        arrays["gain"] = rng.normal(1.0, 0.3, size=12)
    if adapter:
        arrays["down"] = rng.normal(size=(4, 12))
        arrays["up"] = rng.normal(size=(12, 4))
    return arrays


def _adapter_of(t):
    return (t["down"], t["up"]) if "down" in t else None


def _hidden(t):
    """The unrouted GELU hidden layer over ``wh`` as an ``inner`` spec, or None without ``wh``."""
    return (t["wh"], None, None, None) if "wh" in t else None


FOLDS = {
    "bias": (
        lambda t: ag.linear(t["x"], t["w"], _adapter_of(t), bias=t["b"]),
        lambda t: ag.add(ag.linear(t["x"], t["w"], _adapter_of(t)), t["b"]),
    ),
    "gelu": (
        lambda t: ag.linear(t["x"], t["w"], _adapter_of(t), inner=_hidden(t), norm=t["gain"]),
        lambda t: ag.add(
            t["x"], ag.linear(ag.gelu(ag.linear(ag.rms_norm(t["x"], t["gain"]), t["wh"])), t["w"], _adapter_of(t))
        ),
    ),
}


def _fold_and_grads(build, arrays, frozen, g):
    tensors = {k: Tensor(v, requires_grad=k != frozen) for k, v in arrays.items()}
    with GradTape() as tape:
        out = build(tensors)
        loss = ag.sum_all(ag.mul(out, g))
    grads = backward(tape, loss)
    return out.data, {k: grads.get(t) for k, t in tensors.items()}, [n.op for n in tape.nodes]


@pytest.mark.parametrize("frozen", [None, "w", "x"], ids=["all-trainable", "w-frozen", "x-frozen"])
@pytest.mark.parametrize("adapter", [False, True], ids=["plain", "adapter"])
@pytest.mark.parametrize("fold", sorted(FOLDS))
def test_linear_fold_bits_equal_unfused_graph(rng, fold, adapter, frozen):
    arrays = _fold_arrays(rng, adapter, fold)
    g = rng.normal(size=(3, 7, 12))
    fused_build, unfused_build = FOLDS[fold]
    fused, fused_grads, fused_ops = _fold_and_grads(fused_build, arrays, frozen, g)
    unfused, unfused_grads, _ = _fold_and_grads(unfused_build, arrays, frozen, g)
    assert fused_ops == ["linear", "mul", "sum_all"]
    assert fused.tobytes() == unfused.tobytes()
    for name in arrays:
        assert (fused_grads[name] is None) == (name == frozen), name
        if name != frozen:
            assert fused_grads[name].tobytes() == unfused_grads[name].tobytes(), name
    # with the tape off nothing is recorded and the output keeps its bytes
    plain = {k: Tensor(v) for k, v in arrays.items()}
    assert fused_build(plain).data.tobytes() == unfused_build(plain).data.tobytes() == fused.tobytes()


# "both" is the residual x and a GELU hidden layer, with its norm: a block's FFN half
@pytest.mark.parametrize("ffn", [True, False], ids=["both", "bias"])
@pytest.mark.parametrize("adapter", [False, True], ids=["plain", "adapter"])
def test_grad_linear_fold(probe, adapter, ffn):
    c = probe((2, 3, 5))
    arrays = {"x": probe((2, 3, 5)), "w": probe((5, 5))}
    if adapter:
        arrays.update(down=probe((2, 5)), up=probe((5, 2)))
    if ffn:
        arrays.update(wh=probe((5, 5)), gain=probe(5))
    else:
        arrays["b"] = probe((5,))

    def loss(t):
        y = ag.linear(t["x"], t["w"], _adapter_of(t), bias=t.get("b"), inner=_hidden(t), norm=t.get("gain"))
        return ag.sum_all(ag.mul(y, c))

    _check_grads(loss, arrays)


def _masked_nll_reference(ld, targets, weights):
    """masked_nll and its gradient as first written, with a full logp array."""
    z = ld - ld.max(axis=-1, keepdims=True)
    e = np.exp(z)
    denom = e.sum(axis=-1, keepdims=True)
    p = e / denom
    logp = z - np.log(denom)
    picked = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    gl = p * weights[..., None]
    np.subtract.at(gl.reshape(-1, gl.shape[-1]), (np.arange(targets.size), targets.reshape(-1)), weights.reshape(-1))
    return -(weights * picked).sum(), gl


def test_masked_nll_bits_equal_earlier_form(rng):
    ld = rng.normal(scale=4.0, size=(6, 11, 37))
    targets, weights = rng.integers(0, 37, size=(6, 11)), rng.uniform(size=(6, 11))
    ref_loss, ref_grad = _masked_nll_reference(ld, targets, weights)
    with GradTape() as tape:
        loss = ag.masked_nll(Tensor(ld, requires_grad=True), targets, weights)
    (grad,) = tape.nodes[-1].vjp(np.ones(()))
    assert loss.data.tobytes() == np.float64(ref_loss).tobytes()
    assert grad.tobytes() == ref_grad.tobytes()


def test_masked_nll_rejects_bad_targets():
    logits, weights = Tensor(np.log([[0.7, 0.2, 0.1]])), np.ones(1)
    for bad in (-1, 3):
        with pytest.raises(ValueError, match="masked_nll.*vocabulary of 3"):
            ag.masked_nll(logits, np.array([bad]), weights)
    with pytest.raises(ValueError, match="masked_nll.*integers"):
        ag.masked_nll(logits, np.array([1.0]), weights)
    with pytest.raises(ShapeMismatch, match="masked_nll"):
        ag.masked_nll(Tensor(1.0), np.array(0), np.array(1.0))  # no vocabulary axis


# ----------------------------------------------------------------------------
# a routed product, alone or as routed_linear's FFN half, with a folded adapter: one node
# ----------------------------------------------------------------------------

ROUTE_SPAN = 3  # image prefix of the (3, 7, k) inputs below


def _routed_arrays(rng, kind, up_scale=1.0, hidden=False):
    """``x`` and a routed ``w``; with ``hidden``, the FFN half's GELU hidden layer ``wh`` and norm ``gain``."""
    arrays = {"x": rng.normal(size=(3, 7, 12)), "w": rng.normal(size=(12, 12))}
    if hidden:
        arrays["wh"] = rng.normal(size=(12, 12))
        arrays["gain"] = rng.normal(1.0, 0.3, size=12)
    if kind == "expert":
        arrays["e"] = rng.normal(size=(12, 12))
    else:
        arrays["down"] = rng.normal(size=(4, 12))
        arrays["up"] = rng.normal(scale=up_scale, size=(12, 4))
    return arrays


def _routed(t, span):
    """The FFN half around the routed product over ``x`` when ``t`` has ``wh``, else that product alone."""
    if "wh" not in t:
        return routed_product_node(t["x"], (t["w"], t.get("e"), _adapter_of(t), span))
    return ag.routed_linear(t["x"], t["w"], t.get("e"), span, adapter=_adapter_of(t), inner=_hidden(t), norm=t["gain"])


def _unfused_routed(t, span):
    """The graph the routed path recorded before the folds: one node per step."""
    x = t["x"] if "wh" not in t else ag.gelu(ag.linear(ag.rms_norm(t["x"], t["gain"]), t["wh"]))
    if "e" in t:
        y = routed_product_node(x, (t["w"], t["e"], None, span))
    else:
        y = ag.add(ag.linear(x, t["w"]), ag.routed_lora(x, t["down"], t["up"], span))
    return y if "wh" not in t else ag.add(t["x"], y)


def _routed_probes(probe, kind, hidden):
    """Small ``_routed_arrays`` for central differences: (2, 4, 5) rows ``x``."""
    arrays = {"x": probe((2, 4, 5)), "w": probe((5, 5))}
    if kind == "expert":
        arrays["e"] = probe((5, 5))
    else:
        arrays.update(down=probe((2, 5)), up=probe((5, 2)))
    if hidden:
        arrays.update(wh=probe((5, 5)), gain=probe(5))
    return arrays


# each routed test runs both forms: "plain", the routed product alone, which the
# library runs only inside the block halves and the tests as routed_product_node,
# and "res-gelu", routed_linear's FFN half, which adds x to it behind a normed GELU
# hidden layer
@pytest.mark.parametrize("gelu", [False, True], ids=["plain", "res-gelu"])
@pytest.mark.parametrize("kind", ["expert", "adapter"])
def test_grad_routed_linear_fold(probe, kind, gelu):
    arrays, c = _routed_probes(probe, kind, gelu), probe((2, 4, 5))
    _check_grads(lambda t: ag.sum_all(ag.mul(_routed(t, 2), c)), arrays)


@pytest.mark.parametrize("span", [0, 4], ids=["no-row", "every-row"])
@pytest.mark.parametrize("kind", ["expert", "adapter"])
def test_grad_routed_linear_at_span_edges(probe, kind, span):
    arrays, c = _routed_probes(probe, kind, True), probe((2, 4, 5))
    _check_grads(lambda t: ag.sum_all(ag.mul(_routed(t, span), c)), arrays)


@pytest.mark.parametrize("kind", ["expert", "adapter"])
def test_routed_linear_routes_every_row_at_full_span(rng, kind):
    arrays, g = _routed_arrays(rng, kind, hidden=True), rng.normal(size=(3, 7, 12))
    out, grads, _ = _fold_and_grads(lambda t: _routed(t, 7), arrays, None, g)
    t = {k: Tensor(v) for k, v in arrays.items()}
    wm = t["e"] if kind == "expert" else ag.lora_weight(t["w"].data, t["down"].data, t["up"].data)
    want = ag.linear(t["x"], wm, inner=_hidden(t), norm=t["gain"]).data
    np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)
    if kind == "expert":  # beside an expert, w_base serves no row
        assert grads["w"].shape == arrays["w"].shape and not grads["w"].any()
    else:  # the merged weight holds w_base, so every row reaches it
        assert grads["w"].any()


@pytest.mark.parametrize(
    "span", [1.5, np.float64(2.0), "2", None, np.arange(7) < 3, -1, 8],
    ids=["fractional", "whole-float", "str", "none", "mask", "negative", "past-end"],
)
def test_routed_kernels_reject_bad_span(rng, span):
    a = {k: Tensor(v) for k, v in _routed_arrays(rng, "adapter", hidden=True).items()}
    e = Tensor(rng.normal(size=(12, 12)))
    with pytest.raises(ShapeMismatch, match=r"routed_linear: span must be an integer in \[0, 7\]"):
        ag.routed_linear(a["x"], a["w"], e, span, inner=_hidden(a), norm=a["gain"])
    with pytest.raises(ShapeMismatch, match=r"routed_linear: span must be an integer in \[0, 7\]"):
        ag.routed_linear(a["x"], a["w"], None, span, adapter=(a["down"], a["up"]), inner=_hidden(a), norm=a["gain"])
    with pytest.raises(ShapeMismatch, match=r"routed_lora: span must be an integer in \[0, 7\]"):
        ag.routed_lora(a["x"], a["down"], a["up"], span)


@pytest.mark.parametrize("span", [0, ROUTE_SPAN, 7], ids=["no-row", "prefix", "every-row"])
def test_routed_lora_touches_only_the_prefix(rng, span):
    a = {k: Tensor(v, requires_grad=True) for k, v in _routed_arrays(rng, "adapter").items()}
    g = rng.normal(size=(3, 7, 12))
    with GradTape() as tape:
        out = ag.routed_lora(a["x"], a["down"], a["up"], span)
    gx, gdown, gup = tape.nodes[-1].vjp(g)
    xd, dd, ud = a["x"].data, a["down"].data, a["up"].data
    assert not out.data[:, span:].any() and not gx[:, span:].any()
    np.testing.assert_allclose(out.data[:, :span], (xd[:, :span] @ dd.T) @ ud.T, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gx[:, :span], (g[:, :span] @ ud) @ dd, rtol=0, atol=1e-12)
    gs, xs = g[:, :span].reshape(-1, 12), xd[:, :span].reshape(-1, 12)
    np.testing.assert_allclose(gdown, (gs @ ud).T @ xs, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gup, gs.T @ (xs @ dd.T), rtol=0, atol=1e-12)
    assert gdown.shape == dd.shape and gup.shape == ud.shape


@pytest.mark.parametrize("gelu", [False, True], ids=["plain", "res-gelu"])
@pytest.mark.parametrize("kind", ["expert", "adapter"])
def test_routed_linear_unmasked_rows_equal_linear(rng, kind, gelu):
    t = {k: Tensor(v) for k, v in _routed_arrays(rng, kind, hidden=gelu).items()}
    got = _routed(t, ROUTE_SPAN).data
    want = ag.linear(t["x"], t["w"], inner=_hidden(t), norm=t.get("gain")).data
    assert got[:, ROUTE_SPAN:].tobytes() == want[:, ROUTE_SPAN:].tobytes()
    assert not np.array_equal(got[:, :ROUTE_SPAN], want[:, :ROUTE_SPAN])


@pytest.mark.parametrize("gelu", [False, True], ids=["plain", "res-gelu"])
@pytest.mark.parametrize("kind", ["expert", "adapter"])
def test_routed_linear_all_text_is_linear_and_never_reads_the_routed_weight(rng, monkeypatch, kind, gelu):
    arrays = _routed_arrays(rng, kind, hidden=gelu)
    for name in ("e", "down", "up"):
        if name in arrays:
            arrays[name][:] = np.nan  # unreachable at span 0

    def no_merge(*args):
        raise AssertionError("merged weight formed at span 0")

    monkeypatch.setattr(ag, "lora_weight", no_merge)
    g = rng.normal(size=(3, 7, 12))
    out, grads, ops = _fold_and_grads(lambda t: _routed(t, 0), arrays, None, g)
    plain = {k: arrays[k] for k in ("x", "w", "wh", "gain") if k in arrays}
    want, want_grads, _ = _fold_and_grads(
        lambda t: ag.linear(t["x"], t["w"], inner=_hidden(t), norm=t.get("gain")), plain, None, g
    )
    assert ops == ["routed_linear", "mul", "sum_all"]
    assert out.tobytes() == want.tobytes()
    for name in plain:
        assert grads[name].tobytes() == want_grads[name].tobytes(), name
    for name in arrays.keys() - plain.keys():
        assert not grads[name].any(), name  # zero, and finite


@pytest.mark.parametrize("span", [0, ROUTE_SPAN], ids=["all-text", "mixed"])
@pytest.mark.parametrize("kind", ["expert", "adapter"])
def test_routed_linear_never_calls_the_public_linear(rng, monkeypatch, kind, span):
    arrays, g = _routed_arrays(rng, kind, hidden=True), rng.normal(size=(3, 7, 12))

    def no_linear(*args, **kwargs):
        raise AssertionError("routed_linear went through the public linear")

    monkeypatch.setattr(ag, "linear", no_linear)
    out, grads, ops = _fold_and_grads(lambda t: _routed(t, span), arrays, None, g)
    assert ops == ["routed_linear", "mul", "sum_all"] and np.isfinite(out).all()
    assert all(grads[name] is not None for name in arrays)


# the plain expert product has no unfused graph but itself, so it is not a case here
@pytest.mark.parametrize(
    "kind, gelu", [("expert", True), ("adapter", False), ("adapter", True)],
    ids=["expert-res-gelu", "adapter-plain", "adapter-res-gelu"],
)
def test_routed_linear_bits_equal_unfused_graph_at_zero_up(rng, kind, gelu):
    # with up = 0 the merged weight is w itself; an expert never had a delta
    arrays, g = _routed_arrays(rng, kind, up_scale=0.0, hidden=gelu), rng.normal(size=(3, 7, 12))
    fused, fused_grads, fused_ops = _fold_and_grads(lambda t: _routed(t, ROUTE_SPAN), arrays, None, g)
    unfused, unfused_grads, unfused_ops = _fold_and_grads(lambda t: _unfused_routed(t, ROUTE_SPAN), arrays, None, g)
    assert fused_ops == ["routed_linear", "mul", "sum_all"] and len(unfused_ops) > len(fused_ops)
    assert fused.tobytes() == unfused.tobytes()
    for name in arrays:
        assert fused_grads[name].tobytes() == unfused_grads[name].tobytes(), name


@pytest.mark.parametrize("gelu", [False, True], ids=["plain", "res-gelu"])
def test_routed_adapter_matches_unfused_graph(rng, gelu):
    arrays, g = _routed_arrays(rng, "adapter", hidden=gelu), rng.normal(size=(3, 7, 12))
    fused, fused_grads, _ = _fold_and_grads(lambda t: _routed(t, ROUTE_SPAN), arrays, None, g)
    unfused, unfused_grads, _ = _fold_and_grads(lambda t: _unfused_routed(t, ROUTE_SPAN), arrays, None, g)
    assert fused[:, ROUTE_SPAN:].tobytes() == unfused[:, ROUTE_SPAN:].tobytes()
    np.testing.assert_allclose(fused[:, :ROUTE_SPAN], unfused[:, :ROUTE_SPAN], rtol=0, atol=1e-12)
    for name in arrays:
        np.testing.assert_allclose(fused_grads[name], unfused_grads[name], rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("kind", ["expert", "adapter"])
def test_routed_linear_frozen_base_gets_no_gradient(rng, kind):
    arrays, g = _routed_arrays(rng, kind, hidden=True), rng.normal(size=(3, 7, 12))
    _, grads, ops = _fold_and_grads(lambda t: _routed(t, ROUTE_SPAN), arrays, "w", g)
    assert ops == ["routed_linear", "mul", "sum_all"]
    assert grads["w"] is None
    assert all(grads[name] is not None for name in arrays if name != "w")


def test_routed_linear_records_inputs_in_order(rng):
    t = {k: Tensor(v, requires_grad=True) for k, v in _routed_arrays(rng, "adapter", hidden=True).items()}
    with GradTape() as tape:
        _routed(t, ROUTE_SPAN)
    (node,) = tape.nodes
    assert node.op == "routed_linear" and node.inputs == (t["x"], t["w"], t["down"], t["up"], t["wh"], t["gain"])
    grads = node.vjp(rng.normal(size=(3, 7, 12)))
    assert [gi.shape for gi in grads] == [i.shape for i in node.inputs]


def test_routed_linear_takes_one_routed_weight(rng):
    a = {k: Tensor(v) for k, v in _routed_arrays(rng, "adapter", hidden=True).items()}
    e, inner = Tensor(rng.normal(size=(12, 12))), _hidden(a)
    with pytest.raises(ValueError, match="exactly one"):
        ag.routed_linear(a["x"], a["w"], e, ROUTE_SPAN, adapter=(a["down"], a["up"]), inner=inner, norm=a["gain"])
    with pytest.raises(ValueError, match="exactly one"):
        ag.routed_linear(a["x"], a["w"], None, ROUTE_SPAN, inner=inner, norm=a["gain"])


@pytest.mark.parametrize("span", [ROUTE_SPAN, 0], ids=["mixed", "all-text"])
def test_routed_linear_rejects_misshapen_factors_or_residual(rng, span):
    a = {k: Tensor(v) for k, v in _routed_arrays(rng, "adapter", hidden=True).items()}
    for down_shape, up_shape in [((4, 11), (12, 4)), ((4, 12), (9, 4)), ((4, 12), (12, 3)), ((12,), (12, 4))]:
        adapter = (Tensor(np.zeros(down_shape)), Tensor(np.zeros(up_shape)))
        with pytest.raises(ShapeMismatch, match="down"):
            ag.routed_linear(a["x"], a["w"], None, span, adapter=adapter, inner=_hidden(a), norm=a["gain"])
    for n in (10, 13):  # the FFN half's residual is x, so w must be as wide as x
        adapter = (np.zeros((4, 12)), np.zeros((n, 4)))
        with pytest.raises(ShapeMismatch, match="residual"):
            ag.routed_linear(a["x"], np.zeros((n, 12)), None, span, adapter=adapter, inner=_hidden(a), norm=a["gain"])


# ----------------------------------------------------------------------------
# a whole FFN half as one product node: the bits of its flat graph
# ----------------------------------------------------------------------------

FFN_SPAN = 30  # image prefix of the (4, 80, 12) input below, whose hidden rows fill two GELU tiles


def _ffn_arrays(rng):
    shapes = {
        "x": (4, 80, 12), "gain": (12,),
        "w1": (64, 12), "e1": (64, 12), "down1": (4, 12), "up1": (64, 4),
        "w2": (12, 64), "e2": (12, 64), "down2": (4, 64), "up2": (12, 4),
    }
    return {k: rng.normal(size=s) for k, s in shapes.items()}


def _ffn_spec(t, i, kind, span):
    """Matrix ``i`` of the FFN as ``(w, expert, adapter, span)``, routed for "expert" and "routed-adapter"."""
    adapter = (t[f"down{i}"], t[f"up{i}"])
    return {
        "plain": (t[f"w{i}"], None, None, None),
        "adapter": (t[f"w{i}"], None, adapter, None),
        "expert": (t[f"w{i}"], t[f"e{i}"], None, span),
        "routed-adapter": (t[f"w{i}"], None, adapter, span),
    }[kind]


def _spec_product(x, spec, inner=None, norm=None):
    """The product of a matrix spec over ``x``, or the FFN half around it with ``inner`` and ``norm``.

    An unrouted spec goes to ``linear``. A routed one goes to
    ``routed_linear``'s FFN half, or alone to ``routed_product_node``.
    """
    w, expert, adapter, span = spec
    if span is None:
        return ag.linear(x, w, adapter, inner=inner, norm=norm)
    if inner is None:
        return routed_product_node(x, spec)
    return ag.routed_linear(x, w, expert, span, adapter=adapter, inner=inner, norm=norm)


FFN_CASES = {  # (kind of w1, kind of w2, span)
    "adapter": ("adapter", "adapter", FFN_SPAN),
    "expert": ("expert", "expert", FFN_SPAN),
    "routed-adapter": ("routed-adapter", "routed-adapter", FFN_SPAN),
    "w1-routed": ("expert", "adapter", FFN_SPAN),
    "w2-routed": ("adapter", "routed-adapter", FFN_SPAN),
    "span-0": ("routed-adapter", "expert", 0),
}


@pytest.mark.parametrize("hidden_frozen", [False, True], ids=["all-trainable", "x-and-w1-frozen"])
@pytest.mark.parametrize("case", sorted(FFN_CASES))
def test_ffn_node_bits_equal_two_node_composition(rng, case, hidden_frozen):
    kind1, kind2, span = FFN_CASES[case]
    if hidden_frozen:  # nothing under the hidden rows trains, the gain neither, so only w2's operands get gradients
        kind1 = "plain"
    arrays, g = _ffn_arrays(rng), rng.normal(size=(4, 80, 12))
    frozen = {"x", "w1", "gain"} if hidden_frozen else set()

    def run(build, tape_on=True):
        t = {k: Tensor(v, requires_grad=tape_on and k not in frozen) for k, v in arrays.items()}
        with GradTape() as tape:
            out = build(t, _ffn_spec(t, 1, kind1, span), _ffn_spec(t, 2, kind2, span))
            loss = ag.sum_all(ag.mul(out, g))
        grads = backward(tape, loss) if tape_on else {}
        return out.data, {k: grads.get(v) for k, v in t.items()}, [n.op for n in tape.nodes]

    def fused(t, s1, s2):
        return _spec_product(t["x"], s2, inner=s1, norm=t["gain"])

    def composed(t, s1, s2):
        return ag.add(t["x"], _spec_product(ag.gelu(_spec_product(ag.rms_norm(t["x"], t["gain"]), s1)), s2))

    out, grads, ops = run(fused)
    ref, ref_grads, _ = run(composed)
    assert ops == ["linear" if kind2 == "adapter" else "routed_linear", "mul", "sum_all"]
    assert out.tobytes() == ref.tobytes()
    for name in arrays:
        assert (grads[name] is None) == (ref_grads[name] is None), name
        if grads[name] is not None:
            assert grads[name].tobytes() == ref_grads[name].tobytes(), name
    assert (grads["x"] is None) == hidden_frozen and grads["w2"] is not None
    # with the tape off nothing is recorded and the output keeps its bytes
    plain, _, plain_ops = run(fused, tape_on=False)
    assert plain_ops == [] and plain.tobytes() == out.tobytes()


def test_ffn_node_records_outer_then_inner_operands_then_gain(rng):
    t = {k: Tensor(v, requires_grad=True) for k, v in _ffn_arrays(rng).items()}
    with GradTape() as tape:
        inner = (t["w1"], None, (t["down1"], t["up1"]), None)
        ag.routed_linear(t["x"], t["w2"], t["e2"], FFN_SPAN, inner=inner, norm=t["gain"])
    assert [n.op for n in tape.nodes] == ["routed_linear"]
    names = ["x", "w2", "e2", "w1", "down1", "up1", "gain"]
    assert [id(i) for i in tape.nodes[0].inputs] == [id(t[k]) for k in names]


@pytest.mark.parametrize(
    "inner",
    [("w1", "e1", None, None), ("w1", None, None, 3), ("w1", "e1", "adapter", 3)],
    ids=["unrouted-expert", "routed-without-weight", "routed-with-both"],
)
def test_ffn_node_rejects_an_inner_spec_without_one_routed_weight(rng, inner):
    t = {k: Tensor(v) for k, v in _ffn_arrays(rng).items()}
    w, e, a, span = inner
    spec = (t[w], t[e] if e else None, (t["down1"], t["up1"]) if a else None, span)
    with pytest.raises(ValueError, match="^linear: "):
        ag.linear(t["x"], t["w2"], inner=spec, norm=t["gain"])


def _ffn_half_operands():
    """(1, 2, 3) rows, an inner spec of a (4, 3) w1, a norm gain and a (3, 4) w2: a well-formed FFN half."""
    return np.zeros((1, 2, 3)), (np.zeros((4, 3)), None, None, None), np.ones(3), np.zeros((3, 4))


@pytest.mark.parametrize(
    "op, call",
    [
        ("linear", lambda x, w1, gain, w2: ag.linear(x, w2, inner=w1)),
        ("linear", lambda x, w1, gain, w2: ag.linear(x, w2, norm=gain)),
        ("linear", lambda x, w1, gain, w2: ag.linear(x, w2, inner=w1, norm=gain, bias=np.zeros(3))),
        ("routed_linear", lambda x, w1, gain, w2: ag.routed_linear(x, w2, w2, 1, inner=w1, norm=None)),
        ("routed_linear", lambda x, w1, gain, w2: ag.routed_linear(x, w2, w2, 1, inner=None, norm=gain)),
        ("routed_linear", lambda x, w1, gain, w2: ag.routed_linear(x, w2, w2, 1, inner=None, norm=None)),
    ],
    ids=[
        "linear-inner-without-norm", "linear-norm-without-inner", "linear-bias-with-inner",
        "routed_linear-inner-without-norm", "routed_linear-norm-without-inner", "routed_linear-plain",
    ],
)
def test_ffn_node_refuses_inner_and_norm_apart_or_beside_a_bias(op, call):
    x, w1, gain, w2 = _ffn_half_operands()
    assert ag.linear(x, w2, inner=w1, norm=gain).shape == x.shape  # the combination alone is refused
    refusals = "inner and norm come together|a bias goes on a plain product|a block's FFN half only"
    with pytest.raises(ValueError, match=f"^{op}: ({refusals})"):
        call(*_ffn_half_operands())


# ----------------------------------------------------------------------------
# the two block halves: the bits of the flat graph of one node per step
# ----------------------------------------------------------------------------

HALF_T = 6  # sequence length of the (2, 6, 8) block inputs below
HALF_SPANS = {"span-0": 0, "partial": 2, "full": HALF_T}
# the kind of each matrix (wq, wk, wv, wo, w1, w2); "mixed" gives every half several kinds
HALF_KINDS = {kind: (kind,) * 6 for kind in ("plain", "adapter", "expert", "routed-adapter")}
HALF_KINDS["mixed"] = ("plain", "expert", "adapter", "routed-adapter", "routed-adapter", "expert")
# which leaves are frozen: the stream x, the norm gain, the matrix operands
HALF_FROZEN = {
    "all-trainable": set(),
    "x-frozen": {"x"},
    "stream-frozen": {"x", "gain"},
    "weights-frozen": {"weights"},
}


def _half_arrays(rng, shapes):
    """``x``, a norm ``gain`` and, per matrix name and its (out, in) shape, a weight, an expert and LoRA factors."""
    arrays = {"x": rng.normal(size=(2, HALF_T, 8)), "gain": rng.normal(1.0, 0.3, size=8)}
    arrays["g"] = rng.normal(size=(2, HALF_T, 8))  # the loss probe, never trained
    for name, (n, k) in shapes.items():
        arrays.update({
            name: rng.normal(scale=0.5, size=(n, k)),
            f"{name}.e": rng.normal(scale=0.5, size=(n, k)),
            f"{name}.down": rng.normal(scale=0.5, size=(2, k)),
            f"{name}.up": rng.normal(scale=0.5, size=(n, 2)),
        })
    return arrays


def _half_tensors(arrays, frozen, tape_on):
    def trains(name):
        return tape_on and name != "g" and ("weights" if "." in name or name.startswith("w") else name) not in frozen

    return {k: Tensor(v, requires_grad=trains(k)) for k, v in arrays.items()}


def _half_spec(t, name, kind, span):
    """Matrix ``name`` of a half as ``(w, expert, adapter, span)``, as ``_ffn_spec`` makes them."""
    operands = {"w": t[name], "e": t[f"{name}.e"], "down": t[f"{name}.down"], "up": t[f"{name}.up"]}
    return _ffn_spec(operands, "", kind, span)


def _run_half(build, arrays, frozen, tape_on):
    """The output, the gradient of every leaf for the loss ``sum(out * g)``, and the recorded ops."""
    t = _half_tensors(arrays, frozen, tape_on)
    with GradTape() as tape:
        out = build(t)
        loss = ag.sum_all(ag.mul(out, t["g"]))
    grads = backward(tape, loss) if tape_on else {}
    return out.data, {k: grads.get(v) for k, v in t.items()}, [n.op for n in tape.nodes]


def _check_half(fused_build, flat_build, arrays, frozen):
    """The half is one node whose output and leaf gradients have the flat graph's bits, tape on and off."""
    out, grads, ops = _run_half(fused_build, arrays, frozen, tape_on=True)
    ref, ref_grads, ref_ops = _run_half(flat_build, arrays, frozen, tape_on=True)
    assert len(ops) == 3 and len(ref_ops) > 3  # the half, or the flat graph, then mul and sum_all
    assert out.tobytes() == ref.tobytes()
    for name in grads:
        assert (grads[name] is None) == (ref_grads[name] is None), name
        if grads[name] is not None:
            assert grads[name].tobytes() == ref_grads[name].tobytes(), name
    assert (grads["x"] is None) == ("x" in frozen) and (grads["gain"] is None) == ("gain" in frozen)
    # with the tape off nothing is recorded and the output keeps its bytes
    plain, _, plain_ops = _run_half(fused_build, arrays, frozen, tape_on=False)
    assert plain_ops == [] and plain.tobytes() == _run_half(flat_build, arrays, frozen, tape_on=False)[0].tobytes()
    assert plain.tobytes() == out.tobytes()


def _attention_oracle_node(q, k, v, n_heads, causal):
    """A flat graph's attention node, its forward and vjp the whole-matrix numpy references."""
    qkv = [t.data for t in (q, k, v)]
    out = Tensor(_attention_reference(*qkv, n_heads, causal)[0])
    return ag._maybe_record("attention", out, (q, k, v), lambda g: _attention_vjp_reference(*qkv, g, n_heads, causal))


@pytest.mark.parametrize("frozen", sorted(HALF_FROZEN))
@pytest.mark.parametrize("causal", [True, False], ids=["causal", "bidirectional"])
@pytest.mark.parametrize("span", sorted(HALF_SPANS))
@pytest.mark.parametrize("kind", sorted(HALF_KINDS))
def test_attention_half_bits_equal_flat_graph(rng, kind, span, causal, frozen):
    arrays = _half_arrays(rng, {w: (8, 8) for w in ("wq", "wk", "wv", "wo")})
    kinds, s = HALF_KINDS[kind], HALF_SPANS[span]

    def specs(t):
        return [_half_spec(t, name, k, s) for name, k in zip(("wq", "wk", "wv", "wo"), kinds)]

    def fused(t):
        q, k, v, o = specs(t)
        return ag.attention(q, k, v, 2, causal=causal, x=t["x"], gain=t["gain"], wo=o)

    def flat(t):
        q, k, v, o = specs(t)
        h = ag.rms_norm(t["x"], t["gain"])
        a = _attention_oracle_node(*(_spec_product(h, m) for m in (q, k, v)), 2, causal)
        return ag.add(_spec_product(a, o), t["x"])

    _check_half(fused, flat, arrays, HALF_FROZEN[frozen])


@pytest.mark.parametrize("frozen", sorted(HALF_FROZEN))
@pytest.mark.parametrize("span", sorted(HALF_SPANS))
@pytest.mark.parametrize("kind", sorted(HALF_KINDS))
def test_ffn_half_bits_equal_flat_graph(rng, kind, span, frozen):
    arrays = _half_arrays(rng, {"w1": (32, 8), "w2": (8, 32)})
    kinds, s = HALF_KINDS[kind][4:], HALF_SPANS[span]

    def fused(t):
        s1, s2 = _half_spec(t, "w1", kinds[0], s), _half_spec(t, "w2", kinds[1], s)
        return _spec_product(t["x"], s2, inner=s1, norm=t["gain"])

    def flat(t):
        s1, s2 = _half_spec(t, "w1", kinds[0], s), _half_spec(t, "w2", kinds[1], s)
        h = ag.gelu(_spec_product(ag.rms_norm(t["x"], t["gain"]), s1))
        return ag.add(_spec_product(h, s2), t["x"])

    _check_half(fused, flat, arrays, HALF_FROZEN[frozen])


# ----------------------------------------------------------------------------
# rms_norm and the attention vjp compute the bits of their earlier forms
# ----------------------------------------------------------------------------


def _rms_norm_reference(xd, gd, g, x_grad, gain_grad):
    """rms_norm and its vjp as first written, keeping the pre-gain rows."""
    n = xd.shape[-1]
    inv = 1.0 / np.sqrt((xd * xd).mean(axis=-1, keepdims=True) + 1e-12)
    y = xd * inv
    out = y * gd
    gx = ggain = None
    if x_grad:
        h = g * gd
        gx = inv * h - xd * (inv**3 / n) * (xd * h).sum(axis=-1, keepdims=True)
    if gain_grad:
        ggain = (y * g).reshape(-1, n).sum(axis=0)
    return out, gx, ggain


@pytest.mark.parametrize(
    "x_grad, gain_grad", [(True, True), (True, False), (False, True)], ids=["gain-trainable", "gain-frozen", "x-frozen"]
)
def test_rms_norm_bits_equal_earlier_form(rng, x_grad, gain_grad):
    xd, gd, g = rng.normal(size=(4, 9, 16)), rng.normal(size=16), rng.normal(size=(4, 9, 16))
    ref_out, ref_gx, ref_ggain = _rms_norm_reference(xd, gd, g, x_grad, gain_grad)
    with GradTape() as tape:
        out = ag.rms_norm(Tensor(xd, requires_grad=x_grad), Tensor(gd, requires_grad=gain_grad))
    gx, ggain = tape.nodes[-1].vjp(g)
    assert out.data.tobytes() == ref_out.tobytes()
    assert (gx is None) == (not x_grad) and (ggain is None) == (not gain_grad)
    if x_grad:
        assert gx.tobytes() == ref_gx.tobytes()
    if gain_grad:
        assert ggain.tobytes() == ref_ggain.tobytes()


def _attention_reference(q, k, v, n_heads, causal):
    """attention's forward as first written, over whole (T, T) score matrices: (output, row max, denominator)."""
    bsz, t, d = q.shape
    hd = d // n_heads
    qh, kh, vh = (a.reshape(bsz, t, n_heads, hd).transpose(0, 2, 1, 3) for a in (q, k, v))
    s = np.matmul(qh, kh.swapaxes(-1, -2))
    s *= 1.0 / math.sqrt(hd)
    if causal:
        s += np.triu(np.full((t, t), -np.inf), k=1)
    mx = s.max(axis=-1, keepdims=True)
    s -= mx
    np.exp(s, out=s)
    denom = s.sum(axis=-1, keepdims=True)
    s /= denom
    return np.matmul(s, vh).transpose(0, 2, 1, 3).reshape(bsz, t, d), mx, denom


def _attention_vjp_reference(q, k, v, g, n_heads, causal):
    """attention's gradients as first written, with gs built outside gp."""
    bsz, t, d = q.shape
    hd = d // n_heads
    scale = 1.0 / math.sqrt(hd)

    def split(a):
        return a.reshape(bsz, t, n_heads, hd).transpose(0, 2, 1, 3)

    def merge(a):
        return a.transpose(0, 2, 1, 3).reshape(bsz, t, d)

    qh, kh, vh = split(q), split(k), split(v)
    s = np.matmul(qh, kh.swapaxes(-1, -2))
    s *= scale
    if causal:
        s += np.triu(np.full((t, t), -np.inf), k=1)
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    p = s
    gh = split(g)
    gv = merge(np.matmul(p.swapaxes(-1, -2), gh))
    gp = np.matmul(gh, vh.swapaxes(-1, -2))
    gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
    gs *= scale
    return merge(np.matmul(gs, kh)), merge(np.matmul(gs.swapaxes(-1, -2), qh)), gv


# (T, B, H, d): one-row trailing blocks (17, 33, 49), a block edge at the end (16, 48,
# 64), one block (1, 2), the default LM length 62, and rows longer than 128 (130), one
# block again; with the threshold at 0 every causal call of 18 <= T <= 128 is blocked.
# Heads 32 wide (d 64, H 2) round differently in blocks from T 35 on, so stay one block
BLOCK_SHAPES = [
    (t, bsz, n_heads, 16)
    for t in (1, 2, 16, 17, 18, 33, 48, 49, 62, 64, 130)
    for bsz in (1, 4, 16)
    for n_heads in (2, 4)
] + [(t, bsz, 2, 64) for t in (35, 48, 62) for bsz in (1, 4)]


@pytest.mark.parametrize("causal", [True, False])
def test_attention_forward_bits_equal_earlier_form(rng, monkeypatch, causal):
    monkeypatch.setattr(ag, "_BLOCKED_SCORES", 0)
    for t, bsz, n_heads, d in BLOCK_SHAPES:
        q, k, v = (rng.normal(size=(bsz, t, d)) for _ in range(3))
        got = ag._attention_forward(q, k, v, 1.0 / math.sqrt(d // n_heads), causal, n_heads)
        ref = _attention_reference(q, k, v, n_heads, causal)
        for name, a, b in zip(("output", "row max", "denominator"), got, ref):
            assert a.tobytes() == b.tobytes(), (name, t, bsz, n_heads, d)


@pytest.mark.parametrize("causal", [True, False])
def test_attention_vjp_bits_equal_earlier_form(rng, monkeypatch, causal):
    monkeypatch.setattr(ag, "_BLOCKED_SCORES", 0)
    for t, bsz, n_heads, d in [(10, 3, 4, 16)] + BLOCK_SHAPES:
        q, k, v, g = (rng.normal(size=(bsz, t, d)) for _ in range(4))
        ref_out, mx, denom = _attention_reference(q, k, v, n_heads, causal)
        got, out = [q.copy(), k.copy(), v.copy()], g.copy()  # written over: the gradients, then the output
        ag._attention_backward(out, got, mx, denom, 1.0 / math.sqrt(d // n_heads), causal, n_heads)
        for name, a, b in zip("qkv", got, _attention_vjp_reference(q, k, v, g, n_heads, causal)):
            assert a.tobytes() == b.tobytes(), (name, t, bsz, n_heads, d)
        assert out.tobytes() == ref_out.tobytes(), ("output", t, bsz, n_heads, d)


def test_row_blocks_tile_the_rows_at_multiples_of_16(monkeypatch):
    monkeypatch.setattr(ag, "_BLOCKED_SCORES", 0)
    for t in range(1, 300):
        for n in (1, 64):
            blocks = ag._row_blocks(n, t, 16, True)
            assert [r0 for r0, _ in blocks] == [0] + [r1 for _, r1 in blocks[:-1]] and blocks[-1][1] == t, t
            assert all(r0 % 16 == 0 for r0, _ in blocks), t
            assert len(blocks) == 1 or all(r1 - r0 > 1 for r0, r1 in blocks), t
            assert (len(blocks) > 1) == (18 <= t <= 128), t  # rows longer than 128 are summed in halves
            assert ag._row_blocks(n, t, 16, False) == [(0, t)]


def test_row_blocks_below_the_crossover_are_one_block():
    gate = ag._BLOCKED_SCORES
    for n in (1, 4, 16, 64):
        for t in range(1, 129):
            for width in (4, 16, 24, 32, 64):  # heads wider than 24 are one block at any size
                blocked = len(ag._row_blocks(n, t, width, True)) > 1
                assert blocked == (width <= 24 and t >= 18 and n * t * t >= gate), (n, t, width)


# ----------------------------------------------------------------------------
# gelu kernel: values, derivative, no mutation
# ----------------------------------------------------------------------------


def _gelu_grid():
    # negatives, zero, |x| up to 10, and the tails where tanh rounds to +-1
    return np.concatenate([np.linspace(-10.0, 10.0, 40001), [0.0, -0.0, 1e-300, -1e-300, 1e-8, -1e-8]])


def test_gelu_matches_reference_on_grid():
    x = _gelu_grid()
    got, ref = ag.gelu(Tensor(x)).data, ref_gelu(x)
    # 1e-14 relative, plus one rounding of tanh scaled by 0.5*|x|: where
    # tanh -> -1, 1 + tanh cancels and that rounding dominates, in the
    # reference as much as in the kernel
    tol = 1e-14 * np.abs(ref) + 0.5 * np.abs(x) * np.spacing(1.0)
    assert (np.abs(got - ref) <= tol).all()
    well_conditioned = x >= -2.0
    np.testing.assert_allclose(got[well_conditioned], ref[well_conditioned], rtol=1e-14, atol=0)
    saturated = np.abs(x) >= 9.0
    np.testing.assert_array_equal(got[saturated], ref[saturated])
    assert (got[x == 0.0] == 0.0).all()


def _gelu_derivative(x):
    c = math.sqrt(2.0 / math.pi)
    t = np.tanh(c * (x + 0.044715 * x**3))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (1.0 + 3 * 0.044715 * x**2)


def test_gelu_vjp_matches_closed_form(rng):
    x = rng.normal(scale=3.0, size=(16, 62, 256))
    g = rng.normal(size=x.shape)
    with GradTape() as tape:
        ag.gelu(Tensor(x, requires_grad=True))
    (gx,) = tape.nodes[-1].vjp(g)
    # the derivative is bounded by ~1.13, so an absolute tolerance fits
    np.testing.assert_allclose(gx, g * _gelu_derivative(x), rtol=0, atol=1e-14)


def _gelu_reference(xd, g):
    """gelu and its vjp as first written, keeping t and the input rows."""
    c = math.sqrt(2.0 / math.pi)
    t = xd * xd
    t *= xd
    t *= 0.044715
    t += xd
    t *= c
    np.tanh(t, out=t)
    y = t + 1.0
    y *= xd
    y *= 0.5
    d = xd * xd
    d *= 3 * 0.044715
    d += 1.0
    d *= xd
    d *= 0.5 * c
    s = np.subtract(1.0, t)
    d *= s
    d += 0.5
    np.add(t, 1.0, out=s)
    d *= s
    d *= g
    return y, d


def test_gelu_bits_equal_earlier_form(rng):
    x = np.concatenate([_gelu_grid(), rng.normal(scale=3.0, size=5000)])
    g = rng.normal(size=x.shape)
    ref_y, ref_gx = _gelu_reference(x, g)
    with GradTape() as tape:
        y = ag.gelu(Tensor(x, requires_grad=True))
    (gx,) = tape.nodes[-1].vjp(g)
    assert y.data.tobytes() == ref_y.tobytes() == ag.gelu(Tensor(x)).data.tobytes()
    assert gx.tobytes() == ref_gx.tobytes()


def test_gelu_does_not_mutate_inputs(rng):
    x = Tensor(rng.normal(scale=3.0, size=(4, 5, 6)), requires_grad=True)
    g = rng.normal(size=x.shape)
    x_before, g_before = x.data.copy(), g.copy()
    with GradTape() as tape:
        ag.gelu(x)
    np.testing.assert_array_equal(x.data, x_before)
    tape.nodes[-1].vjp(g)
    np.testing.assert_array_equal(x.data, x_before)
    np.testing.assert_array_equal(g, g_before)


def test_gelu_vjp_leaves_a_shared_upstream_gradient_untouched(rng):
    x = Tensor(rng.normal(scale=3.0, size=(2, ag._GELU_TILE + 5)), requires_grad=True)
    other = Tensor(rng.normal(size=x.shape), requires_grad=True)
    with GradTape() as tape:
        ag.add(ag.gelu(x), other)
    g = rng.normal(size=x.shape)
    g_gelu, g_other = tape.nodes[-1].vjp(g)
    assert g_gelu is g_other is g  # add hands one g to the gelu output and to the other consumer
    before = g.tobytes()
    tape.nodes[0].vjp(g_gelu)
    assert g.tobytes() == before


# ----------------------------------------------------------------------------
# backward accumulation: shared first contributions, 0-d sums
# ----------------------------------------------------------------------------


def test_backward_shared_gradient_does_not_leak(probe):
    x = Tensor(probe((3, 4)), requires_grad=True)
    y = Tensor(probe((3, 4)), requires_grad=True)
    c, ca, cb, cr = (probe((3, 4)) for _ in range(4))
    with GradTape() as tape:
        a = ag.mul(x, 2.0)
        b = ag.mul(y, 3.0)
        r = ag.mul(a, cr)  # a third contribution to a, summed into a new array
        p = ag.mul(a, ca)
        q = ag.mul(b, cb)
        s = ag.add(a, b)  # replayed first: a and b both receive the same g
        loss = ag.sum_all(ag.mul(ag.add(ag.add(ag.add(s, p), q), r), c))
    grads = backward(tape, loss)
    np.testing.assert_allclose(grads[x], 2.0 * c * (1.0 + ca + cr), rtol=1e-15, atol=0)
    np.testing.assert_allclose(grads[y], 3.0 * c * (1.0 + cb), rtol=1e-15, atol=0)


def test_backward_reused_scalar_sums_exactly(rng):
    x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    with GradTape() as tape:
        s = ag.sum_all(x)
        loss = ag.add(s, s)
    np.testing.assert_array_equal(backward(tape, loss)[x], np.full((3, 5), 2.0))
    with GradTape() as tape:
        s = ag.sum_all(x)
        loss = ag.add(ag.add(s, s), s)  # the third use sums into a new 0-d array
    np.testing.assert_array_equal(backward(tape, loss)[x], np.full((3, 5), 3.0))


def _replay_out_of_place(tape, loss):
    """backward as first written: every sum a fresh ``acc + gi``."""
    grads = {loss: np.ones(())}
    for node in reversed(tape.nodes):
        g = grads.pop(node.out, None)
        if g is None:
            continue
        for inp, gi in zip(node.inputs, node.vjp(g)):
            if gi is not None:
                acc = grads.get(inp)
                grads[inp] = gi if acc is None else acc + gi
    return {t: g for t, g in grads.items() if t.requires_grad}


def _stage2_tape(build):
    """A tiny stage-2 tape of ``build``: (tape, loss, trainable leaves)."""
    cfg = ModelConfig(
        vocab_size=256, d_model=16, n_layers=4, n_heads=2, max_seq=48,
        grid_side=3, grid_alphabet=4, d_vision=8, n_vision_heads=2,
    )
    model = build(build_model(cfg, seed=0), plan_placement(4, Fraction(1, 4), "skip"), rank=4, seed=1)
    trainable = freeze_mask(model, 2)
    r = np.random.default_rng(3)
    for t in trainable.values():  # move off the init point so every path carries gradient
        t.data += r.normal(scale=0.05, size=t.shape)
        t.requires_grad = True
    data = synth_dataset(TaskSpec("grid-caption", n_samples=4, seed=0), max_seq=48, grid_side=3, grid_alphabet=4)
    batch, targets, predict, grids = collate([data[i] for i in range(4)], data.max_len)
    with GradTape() as tape:
        loss = ag.masked_nll(model.forward(batch, grids), targets, predict / predict.sum())
    return tape, loss, trainable


@pytest.mark.parametrize("build", [build_genieblue, build_cogvlm])
def test_backward_matches_out_of_place_replay_on_stage2_tape(build):
    tape, loss, trainable = _stage2_tape(build)
    ref = _replay_out_of_place(tape, loss)  # first: backward spends the tape
    got = backward(tape, loss)
    assert got.keys() == ref.keys() and len(got) == len(trainable)
    for t, g in got.items():
        assert g.tobytes() == ref[t].tobytes(), t.shape


@pytest.mark.parametrize("build", [build_genieblue, build_cogvlm])
def test_backward_spends_the_tape_as_it_goes(build):
    """Backward frees what it has replayed: the logits die, and its transient stays near one logits gradient.

    Kept to the end, the tape holds the logits through every block's vjp,
    and the backward peak above the tape then reached 1.8 logits' bytes.
    """
    _stage2_tape(build)  # the causal masks and numpy's caches, made before tracing
    tracemalloc.start()
    try:
        tape, loss, _ = _stage2_tape(build)
        ops = [node.op for node in tape.nodes]
        logits = weakref.ref(tape.nodes[-1].inputs[0].data)
        nbytes = logits().nbytes
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        backward(tape, loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [node.op for node in tape.nodes] == ops
    assert all(node.out is node.inputs is node.vjp is None for node in tape.nodes)
    assert logits() is None, "the logits outlived backward"
    assert peak - held < 1.5 * nbytes, (peak - held) / nbytes


@pytest.mark.parametrize("build", [build_genieblue, build_cogvlm])
def test_backward_holds_no_spent_gradient_through_a_vjp(build):
    """While a vjp runs, a gradient an earlier vjp returned is alive only if backward still holds it.

    Backward holds one gradient per tensor whose producer it has still to
    replay, and one per leaf: the only contribution that tensor has had so
    far. Any other returned array still alive is stale: a summand of a
    gradient sum, or the gradient of a node already replayed. Held
    through the next vjp, the summands of a block's mid-stream gradient and
    the spent stream itself cost three (B, T, d) arrays.
    """
    tape, loss, _ = _stage2_tape(build)
    producer = {id(node.out): i for i, node in enumerate(tape.nodes)}
    returned = []  # (weakref to a returned gradient, the input tensor it is for)
    contributions = {}  # id(tensor) -> how many gradients vjps returned for it
    stale, checked = [], []

    def watched(i, op, inputs, vjp):
        def run(g):
            held = {
                id(a)
                for ref, t in returned
                if (a := ref()) is not None and contributions[id(t)] == 1 and producer.get(id(t), -1) <= i
            }
            alive = [a for ref, _ in returned if (a := ref()) is not None]
            stale.extend((i, op, a.shape) for a in alive if id(a) not in held)
            del alive
            checked.append(i)
            out = vjp(g)
            for t, gi in zip(inputs, out):
                if gi is not None:
                    returned.append((weakref.ref(gi), t))
                    contributions[id(t)] = contributions.get(id(t), 0) + 1
            return out

        return run

    for i, node in enumerate(tape.nodes):
        node.vjp = watched(i, node.op, node.inputs, node.vjp)
    backward(tape, loss)
    assert len(checked) == len(tape.nodes)
    assert not stale, stale[:6]


@pytest.mark.parametrize("build", [build_genieblue, build_cogvlm])
def test_block_half_vjps_allocate_no_more_than_their_rebuilt_buffers(build, monkeypatch):
    """Each block half's vjp transient, bounded in its block's array bytes.

    ``a`` is a (B, T, d) array's bytes and ``f`` a (B, T, d_ffn) one's; the
    attention runs one sample per chunk, and ``p`` is one sample's (H, T,
    T) probabilities. The attention half rebuilds the normed rows, q, k and
    v and takes the output's gradient, 5a, and writes the q, k and v
    gradients and the attention output over them; one chunk adds its
    probability-sized arrays, 3p, and its gradients and output, 4a / B.
    In causal row blocks, the 3p are the chunk's probability and score
    gradient buffers and one block's temporaries, which must be gone
    before the next block's are made. The FFN half holds the hidden
    pre-activations and their gradient, 2f, and GELU's three tile
    temporaries, but no normed rows beside them. Both may form merged
    weights, at most the bytes of the node's 2-D inputs, and 4 KiB of
    small arrays. New arrays for the q, k and v gradients and the output
    would add 4a, and normed rows kept through the FFN half's GELU a.
    """
    monkeypatch.setattr(ag, "_ATTENTION_TILE", 1)  # one sample per chunk
    n_heads = 2  # in the LM and the vision encoder alike
    # at the default threshold no chunk is blocked; at 0 every causal chunk of 18 <= T <= 128 is
    for gate in (ag._BLOCKED_SCORES, 0):
        monkeypatch.setattr(ag, "_BLOCKED_SCORES", gate)
        _stage2_tape(build)  # the causal masks and numpy's caches, made before tracing
        tape, loss, _ = _stage2_tape(build)
        nodes = [(node.op, node.inputs) for node in tape.nodes]
        mids = {id(node.out) for node in tape.nodes if node.op == "attention"}  # alive as the FFN halves' inputs
        halves = 0
        for peak in vjp_peaks(tape, loss)[1]:
            op, inputs = nodes[peak.index]
            x = inputs[0]
            if op != "attention" and not (op in ("linear", "routed_linear") and id(x) in mids):
                continue  # not a block half: the FFN half is the product node over an attention half's output
            halves += 1
            a, (bsz, t, d) = x.data.nbytes, x.shape
            small = sum(w.data.nbytes for w in inputs if w.ndim == 2) + 4096
            if op == "attention":
                bound = 5 * a + 3 * n_heads * t * t * 8 + 4 * a // bsz + small
            else:
                f = a // d * inputs[1].shape[1]
                bound = 2 * f + 3 * min(f, 8 * ag._GELU_TILE) + small
            assert peak.transient <= bound, (gate, peak.index, op, peak.transient / a, bound / a)
        assert halves == 2 * (4 + 2)


# ----------------------------------------------------------------------------
# what the tape keeps: inputs, plus only what is dear to rebuild
# ----------------------------------------------------------------------------


def _root(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _closure_arrays(fn) -> list[np.ndarray]:
    """The distinct ndarray bases reachable from ``fn.__closure__``.

    Follows Tensors, tuples, lists and the closures of any function the
    closure holds, so a vjp cannot hide an array inside a helper closure.
    """
    found: dict[int, np.ndarray] = {}
    seen: set[int] = set()
    todo = [fn]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Tensor):
            todo.append(obj.data)
        elif isinstance(obj, np.ndarray):
            found[id(_root(obj))] = _root(obj)
        elif isinstance(obj, (tuple, list)):
            todo.extend(obj)
        elif callable(obj) and hasattr(obj, "__closure__"):
            for cell in obj.__closure__ or ():
                try:
                    todo.append(cell.cell_contents)
                except ValueError:  # a name the enclosing call never bound
                    pass
    return list(found.values())


def _kept(node) -> list[np.ndarray]:
    """Arrays a node's vjp holds besides its inputs' data."""
    inputs = {id(_root(t.data)) for t in node.inputs}
    return [a for a in _closure_arrays(node.vjp) if id(a) not in inputs]


@pytest.mark.parametrize("build", [build_genieblue, build_cogvlm])
def test_stage2_tape_keeps_no_derivative_merged_weight_or_probabilities(build):
    tape = _stage2_tape(build)[0]
    ops = {node.op for node in tape.nodes}
    assert {"linear", "attention", "gelu", "masked_nll"} <= ops and ("routed_linear" in ops) == (build is build_cogvlm)
    # the FFN hidden widths of the LM (4 * d_model) and of the vision encoder (4 * d_vision)
    ffn_widths = {4 * 16, 4 * 8}
    merged = attentions = 0
    for node in tape.nodes:
        kept = _kept(node)
        held = _closure_arrays(node.vjp) + [t.data for t in node.inputs]
        hidden = [a.shape for a in held if a.ndim >= 3 and a.shape[-1] in ffn_widths]
        assert not hidden, f"{node.op} holds FFN hidden activations {hidden}"
        if node.op == "attention":
            attentions += 1
            (bsz, t, _) = node.inputs[0].shape
            probs = [a.shape for a in kept if a.ndim == 4 and (a.shape[0],) + a.shape[2:] == (bsz, t, t)]
            assert not probs, f"attention keeps the probabilities {probs}"
        if node.op in ("linear", "routed_linear", "attention"):  # the block halves hold products too
            weight_shapes = {t.shape for t in node.inputs[1:] if t.ndim == 2}
            merged += any(t.ndim == 2 and t.shape[0] == 4 for t in node.inputs)  # a rank-4 LoRA down factor
            assert not [a.shape for a in kept if a.shape == node.out.shape], f"{node.op} keeps a derivative"
            assert not [a.shape for a in kept if a.shape in weight_shapes], f"{node.op} keeps a merged weight"
        elif node.op == "gelu":
            assert kept == [], "gelu keeps its derivative"
        elif node.op == "masked_nll":
            logits_shape = node.inputs[0].shape
            assert not [a.shape for a in kept if a.shape == logits_shape], "masked_nll keeps the probabilities"
    assert merged  # some product node does run over a merged weight
    assert attentions == 4 + 2  # every LM and vision block was checked


@pytest.mark.parametrize("build", [build_genieblue, build_cogvlm])
def test_stage2_tape_keeps_two_stream_arrays_per_block(build):
    """Each block's input and mid-block stream are its only (B, T, d) arrays on a stage-2 tape.

    Every block records two nodes, an attention half and a FFN half. No
    normed rows, q, k, v or attention output stay: besides its inputs an
    attention node keeps its (B, H, T, 1) row max and softmax denominator
    only, and a FFN node nothing.
    """
    tape = _stage2_tape(build)[0]
    assert "concat_seq" not in {node.op for node in tape.nodes} and "add" not in {node.op for node in tape.nodes}
    arrays = {}
    for node in tape.nodes:
        for a in [node.out.data] + [t.data for t in node.inputs] + _closure_arrays(node.vjp):
            arrays[id(_root(a))] = _root(a).shape
        if node.op == "attention":
            bsz, t, _ = node.inputs[0].shape
            assert sorted(a.shape for a in _kept(node)) == [(bsz, 2, t, 1)] * 2  # 2 heads in LM and vision
        elif node.op in ("linear", "routed_linear"):
            assert _kept(node) == []
    bsz, t, _ = tape.nodes[-1].inputs[0].shape  # the logits
    # besides two per block, each stream has its embedding node's output (the LM's
    # with the injected rows and positions, the vision encoder's with positions) and
    # the final norm's rows
    for shape, n_blocks in (((bsz, t, 16), 4), ((bsz, 9, 8), 2)):
        streams = sum(s == shape for s in arrays.values())
        assert streams <= 2 * n_blocks + 2, (shape, streams)
    assert sum(node.op == "attention" for node in tape.nodes) == 4 + 2


# ----------------------------------------------------------------------------
# malformed operands raise typed errors naming the op
# ----------------------------------------------------------------------------


def _identity_half(x, n_heads):
    """The attention half of (B, T, 4) rows ``x`` with identity matrices and gain."""
    eye = (np.eye(4), None, None, None)
    return ag.attention(eye, eye, eye, n_heads, x=x, gain=np.ones(4), wo=eye)


@pytest.mark.parametrize(
    "op, call",
    [
        (
            "routed_linear",
            lambda: ag.routed_linear(
                np.zeros((1, 2, 3)), np.zeros((3, 4)), np.zeros((3, 4)), True,
                inner=(np.zeros((4, 3)), None, None, None), norm=np.ones(3),
            ),
        ),
        ("routed_lora", lambda: ag.routed_lora(np.zeros((1, 2, 3)), np.zeros((2, 3)), np.zeros((4, 2)), True)),
        ("linear", lambda: ag.linear(Tensor(1.0), Tensor(np.eye(2)))),
        (
            "linear",
            lambda: ag.linear(
                np.zeros((2, 3)), np.zeros((4, 5)), inner=(np.zeros((5, 2)), None, None, None), norm=np.ones(3)
            ),
        ),
        ("rms_norm", lambda: ag.rms_norm(Tensor(1.0), np.ones(1))),
        ("rms_norm", lambda: ag.rms_norm(np.zeros((2, 0)), np.zeros(0))),
        ("attention", lambda: _identity_half(np.zeros((1, 2, 4)), n_heads=0)),
        ("attention", lambda: _identity_half(np.zeros((1, 0, 4)), n_heads=2)),
        ("attention", lambda: _identity_half(np.zeros((0, 2, 4)), n_heads=2)),
        ("embed", lambda: ag.embed(np.eye(3), np.array([[0.5]]), pos=np.zeros((1, 3)))),
        ("embed", lambda: ag.embed(np.ones(3), np.zeros((2, 2), int), pos=np.zeros((2, 3)))),
        ("embed", lambda: ag.embed(np.eye(3), np.zeros((2, 2), int), prefix=np.zeros((3, 1, 3)), pos=np.zeros((3, 3)))),
        ("embed", lambda: ag.embed(np.eye(3), np.zeros((2, 2), int), prefix=np.zeros((2, 1, 4)), pos=np.zeros((3, 3)))),
        ("embed", lambda: ag.embed(np.eye(3), np.zeros(2, int), prefix=np.zeros((2, 1, 3)), pos=np.zeros((3, 3)))),
        ("embed", lambda: ag.embed(np.eye(3), np.zeros((2, 2), int), pos=np.zeros((3, 3)))),
        ("embed", lambda: ag.embed(np.eye(3), np.zeros((2, 2), int), pos=np.zeros((2, 2, 2, 3)))),
        ("embed", lambda: ag.embed(np.eye(3), np.zeros((2, 2), int), pos=None)),
        ("embed", lambda: ag.embed(np.eye(3), np.zeros((2, 2), int), pos=np.zeros((2, 2, 3)))),
        ("embed", lambda: ag.embed(np.eye(3), np.array(1), pos=np.zeros(3))),
        ("linear", lambda: ag.linear(np.zeros((2, 3)), np.zeros((4, 3)), bias=np.zeros(3))),
        ("linear", lambda: ag.linear(np.zeros((2, 3)), np.zeros((4, 3)), bias=np.zeros((1, 4)))),
        (
            "linear",
            lambda: ag.linear(
                np.zeros((2, 3)), np.zeros((4, 5)), inner=(np.zeros((5, 3)), None, None, None), norm=np.ones(3)
            ),
        ),
    ],
    ids=[
        "routed_linear-bool-span", "routed_lora-bool-span", "linear-0d", "linear-inner-width", "rms_norm-0d",
        "rms_norm-zero-width", "attention-0-heads", "attention-empty", "attention-empty-batch", "embed-float-ids",
        "embed-1d-table", "embed-prefix-batch", "embed-prefix-width", "embed-prefix-2d-rows", "embed-pos-not-broadcast",
        "embed-pos-grows-output", "embed-no-pos", "embed-pos-per-sample", "embed-0d-ids", "linear-bias-width",
        "linear-bias-2d", "linear-ffn-output-width",
    ],
)
def test_kernels_reject_malformed_operands(op, call):
    with pytest.raises(ShapeMismatch, match=f"^{op}: "):
        call()
