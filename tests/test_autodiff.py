"""Tape gradients against finite differences, plus stores and checkpoints."""

import struct

import numpy as np
import pytest

from micas.autodiff import (
    ParamStore,
    Tape,
    _add_at,
    affine,
    cosine_lr,
    finite_diff_check,
    forward_mlp,
    init_affine,
    init_mlp,
    load_params,
    save_params,
    sgd_cosine_step,
)
from micas.errors import FormatError, TrainingDiverged


def fd_store(shapes, seed, scale=0.7):
    rng = np.random.default_rng(seed)
    store = ParamStore()
    for name, shape in shapes.items():
        store.add(name, scale * rng.normal(size=shape))
    return store


def check(loss_fn, store, tol=5e-6):
    assert finite_diff_check(loss_fn, store) <= tol


def test_grad_arithmetic_chain():
    store = fd_store({"a": (3, 4), "b": (3, 4), "v": (4,)}, 0)

    def loss(s):
        t = Tape()
        x = t.add(t.param(s, "a"), t.param(s, "b"))
        x = t.add(x, t.tile_rows(t.param(s, "v"), 3))
        x = t.add_const(t.scale(x, 1.7), 0.3)
        t.mean_all(x)
        return t

    check(loss, store)


def test_grad_fan_out_keeps_contributions_apart():
    # add() hands one gradient array to both parents; u receives a second
    # contribution while v's gradient still shares that array
    store = fd_store({"u": (3,), "v": (3,)}, 10)

    def loss(s):
        t = Tape()
        u, v = t.tanh(t.param(s, "u")), t.sin(t.param(s, "v"))
        w = t.tanh(u)
        t.mean_all(t.add(t.add(u, v), w))
        return t

    check(loss, store)


def test_grad_matmul_transpose_reshape():
    store = fd_store({"a": (4, 3), "b": (3, 5)}, 1)

    def loss(s):
        t = Tape()
        y = t.matmul(t.param(s, "a"), t.param(s, "b"))
        y = t.reshape(t.transpose(y), (2, 10))
        t.mean_all(y)
        return t

    check(loss, store)


def test_grad_affine_rows():
    store = fd_store({"x": (4, 3), "w": (3, 5), "b": (5,)}, 2)

    def loss(s):
        t = Tape()
        t.mean_all(t.tanh(t.affine_rows(t.param(s, "x"), t.param(s, "w"), t.param(s, "b"))))
        return t

    check(loss, store)


def test_affine_rows_computes_each_row_on_its_own():
    rng = np.random.default_rng(3)
    store = ParamStore()
    x, w = store.add("x", rng.normal(size=(9, 64))).value, store.add("w", rng.normal(size=(64, 64))).value
    b = store.add("b", rng.normal(size=64)).value
    x[5] = x[2]  # a duplicated row
    out_grad = rng.normal(size=(9, 64))
    t = Tape()
    out = t.affine_rows(*(t.param(store, name) for name in ("x", "w", "b")))
    t.weighted_sum(out, out_grad)
    t.backward()
    assert out.shape == (9, 64)
    assert np.array_equal(out.value[5], out.value[2])
    for i in range(len(x)):  # row i of the value and of x's gradient from row i alone
        assert np.array_equal(out.value[i], (x[i : i + 1] @ w + b)[0]), i
        assert np.array_equal(store["x"].grad[i], (out_grad[i : i + 1] @ w.T)[0]), i
    assert np.array_equal(store["w"].grad, x.T @ out_grad)  # w's and b's gradients are affine's
    assert np.array_equal(store["b"].grad, out_grad.sum(axis=0))
    # a row's value does not depend on how many rows share the call, or on what they hold
    others = rng.normal(size=(4, 64))
    for rows in (x[2:3], np.vstack([others, x[2:3], others])):
        alone = t.affine_rows(t.const(rows), t.const(w), t.const(b)).value
        assert np.array_equal(alone[len(rows) // 2], out.value[2])


def test_grad_concat_tile_gather():
    store = fd_store({"a": (4, 2), "b": (4, 3), "v": (5,)}, 2)

    def loss(s):
        t = Tape()
        x = t.concat_cols(t.param(s, "a"), t.param(s, "b"))
        x = t.gather_rows(x, [0, 3, 3, 1])  # duplicate rows must accumulate
        x = t.add(x, t.tile_rows(t.param(s, "v"), 4))
        t.mean_all(t.tanh(x))
        return t

    check(loss, store)


def test_grad_nonlinearities():
    # inputs scaled away from the relu kink so central differences are exact
    store = fd_store({"x": (5, 4)}, 3)

    def loss_of(active):
        def loss(s):
            t = Tape()
            t.mean_all(active(t, t.param(s, "x")))
            return t

        return loss

    check(loss_of(lambda t, x: t.relu(t.add_const(x, 0.05))), store)
    check(loss_of(lambda t, x: t.tanh(x)), store)
    check(loss_of(lambda t, x: t.sin(x)), store)
    check(loss_of(lambda t, x: t.softplus(x)), store)
    check(loss_of(lambda t, x: t.log(t.add_const(t.softplus(x), 1e-6))), store)


def test_grad_softmax_and_maxpool():
    store = fd_store({"x": (6, 3), "w": (6, 3)}, 4)

    def loss(s):
        t = Tape()
        y = t.softmax_cols(t.param(s, "x"))
        t.weighted_sum(y, np.random.default_rng(7).normal(size=(6, 3)))
        return t

    check(loss, store)

    def loss_pool(s):
        t = Tape()
        t.mean_all(t.maxpool_segments(t.param(s, "x"), [0]))
        return t

    check(loss_pool, store)


def test_maxpool_segments_equals_one_block_pool_per_block():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(11, 4))
    x[5] = x[4]  # a tie inside block [3, 7)
    starts = [0, 3, 7, 10]
    t = Tape()
    pooled = t.maxpool_segments(t.const(x), starts)
    assert pooled.shape == (4, 4)
    for b, (lo, hi) in enumerate(zip(starts, starts[1:] + [11])):
        one_block = t.maxpool_segments(t.const(x[lo:hi]), [0])  # one block, a (1, C) row
        assert one_block.shape == (1, 4)
        assert np.array_equal(pooled.value[b], one_block.value[0])
        assert np.array_equal(one_block.value[0], x[lo:hi].max(axis=0))


def test_maxpool_segments_ties_go_to_the_lowest_row_of_each_block():
    store = ParamStore()
    store.add("x", np.array([[1.0, 2.0], [3.0, 2.0], [3.0, 0.0],   # block 0: ties in both columns
                             [5.0, 5.0], [5.0, 5.0]]))            # block 1: a duplicated row
    t = Tape()
    t.weighted_sum(t.maxpool_segments(t.param(store, "x"), [0, 3]), [[1.0, 2.0], [3.0, 4.0]])
    t.backward()
    assert np.array_equal(t.nodes[1].value, [[3.0, 2.0], [5.0, 5.0]])
    assert np.array_equal(store["x"].grad, [[0.0, 2.0], [1.0, 0.0], [0.0, 0.0], [3.0, 4.0], [0.0, 0.0]])
    # many 3-row blocks, as score_prompts joins (query, prompt input, prompt output), with exact
    # ties drawn from four values, against a per-block first-maximizer reference
    rng = np.random.default_rng(15)
    x = rng.choice([-1.0, 0.0, 0.5, 2.0], size=(300, 5))
    g = rng.normal(size=(100, 5))
    store = ParamStore()
    store.add("x", x)
    t = Tape()
    t.weighted_sum(t.maxpool_segments(t.param(store, "x"), np.arange(0, 300, 3)), g)
    t.backward()
    reference = np.zeros_like(x)
    for b in range(100):
        reference[3 * b + np.argmax(x[3 * b : 3 * b + 3], axis=0), np.arange(5)] = g[b]
    assert (x.reshape(100, 3, 5) == x.reshape(100, 3, 5).max(axis=1, keepdims=True)).sum(axis=1).max() == 3
    assert np.array_equal(t.nodes[1].value, x.reshape(100, 3, 5).max(axis=1))
    assert np.array_equal(store["x"].grad, reference)


def test_grad_maxpool_segments():
    store = fd_store({"x": (9, 3)}, 13)

    def loss(s):
        t = Tape()
        pooled = t.maxpool_segments(t.param(s, "x"), [0, 2, 6])
        t.weighted_sum(t.tanh(pooled), np.random.default_rng(14).normal(size=(3, 3)))
        return t

    check(loss, store)


def test_maxpool_segments_rejects_bad_block_starts():
    t = Tape()
    a = t.const(np.zeros((5, 2)))
    for starts in ([], [1, 3], [0, 3, 3], [0, 3, 2], [0, 5], [0, -1], [[0, 2]]):
        with pytest.raises(ValueError):
            t.maxpool_segments(a, starts)
    for bad in (np.zeros(5), np.zeros((0, 2))):  # one block needs a matrix with a row
        with pytest.raises(ValueError):
            t.maxpool_segments(t.const(bad), [0])


def test_grad_chamfer_patches():
    store = fd_store({"a": (3, 5, 3)}, 9, scale=1.0)
    targets = np.random.default_rng(9).normal(size=(3, 4, 3))

    def loss(s):
        t = Tape()
        per_patch = t.chamfer_patches(t.param(s, "a"), targets)
        t.weighted_sum(per_patch, [0.5, -1.0, 2.0])  # unequal upstream gradient per patch
        return t

    assert finite_diff_check(loss, store) <= 1e-6


def test_add_at_equals_numpy_add_at_bit_for_bit():
    rng = np.random.default_rng(12)
    mixed = rng.normal(size=(40, 4)) * 10.0 ** rng.integers(-12, 12, size=(40, 4))
    cases = [
        (rng.normal(size=(5, 3)), rng.integers(0, 5, size=30), rng.normal(size=(30, 3))),  # duplicates
        (rng.normal(size=(5, 3)), np.zeros(0, dtype=np.int64), np.zeros((0, 3))),  # empty index
        (np.zeros((4, 2)), np.full(25, 2), rng.normal(size=(25, 2))),  # every index the same
        (mixed[:6], rng.integers(0, 6, size=34), mixed[6:]),  # magnitudes from 1e-12 to 1e12
        (np.zeros((3, 64)), rng.integers(0, 3, size=1000), rng.normal(size=(1000, 64))),
    ]
    for base, idx, g in cases:
        expect = base.copy()
        np.add.at(expect, idx, g)
        got = _add_at(idx, g, len(base), base)
        assert got.shape == base.shape and got.tobytes() == expect.tobytes()
        if not base.any():  # the zero base may be left out
            assert _add_at(idx, g, len(base)).tobytes() == expect.tobytes()


def test_chamfer_gradients_equal_add_at_references_bit_for_bit():
    rng = np.random.default_rng(13)
    a, b = rng.uniform(size=(3, 9, 3)), rng.uniform(size=(3, 5, 3))
    t = Tape()
    (d_patch,) = t.chamfer_patches(t.const(a), b).vjps
    for p in range(3):
        inv_a, inv_b = 2.0 / 9, 2.0 / 5
        dist = ((a[p][:, None] - b[p][None]) ** 2).sum(axis=-1)
        ab, ba = dist.argmin(axis=1), dist.argmin(axis=0)
        ref_a = inv_a * (a[p] - b[p][ab])
        np.add.at(ref_a, ba, inv_b * (a[p][ba] - b[p]))
        upstream = np.zeros(3)
        upstream[p] = 0.7
        assert np.array_equal(d_patch(upstream)[p], 0.7 * ref_a)


def test_chamfer_patches_value_matches_geometry():
    from micas.geometry import chamfer_distance

    rng = np.random.default_rng(10)
    a, b = rng.uniform(size=(4, 7, 3)), rng.uniform(size=(4, 5, 3))
    t = Tape()
    node = t.chamfer_patches(t.const(a), b)
    assert node.shape == (4,)
    expect = [chamfer_distance(a[p], b[p]) for p in range(4)]
    assert np.abs(node.value - expect).max() <= 1e-15


def test_backward_requires_scalar_tail():
    t = Tape()
    with pytest.raises(ValueError):
        t.backward()
    t.const(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        t.backward()


def test_param_grads_accumulate_until_zeroed():
    store = ParamStore()
    store.add("x", np.array([2.0]))

    def run():
        t = Tape()
        t.mean_all(t.scale(t.param(store, "x"), 3.0))
        t.backward()

    run()
    assert store["x"].grad[0] == pytest.approx(3.0)
    run()
    assert store["x"].grad[0] == pytest.approx(6.0)
    store.zero_grads()
    assert store["x"].grad[0] == 0.0


def test_backward_reaches_only_nodes_with_a_path_to_a_param():
    store = ParamStore()
    store.add("w", np.array([[0.5, -1.0], [2.0, 0.25]]))
    t = Tape()
    c = t.const(np.array([[1.0, 2.0], [3.0, -4.0]]))
    side = t.tanh(c)  # no Param feeds this branch
    w = t.param(store, "w")
    y = t.matmul(side, w)
    t.mean_all(t.add(y, t.tanh(c)))
    evaluated = []
    for n in t.nodes:  # record which nodes' vector-Jacobian products run
        n.vjps = tuple((lambda g, f=f, n=n: evaluated.append(n) or f(g)) for f in n.vjps)
    t.backward()
    assert c.grad is None and side.grad is None
    assert all(n.grad is None for n in t.nodes if not n.needs_grad)
    assert y in evaluated and side not in evaluated  # side's branch is never differentiated
    # interior gradients are released once used; only the Param leaf keeps its own
    assert [n for n in t.nodes if n.grad is not None] == [w]
    assert np.array_equal(w.grad, store["w"].grad)
    assert np.array_equal(store["w"].grad, side.value.T @ np.full((2, 2), 0.25))


def test_param_read_twice_accumulates_both_contributions():
    store = ParamStore()
    store.add("x", np.array([1.0, -2.0, 3.0]))
    t = Tape()
    t.mean_all(t.add(t.param(store, "x"), t.scale(t.param(store, "x"), 2.0)))
    t.backward()
    assert np.array_equal(store["x"].grad, np.full(3, 1.0 / 3.0 + 2.0 / 3.0))


def test_repeated_backward_on_one_tape_accumulates_twice():
    store = ParamStore()
    store.add("x", np.array([0.3, -0.7]))
    t = Tape()
    h = t.tanh(t.param(store, "x"))
    t.mean_all(h)
    t.backward()
    first, leaf = store["x"].grad.copy(), t.nodes[0]
    first_leaf = leaf.grad.copy()
    assert h.grad is None and t.nodes[-1].grad is None  # interior gradients are released
    t.backward()
    assert np.array_equal(store["x"].grad, 2.0 * first)
    assert h.grad is None and t.nodes[-1].grad is None
    assert np.array_equal(leaf.grad, first_leaf)  # the leaf's gradient restarts, it does not pile up


def test_non_recording_tape_keeps_no_graph():
    store = ParamStore()
    store.add("w", np.array([[1.5, -0.5], [0.25, 2.0]]))
    x = np.array([[0.1, 0.2], [-0.3, 0.4], [0.5, -0.6]])

    def run(t):
        return t.mean_all(t.tanh(t.matmul(t.const(x), t.param(store, "w"))))

    recorded = run(Tape())
    t = Tape(record=False)
    out = run(t)
    assert t.nodes == [] and out.parents == ()
    assert out.value == recorded.value
    with pytest.raises(ValueError):
        t.backward()
    assert np.array_equal(store["w"].grad, np.zeros((2, 2)))


def test_param_store_contract():
    store = ParamStore()
    store.add("w", np.zeros((2, 3)))
    with pytest.raises(ValueError):
        store.add("w", np.zeros(1))
    with pytest.raises(ValueError):
        store.add("bad", np.array([np.nan]))
    store.add("b", np.zeros(3))
    assert store.names() == ["w", "b"] and len(store) == 2
    assert "w" in store and "missing" not in store


def test_shape_validation_raises():
    t = Tape()
    a = t.const(np.zeros((2, 3)))
    b = t.const(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        t.add(a, b)
    with pytest.raises(ValueError):
        t.matmul(a, a)
    for op in (t.affine, t.affine_rows):
        with pytest.raises(ValueError):
            op(a, b, t.const(np.zeros(3)))  # bias wider than the product
        with pytest.raises(ValueError):
            op(a, a, t.const(np.zeros(3)))
        with pytest.raises(ValueError):
            op(t.const(np.zeros(3)), b, t.const(np.zeros(2)))
    with pytest.raises(ValueError):
        t.concat_cols(a, b)
    with pytest.raises(ValueError):
        t.gather_rows(a, [2])
    with pytest.raises(ValueError):
        t.log(t.const(np.array([[0.0]])))


def test_cosine_lr_schedule_endpoints():
    assert cosine_lr(0, 10, 0.5, 0.01) == pytest.approx(0.5)
    assert cosine_lr(9, 10, 0.5, 0.01) == pytest.approx(0.01)
    mid = cosine_lr(5, 11, 0.5, 0.01)
    assert mid == pytest.approx(0.5 * (0.5 + 0.01))
    with pytest.raises(ValueError):
        cosine_lr(10, 10, 0.5, 0.01)
    with pytest.raises(ValueError):
        cosine_lr(0, 1, 0.5, 0.01)
    with pytest.raises(ValueError):
        cosine_lr(0, 10, 0.01, 0.5)


def test_sgd_step_applies_rate_and_clears():
    store = ParamStore()
    store.add("x", np.array([1.0]))
    store["x"].grad[...] = 2.0
    lr = sgd_cosine_step(store, 0, 2, 0.1, 0.01)
    assert lr == pytest.approx(0.1)
    assert store["x"].value[0] == pytest.approx(1.0 - 0.1 * 2.0)
    assert store["x"].grad[0] == 0.0


def test_sgd_step_raises_on_divergence():
    store = ParamStore()
    store.add("x", np.array([1.0]))
    store["x"].grad[...] = np.inf
    with pytest.raises(TrainingDiverged):
        sgd_cosine_step(store, 0, 2, 0.1, 0.01)


def test_affine_node_equals_matmul_then_add_row_bit_for_bit():
    # the unfused reference adds the bias row to every row of the product through tile_rows
    store = fd_store({"x": (6, 4), "w": (4, 5), "b": (5,)}, 14)
    grads = []
    for fused in (True, False):
        store.zero_grads()
        t = Tape()
        x, w, b = (t.param(store, name) for name in ("x", "w", "b"))
        out = t.affine(x, w, b) if fused else t.add(t.matmul(x, w), t.tile_rows(b, 6))
        t.mean_all(t.add(t.tanh(out), t.matmul(x, w)))  # x and w feed a second node too
        t.backward()
        grads.append([out.value] + [store[name].grad.copy() for name in ("x", "w", "b")])
    for one, other in zip(*grads):
        assert np.array_equal(one, other)

    def loss(s):
        t = Tape()
        t.mean_all(t.tanh(t.affine(t.param(s, "x"), t.param(s, "w"), t.param(s, "b"))))
        return t

    check(loss, store)


def test_affine_and_mlp_layout():
    store = ParamStore()
    rng = np.random.default_rng(9)
    init_mlp(store, "net", [3, 5, 2], rng)
    assert store["net.0.w"].value.shape == (3, 5)
    assert store["net.1.w"].value.shape == (5, 2)
    assert (store["net.0.b"].value == 0.0).all()
    x = rng.normal(size=(4, 3))
    t = Tape()
    out = forward_mlp(t, store, "net", t.const(x))
    manual = np.maximum(x @ store["net.0.w"].value, 0.0) @ store["net.1.w"].value
    assert np.abs(out.value - manual).max() < 1e-12
    with pytest.raises(ValueError):
        init_mlp(store, "tiny", [4], rng)


def test_forward_mlp_activation_selection():
    store = ParamStore()
    rng = np.random.default_rng(10)
    init_mlp(store, "net", [2, 3, 3], rng)
    x = rng.normal(size=(5, 2))
    t = Tape()
    h = np.tanh(x @ store["net.0.w"].value)
    manual = np.maximum(h @ store["net.1.w"].value, 0.0)
    out = forward_mlp(t, store, "net", t.const(x), final="relu", hidden="tanh")
    assert np.abs(out.value - manual).max() < 1e-12
    for final, hidden in (("sigmoid", "relu"), ("tanh", "relu"), ("relu", "gelu"), ("relu", "sin")):
        with pytest.raises(ValueError):
            forward_mlp(t, store, "net", t.const(x), final=final, hidden=hidden)
    with pytest.raises(ValueError):
        forward_mlp(t, store, "missing", t.const(x))


def test_grad_full_mlp():
    store = ParamStore()
    init_mlp(store, "net", [3, 4, 2], np.random.default_rng(11))
    x = np.random.default_rng(12).normal(size=(6, 3))

    def loss(s):
        t = Tape()
        t.mean_all(forward_mlp(t, s, "net", t.const(x), hidden="tanh"))
        return t

    check(loss, store)


def test_finite_diff_check_rejects_randomness():
    store = ParamStore()
    store.add("x", np.array([1.0]))

    def noisy_loss(s):
        t = Tape()
        t.mean_all(t.add_const(t.param(s, "x"), np.random.random()))
        return t

    with pytest.raises(RuntimeError):
        finite_diff_check(noisy_loss, store)


def test_checkpoint_round_trip(tmp_path):
    store = ParamStore()
    rng = np.random.default_rng(13)
    store.add("enc.w", rng.normal(size=(4, 6)))
    store.add("enc.b", rng.normal(size=6))
    store.add("scalarish", rng.normal(size=(1,)))
    path = tmp_path / "params.micasnn"
    save_params(store, path)
    back = load_params(path)
    assert back.names() == store.names()
    for name in store.names():
        assert np.array_equal(back[name].value, store[name].value)


def test_checkpoint_empty_store(tmp_path):
    path = tmp_path / "empty.micasnn"
    save_params(ParamStore(), path)
    assert len(load_params(path)) == 0


def test_checkpoint_decode_errors(tmp_path):
    store = ParamStore()
    store.add("x", np.arange(4.0))
    path = tmp_path / "params.micasnn"
    save_params(store, path)
    blob = path.read_bytes()
    bad = tmp_path / "bad.micasnn"
    bad.write_bytes(b"NOTMAGIC" + blob[8:])
    with pytest.raises(FormatError):
        load_params(bad)
    bad.write_bytes(blob[:-8])
    with pytest.raises(FormatError):
        load_params(bad)
    bad.write_bytes(blob + b"\x01")
    with pytest.raises(FormatError):
        load_params(bad)


def checkpoint_entry(name: bytes, shape, payload: bytes = b"") -> bytes:
    """A one-parameter MICASNN1 file with raw name bytes and shape."""
    return (b"MICASNN1" + struct.pack("<II", 1, len(name)) + name
            + struct.pack(f"<I{len(shape)}I", len(shape), *shape) + payload)


def test_checkpoint_refuses_a_parameter_name_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.micasnn"
    path.write_bytes(checkpoint_entry(b"enc\xff.w", (1,), struct.pack("<d", 1.0)))
    with pytest.raises(FormatError, match="not UTF-8"):
        load_params(path)


def test_checkpoint_refuses_a_shape_whose_size_overflows_int64(tmp_path):
    path = tmp_path / "bad.micasnn"
    # (2**32 - 1) ** 2 entries wrap to a negative int64 count
    path.write_bytes(checkpoint_entry(b"x", (2**32 - 1, 2**32 - 1), struct.pack("<d", 1.0)))
    with pytest.raises(FormatError, match="truncated checkpoint payload"):
        load_params(path)
