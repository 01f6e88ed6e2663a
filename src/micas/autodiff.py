"""Tape-based reverse-mode differentiation over float64 arrays.

A Tape records every primitive in creation order, which is already a
topological order of the computation graph. backward() seeds the final
scalar node and walks the list in reverse, applying the vector-Jacobian
products of the nodes that lie on a path to a Param. Param-leaf gradients
are added into their Param accumulators, so two backward passes without
zero_grads() in between accumulate twice. A tape made with record=False
keeps no graph: it computes values only, for inference.
"""

from __future__ import annotations

import math
import struct

import numpy as np
from scipy.special import expit

from . import geometry
from .errors import FormatError, TrainingDiverged

CHECKPOINT_MAGIC = b"MICASNN1"


class Param:
    """A named leaf tensor with a gradient accumulator."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = np.array(value, dtype=np.float64)
        if not np.isfinite(self.value).all():
            raise ValueError("parameter value must be finite")
        self.grad = np.zeros_like(self.value)


class ParamStore:
    """Insertion-ordered mapping from parameter names to Param leaves."""

    def __init__(self):
        self._entries: dict[str, Param] = {}

    def add(self, name: str, value) -> Param:
        if name in self._entries:
            raise ValueError(f"duplicate parameter name {name!r}")
        p = Param(value)
        self._entries[name] = p
        return p

    def __getitem__(self, name: str) -> Param:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def names(self):
        return list(self._entries)

    def items(self):
        return self._entries.items()

    def zero_grads(self) -> None:
        for p in self._entries.values():
            p.grad[...] = 0.0


class Node:
    """One recorded value in the computation graph."""

    __slots__ = ("value", "grad", "parents", "vjps", "param", "needs_grad")

    def __init__(self, value, parents=(), vjps=(), param=None):
        self.value = value
        self.grad = None
        self.parents = parents
        self.vjps = vjps  # one fn(out_grad) -> gradient contribution per parent
        self.param = param
        # true iff some Param is reachable through the parents
        self.needs_grad = param is not None or any(p.needs_grad for p in parents)

    @property
    def shape(self):
        return self.value.shape


class Tape:
    """Records primitives eagerly; replay in reverse drives backward().

    With record=False the tape keeps no nodes and no links between them,
    so every intermediate is freed as soon as the caller drops it; such a
    tape computes values only and cannot run backward().
    """

    def __init__(self, record: bool = True):
        self.record = record
        self.nodes: list[Node] = []

    def _push(self, value, parents=(), vjps=(), param=None) -> Node:
        value = np.asarray(value, dtype=np.float64)
        if not self.record:
            return Node(value)
        node = Node(value, parents, vjps, param)
        self.nodes.append(node)
        return node

    # ---- leaves ----

    def const(self, value) -> Node:
        return self._push(value)

    def param(self, store: ParamStore, name: str) -> Node:
        p = store[name]
        return self._push(p.value, param=p)

    # ---- arithmetic ----

    def add(self, a: Node, b: Node) -> Node:
        if a.shape != b.shape:
            raise ValueError(f"add shape mismatch {a.shape} vs {b.shape}")
        return self._push(a.value + b.value, (a, b), (lambda g: g, lambda g: g))

    def add_const(self, a: Node, c) -> Node:
        c = np.asarray(c, dtype=np.float64)
        if c.shape != () and c.shape != a.shape:
            raise ValueError("add_const offset must be scalar or same-shaped")
        return self._push(a.value + c, (a,), (lambda g: g,))

    def scale(self, a: Node, c: float) -> Node:
        c = float(c)
        return self._push(a.value * c, (a,), (lambda g: g * c,))

    def matmul(self, a: Node, b: Node) -> Node:
        if a.value.ndim != 2 or b.value.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ValueError(f"matmul shape mismatch {a.shape} @ {b.shape}")
        return self._push(a.value @ b.value, (a, b), (lambda g: g @ b.value.T, lambda g: a.value.T @ g))

    def affine(self, x: Node, w: Node, b: Node) -> Node:
        """x @ w with the width-C row b added to every row, as one node."""
        if x.value.ndim != 2 or w.value.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
            raise ValueError(f"affine shape mismatch {x.shape} @ {w.shape} + {b.shape}")
        return self._push(x.value @ w.value + b.value, (x, w, b),
                          (lambda g: g @ w.value.T, lambda g: x.value.T @ g, lambda g: g.sum(axis=0)))

    def affine_rows(self, x: Node, w: Node, b: Node) -> Node:
        """affine with each row computed on its own: row i is x[i:i+1] @ w + b.

        A BLAS product may round a row differently depending on how many
        rows share the call. Here row i of the output depends bit for bit on
        x[i], w and b alone, and row i of x's gradient on the output
        gradient's row i and w. w's and b's gradients are affine's.
        """
        if x.value.ndim != 2 or w.value.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
            raise ValueError(f"affine_rows shape mismatch {x.shape} @ {w.shape} + {b.shape}")
        return self._push(_by_rows(x.value, w.value) + b.value, (x, w, b),
                          (lambda g: _by_rows(g, w.value.T), lambda g: x.value.T @ g, lambda g: g.sum(axis=0)))

    def transpose(self, a: Node) -> Node:
        if a.value.ndim != 2:
            raise ValueError("transpose expects a matrix")
        return self._push(a.value.T, (a,), (lambda g: g.T,))

    def reshape(self, a: Node, shape) -> Node:
        old = a.shape
        return self._push(a.value.reshape(shape), (a,), (lambda g: g.reshape(old),))

    # ---- structure ----

    def concat_cols(self, a: Node, b: Node) -> Node:
        if a.value.ndim != 2 or b.value.ndim != 2 or a.shape[0] != b.shape[0]:
            raise ValueError(f"concat_cols shape mismatch {a.shape} vs {b.shape}")
        split = a.shape[1]
        return self._push(
            np.hstack([a.value, b.value]), (a, b), (lambda g: g[:, :split], lambda g: g[:, split:])
        )

    def tile_rows(self, v: Node, r: int) -> Node:
        """Repeat a width-C vector as the rows of an (r, C) matrix."""
        if v.value.ndim != 1:
            raise ValueError("tile_rows expects a vector")
        return self._push(np.tile(v.value, (r, 1)), (v,), (lambda g: g.sum(axis=0),))

    def gather_rows(self, a: Node, indices) -> Node:
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1 or a.value.ndim != 2:
            raise ValueError("gather_rows expects a matrix and 1-D indices")
        if len(idx) and ((idx < 0).any() or (idx >= a.shape[0]).any()):
            raise ValueError("gather index out of range")

        return self._push(a.value[idx], (a,), (lambda g: _add_at(idx, g, a.shape[0]),))

    # ---- nonlinearities ----

    def relu(self, a: Node) -> Node:
        return self._push(np.maximum(a.value, 0.0), (a,), (lambda g: g * (a.value > 0.0),))

    def tanh(self, a: Node) -> Node:
        t = np.tanh(a.value)
        return self._push(t, (a,), (lambda g: g * (1.0 - t * t),))

    def sin(self, a: Node) -> Node:
        return self._push(np.sin(a.value), (a,), (lambda g: g * np.cos(a.value),))

    def softplus(self, a: Node) -> Node:
        return self._push(np.logaddexp(0.0, a.value), (a,), (lambda g: g * expit(a.value),))

    def log(self, a: Node) -> Node:
        if (a.value <= 0.0).any():
            raise ValueError("log requires strictly positive input")
        return self._push(np.log(a.value), (a,), (lambda g: g / a.value,))

    def softmax_cols(self, a: Node) -> Node:
        """Softmax down each column of an (R, C) matrix."""
        if a.value.ndim != 2:
            raise ValueError("softmax_cols expects a matrix")
        shifted = a.value - a.value.max(axis=0, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=0, keepdims=True)

        def vjp(g):
            s = (g * y).sum(axis=0, keepdims=True)
            return y * (g - s)

        return self._push(y, (a,), (vjp,))

    def maxpool_segments(self, a: Node, starts) -> Node:
        """Column-wise max over each block of consecutive rows, yielding (B, C).

        starts holds the B block offsets into the rows of an (R, C)
        matrix: block b spans rows starts[b] up to starts[b + 1], the last
        one up to R. The blocks must cover every row, so starts begins at
        0, strictly increases and stays below R; [0] pools all rows into
        one (1, C) block. The gradient of each block's column goes to its
        first maximizer, the lowest row on ties.
        """
        starts = np.asarray(starts, dtype=np.int64)
        if a.value.ndim != 2 or starts.ndim != 1:
            raise ValueError("maxpool_segments expects a matrix and 1-D block starts")
        if not len(starts) or starts[0] != 0 or (np.diff(starts) <= 0).any() or starts[-1] >= a.shape[0]:
            raise ValueError("block starts must begin at 0, strictly increase and lie below the row count")
        pooled = np.maximum.reduceat(a.value, starts, axis=0)

        def vjp(g):
            r = a.shape[0]
            hit = a.value == np.repeat(pooled, np.diff(starts, append=r), axis=0)
            # each block's first maximizer: the lowest row that equals the block's max
            rows = np.minimum.reduceat(np.where(hit, np.arange(r)[:, None], r), starts, axis=0)
            z = np.zeros_like(a.value)
            z[rows, np.arange(a.value.shape[1])] = g
            return z

        return self._push(pooled, (a,), (vjp,))

    # ---- reductions ----

    def mean_all(self, a: Node) -> Node:
        size = a.value.size

        def vjp(g):
            return np.full(a.value.shape, float(g) / size)

        return self._push(a.value.mean(), (a,), (vjp,))

    def weighted_sum(self, a: Node, weights) -> Node:
        """Scalar dot product of a node with a constant weight array."""
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != a.shape:
            raise ValueError(f"weighted_sum shape mismatch {a.shape} vs {w.shape}")
        return self._push((a.value * w).sum(), (a,), (lambda g: g * w,))

    def chamfer_patches(self, a: Node, targets) -> Node:
        """Per-patch Chamfer divergences of a patch stack node, as a (P,) node.

        Entry p is the symmetric squared-distance Chamfer divergence of
        the sets a[p] (M, 3) and the constant targets[p] (L, 3), with
        matches from geometry.chamfer_nearest_patches (on exact ties, the
        lowest index). The gradient flows into a through those matches,
        which are treated as constant.
        """
        pa, pb = a.value, np.asarray(targets, dtype=np.float64)
        d2_ab, idx_ab, d2_ba, idx_ba = geometry.chamfer_nearest_patches(pa, pb)
        inv_a, inv_b = 2.0 / pa.shape[1], 2.0 / pb.shape[1]
        rows = np.arange(len(pa))[:, None]

        def vjp(g):
            ga = _add_at((rows * pa.shape[1] + idx_ba).ravel(), (inv_b * (pa[rows, idx_ba] - pb)).reshape(-1, 3),
                         pa.shape[0] * pa.shape[1], (inv_a * (pa - pb[rows, idx_ab])).reshape(-1, 3))
            return g[:, None, None] * ga.reshape(pa.shape)

        return self._push(d2_ab.mean(axis=1) + d2_ba.mean(axis=1), (a,), (vjp,))

    # ---- reverse pass ----

    def backward(self, loss_grad: float = 1.0) -> None:
        """Propagate d(loss)/d(node) from the final scalar to the Params.

        Gradients are allocated lazily. Only nodes on a path to a Param
        get one: const nodes and nodes that no Param feeds keep grad None,
        and no vector-Jacobian product into them is ever evaluated. A
        node's first contribution is assigned and later ones are added in
        reverse record order, which rounds exactly as summing them into
        zeros would. An interior node's gradient is released once its
        vector-Jacobian products have run; Param leaves keep theirs, which
        are added into their Params in record order. Param gradients are
        accumulated, not reset, so callers control zeroing.
        """
        if not self.record:
            raise ValueError("backward on a tape that records no graph")
        if not self.nodes:
            raise ValueError("backward on an empty tape")
        out = self.nodes[-1]
        if out.value.shape != ():
            raise ValueError(f"tape must end in a scalar node, got shape {out.value.shape}")
        for n in self.nodes:
            n.grad = None
        out.grad = np.asarray(float(loss_grad))
        for n in reversed(self.nodes):
            if n.grad is None:
                continue
            for parent, vjp in zip(n.parents, n.vjps):
                if parent.needs_grad:
                    g = vjp(n.grad)
                    # never in place: a contribution may share memory with another node's gradient
                    parent.grad = g if parent.grad is None else parent.grad + g
            if n.param is None:
                n.grad = None
        for n in self.nodes:
            if n.param is not None and n.grad is not None:
                n.param.grad += n.grad


def _add_at(idx: np.ndarray, g: np.ndarray, rows: int, base: np.ndarray | None = None) -> np.ndarray:
    """np.add.at(z, idx, g) on z, a copy of the (rows, C) base or zeros, bit for bit: bincount adds in input order."""
    c = g.shape[1]
    if base is not None:
        idx, g = np.concatenate([np.arange(rows), idx]), np.concatenate([base, g])
    return np.bincount((idx[:, None] * c + np.arange(c)).ravel(), weights=g.ravel(), minlength=rows * c).reshape(rows, c)


def _by_rows(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x @ m with each row of the product computed alone, as x[i:i+1] @ m."""
    out = np.empty((x.shape[0], m.shape[1]))
    for i in range(x.shape[0]):
        out[i : i + 1] = x[i : i + 1] @ m
    return out


# ---- layers ----


def init_affine(store: ParamStore, name: str, n_in: int, n_out: int, rng) -> None:
    """He-normal weight, zero bias."""
    store.add(f"{name}.w", rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_in, n_out)))
    store.add(f"{name}.b", np.zeros(n_out))


def affine(tape: Tape, store: ParamStore, name: str, x: Node) -> Node:
    return tape.affine(x, tape.param(store, f"{name}.w"), tape.param(store, f"{name}.b"))


def init_mlp(store: ParamStore, prefix: str, widths, rng) -> None:
    """Stack of affine layers named {prefix}.0, {prefix}.1, ..."""
    if len(widths) < 2:
        raise ValueError("an MLP needs at least one layer")
    for i, (n_in, n_out) in enumerate(zip(widths[:-1], widths[1:])):
        init_affine(store, f"{prefix}.{i}", n_in, n_out, rng)


def forward_mlp(tape: Tape, store: ParamStore, prefix: str, x: Node, final="linear", hidden="relu") -> Node:
    """Run the affine stack under `prefix` with `hidden` activations between layers.

    `hidden` is "relu" or "tanh"; `final` selects the activation after the
    last layer: "linear" or "relu".
    """
    acts = {"relu": tape.relu, "tanh": tape.tanh}
    if final not in ("linear", "relu"):
        raise ValueError(f"unknown final activation {final!r}")
    if hidden not in acts:
        raise ValueError(f"unknown hidden activation {hidden!r}")
    i, h = 0, x
    while f"{prefix}.{i}.w" in store:
        h = affine(tape, store, f"{prefix}.{i}", acts[hidden](h) if i else h)
        i += 1
    if i == 0:
        raise ValueError(f"no layers found under prefix {prefix!r}")
    return tape.relu(h) if final == "relu" else h


def row_sparse_maxpool(tape: Tape, store: ParamStore, prefix: str, blocks, hidden: str) -> Node:
    """`maxpool_segments` of the ReLU-capped MLP under `prefix` over each of `blocks`, recorded only on winning rows.

    A max-pool's gradient reaches only each column's first maximizer, so a
    values pass, the tape-free kernel `_column_max`, runs each (n, C) block
    through the MLP once. A recording tape keeps each block's rows that
    first maximize a column (lowest row on ties) in ascending order and
    records `forward_mlp(..., final="relu", hidden=hidden)` over the stack
    of those rows and one pool. A non-recording tape gets the kernel's
    maxima as a constant. Either way the result is a (B, width) node. The
    kernel and `forward_mlp` are two codings of one MLP; that they agree
    bit for bit is pinned by a test, not given by construction.
    """
    if not tape.record:
        return tape.const(np.stack(_column_max(store, prefix, blocks, hidden, first_rows=False)))
    kept = [x[np.flatnonzero(np.bincount(rows, minlength=len(x)))]
            for x, rows in zip(blocks, _column_max(store, prefix, blocks, hidden, first_rows=True))]
    chained = forward_mlp(tape, store, prefix, tape.const(np.vstack(kept)), final="relu", hidden=hidden)
    return tape.maxpool_segments(chained, np.cumsum([0] + [len(x) for x in kept[:-1]]))


def _column_max(store: ParamStore, prefix: str, blocks, hidden: str, first_rows: bool) -> list[np.ndarray]:
    """Per block, each column's first argmax row (first_rows) or max of `forward_mlp(..., final="relu")`.

    A tape-free twin of `forward_mlp`, kept for speed. It reads each layer
    once per call and runs each (n, C) block through the same `h @ w`
    products and bias adds, in `forward_mlp`'s order, with the activations
    in place. Buffers are allocated once per call and n: consecutive
    layers of one width write in turn into two (n, C) outputs, which keeps
    a call's buffers small, and when the call pools several blocks each
    bias is tiled to n rows, since adding a whole array is faster than
    broadcasting a row. Rows are found on a transposed copy of the output,
    made in 64-row tiles, so that the argmax runs along the contiguous
    axis; ties go to the lowest row. The products stay row-major: `w.T @
    h.T` is another BLAS call, which rounds differently at some block sizes.
    """
    acts = {"relu": lambda h: np.maximum(h, 0.0, out=h), "tanh": lambda h: np.tanh(h, out=h)}
    if hidden not in acts:
        raise ValueError(f"unknown hidden activation {hidden!r}")
    layers = []
    while f"{prefix}.{len(layers)}.w" in store:
        name = f"{prefix}.{len(layers)}"
        layers.append((store[f"{name}.w"].value, store[f"{name}.b"].value))
    if not layers:
        raise ValueError(f"no layers found under prefix {prefix!r}")
    if not len(blocks) or not all(len(x) for x in blocks):
        raise ValueError("row_sparse_maxpool needs at least one block and no empty block")
    buffers, out = {}, []
    for x in blocks:
        n = len(x)
        if n not in buffers:
            buffers[n] = ({c: np.empty((2, n, c)) for c in {w.shape[1] for w, _ in layers}},
                          [np.tile(b, (n, 1)) if len(blocks) > 1 else b for _, b in layers],
                          np.empty((layers[-1][0].shape[1], n)) if first_rows else None)
        outputs, biases, transposed = buffers[n]
        h = np.asarray(x, dtype=np.float64)
        for i, ((w, _), bias) in enumerate(zip(layers, biases)):
            if i:
                acts[hidden](h)
            h = np.add(np.matmul(h, w, out=outputs[w.shape[1]][i % 2]), bias, out=outputs[w.shape[1]][i % 2])
        np.maximum(h, 0.0, out=h)
        if not first_rows:
            out.append(h.max(axis=0))
            continue
        for i in range(0, n, 64):
            transposed[:, i : i + 64] = h[i : i + 64].T
        out.append(transposed.argmax(axis=1))
    return out


# ---- optimization ----


def cosine_lr(step: int, total_steps: int, lr0: float, lr_min: float) -> float:
    """Cosine-annealed rate: lr0 at step 0 down to lr_min at the last step."""
    if total_steps < 2:
        raise ValueError("cosine schedule needs at least 2 total steps")
    if not 0 <= step < total_steps:
        raise ValueError(f"step must be in [0, {total_steps}), got {step}")
    if not (lr0 > 0.0 and lr_min > 0.0 and lr0 >= lr_min):
        raise ValueError("need lr0 >= lr_min > 0")
    return lr_min + 0.5 * (lr0 - lr_min) * (1.0 + np.cos(np.pi * step / (total_steps - 1)))


def sgd_cosine_step(params: ParamStore, step: int, total_steps: int, lr0: float, lr_min: float) -> float:
    """One plain-SGD update under the cosine schedule; clears gradients.

    Returns the learning rate that was applied. Raises TrainingDiverged if
    any parameter leaves the finite range.
    """
    lr = cosine_lr(step, total_steps, lr0, lr_min)
    for name, p in params.items():
        p.value -= lr * p.grad
        if not np.isfinite(p.value).all():
            raise TrainingDiverged(f"parameter {name!r} became non-finite at step {step}")
        p.grad[...] = 0.0
    return lr


# ---- gradient verification ----


def finite_diff_check(loss_fn, params: ParamStore, epsilon: float = 1e-6) -> float:
    """Compare tape gradients with central differences over every scalar.

    loss_fn takes the ParamStore and returns a Tape ending in the scalar
    loss; it must be deterministic (two evaluations that disagree bitwise
    raise RuntimeError). Returns the worst relative error
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    params.zero_grads()
    tape = loss_fn(params)
    loss0 = float(tape.nodes[-1].value)
    tape.backward()
    analytic = {name: p.grad.copy() for name, p in params.items()}
    if float(loss_fn(params).nodes[-1].value) != loss0:
        raise RuntimeError("loss_fn is not deterministic; freeze all randomness before checking")
    worst = 0.0
    for name, p in params.items():
        flat = p.value.reshape(-1)
        grad = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            up = float(loss_fn(params).nodes[-1].value)
            flat[i] = orig - epsilon
            down = float(loss_fn(params).nodes[-1].value)
            flat[i] = orig
            numeric = (up - down) / (2.0 * epsilon)
            err = abs(grad[i] - numeric) / max(abs(grad[i]), abs(numeric), 1e-8)
            worst = max(worst, err)
    params.zero_grads()
    return worst


# ---- checkpoints ----


def save_params(store: ParamStore, path) -> None:
    """Write all parameters in the binary MICASNN1 layout (little-endian)."""
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", len(store))]
    for name, p in store.items():
        raw = name.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<I", p.value.ndim))
        parts.append(struct.pack(f"<{p.value.ndim}I", *p.value.shape))
        parts.append(np.ascontiguousarray(p.value, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_params(path) -> ParamStore:
    """Read a MICASNN1 checkpoint; values round-trip bit-exactly. FormatError on a bad magic,
    truncation, trailing bytes, a name that is not UTF-8 or repeats, or a non-finite value."""
    with open(path, "rb") as fh:
        reader = geometry.RecordReader(fh.read(), CHECKPOINT_MAGIC, "checkpoint")
    (count,) = reader.unpack("<I", "header")
    store = ParamStore()
    for _ in range(count):
        (name_len,) = reader.unpack("<I", "entry")
        try:
            name = reader.take(name_len, "entry").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"checkpoint parameter name is not UTF-8: {exc}") from exc
        if name in store:
            raise FormatError(f"checkpoint repeats parameter name {name!r}")
        (rank,) = reader.unpack("<I", "entry")
        shape = reader.unpack(f"<{rank}I", "entry")
        value = reader.array("<f8", math.prod(shape), "payload").reshape(shape)
        if not np.isfinite(value).all():
            raise FormatError(f"checkpoint parameter {name!r} holds a non-finite value")
        store.add(name, value)  # Param copies the value out of the file's buffer
    reader.finish()
    return store


def read_sidecar(path, kind: str, fields: dict) -> dict:
    """The fields of checkpoint `path`'s JSON sidecar, which must describe a `kind`.

    `fields` maps every field besides "kind" to its type, and the sidecar
    must hold exactly those. An integer also passes for a float; a boolean
    passes for no number. Raise FormatError naming the first field that is
    missing, unknown or of another type.
    """
    meta = geometry.read_json(str(path) + ".json", "checkpoint sidecar")
    if meta.get("kind") != kind:
        raise FormatError(f"checkpoint sidecar is not a {kind} description: {meta.get('kind')!r}")
    unknown = sorted(set(meta) - set(fields) - {"kind"})
    if unknown:
        raise FormatError(f"{kind} sidecar has unknown field {unknown[0]!r}")
    for name, typ in fields.items():
        if name not in meta:
            raise FormatError(f"{kind} sidecar lacks field {name!r}")
        value = meta[name]
        if isinstance(value, bool) or not isinstance(value, (int, float) if typ is float else typ):
            raise FormatError(f"{kind} sidecar field {name!r} must be {typ.__name__}, got {value!r}")
    return {name: typ(meta[name]) for name, typ in fields.items()}


def check_layout(store: ParamStore, reference: ParamStore) -> None:
    """Raise FormatError at the first parameter whose name or shape differs from `reference`'s."""
    for name, p in reference.items():
        if name not in store:
            raise FormatError(f"checkpoint lacks parameter {name!r}")
        if store[name].value.shape != p.value.shape:
            raise FormatError(f"checkpoint parameter {name!r} has shape {store[name].value.shape}, "
                              f"expected {p.value.shape}")
    extra = [name for name in store.names() if name not in reference]
    if extra:
        raise FormatError(f"checkpoint holds unexpected parameter {extra[0]!r}")
