"""Prompt ranking: fusion, scoring, list-wise loss, labels, persistence."""

import json
from pathlib import Path

import numpy as np
import pytest

from micas import autodiff, geometry
from micas.autodiff import ParamStore, Tape, affine, finite_diff_check, save_params
from micas.errors import FormatError
from micas.geometry import chamfer_distance, miou
from micas.pipeline import LABEL_DRAWS
from micas.ranker import (
    RankerConfig,
    build_candidate_pool,
    competition_ranks,
    fuse,
    init_ranker_params,
    listwise_rank_loss,
    load_label_cache,
    load_ranker,
    predict_score,
    rank_weight_matrix,
    raw_performance,
    save_label_cache,
    save_ranker,
    score_prompts,
    to_labels,
)
from micas.sampler import SamplerConfig, save_sampler
from micas.tasks import TASKS, gen_pair

CFG = RankerConfig(width=8)


def make_pairs(n=6, s=16, task="denoising"):
    return [gen_pair(task, 1 + i % 5, s, 100 + i) for i in range(n)]


def clouds(pairs, ids):
    return [(pairs[i].input.points, pairs[i].target.points) for i in ids]


# ---- fusion ----

def test_fuse_layout():
    prompt = gen_pair("denoising", 2, 10, 0)
    q = np.random.default_rng(1).uniform(size=(10, 3))
    query, prompt_in, prompt_out = fuse(q, prompt)
    assert np.array_equal(query, q)
    assert prompt_in is prompt.input.points and prompt_out is prompt.target.points


def test_fuse_requires_equal_sizes():
    prompt = gen_pair("denoising", 2, 10, 0)
    with pytest.raises(ValueError):
        fuse(np.zeros((9, 3)), prompt)


# ---- scoring ----

def test_zero_parameters_score_zero():
    store = init_ranker_params(CFG, np.random.default_rng(2))
    for name in store.names():
        store[name].value[...] = 0.0
    q = np.random.default_rng(3).uniform(size=(12, 3))
    assert float(predict_score(Tape(), store, CFG, fuse(q, gen_pair("denoising", 1, 12, 4))).value) == 0.0
    pairs = make_pairs(5, s=12)
    ids = build_candidate_pool(range(len(pairs)), 3, np.random.default_rng(18))
    scores = score_prompts(Tape(record=False), store, [q], [clouds(pairs, ids)])
    assert np.array_equal(scores.value, np.zeros((1, 3)))


def test_score_invariant_to_within_segment_permutation():
    store = init_ranker_params(CFG, np.random.default_rng(5))
    prompt = gen_pair("registration", 3, 14, 6)
    rng = np.random.default_rng(7)
    q = rng.uniform(size=(14, 3))
    base = float(predict_score(Tape(), store, CFG, fuse(q, prompt)).value)
    for _ in range(5):
        perm = rng.permutation(14)
        shuffled = float(predict_score(Tape(), store, CFG, fuse(q[perm], prompt)).value)
        assert shuffled == base


def test_score_gradient_matches_finite_differences():
    # central differences are only valid away from relu kinks and max-pool
    # argmax switches; this seed gives a generic point with margin >> epsilon
    cfg = RankerConfig(width=4)
    store = init_ranker_params(cfg, np.random.default_rng(4))
    fused = fuse(np.random.default_rng(9).uniform(size=(6, 3)), gen_pair("denoising", 1, 6, 10))

    def loss_fn(p):
        tape = Tape()
        tape.scale(predict_score(tape, p, cfg, fused), 1.0)
        return tape

    assert finite_diff_check(loss_fn, store) <= 1e-3


def tie_case(seed, s=4, k=3):
    """A query with a duplicated point, and k prompts the first of which has the query as input.

    The duplicate ties the query's max-pool, the shared input runs the
    query's points through the per-point stack twice, and relu-dead
    columns tie across all three clouds.
    """
    rng = np.random.default_rng(seed)
    q = rng.uniform(size=(s, 3))
    q[1] = q[0]
    prompts = [(q.copy(), rng.uniform(size=(s, 3)))]
    prompts += [(rng.uniform(size=(s, 3)), rng.uniform(size=(s, 3))) for _ in range(k - 1)]
    return q, prompts


def test_shared_query_scoring_gradient_matches_finite_differences():
    cfg = RankerConfig(width=4)
    store = init_ranker_params(cfg, np.random.default_rng(31))
    q, prompts = tie_case(32)
    labels = [[0.2, 0.9, 0.5]]

    def loss_fn(p):
        tape = Tape()
        listwise_rank_loss(tape, score_prompts(tape, p, [q], [prompts]), labels)
        return tape

    assert finite_diff_check(loss_fn, store) <= 1e-5


def test_shared_query_gradient_equals_sum_of_single_prompt_tapes():
    cfg = RankerConfig(width=8)
    store = init_ranker_params(cfg, np.random.default_rng(33))
    q, prompts = tie_case(34, s=12, k=4)
    labels = [[0.1, 0.7, 0.7, 0.3]]
    tape = Tape()
    scores = score_prompts(tape, store, [q], [prompts])
    listwise_rank_loss(tape, scores, labels)
    tape.backward()
    joint = {name: p.grad.copy() for name, p in store.items()}
    store.zero_grads()
    # d(loss)/d(score_k) from the loss alone, then one single-prompt tape per candidate
    s_store = ParamStore()
    s_store.add("s", scores.value)
    t = Tape()
    listwise_rank_loss(t, t.param(s_store, "s"), labels)
    t.backward()
    for k, (p_in, p_out) in enumerate(prompts):
        single = Tape()
        predict_score(single, store, cfg, (q, p_in, p_out))
        single.backward(s_store["s"].grad[0, k])
    for name, p in store.items():
        scale = max(np.abs(joint[name]).max(), 1e-300)
        assert np.abs(p.grad - joint[name]).max() <= 1e-12 * scale, name


def tagged(pts, segment):
    """A cloud's rows as xyz followed by the one-hot columns of its segment tag."""
    onehot = np.zeros((len(pts), 3))
    onehot[:, segment] = 1.0
    return np.hstack([pts, onehot])


def full_pool(tape, store, rows):
    """The per-point stack over every one of the tagged `rows` and one max-pool, a (1, width) node."""
    h = affine(tape, store, "score.point.0", tape.const(rows))
    return tape.maxpool_segments(tape.relu(affine(tape, store, "score.point.1", tape.relu(h))), [0])


def dense_scores(tape, store, cfg, q, prompts):
    """Reference scorer: each prompt's joint row is one max-pool over its three clouds' stacked tagged rows.

    Each prompt's head runs on its own; the K scores are joined into one
    (1, K) node by exact column concatenation, as score_prompts returns
    for one query.
    """
    scores = []
    for p_in, p_out in prompts:
        joint = full_pool(tape, store, np.vstack([tagged(q, 0), tagged(p_in, 1), tagged(p_out, 2)]))
        head = tape.relu(affine(tape, store, "score.h0", joint))
        scores.append(affine(tape, store, "score.h1", head))
    row = scores[0]
    for score in scores[1:]:
        row = tape.concat_cols(row, score)
    return row


def score_one(tape, store, cfg, q, prompts):
    """score_prompts on one query, the B = 1 case: a (1, K) node."""
    return score_prompts(tape, store, [q], [prompts])


def spy_pools(tape, method):
    """Record (rows in, pooled value) of every call to the named max-pool method of `tape`."""
    pools = []
    real = getattr(tape, method)

    def spy(a, *args):
        out = real(a, *args)
        pools.append((a.shape[0], out.value))
        return out

    setattr(tape, method, spy)
    return pools


def sparse_cases():
    """Random clouds, a prompt input equal to the query, and clouds of repeated rows."""
    q, prompts = tie_case(40, s=64, k=3)
    yield q, prompts
    rng = np.random.default_rng(41)
    base = rng.uniform(size=(16, 3))
    dup = np.repeat(base, 4, axis=0)[rng.permutation(64)]  # every row four times, shuffled
    yield dup, [(dup.copy(), dup[::-1].copy()), (rng.uniform(size=(64, 3)), dup)]
    yield rng.uniform(size=(256, 3)), [(rng.uniform(size=(256, 3)), rng.uniform(size=(256, 3)))
                                       for _ in range(2)]


def test_row_sparse_pooling_equals_full_block_maxpool():
    cfg = RankerConfig(width=16)
    for seed, (q, prompts) in enumerate(sparse_cases()):
        rng = np.random.default_rng(50 + seed)
        store = init_ranker_params(cfg, rng)
        for name in ("score.point.0.b", "score.point.1.b", "score.h0.b"):  # biases a trained ranker has
            store[name].value[...] = rng.normal(0.0, 0.1, size=cfg.width)
        sparse_tape, dense_tape = Tape(), Tape()
        sparse_pools = spy_pools(sparse_tape, "maxpool_segments")
        dense_pools = spy_pools(dense_tape, "maxpool_segments")
        sparse = score_prompts(sparse_tape, store, [q], [prompts])
        dense = dense_scores(dense_tape, store, cfg, q, prompts)
        # a segment pool over the stacked chain and the join's pool; one full pool per prompt
        assert len(sparse_pools) == 2 and len(dense_pools) == len(prompts)
        (rows, per_cloud), (join_rows, joint) = sparse_pools
        clouds = [(q, 0)] + [(pts, seg) for pair in prompts for pts, seg in zip(pair, (1, 2))]
        assert rows < sum(len(pts) for pts, _ in clouds)
        assert per_cloud.shape == (len(clouds), cfg.width) and join_rows == 3 * len(prompts)
        for row, (pts, segment) in zip(per_cloud, clouds):
            full = full_pool(Tape(), store, tagged(pts, segment)).value
            assert np.array_equal(row, full[0])
            free = autodiff.row_sparse_maxpool(Tape(record=False), store, "score.point", [tagged(pts, segment)],
                                               "relu")
            assert np.array_equal(free.value, full)  # tape-free
        # the max of the three clouds' maxima is the max over their union
        assert np.array_equal(joint, np.vstack([full for _, full in dense_pools]))
        assert np.array_equal(sparse.value, dense.value)
        assert np.array_equal(score_prompts(Tape(record=False), store, [q], [prompts]).value, sparse.value)


def test_row_sparse_train_step_gradient_matches_dense_reference():
    cfg = RankerConfig(width=16)
    for seed, (q, prompts) in enumerate(sparse_cases()):
        store = init_ranker_params(cfg, np.random.default_rng(60 + seed))
        labels = [np.linspace(0.9, 0.1, len(prompts))]
        grads = []
        for scorer in (score_one, dense_scores):
            store.zero_grads()
            tape = Tape()
            listwise_rank_loss(tape, scorer(tape, store, cfg, q, prompts), labels)
            tape.backward()
            grads.append({name: p.grad.copy() for name, p in store.items()})
        for name in store.names():
            scale = max(np.abs(grads[1][name]).max(), 1e-300)
            assert np.abs(grads[0][name] - grads[1][name]).max() <= 1e-12 * scale, name


def test_recording_pass_feeds_only_argmax_rows_to_first_layer(spy_values_pass):
    cfg = RankerConfig(width=16)
    store = init_ranker_params(cfg, np.random.default_rng(70))
    w0 = store["score.point.0.w"].value
    values_pass = spy_values_pass("score.point", len)
    for q, prompts in sparse_cases():
        clouds = [(q, 0)] + [(pts, seg) for pair in prompts for pts, seg in zip(pair, (1, 2))]
        distinct = []
        for pts, segment in clouds:
            h = np.maximum(tagged(pts, segment) @ w0 + store["score.point.0.b"].value, 0.0)
            h = np.maximum(h @ store["score.point.1.w"].value + store["score.point.1.b"].value, 0.0)
            distinct.append(len(np.unique(np.argmax(h, axis=0))))
        for record in (True, False):
            tape = Tape(record=record)
            fed = []
            affine = tape.affine

            def spy(x, w, b):
                if w.value is w0:
                    fed.append(x.shape[0])
                return affine(x, w, b)

            tape.affine = spy
            values_pass.clear()
            score_prompts(tape, store, [q], [prompts])
            # both modes run each full cloud through the values pass exactly once
            assert values_pass == [len(pts) for pts, _ in clouds]
            if record:  # one recorded chain over the kept rows of every cloud
                assert len(fed) == 1
                assert len(clouds) <= fed[0] <= sum(distinct), (fed, distinct)
            else:  # inference records no first-layer product
                assert fed == []


def test_ranker_step_records_the_same_small_graph_for_any_k():
    cfg = RankerConfig(width=16)
    store = init_ranker_params(cfg, np.random.default_rng(71))
    rng = np.random.default_rng(72)
    recorded = {}
    for b in (1, 4):
        for k in (2, 8):
            queries = [rng.uniform(size=(32, 3)) for _ in range(b)]
            prompts = [[(rng.uniform(size=(32, 3)), rng.uniform(size=(32, 3))) for _ in range(k)]
                       for _ in range(b)]
            tape = Tape()
            listwise_rank_loss(tape, score_prompts(tape, store, queries, prompts),
                               np.tile(np.linspace(0.9, 0.1, k), (b, 1)))
            recorded[b, k] = len(tape.nodes)
    # no node is recorded per query or per candidate: the point chain, one head and the loss
    assert len(set(recorded.values())) == 1 and recorded[1, 2] <= 40, recorded


def batch_case(seed, b=4, k=3, s=24):
    """B queries whose K candidates are drawn from one small bank, so prompt arrays repeat across queries."""
    rng = np.random.default_rng(seed)
    bank = [(rng.uniform(size=(s, 3)), rng.uniform(size=(s, 3))) for _ in range(k + 2)]
    queries = [rng.uniform(size=(s, 3)) for _ in range(b)]
    picks = [rng.choice(len(bank), size=k, replace=False) for _ in range(b)]
    return queries, [[bank[i] for i in idx] for idx in picks], bank, picks


def test_batch_scores_equal_one_query_scores_bit_for_bit():
    cfg = RankerConfig(width=16)
    for seed in range(3):
        store = init_ranker_params(cfg, np.random.default_rng(100 + seed))
        queries, prompts, _, _ = batch_case(110 + seed)
        for record in (True, False):
            batch = score_prompts(Tape(record=record), store, queries, prompts).value
            assert batch.shape == (len(queries), len(prompts[0]))
            for q, pairs, row in zip(queries, prompts, batch):
                assert np.array_equal(row, score_prompts(Tape(record=record), store, [q], [pairs]).value[0])


def test_batch_tape_gradient_equals_sum_of_per_query_tapes():
    cfg = RankerConfig(width=16)
    store = init_ranker_params(cfg, np.random.default_rng(120))
    queries, prompts, _, _ = batch_case(121)
    labels = np.random.default_rng(122).uniform(size=(len(queries), len(prompts[0])))
    tape = Tape()
    listwise_rank_loss(tape, score_prompts(tape, store, queries, prompts), labels)
    tape.backward(0.25)
    batch = {name: p.grad.copy() for name, p in store.items()}
    store.zero_grads()
    for q, pairs, row in zip(queries, prompts, labels):
        single = Tape()
        listwise_rank_loss(single, score_prompts(single, store, [q], [pairs]), [row])
        single.backward(0.25)
    for name, p in store.items():
        if name == "score.h1.b":  # every query's loss is shift-invariant: zero up to rounding
            assert max(abs(batch[name][0]), abs(p.grad[0])) <= 1e-15
            continue
        scale = max(np.abs(p.grad).max(), 1e-300)
        assert np.abs(batch[name] - p.grad).max() <= 1e-12 * scale, name


def test_batch_pools_each_distinct_cloud_and_segment_once(spy_values_pass):
    cfg = RankerConfig(width=16)
    store = init_ranker_params(cfg, np.random.default_rng(130))
    queries, prompts, _, _ = batch_case(131)
    queries[2] = queries[0]  # one query cloud ranked twice in the batch
    blocks = {(id(q), 0) for q in queries}
    blocks |= {(id(pts), seg) for pairs in prompts for pair in pairs for pts, seg in zip(pair, (1, 2))}
    assert len(blocks) < len(queries) * (1 + 2 * len(prompts[0]))  # the case shares clouds
    values_pass = spy_values_pass("score.point", lambda x: int(np.argmax(x[0, 3:])))
    for record in (True, False):
        values_pass.clear()
        score_prompts(Tape(record=record), store, queries, prompts)
        assert sorted(values_pass) == sorted(seg for _, seg in blocks)


def test_non_recording_scoring_makes_as_many_tape_nodes_for_any_k(monkeypatch):
    # the values pass runs off the tape, so the node count does not grow with the number of distinct blocks
    store = init_ranker_params(RankerConfig(), np.random.default_rng(140))
    rng = np.random.default_rng(141)
    counts, push = [], Tape._push

    def counting(self, *args, **kwargs):
        counts[-1] += 1
        return push(self, *args, **kwargs)

    monkeypatch.setattr(Tape, "_push", counting)
    for k in (2, 8):
        counts.append(0)
        prompts = [(rng.uniform(size=(32, 3)), rng.uniform(size=(32, 3))) for _ in range(k)]
        score_prompts(Tape(record=False), store, [rng.uniform(size=(32, 3))], [prompts])
    assert counts[0] == counts[1]


# ---- ranking loss ----

def test_competition_ranks_cases():
    assert np.array_equal(competition_ranks([3.0, 1.0, 3.0]), [1, 3, 1])
    assert np.array_equal(competition_ranks([0.1, 0.9, 0.5]), [3, 1, 2])
    assert np.array_equal(competition_ranks([2.0]), [1])
    with pytest.raises(ValueError):
        competition_ranks([])
    with pytest.raises(ValueError):
        competition_ranks([[1.0, 2.0]])


def test_rank_weight_matrix_properties():
    labels = [0.2, 0.9, 0.5, 0.9]
    coeff = rank_weight_matrix(labels)
    assert (np.diag(coeff) == 0.0).all()
    assert (coeff >= 0.0).all()
    # support is one-sided: if i outranks j then the reverse weight is zero
    assert ((coeff > 0) & (coeff.T > 0)).sum() == 0
    ranks = competition_ranks(labels)  # [4, 1, 3, 1]
    best, worst = 1, 0
    assert coeff[best, worst] == pytest.approx(1.0 / ranks[best] - 1.0 / ranks[worst], abs=0.0)
    assert coeff[1, 3] == 0.0  # tied labels carry no pairwise pressure


def test_pairwise_loss_equal_scores_two_candidates():
    tape = Tape()
    loss = listwise_rank_loss(tape, tape.const(np.array([[0.7, 0.7]])), [[1.0, 0.0]])
    assert abs(float(loss.value) - 0.5 * np.log(2.0)) <= 1e-12


def test_pairwise_loss_shift_invariance():
    rng = np.random.default_rng(11)
    scores = rng.normal(size=(1, 5))
    labels = rng.uniform(size=(1, 5))
    tape = Tape()
    base = float(listwise_rank_loss(tape, tape.const(scores), labels).value)
    for shift in (-3.0, 0.25, 10.0):
        tape = Tape()
        shifted = float(listwise_rank_loss(tape, tape.const(scores + shift), labels).value)
        assert abs(shifted - base) <= 1e-12


def test_ranking_loss_ordering_and_ties():
    labels = [[0.9, 0.5, 0.1]]
    tape = Tape()
    good = float(listwise_rank_loss(tape, tape.const(np.array([[3.0, 2.0, 1.0]])), labels).value)
    tape = Tape()
    bad = float(listwise_rank_loss(tape, tape.const(np.array([[1.0, 2.0, 3.0]])), labels).value)
    assert good < bad
    tape = Tape()
    tied = listwise_rank_loss(tape, tape.const(np.array([[0.4, -1.2, 0.0]])), [[0.5, 0.5, 0.5]])
    assert float(tied.value) == 0.0


def test_ranking_loss_argument_checks():
    tape = Tape()
    with pytest.raises(ValueError):
        listwise_rank_loss(tape, tape.const(np.array([[1.0]])), [[0.5]])
    tape = Tape()
    with pytest.raises(ValueError):
        listwise_rank_loss(tape, tape.const(np.array([[1.0, 2.0]])), [[0.5, 0.1, 0.9]])


def test_ranking_loss_takes_only_a_score_matrix_node():
    rng = np.random.default_rng(12)
    scores, labels = rng.normal(size=(2, 4)), rng.uniform(size=(2, 4))
    tape = Tape()
    loss = listwise_rank_loss(tape, tape.const(scores), labels)
    want = sum((np.logaddexp(0.0, row[None, :] - row[:, None]) * rank_weight_matrix(lab)).sum()
               for row, lab in zip(scores, labels))
    assert float(loss.value) == pytest.approx(want, rel=1e-15)
    for bad in (np.float64(1.0), scores[0], np.ones((4, 2)), np.ones((1, 2, 4))):  # not (2, 4)
        tape = Tape()
        with pytest.raises(ValueError):
            listwise_rank_loss(tape, tape.const(bad), labels)


def test_ranking_loss_gradient():
    store = ParamStore()
    store.add("s", np.array([[0.3, -0.2, 0.8]]))
    labels = [[0.1, 0.9, 0.4]]

    def loss_fn(p):
        tape = Tape()
        listwise_rank_loss(tape, tape.param(p, "s"), labels)
        return tape

    assert finite_diff_check(loss_fn, store) <= 1e-3


# ---- labels ----

def test_raw_performance_paths():
    query = gen_pair("denoising", 2, 20, 12)
    pred = query.target.points + 0.01
    assert raw_performance("denoising", pred[None], query)[0] == pytest.approx(
        chamfer_distance(pred, query.target.points), rel=1e-15)
    seg = gen_pair("partseg", 3, 20, 13)
    assert raw_performance("partseg", seg.target.points[None], seg)[0] == pytest.approx(1.0, abs=1e-12)
    no_labels = gen_pair("denoising", 1, 8, 14)
    with pytest.raises(ValueError):
        raw_performance("partseg", no_labels.target.points[None], no_labels)
    with pytest.raises(ValueError):  # one cloud, not a stack
        raw_performance("denoising", pred, query)


def test_raw_performance_of_a_stack_equals_its_per_draw_values():
    rng = np.random.default_rng(15)
    for i, task in enumerate(TASKS):
        query = gen_pair(task, 1 + i, 32, 400 + i)
        stack = query.target.points + rng.normal(0.0, 0.05, size=(5, 32, 3))
        stack[3] = stack[2]  # a repeated draw
        values = raw_performance(task, stack, query)
        assert values.shape == (5,)
        for d in range(5):
            one = raw_performance(task, stack[d : d + 1], query)
            assert one.shape == (1,) and values[d] == one[0], task
            if task != "partseg":
                assert values[d] == chamfer_distance(stack[d], query.target.points), task


def test_raw_performance_builds_one_tree_for_a_label_stack_and_two_for_one_draw(monkeypatch):
    # a label's draws share the target's tree and neighbour table; evaluate's single draw keeps a tree per direction
    built = []
    real = geometry.cKDTree

    def spy(pts, *args, **kwargs):
        built.append(len(pts))
        return real(pts, *args, **kwargs)

    monkeypatch.setattr(geometry, "cKDTree", spy)
    rng = np.random.default_rng(19)
    for i, task in enumerate(("reconstruction", "denoising", "registration")):
        query = gen_pair(task, 1 + i, 64, 420 + i)
        stack = query.target.points + rng.normal(0.0, 0.01, size=(LABEL_DRAWS, 64, 3))
        built.clear()
        raw_performance(task, stack, query)
        assert built == [64], task
        built.clear()
        raw_performance(task, stack[:1], query)
        assert built == [64, 64], task


def test_normalizer_orientation_and_clamping():
    train = [0.2, 0.4, 0.6]
    labels = to_labels("denoising", [0.2, 0.6, 5.0, -5.0], train)
    assert labels.tolist() == [1.0, 0.0, 0.0, 1.0]  # clamped, lower is better
    assert to_labels("partseg", [0.5, 0.1], [0.1, 0.5]).tolist() == [1.0, 0.0]
    raws = np.array([[0.2, 0.4], [0.6, 0.3]])
    assert np.array_equal(to_labels("denoising", raws, raws), 1.0 - (raws - 0.2) / (0.6 - 0.2))


def test_normalizer_degenerate_split():
    assert to_labels("denoising", [0.3, 0.3], [0.3, 0.3, 0.3]).tolist() == [0.5, 0.5]
    # a range of at most 1e-12 is widened to lo +- 0.5; a wider one is kept
    assert to_labels("partseg", [0.3, 1.0], [0.3, 0.3 + 1e-13]) == pytest.approx([0.5, 1.0], abs=1e-15)
    assert to_labels("partseg", [0.3, 1.0], [0.3, 0.3 + 1e-11]).tolist() == [0.0, 1.0]
    with pytest.raises(ValueError):
        to_labels("denoising", [0.3], [])


# ---- candidate pools ----

def test_candidate_pool_distinct_and_excluded():
    # a pool is one task's split indices; the draw picks positions in the pool less `exclude`
    ids = [3, 8, 9, 14, 20, 21, 33]
    for draw in range(60):
        j, k = draw % len(ids), 1 + draw % (len(ids) - 1)
        rng, ref = np.random.default_rng(draw), np.random.default_rng(draw)
        got = build_candidate_pool(ids, k, rng, exclude=ids[j])
        assert got.dtype == np.int64 and len(np.unique(got)) == k and ids[j] not in got
        assert np.array_equal(got, np.delete(ids, j)[ref.choice(len(ids) - 1, k, replace=False)])
        assert rng.bit_generator.state == ref.bit_generator.state
        rng, ref = np.random.default_rng(draw), np.random.default_rng(draw)
        expected = np.asarray(ids)[ref.choice(len(ids), k, replace=False)]
        assert np.array_equal(build_candidate_pool(ids, k, rng), expected)
        assert rng.bit_generator.state == ref.bit_generator.state


def test_candidate_pool_k_bounds():
    ids = range(10, 16)
    with pytest.raises(ValueError):
        build_candidate_pool(ids, 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        build_candidate_pool(ids, 7, np.random.default_rng(0))
    with pytest.raises(ValueError):
        build_candidate_pool(ids, 6, np.random.default_rng(0), exclude=11)
    with pytest.raises(ValueError):
        build_candidate_pool([], 1, np.random.default_rng(0))
    assert sorted(build_candidate_pool(ids, 6, np.random.default_rng(0))) == list(ids)  # exact fit is fine
    assert sorted(build_candidate_pool(ids, 6, np.random.default_rng(0), exclude=99)) == list(ids)


def test_pooled_scores_match_single_scores():
    pairs = make_pairs(4, s=10)
    store = init_ranker_params(CFG, np.random.default_rng(20))
    ids = build_candidate_pool(range(len(pairs)), 3, np.random.default_rng(21))
    q = np.random.default_rng(22).uniform(size=(10, 3))
    graph_free = score_prompts(Tape(record=False), store, [q], [clouds(pairs, ids)])
    for i, cid in enumerate(ids):
        one = float(predict_score(Tape(), store, CFG, fuse(q, pairs[cid])).value)
        assert one == graph_free.value[0, i]


def test_select_pooled_ties_and_empty():
    # all-zero parameters tie every candidate at exactly 0; the ranked pick
    # (argmax, as evaluate makes it) then goes to the first candidate, and
    # an empty candidate set cannot be drawn at all
    pairs = make_pairs(5, s=12)
    store = init_ranker_params(CFG, np.random.default_rng(17))
    for name in store.names():
        store[name].value[...] = 0.0
    ids = build_candidate_pool(range(len(pairs)), 3, np.random.default_rng(18))
    q = np.random.default_rng(19).uniform(size=(12, 3))
    scores = score_prompts(Tape(record=False), store, [q, q[::-1]], [clouds(pairs, ids)] * 2)
    assert np.array_equal(scores.value, np.zeros((2, 3)))
    assert [int(np.argmax(row)) for row in scores.value] == [0, 0]
    with pytest.raises(ValueError):
        build_candidate_pool(range(len(pairs)), 0, np.random.default_rng(18))


def test_bank_pooled_scores_equal_graph_free_scoring_bit_for_bit():
    # as evaluate ranks: one call over a task's queries, whose candidates share the train pairs' arrays
    cfg = RankerConfig(width=16)
    for seed, task in enumerate(TASKS):
        pairs = [gen_pair(task, 1 + i % 5, 32, 300 + 10 * seed + i) for i in range(7)]
        store = init_ranker_params(cfg, np.random.default_rng(80 + seed))
        drawn = [build_candidate_pool(range(len(pairs)), 4, np.random.default_rng(90 + draw))
                 for draw in range(4)]
        queries = [gen_pair(task, 3, 32, 400 + draw).input.points for draw in range(4)]
        prompts = [clouds(pairs, ids) for ids in drawn]
        together = score_prompts(Tape(record=False), store, queries, prompts).value
        for q, pairs, row in zip(queries, prompts, together):
            assert np.array_equal(row, score_prompts(Tape(record=False), store, [q], [pairs]).value[0])


# ---- persistence ----

PROVENANCE = {"seed": 0, "sampler_sha256": "ab" * 32}


def test_label_cache_round_trip(tmp_path):
    entries = {(0, 3): 0.25, (7, 1): -1.5, (2**40, 9): 1.0, (2, 2): 0.1 + 0.2}
    path = tmp_path / "labels.json"
    save_label_cache(entries, PROVENANCE, path)
    assert load_label_cache(path) == entries
    assert list(load_label_cache(path, PROVENANCE).items()) == list(entries.items())
    assert json.loads(path.read_text())["provenance"] == PROVENANCE
    save_label_cache({}, PROVENANCE, path)
    assert load_label_cache(path) == {}


def test_label_cache_holds_nothing_for_another_provenance_or_an_unreadable_file(tmp_path):
    path = tmp_path / "labels.json"
    save_label_cache({(1, 2): 0.5}, PROVENANCE, path)
    assert load_label_cache(path, {**PROVENANCE, "seed": 1}) == {}
    text = path.read_text()
    for name, content in (("prefix", text[:-3]), ("array", "[]"), ("no-provenance", '{"labels": [[1, 2, 0.5]]}')):
        (tmp_path / name).write_text(content)
        assert load_label_cache(tmp_path / name, PROVENANCE) == {}
    assert load_label_cache(tmp_path / "missing", PROVENANCE) == {}
    # without a provenance to match, the same files are refused
    with pytest.raises(FormatError, match="label cache is not JSON"):
        load_label_cache(tmp_path / "prefix")
    with pytest.raises(FormatError, match="label cache must be a JSON object"):
        load_label_cache(tmp_path / "array")
    with pytest.raises(OSError):
        load_label_cache(tmp_path / "missing")


def test_label_cache_format_errors(tmp_path):
    path = tmp_path / "labels.json"
    for labels in (None, {"1": 0.5}, "1 2 0.5"):
        path.write_text(json.dumps({"provenance": PROVENANCE, "labels": labels}))
        for provenance in (None, PROVENANCE):
            with pytest.raises(FormatError, match="label cache holds no list of labels"):
                load_label_cache(path, provenance)
    for bad in ([1, 2], [1, 2, 0.5, 0], [-1, 2, 0.5], [1, 2.0, 0.5], [True, 2, 0.5], [1, 2, "0.5"], [1, 2, 1], 7):
        path.write_text(json.dumps({"provenance": PROVENANCE, "labels": [[0, 1, 0.25], bad]}))
        for provenance in (None, PROVENANCE):
            with pytest.raises(FormatError, match=r"entry 1 is not \[query id, candidate id, finite label\]"):
                load_label_cache(path, provenance)


def test_label_cache_refuses_a_non_finite_label(tmp_path):
    path = tmp_path / "labels.json"
    for bad in (np.nan, np.inf, -np.inf):
        save_label_cache({(1, 2): 0.5, (3, 4): bad}, PROVENANCE, path)
        for provenance in (None, PROVENANCE):
            with pytest.raises(FormatError, match=r"entry 1 is not \[query id, candidate id, finite label\]"):
                load_label_cache(path, provenance)


def test_label_cache_refuses_a_repeated_key(tmp_path):
    path = tmp_path / "labels.json"
    path.write_text(json.dumps({"provenance": PROVENANCE, "labels": [[1, 2, 0.5], [1, 2, 0.25]]}))
    for provenance in (None, PROVENANCE):
        with pytest.raises(FormatError, match=r"entry 1 repeats the key \(1, 2\)"):
            load_label_cache(path, provenance)


def test_ranker_checkpoint_round_trip(tmp_path):
    store = init_ranker_params(CFG, np.random.default_rng(23))
    path = tmp_path / "ranker.micasnn"
    save_ranker(store, CFG, path)
    assert json.loads(Path(str(path) + ".json").read_text()) == {"kind": "ranker", "width": CFG.width}
    back, cfg = load_ranker(path)
    assert cfg == CFG
    for name in store.names():
        assert np.array_equal(back[name].value, store[name].value)


@pytest.mark.parametrize("edit, message", [
    (lambda meta: {name: v for name, v in meta.items() if name != "width"}, "lacks field 'width'"),
    (lambda meta: {**meta, "width": 8.0}, "field 'width' must be int"),
    (lambda meta: {**meta, "normalizer": {}}, "unknown field 'normalizer'"),  # the sidecar's older layout
    (lambda meta: {**meta, "seed": 0}, "unknown field 'seed'"),
    (lambda meta: {**meta, "k_candidates": 8}, "unknown field 'k_candidates'"),
    (lambda meta: [meta], "must be a JSON object"),
])
def test_ranker_sidecar_refuses_a_malformed_field(tmp_path, edit, message):
    path = tmp_path / "ranker.micasnn"
    save_ranker(init_ranker_params(CFG, np.random.default_rng(3)), CFG, path)
    sidecar = Path(str(path) + ".json")
    sidecar.write_text(json.dumps(edit(json.loads(sidecar.read_text()))))
    with pytest.raises(FormatError, match=message):
        load_ranker(path)


def test_ranker_rejects_foreign_sidecar(tmp_path):
    path = tmp_path / "model.micasnn"
    save_sampler(ParamStore(), SamplerConfig(d1=4, d2=4, n_centers=2, width=4), path)
    with pytest.raises(ValueError):
        load_ranker(path)


def test_ranker_refuses_parameters_that_disagree_with_the_sidecar(tmp_path):
    path = tmp_path / "ranker.micasnn"
    narrow = RankerConfig(width=32)
    save_ranker(init_ranker_params(narrow, np.random.default_rng(0)), RankerConfig(width=64), path)
    with pytest.raises(FormatError, match="score.point.0.w"):
        load_ranker(path)

    store = init_ranker_params(CFG, np.random.default_rng(1))
    missing = ParamStore()
    for name, p in store.items():
        if name != "score.h0.b":
            missing.add(name, p.value)
    save_ranker(missing, CFG, path)
    with pytest.raises(FormatError, match="score.h0.b"):
        load_ranker(path)

    save_ranker(store, CFG, path)
    store.add("score.extra", np.zeros(2))
    save_params(store, path)
    with pytest.raises(FormatError, match="score.extra"):
        load_ranker(path)


def test_ranker_refuses_the_additive_segment_tag_layout(tmp_path):
    # the layout before the segment tags became input columns: a (3, width)
    # first layer and the tags as a (3, width) parameter of their own
    store = init_ranker_params(CFG, np.random.default_rng(5))
    first = store["score.point.0.w"].value
    old = ParamStore()
    old.add("score.l0.w", first[:3])
    old.add("score.l0.b", store["score.point.0.b"].value)
    old.add("score.tags", first[3:])
    old.add("score.l1.w", store["score.point.1.w"].value)
    old.add("score.l1.b", store["score.point.1.b"].value)
    for name in ("score.h0.w", "score.h0.b", "score.h1.w", "score.h1.b"):
        old.add(name, store[name].value)
    path = tmp_path / "ranker.micasnn"
    save_ranker(old, CFG, path)
    with pytest.raises(FormatError, match="score.point.0.w"):
        load_ranker(path)


def test_ranker_refuses_a_non_finite_parameter(tmp_path):
    store = init_ranker_params(CFG, np.random.default_rng(2))
    path = tmp_path / "ranker.micasnn"
    save_ranker(store, CFG, path)
    assert store.names()[-1] == "score.h1.b" and store["score.h1.b"].value.shape == (1,)
    blob = path.read_bytes()  # the last 8 bytes are score.h1.b's one value
    path.write_bytes(blob[:-8] + np.array([np.nan], dtype="<f8").tobytes())
    with pytest.raises(FormatError, match="score.h1.b"):
        load_ranker(path)
