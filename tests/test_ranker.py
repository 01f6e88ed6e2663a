"""Prompt ranking: fusion, scoring, list-wise loss, labels, persistence."""

import numpy as np
import pytest

from micas import ranker as ranker_mod
from micas.autodiff import ParamStore, Tape, affine, finite_diff_check, save_params
from micas.errors import FormatError
from micas.geometry import chamfer_distance, miou
from micas.ranker import (
    CandidateSet,
    FusedCloud,
    RankerConfig,
    TaskNormalizer,
    build_candidate_pool,
    competition_ranks,
    fuse,
    init_ranker_params,
    listwise_rank_loss,
    load_label_cache,
    load_ranker,
    pool_cloud,
    pool_prompt,
    predict_score,
    rank_weight_matrix,
    raw_performance,
    save_label_cache,
    save_ranker,
    score_prompts,
    select_pooled,
)
from micas.sampler import SamplerConfig, save_sampler
from micas.tasks import TASKS, PromptBank, gen_pair

CFG = RankerConfig(width=8, k_candidates=4)


def make_bank(n=6, s=16, task="denoising"):
    return PromptBank.from_pairs([gen_pair(task, 1 + i % 5, s, 100 + i) for i in range(n)])


# ---- fusion ----

def test_fuse_layout():
    prompt = gen_pair("denoising", 2, 10, 0)
    rng = np.random.default_rng(1)
    q = rng.uniform(size=(10, 3))
    fused = fuse(q, prompt)
    assert fused.points.shape == (30, 3)
    assert np.array_equal(fused.points[:10], q)
    assert np.array_equal(fused.points[10:20], prompt.input.points)
    assert np.array_equal(fused.points[20:], prompt.target.points)
    assert np.array_equal(fused.segments, np.repeat([0, 1, 2], 10))


def test_fuse_requires_equal_sizes():
    prompt = gen_pair("denoising", 2, 10, 0)
    with pytest.raises(ValueError):
        fuse(np.zeros((9, 3)), prompt)


def test_fused_cloud_validation():
    with pytest.raises(ValueError):
        FusedCloud(np.zeros((4, 3)), np.zeros(4, dtype=np.int64))  # not 3S rows
    with pytest.raises(ValueError):
        FusedCloud(np.zeros((6, 3)), np.zeros(5, dtype=np.int64))
    with pytest.raises(ValueError):
        FusedCloud(np.zeros((6, 2)), np.zeros(6, dtype=np.int64))


# ---- scoring ----

def test_zero_parameters_score_zero():
    store = init_ranker_params(CFG, np.random.default_rng(2))
    for name in store.names():
        store[name].value[...] = 0.0
    fused = fuse(np.random.default_rng(3).uniform(size=(12, 3)), gen_pair("denoising", 1, 12, 4))
    assert float(predict_score(Tape(), store, CFG, fused).value) == 0.0


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
    cfg = RankerConfig(width=4, k_candidates=2)
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
    cfg = RankerConfig(width=4, k_candidates=3)
    store = init_ranker_params(cfg, np.random.default_rng(31))
    q, prompts = tie_case(32)
    labels = [0.2, 0.9, 0.5]

    def loss_fn(p):
        tape = Tape()
        listwise_rank_loss(tape, score_prompts(tape, p, cfg, q, prompts), labels)
        return tape

    assert finite_diff_check(loss_fn, store) <= 1e-5


def test_shared_query_gradient_equals_sum_of_single_prompt_tapes():
    cfg = RankerConfig(width=8, k_candidates=4)
    store = init_ranker_params(cfg, np.random.default_rng(33))
    q, prompts = tie_case(34, s=12, k=4)
    labels = [0.1, 0.7, 0.7, 0.3]
    tape = Tape()
    scores = score_prompts(tape, store, cfg, q, prompts)
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
        fused = FusedCloud(np.vstack([q, p_in, p_out]), np.repeat([0, 1, 2], len(q)))
        single = Tape()
        predict_score(single, store, cfg, fused)
        single.backward(s_store["s"].grad[k])
    for name, p in store.items():
        scale = max(np.abs(joint[name]).max(), 1e-300)
        assert np.abs(p.grad - joint[name]).max() <= 1e-12 * scale, name


def dense_scores(tape, store, cfg, q, prompts):
    """Reference scorer: the per-point stack and max-pool over every row of every cloud.

    Each prompt's head runs on its own; the K scores are joined into one
    (K,) node by exact column concatenation.
    """
    tags = tape.param(store, "score.tags")

    def pooled(pts, segment):
        tag = tape.reshape(tape.gather_rows(tags, [segment]), (cfg.width,))
        h = tape.add_row(affine(tape, store, "score.l0", tape.const(pts)), tag)
        return tape.maxpool_segments(tape.relu(affine(tape, store, "score.l1", tape.relu(h))))

    query = pooled(q, 0)
    scores = []
    for p_in, p_out in prompts:
        joint = tape.maximum([query, pooled(p_in, 1), pooled(p_out, 2)])
        head = tape.relu(affine(tape, store, "score.h0", tape.reshape(joint, (1, cfg.width))))
        scores.append(affine(tape, store, "score.h1", head))
    row = scores[0]
    for score in scores[1:]:
        row = tape.concat_cols(row, score)
    return tape.reshape(row, (len(scores),))


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
    cfg = RankerConfig(width=16, k_candidates=3)
    for seed, (q, prompts) in enumerate(sparse_cases()):
        rng = np.random.default_rng(50 + seed)
        store = init_ranker_params(cfg, rng)
        for name in ("score.l0.b", "score.l1.b", "score.h0.b"):  # biases a trained ranker has
            store[name].value[...] = rng.normal(0.0, 0.1, size=cfg.width)
        sparse_tape, dense_tape = Tape(), Tape()
        sparse_pools = spy_pools(sparse_tape, "maxpool_segments")
        dense_pools = spy_pools(dense_tape, "maxpool_segments")
        sparse = score_prompts(sparse_tape, store, cfg, q, prompts)
        dense = dense_scores(dense_tape, store, cfg, q, prompts)
        # one segment pool over the stacked chain, one full-block pool per cloud
        assert len(sparse_pools) == 1 and len(dense_pools) == 1 + 2 * len(prompts)
        rows, pooled = sparse_pools[0]
        assert rows < sum(full_rows for full_rows, _ in dense_pools)
        assert pooled.shape == (len(dense_pools), cfg.width)
        clouds = [(q, 0)] + [(pts, seg) for pair in prompts for pts, seg in zip(pair, (1, 2))]
        for row, (_, full), (pts, segment) in zip(pooled, dense_pools, clouds):
            assert np.array_equal(row, full)
            assert np.array_equal(pool_cloud(store, pts, segment), full)  # the tape-free values pass
        assert np.array_equal(sparse.value, dense.value)
        assert np.array_equal(score_prompts(Tape(record=False), store, cfg, q, prompts).value, sparse.value)


def test_row_sparse_train_step_gradient_matches_dense_reference():
    cfg = RankerConfig(width=16, k_candidates=3)
    for seed, (q, prompts) in enumerate(sparse_cases()):
        store = init_ranker_params(cfg, np.random.default_rng(60 + seed))
        labels = np.linspace(0.9, 0.1, len(prompts))
        grads = []
        for scorer in (score_prompts, dense_scores):
            store.zero_grads()
            tape = Tape()
            listwise_rank_loss(tape, scorer(tape, store, cfg, q, prompts), labels)
            tape.backward()
            grads.append({name: p.grad.copy() for name, p in store.items()})
        for name in store.names():
            scale = max(np.abs(grads[1][name]).max(), 1e-300)
            assert np.abs(grads[0][name] - grads[1][name]).max() <= 1e-12 * scale, name


def test_recording_pass_feeds_only_argmax_rows_to_first_layer(monkeypatch):
    cfg = RankerConfig(width=16, k_candidates=3)
    store = init_ranker_params(cfg, np.random.default_rng(70))
    w0 = store["score.l0.w"].value
    values_pass = []
    point_block = ranker_mod._point_block

    def block_spy(store, pts, segment):
        values_pass.append(len(pts))
        return point_block(store, pts, segment)

    monkeypatch.setattr(ranker_mod, "_point_block", block_spy)
    for q, prompts in sparse_cases():
        clouds = [(q, 0)] + [(pts, seg) for pair in prompts for pts, seg in zip(pair, (1, 2))]
        distinct = []
        for pts, segment in clouds:
            h = np.maximum(pts @ w0 + store["score.l0.b"].value + store["score.tags"].value[segment], 0.0)
            h = np.maximum(h @ store["score.l1.w"].value + store["score.l1.b"].value, 0.0)
            distinct.append(len(np.unique(np.argmax(h, axis=0))))
        for record in (True, False):
            tape = Tape(record=record)
            fed = []
            matmul = tape.matmul

            def spy(a, b):
                if b.value is w0:
                    fed.append(a.shape[0])
                return matmul(a, b)

            tape.matmul = spy
            values_pass.clear()
            score_prompts(tape, store, cfg, q, prompts)
            # both modes run each full cloud through the values pass exactly once
            assert values_pass == [len(pts) for pts, _ in clouds]
            if record:  # one recorded chain over the kept rows of every cloud
                assert len(fed) == 1
                assert len(clouds) <= fed[0] <= sum(distinct), (fed, distinct)
            else:  # inference records no first-layer product
                assert fed == []


def test_ranker_step_records_the_same_small_graph_for_any_k():
    cfg = RankerConfig(width=16, k_candidates=8)
    store = init_ranker_params(cfg, np.random.default_rng(71))
    rng = np.random.default_rng(72)
    q = rng.uniform(size=(32, 3))
    recorded = []
    for k in (2, 8):
        prompts = [(rng.uniform(size=(32, 3)), rng.uniform(size=(32, 3))) for _ in range(k)]
        tape = Tape()
        listwise_rank_loss(tape, score_prompts(tape, store, cfg, q, prompts), np.linspace(0.9, 0.1, k))
        recorded.append(len(tape.nodes))
    # no node is recorded per candidate: the point chain, one head and the loss
    assert recorded[0] == recorded[1] <= 40, recorded


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
    loss = listwise_rank_loss(tape, tape.const(np.array([0.7, 0.7])), [1.0, 0.0])
    assert abs(float(loss.value) - 0.5 * np.log(2.0)) <= 1e-12


def test_pairwise_loss_shift_invariance():
    rng = np.random.default_rng(11)
    scores = rng.normal(size=5)
    labels = rng.uniform(size=5)
    tape = Tape()
    base = float(listwise_rank_loss(tape, tape.const(scores), labels).value)
    for shift in (-3.0, 0.25, 10.0):
        tape = Tape()
        shifted = float(listwise_rank_loss(tape, tape.const(scores + shift), labels).value)
        assert abs(shifted - base) <= 1e-12


def test_ranking_loss_ordering_and_ties():
    labels = [0.9, 0.5, 0.1]
    tape = Tape()
    good = float(listwise_rank_loss(tape, tape.const(np.array([3.0, 2.0, 1.0])), labels).value)
    tape = Tape()
    bad = float(listwise_rank_loss(tape, tape.const(np.array([1.0, 2.0, 3.0])), labels).value)
    assert good < bad
    tape = Tape()
    tied = listwise_rank_loss(tape, tape.const(np.array([0.4, -1.2, 0.0])), [0.5, 0.5, 0.5])
    assert float(tied.value) == 0.0


def test_ranking_loss_argument_checks():
    tape = Tape()
    with pytest.raises(ValueError):
        listwise_rank_loss(tape, tape.const(np.array([1.0])), [0.5])
    tape = Tape()
    with pytest.raises(ValueError):
        listwise_rank_loss(tape, tape.const(np.array([1.0, 2.0])), [0.5, 0.1, 0.9])


def test_ranking_loss_takes_a_score_vector_node():
    rng = np.random.default_rng(12)
    scores, labels = rng.normal(size=4), rng.uniform(size=4)
    tape = Tape()
    from_vector = listwise_rank_loss(tape, tape.const(scores), labels)
    want = (np.logaddexp(0.0, scores[None, :] - scores[:, None]) * rank_weight_matrix(labels)).sum()
    assert float(from_vector.value) == pytest.approx(want, rel=1e-15)
    for bad in (np.float64(1.0), np.ones((4, 1)), np.ones((2, 2))):  # not a (K,) vector
        tape = Tape()
        with pytest.raises(ValueError):
            listwise_rank_loss(tape, tape.const(bad), labels)


def test_ranking_loss_gradient():
    store = ParamStore()
    store.add("s", np.array([0.3, -0.2, 0.8]))
    labels = [0.1, 0.9, 0.4]

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


def test_normalizer_orientation_and_clamping():
    norm = TaskNormalizer()
    norm.fit("denoising", [0.2, 0.4, 0.6])
    assert norm.to_label("denoising", 0.2) == pytest.approx(1.0, abs=0.0)
    assert norm.to_label("denoising", 0.6) == pytest.approx(0.0, abs=0.0)
    assert norm.to_label("denoising", 5.0) == 0.0  # clamped, lower is better
    assert norm.to_label("denoising", -5.0) == 1.0
    norm.fit("partseg", [0.1, 0.5])
    assert norm.to_label("partseg", 0.5) == pytest.approx(1.0, abs=0.0)
    assert norm.to_label("partseg", 0.1) == pytest.approx(0.0, abs=0.0)
    with pytest.raises(ValueError):
        norm.to_label("registration", 0.3)


def test_normalizer_degenerate_split_and_round_trip():
    norm = TaskNormalizer()
    norm.fit("denoising", [0.3, 0.3, 0.3])
    assert norm.to_label("denoising", 0.3) == pytest.approx(0.5, abs=1e-15)
    norm.fit("partseg", [0.0, 1.0])
    back = TaskNormalizer.from_dict(norm.to_dict())
    assert back.bounds == norm.bounds
    with pytest.raises(ValueError):
        norm.fit("denoising", [])


# ---- candidate pools ----

def test_candidate_pool_distinct_and_excluded():
    bank = make_bank(6)
    for draw in range(20):
        cand = build_candidate_pool(bank, "denoising", 4, np.random.default_rng(draw), exclude=2)
        assert len(np.unique(cand.indices)) == 4
        assert 2 not in cand.indices
        assert all(cand.prompts[i] is bank.for_task("denoising")[cand.indices[i]] for i in range(4))


def test_candidate_pool_k_bounds():
    bank = make_bank(6)
    with pytest.raises(ValueError):
        build_candidate_pool(bank, "denoising", 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        build_candidate_pool(bank, "denoising", 7, np.random.default_rng(0))
    with pytest.raises(ValueError):
        build_candidate_pool(bank, "denoising", 6, np.random.default_rng(0), exclude=1)
    build_candidate_pool(bank, "denoising", 6, np.random.default_rng(0))  # exact fit is fine


def test_select_pooled_ties_and_empty():
    bank = make_bank(5, s=12)
    store = init_ranker_params(CFG, np.random.default_rng(17))
    for name in store.names():
        store[name].value[...] = 0.0  # all candidates score exactly 0
    cand = build_candidate_pool(bank, "denoising", 3, np.random.default_rng(18))
    q = np.random.default_rng(19).uniform(size=(12, 3))
    assert select_pooled(store, CFG, q, [pool_prompt(store, p) for p in cand.prompts], cand) == 0
    assert np.array_equal(cand.scores, np.zeros(3))
    with pytest.raises(ValueError):
        select_pooled(store, CFG, q, [], CandidateSet([], np.empty(0, np.int64)))


def test_select_pooled_rejects_prompt_rows_that_do_not_match_the_candidates():
    cfg = RankerConfig(width=8, k_candidates=3)
    bank = make_bank(5, s=12)
    store = init_ranker_params(cfg, np.random.default_rng(26))
    cand = build_candidate_pool(bank, "denoising", 3, np.random.default_rng(27))
    q = np.random.default_rng(28).uniform(size=(12, 3))
    rows = np.array([pool_prompt(store, p) for p in cand.prompts])
    with pytest.raises(ValueError, match="prompt rows"):  # two candidates' rows for three candidates
        select_pooled(store, cfg, q, rows[:2], cand)
    narrow = init_ranker_params(RankerConfig(width=4), np.random.default_rng(29))
    with pytest.raises(ValueError, match="prompt rows"):  # width-4 rows for a width-8 ranker
        select_pooled(store, cfg, q, [pool_prompt(narrow, p) for p in cand.prompts], cand)
    with pytest.raises(ValueError, match="prompt rows"):  # one row per candidate, not two
        select_pooled(store, cfg, q, rows[:, 0], cand)
    assert cand.scores is None
    select_pooled(store, cfg, q, rows, cand)
    assert cand.scores.shape == (3,)


def test_select_pooled_exact_tie_goes_to_lowest_index():
    bank = make_bank(5, s=12)
    pool = bank.for_task("denoising")
    store = init_ranker_params(CFG, np.random.default_rng(24))
    rows = np.array([pool_prompt(store, p) for p in pool])
    q = np.random.default_rng(25).uniform(size=(12, 3))
    every = CandidateSet(list(pool), np.arange(len(pool)))
    best = select_pooled(store, CFG, q, rows, every)
    worst = int(np.argmin(every.scores))
    assert every.scores[best] > every.scores[worst]
    # the best prompt drawn twice, behind a worse one: the first copy wins
    idx = np.array([worst, best, best])
    cand = CandidateSet([pool[i] for i in idx], idx)
    assert select_pooled(store, CFG, q, rows[idx], cand) == 1
    assert cand.scores[1] == cand.scores[2] == every.scores[best]


def test_pooled_scores_match_single_scores():
    bank = make_bank(4, s=10)
    store = init_ranker_params(CFG, np.random.default_rng(20))
    cand = build_candidate_pool(bank, "denoising", 3, np.random.default_rng(21))
    q = np.random.default_rng(22).uniform(size=(10, 3))
    select_pooled(store, CFG, q, [pool_prompt(store, p) for p in cand.prompts], cand)
    graph_free = score_prompts(Tape(record=False), store, CFG, q,
                               [(p.input.points, p.target.points) for p in cand.prompts])
    for i, prompt in enumerate(cand.prompts):
        one = float(predict_score(Tape(), store, CFG, fuse(q, prompt)).value)
        assert cand.scores[i] == one == graph_free.value[i]


def test_bank_pooled_scores_equal_graph_free_scoring_bit_for_bit():
    cfg = RankerConfig(width=16, k_candidates=4)
    for seed, task in enumerate(TASKS):
        bank = PromptBank.from_pairs([gen_pair(task, 1 + i % 5, 32, 300 + 10 * seed + i) for i in range(7)])
        store = init_ranker_params(cfg, np.random.default_rng(80 + seed))
        rows = np.array([pool_prompt(store, p) for p in bank.for_task(task)])  # pooled once per bank
        for draw in range(4):
            rng = np.random.default_rng(90 + draw)
            cand = build_candidate_pool(bank, task, cfg.k_candidates, rng)
            q = gen_pair(task, 3, 32, 400 + draw).input.points
            pick = select_pooled(store, cfg, q, rows[cand.indices], cand)
            ref = score_prompts(Tape(record=False), store, cfg, q,
                                [(p.input.points, p.target.points) for p in cand.prompts]).value
            assert np.array_equal(cand.scores, ref)
            assert pick == int(np.argmax(ref))


# ---- persistence ----

def test_label_cache_round_trip(tmp_path):
    entries = {(0, 3): 0.25, (7, 1): -1.5, (2**40, 9): 1.0}
    path = tmp_path / "labels.micaslc"
    save_label_cache(entries, path)
    assert load_label_cache(path) == entries
    save_label_cache({}, path)
    assert load_label_cache(path) == {}


def test_label_cache_format_errors(tmp_path):
    path = tmp_path / "labels.micaslc"
    save_label_cache({(1, 2): 0.5}, path)
    blob = path.read_bytes()
    (tmp_path / "magic").write_bytes(b"XXXXXXXX" + blob[8:])
    with pytest.raises(FormatError):
        load_label_cache(tmp_path / "magic")
    (tmp_path / "short").write_bytes(blob[:-4])
    with pytest.raises(FormatError):
        load_label_cache(tmp_path / "short")
    (tmp_path / "long").write_bytes(blob + b"\x00")
    with pytest.raises(FormatError):
        load_label_cache(tmp_path / "long")


def test_ranker_checkpoint_round_trip(tmp_path):
    store = init_ranker_params(CFG, np.random.default_rng(23))
    norm = TaskNormalizer({"denoising": (0.1, 0.7), "partseg": (0.0, 1.0)})
    path = tmp_path / "ranker.micasnn"
    save_ranker(store, CFG, norm, path)
    back, cfg, norm_back = load_ranker(path)
    assert cfg == CFG
    assert norm_back.bounds == norm.bounds
    for name in store.names():
        assert np.array_equal(back[name].value, store[name].value)


def test_ranker_rejects_foreign_sidecar(tmp_path):
    path = tmp_path / "model.micasnn"
    save_sampler(ParamStore(), SamplerConfig(d1=4, d2=4, n_centers=2, width=4), path)
    with pytest.raises(ValueError):
        load_ranker(path)


def test_ranker_refuses_parameters_that_disagree_with_the_sidecar(tmp_path):
    norm = TaskNormalizer({"denoising": (0.1, 0.7)})
    path = tmp_path / "ranker.micasnn"
    narrow = RankerConfig(width=32, k_candidates=4)
    save_ranker(init_ranker_params(narrow, np.random.default_rng(0)), RankerConfig(width=64), norm, path)
    with pytest.raises(FormatError, match="score.l0.w"):
        load_ranker(path)

    store = init_ranker_params(CFG, np.random.default_rng(1))
    missing = ParamStore()
    for name, p in store.items():
        if name != "score.h0.b":
            missing.add(name, p.value)
    save_ranker(missing, CFG, norm, path)
    with pytest.raises(FormatError, match="score.h0.b"):
        load_ranker(path)

    save_ranker(store, CFG, norm, path)
    store.add("score.extra", np.zeros(2))
    save_params(store, path)
    with pytest.raises(FormatError, match="score.extra"):
        load_ranker(path)


def test_ranker_refuses_a_non_finite_parameter(tmp_path):
    store = init_ranker_params(CFG, np.random.default_rng(2))
    path = tmp_path / "ranker.micasnn"
    save_ranker(store, CFG, TaskNormalizer({"denoising": (0.1, 0.7)}), path)
    assert store.names()[-1] == "score.h1.b" and store["score.h1.b"].value.shape == (1,)
    blob = path.read_bytes()  # the last 8 bytes are score.h1.b's one value
    path.write_bytes(blob[:-8] + np.array([np.nan], dtype="<f8").tobytes())
    with pytest.raises(FormatError, match="score.h1.b"):
        load_ranker(path)
