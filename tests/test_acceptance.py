"""Acceptance gates for the sampling and ranking pipeline.

Each test prints one `criterion N: PASS/FAIL` line (straight to the
terminal, bypassing capture) and then asserts, so a plain `pytest` run
shows the scorecard. The heavyweight fixtures are module-scoped: one
trained desk run feeds criteria 7a/7b, a second full run feeds the
determinism check.
"""

import sys
import time
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import spearmanr

from micas import cli, pipeline
from micas.autodiff import Tape, finite_diff_check
from micas.config import desk_profile
from micas.geometry import chamfer_distance, fps_select
from micas.ranker import (
    build_candidate_pool,
    fuse,
    listwise_rank_loss,
    load_label_cache,
    load_ranker,
    predict_score,
    score_prompts,
    to_labels,
)
from micas.sampler import (
    SamplerConfig,
    gumbel_noise,
    init_sampler_params,
    load_sampler,
    sample_inference,
)
from micas.surrogate import OracleModel, SurrogateConfig, adaptive_centers_fn, init_surrogate_params
from micas.tasks import gen_pair, load_dataset


SCORECARD: list = []


def announce(tag: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {tag:>3}: {verdict}  {detail}"
    SCORECARD.append(line)
    print(line, file=sys.__stdout__, flush=True)


@pytest.fixture(scope="module")
def desk_cfg():
    return desk_profile(seed=0)


@pytest.fixture(scope="module")
def run_a(desk_cfg, tmp_path_factory):
    work = tmp_path_factory.mktemp("run-a")
    started = time.time()
    report = pipeline.full_run(desk_cfg, work)
    return SimpleNamespace(work=work, report=report, elapsed=time.time() - started)


@pytest.fixture(scope="module")
def run_b(desk_cfg, tmp_path_factory):
    work = tmp_path_factory.mktemp("run-b")
    started = time.time()
    report = pipeline.full_run(desk_cfg, work)
    return SimpleNamespace(work=work, report=report, elapsed=time.time() - started)


@pytest.fixture(scope="module")
def heldout_ranking(desk_cfg, run_a):
    """Scores and fresh pseudo-labels for every held-out (query, candidate)."""
    started = time.time()
    train_pairs = load_dataset(run_a.work / "data" / pipeline.TRAIN_DATASET)
    test_pairs = load_dataset(run_a.work / "data" / pipeline.TEST_DATASET)
    sampler_store, s_cfg = load_sampler(run_a.work / "artifacts" / pipeline.SAMPLER_CHECKPOINT)
    ranker_store, r_cfg = load_ranker(run_a.work / "artifacts" / pipeline.RANKER_CHECKPOINT)
    assert desk_cfg.k_candidates == 8 and r_cfg.width == desk_cfg.ranker_width
    train_raws = {}  # each task's training labels, the range held-out labels are normalized by
    for (qid, _), raw in load_label_cache(run_a.work / "artifacts" / pipeline.LABEL_CACHE).items():
        train_raws.setdefault(train_pairs[qid].task, []).append(raw)
    oracle = OracleModel(adaptive_centers_fn(sampler_store, s_cfg))
    per_query = []
    for qid, query in enumerate(test_pairs):
        rng = np.random.default_rng(pipeline.derive_seed(desk_cfg.seed, "eval-candidates", qid))
        pool = [i for i, pair in enumerate(train_pairs) if pair.task == query.task]
        prompts = [train_pairs[i] for i in build_candidate_pool(pool, desk_cfg.k_candidates, rng)]
        raws = []
        for k, prompt in enumerate(prompts):
            label_rng = np.random.default_rng(pipeline.derive_seed(desk_cfg.seed, "eval-label", qid, k))
            raws.append(pipeline.pseudo_label_raw(oracle, query, prompt, label_rng))
        labels = to_labels(query.task, raws, train_raws[query.task])
        scores = score_prompts(Tape(record=False), ranker_store, [query.input.points],
                               [[(p.input.points, p.target.points) for p in prompts]]).value[0]
        if qid == 0:  # the benchmark times one-prompt scoring, which must agree bit for bit
            single = [predict_score(Tape(), ranker_store, r_cfg, fuse(query.input.points, p)).value
                      for p in prompts]
            assert np.array_equal(scores, single)
        per_query.append((labels, scores))
    return SimpleNamespace(per_query=per_query, elapsed=time.time() - started)


def test_criterion_1_chamfer_matches_brute_force():
    rng = np.random.default_rng(0)
    started = time.time()
    worst = 0.0
    for _ in range(200):
        a = rng.uniform(-1.0, 2.0, size=(int(rng.integers(1, 129)), 3))
        b = rng.uniform(-1.0, 2.0, size=(int(rng.integers(1, 129)), 3))
        d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
        brute = d2.min(axis=1).mean() + d2.min(axis=0).mean()
        worst = max(worst, abs(chamfer_distance(a, b) - brute))
    elapsed = time.time() - started
    ok = worst <= 1e-9 and elapsed < 10.0
    announce("1", ok, f"max |kernel - brute| = {worst:.2e} (tol 1e-9), {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_2_fps_greedy_optimality():
    rng = np.random.default_rng(1)
    started = time.time()
    worst_gap = 0.0
    for _ in range(100):
        s = int(rng.integers(2, 65))
        n = int(rng.integers(2, min(s, 16) + 1))
        pts = rng.uniform(size=(s, 3))
        idx = fps_select(pts, n)
        assert len(set(idx.tolist())) == n
        for step in range(1, n):
            chosen = idx[:step]
            min_d2 = np.min(np.sum((pts[:, None, :] - pts[chosen][None, :, :]) ** 2, axis=2), axis=1)
            worst_gap = max(worst_gap, float(min_d2.max() - min_d2[idx[step]]))
    elapsed = time.time() - started
    ok = worst_gap <= 0.0 and elapsed < 10.0
    announce("2", ok, f"every pick attains the max min-distance (worst gap {worst_gap:.1e}), {elapsed:.1f}s")
    assert worst_gap <= 0.0
    assert elapsed < 10.0


def test_criterion_3_gumbel_argmax_statistics():
    started = time.time()
    rng = np.random.default_rng(2)
    weights = np.logaddexp(0.0, rng.normal(0.0, 1.5, size=8)) + 1e-6
    expected = np.exp(np.log(weights) - np.log(weights).max())
    expected /= expected.sum()
    draws = 100_000
    noise = gumbel_noise(rng, (draws, 8))
    picks = np.argmax(np.log(weights)[None, :] + noise, axis=1)
    freqs = np.bincount(picks, minlength=8) / draws
    linf = float(np.abs(freqs - expected).max())
    elapsed = time.time() - started
    ok = linf <= 0.01 and elapsed < 30.0
    announce("3", ok, f"L-inf(argmax freq, softmax(log w)) = {linf:.4f} over 1e5 draws (tol 0.01), {elapsed:.1f}s")
    assert linf <= 0.01
    assert elapsed < 30.0


def test_criterion_4_stochasticity_invariant(tmp_path, monkeypatch):
    cfg = desk_profile(seed=0, sampler_epochs=5)
    train_pairs, _ = pipeline.generate_pairs(cfg)
    worst = {"sum_dev": 0.0, "bbox_gap": 0.0, "steps": 0}
    item_loss = pipeline.item_loss

    def watch(*args, **kwargs):
        # every training item's forward pass; args[5] is its query, whose input the centers must stay inside
        res, loss, frozen = item_loss(*args, **kwargs)
        worst["sum_dev"] = max(worst["sum_dev"], float(np.abs(res.soft_query.value.sum(axis=0) - 1.0).max()))
        centers, points = res.centers_query.value, args[5].input.points
        lo, hi = points.min(axis=0), points.max(axis=0)
        gap = max(float((lo - centers).max()), float((centers - hi).max()))
        worst["bbox_gap"] = max(worst["bbox_gap"], gap)
        worst["steps"] += 1
        return res, loss, frozen

    monkeypatch.setattr(pipeline, "item_loss", watch)
    pipeline.train_sampler(cfg, train_pairs, tmp_path)
    ok = (worst["steps"] == 5 * len(train_pairs) and worst["sum_dev"] <= 1e-6
          and worst["bbox_gap"] <= 1e-9)
    announce("4", ok, f"{worst['steps']} steps, max |column sum - 1| = {worst['sum_dev']:.1e} "
                      f"(tol 1e-6), max bbox excursion = {worst['bbox_gap']:.1e}")
    assert worst["steps"] == 5 * len(train_pairs)
    assert worst["sum_dev"] <= 1e-6
    assert worst["bbox_gap"] <= 1e-9


@pytest.mark.slow
def test_criterion_5_end_to_end_gradient():
    started = time.time()
    s_cfg = SamplerConfig(d1=8, d2=8, n_centers=4, width=16, tau_start=1.0, tau_end=0.1, alpha=0.5)
    sur_cfg = SurrogateConfig(d1=8, m_neighbors=4, width=16)
    rng = np.random.default_rng(11)
    sampler = init_sampler_params(s_cfg, rng)
    surrogate = init_surrogate_params(sur_cfg, rng)
    query = gen_pair("denoising", 2, 16, 101)
    prompt = gen_pair("denoising", 2, 16, 202)
    noise = gumbel_noise(rng, (16, 4))
    _, _, frozen = pipeline.item_loss(sampler, surrogate, s_cfg, sur_cfg, 0.6, query, prompt,
                                      0.5, noise, mask_rng=np.random.default_rng(7))

    def loss_fn(_):
        res, _, _ = pipeline.item_loss(sampler, surrogate, s_cfg, sur_cfg, 0.6, query, prompt,
                                       0.5, noise, frozen=frozen)
        return res.tape

    err = max(finite_diff_check(loss_fn, sampler), finite_diff_check(loss_fn, surrogate))
    elapsed = time.time() - started
    scalars = sum(p.value.size for store in (sampler, surrogate) for _, p in store.items())
    ok = err <= 1e-3 and elapsed < 120.0
    announce("5", ok, f"max FD relative error = {err:.2e} over {scalars} scalars (tol 1e-3), {elapsed:.0f}s")
    assert err <= 1e-3
    assert elapsed < 120.0


@pytest.mark.slow
def test_criterion_6_trained_centers_avoid_outliers(tmp_path):
    started = time.time()
    cfg = desk_profile(seed=7)  # level 2 denoising corrupts 10% of points
    train = [gen_pair("denoising", 2, cfg.s_points, 10_000 + i) for i in range(40)]
    trained = pipeline.train_sampler(cfg, train, tmp_path)
    store, s_cfg = load_sampler(trained.sampler_path)
    prompt = train[0]
    near_flagged = near_total = fps_flagged = fps_total = 0
    for i in range(200):
        pair = gen_pair("denoising", 2, cfg.s_points, 50_000 + i)
        res = sample_inference(store, s_cfg, pair.input.points,
                               prompt.input.points, prompt.target.points)
        soft = res.soft_query.value
        near = soft.max(axis=0) >= pipeline.NEAR_HARD_THRESHOLD
        rows = soft.argmax(axis=0)[near]
        near_total += int(near.sum())
        near_flagged += int(pair.input.noise_mask[rows].sum())
        picks = fps_select(pair.input.points, cfg.n_centers)
        fps_total += len(picks)
        fps_flagged += int(pair.input.noise_mask[picks].sum())
    elapsed = time.time() - started
    adaptive_rate = near_flagged / near_total if near_total else float("nan")
    fps_rate = fps_flagged / fps_total
    ok = near_total > 0 and adaptive_rate <= 0.5 * fps_rate and elapsed <= 600.0
    announce("6", ok, f"near-hard outlier rate {adaptive_rate:.3f} ({near_flagged}/{near_total}) "
                      f"vs 0.5 x fps rate {0.5 * fps_rate:.3f}, {elapsed:.0f}s")
    assert near_total > 0
    assert adaptive_rate <= 0.5 * fps_rate
    assert elapsed <= 600.0


@pytest.mark.slow
def test_criterion_7a_heldout_spearman(heldout_ranking):
    all_scores = np.concatenate([scores for _, scores in heldout_ranking.per_query])
    all_labels = np.concatenate([labels for labels, _ in heldout_ranking.per_query])
    pooled = float(spearmanr(all_scores, all_labels).statistic)
    with warnings.catch_warnings():
        # a query where every candidate scores identically has no defined
        # rank correlation; such queries are dropped from the per-query mean
        warnings.simplefilter("ignore")
        per_query = [float(spearmanr(s, l).statistic) for l, s in heldout_ranking.per_query]
    per_query = [r for r in per_query if np.isfinite(r)]
    elapsed = heldout_ranking.elapsed
    ok = pooled >= 0.5 and elapsed <= 600.0
    announce("7a", ok, f"held-out Spearman rho = {pooled:.3f} pooled "
                       f"(per-query mean {np.mean(per_query):.3f}), need >= 0.5, {elapsed:.0f}s")
    assert pooled >= 0.5
    assert elapsed <= 600.0


@pytest.mark.slow
def test_criterion_7b_top1_margin(heldout_ranking):
    """The ranker's top-1 prompt beats a uniform pick by 10% of the label range
    that prompt choice can move.

    Selection acts only within one query's K candidates, so the bar is 10% of
    the mean within-query label range (max - min over a query's candidates).
    The range pooled over all queries is the wrong scale: labels are clamped
    to [0, 1], so once some label clamps at each end it is exactly 1.0, and
    most of it is spread between queries, which no choice of prompt moves.
    The label-optimal selector (argmax of the very labels scored) must clear
    the bar as well, so the bar is always one that some selector can meet.
    """
    top1, uniform, best, spans = [], [], [], []
    for labels, scores in heldout_ranking.per_query:
        top1.append(labels[int(np.argmax(scores))])
        uniform.append(labels.mean())  # exact expectation of a uniform pick
        best.append(labels.max())
        spans.append(labels.max() - labels.min())
    margin = float(np.mean(top1) - np.mean(uniform))
    optimal = float(np.mean(best) - np.mean(uniform))
    within_range = float(np.mean(spans))
    required = 0.1 * within_range
    detail = (f"label-optimal margin {optimal:.4f}, required {required:.4f} "
              f"(10% of mean within-query label range {within_range:.3f})")
    ok = margin >= required and optimal >= required
    announce("7b", ok, f"top-1 margin {margin:.4f}, {detail}")
    assert optimal >= required, f"no selector can meet the bar: {detail}"
    assert margin >= required, f"top-1 margin {margin:.4f} below the bar: {detail}"


def test_criterion_8_rank_loss_exactness():
    tape = Tape()
    pair_loss = listwise_rank_loss(tape, tape.const(np.array([[1.3, 1.3]])), [[0.9, 0.2]])
    exact_gap = abs(float(pair_loss.value) - 0.5 * np.log(2.0))
    rng = np.random.default_rng(3)
    scores = rng.normal(size=(1, 8))
    labels = rng.uniform(size=(1, 8))
    base_tape = Tape()
    base = float(listwise_rank_loss(base_tape, base_tape.const(scores), labels).value)
    shift_gap = 0.0
    for shift in (-5.0, 0.125, 42.0):
        tape = Tape()
        shifted = float(listwise_rank_loss(tape, tape.const(scores + shift), labels).value)
        shift_gap = max(shift_gap, abs(shifted - base))
    ok = exact_gap <= 1e-12 and shift_gap <= 1e-12
    announce("8", ok, f"|K=2 equal-score loss - ln(2)/2| = {exact_gap:.1e}, "
                      f"shift deviation = {shift_gap:.1e} (tol 1e-12)")
    assert exact_gap <= 1e-12
    assert shift_gap <= 1e-12


def test_criterion_9_stage_contract(tmp_path):
    cfg_file = tmp_path / "tiny.cfg"
    cfg_file.write_text(
        "s_points = 32\nn_centers = 4\nm_neighbors = 4\n"
        "d1 = 8\nd2 = 8\nsampler_width = 8\nsurrogate_width = 8\nranker_width = 8\n"
        "sampler_epochs = 2\nsampler_batch = 4\nranker_epochs = 2\nranker_batch = 4\n"
        "k_candidates = 3\ntrain_per_cell = 2\ntest_per_cell = 1\n")
    common = ["--config", str(cfg_file), "--out", str(tmp_path / "run")]
    assert cli.main(["gen-data", *common]) == 0
    refused = cli.main(["train-ranker", *common]) == 2
    assert cli.main(["train-sampler", *common]) == 0
    sampler_path = tmp_path / "run" / "artifacts" / pipeline.SAMPLER_CHECKPOINT
    sha_before = pipeline.file_sha256(sampler_path)
    assert cli.main(["train-ranker", *common]) == 0
    unchanged = pipeline.file_sha256(sampler_path) == sha_before
    ok = refused and unchanged
    announce("9", ok, f"refused without sampler: {refused}; checkpoint hash unchanged: {unchanged}")
    assert refused
    assert unchanged


@pytest.mark.slow
def test_criterion_10_full_determinism(run_a, run_b):
    same = pipeline.report_equal(run_a.report, run_b.report)
    json_a = pipeline.load_report(run_a.work / "eval" / "report.json")
    json_b = pipeline.load_report(run_b.work / "eval" / "report.json")
    same_files = pipeline.report_equal(json_a, json_b)
    # every dataset, checkpoint, sidecar, label cache and history is bitwise equal
    names = [sorted(p.relative_to(run.work) for stage in ("data", "artifacts")
                    for p in (run.work / stage).rglob("*") if p.is_file()) for run in (run_a, run_b)]
    differ = [str(name) for name in names[0] if (run_a.work / name).read_bytes() != (run_b.work / name).read_bytes()]
    same_bytes = names[0] == names[1] and not differ
    ok = same and same_files and same_bytes
    announce("10", ok, f"two desk runs identical: in-memory {same}, on-disk {same_files}; "
                       f"{len(names[0])} data and artifact files byte-identical {same_bytes} "
                       f"({run_a.elapsed:.0f}s + {run_b.elapsed:.0f}s)")
    assert same
    assert same_files
    assert names[0] == names[1]
    assert not differ, f"files differ between the two runs: {differ}"
