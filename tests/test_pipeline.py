"""Staged pipeline: data splits, training contracts, evaluation, CLI."""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import micas
from micas import cli, geometry, pipeline
from micas import sampler as sampler_mod
from micas import surrogate as sur_mod
from micas.autodiff import Tape, forward_mlp
from micas.config import (
    RunConfig,
    config_hash,
    config_text,
    desk_profile,
    load_config,
    parse_config_text,
)
from micas.errors import ConfigurationError, FormatError
from micas.ranker import (
    SEGMENT_PROMPT_IN,
    SEGMENT_PROMPT_OUT,
    SEGMENT_QUERY,
    build_candidate_pool,
    load_label_cache,
    load_ranker,
    raw_performance,
    save_label_cache,
    score_prompts,
)
from micas.sampler import gumbel_noise, init_sampler_params, load_sampler, sample, sample_inference
from micas.surrogate import OracleModel, init_surrogate_params, oracle_predict
from micas.tasks import TASKS, gen_pair, save_dataset

TINY = desk_profile(
    s_points=32, n_centers=4, m_neighbors=4,
    d1=8, d2=8, sampler_width=8, surrogate_width=8, ranker_width=8,
    sampler_epochs=2, sampler_batch=4, ranker_epochs=2, ranker_batch=4,
    k_candidates=3, train_per_cell=2, test_per_cell=1,
)

TINY_CONFIG_TEXT = """\
# small everything: fast end-to-end exercise
s_points = 32
n_centers = 4
m_neighbors = 4
d1 = 8
d2 = 8
sampler_width = 8
surrogate_width = 8
ranker_width = 8
sampler_epochs = 2
sampler_batch = 4
ranker_epochs = 2
ranker_batch = 4
k_candidates = 3
train_per_cell = 2
test_per_cell = 1
"""


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("tiny-run")
    train, test = pipeline.generate_pairs(TINY)
    trained = pipeline.train_sampler(TINY, train, work / "artifacts")
    ranked = pipeline.train_ranker(TINY, train, trained.sampler_path, work / "artifacts")
    return SimpleNamespace(work=work, train=train, test=test, trained=trained, ranked=ranked)


# ---- seeds and data ----

def test_derive_seed_is_stable_and_distinct():
    assert pipeline.derive_seed(0, "train", "denoising", 1, 0) == pipeline.derive_seed(
        0, "train", "denoising", 1, 0)
    seeds = {pipeline.derive_seed(0, part, i) for part in ("a", "b") for i in range(50)}
    assert len(seeds) == 100
    assert all(0 <= s < 2**64 for s in seeds)
    assert pipeline.derive_seed("a", "b") != pipeline.derive_seed("b", "a")


def test_generate_pairs_covers_every_cell():
    train, test = pipeline.generate_pairs(TINY)
    assert len(train) == len(TASKS) * 5 * TINY.train_per_cell
    assert len(test) == len(TASKS) * 5 * TINY.test_per_cell
    cells = {(p.task, p.level) for p in train}
    assert cells == {(task, level) for task in TASKS for level in range(1, 6)}
    again, _ = pipeline.generate_pairs(TINY)
    assert all(np.array_equal(a.input.points, b.input.points) for a, b in zip(train, again))
    train_seeds = {p.seed for p in train}
    assert len(train_seeds) == len(train)
    assert train_seeds.isdisjoint({p.seed for p in test})


# ---- per-item training tape ----

def test_item_loss_frozen_rebuild_is_bitwise():
    s_cfg, sur_cfg = pipeline.sampler_config(TINY), pipeline.surrogate_config(TINY)
    sampler_store = init_sampler_params(s_cfg, np.random.default_rng(0))
    surrogate_store = init_surrogate_params(sur_cfg, np.random.default_rng(1))
    query = gen_pair("reconstruction", 2, TINY.s_points, 10)
    prompt = gen_pair("reconstruction", 2, TINY.s_points, 11)
    noise = gumbel_noise(np.random.default_rng(2), (TINY.s_points, TINY.n_centers))
    res, loss, frozen = pipeline.item_loss(sampler_store, surrogate_store, s_cfg, sur_cfg,
                                           TINY.mask_ratio, query, prompt, 0.5, noise,
                                           mask_rng=np.random.default_rng(3))
    assert np.isfinite(loss.value)
    _, again, _ = pipeline.item_loss(sampler_store, surrogate_store, s_cfg, sur_cfg,
                                     TINY.mask_ratio, query, prompt, 0.5, noise, frozen=frozen)
    assert float(again.value) == float(loss.value)


def test_item_loss_context_is_the_visible_patches_mean_or_zeros():
    s_cfg, sur_cfg = pipeline.sampler_config(TINY), pipeline.surrogate_config(TINY)
    stores = (init_sampler_params(s_cfg, np.random.default_rng(0)),
              init_surrogate_params(sur_cfg, np.random.default_rng(1)))
    query = gen_pair("denoising", 3, TINY.s_points, 12)
    prompt = gen_pair("denoising", 3, TINY.s_points, 13)
    for ratio, n_hidden in ((TINY.mask_ratio, 2), (1.0, TINY.n_centers)):
        res, _, (hidden, gt_masked, context) = pipeline.item_loss(
            *stores, s_cfg, sur_cfg, ratio, query, prompt, 0.5, None, mask_rng=np.random.default_rng(3))
        expect = np.sort(np.random.default_rng(3).choice(TINY.n_centers, size=n_hidden, replace=False))
        assert np.array_equal(hidden, expect)
        centers = res.soft_query.value.T @ query.target.points
        patches = geometry.knn_patches(query.target.points, centers, sur_cfg.m_neighbors)
        assert np.array_equal(gt_masked, patches[hidden])
        visible = [i for i in range(TINY.n_centers) if i not in hidden]
        if visible:
            assert np.array_equal(context, patches[visible].reshape(-1, 3).mean(axis=0))
        else:
            assert np.array_equal(context, np.zeros(3))


def chamfer_node(tape, a, b):
    """The Chamfer divergence of node a (M, 3) and constant b (L, 3) from tape arithmetic.

    A kernel of its own: brute-force matches (the lowest index on ties),
    treated as constant, and each direction's mean squared distance as a
    flat row's product with its own transpose.
    """
    d2 = ((a.value[:, None] - b[None]) ** 2).sum(axis=-1)
    ab, ba = d2.argmin(axis=1), d2.argmin(axis=0)

    def mean_square(d):
        flat = tape.reshape(d, (1, d.value.size))
        return tape.scale(tape.reshape(tape.matmul(flat, tape.transpose(flat)), ()), 1.0 / len(d.value))

    node = tape.add(mean_square(tape.add_const(a, -b[ab])), mean_square(tape.add_const(tape.gather_rows(a, ba), -b)))
    assert abs(float(node.value) - geometry.chamfer_distance(a.value, b)) <= 1e-15 * float(node.value)
    return node


def per_patch_item_loss(sampler_store, surrogate_store, s_cfg, sur_cfg, query, prompt, tau,
                        noise, frozen):
    """item_loss built patch by patch: a gather/reshape/add chain and a
    `chamfer_node` for every masked patch and the coverage, the reference for
    the batched patch node."""
    hidden, gt_masked, context = frozen
    res = sample(sampler_store, query.input.points, prompt.input.points, prompt.target.points, tau, noise)
    tape = res.tape
    centers = tape.gather_rows(res.centers_query, hidden)
    k = centers.shape[0]
    rows = tape.concat_cols(centers, tape.tile_rows(res.task_feature, k))
    rows = tape.concat_cols(rows, tape.tile_rows(tape.const(context), k))
    offsets = tape.scale(tape.tanh(forward_mlp(tape, surrogate_store, "sur", rows)),
                         sur_mod.OFFSET_SPAN)
    per_patch = []
    for i in range(k):
        offset = tape.reshape(tape.gather_rows(offsets, [i]), (sur_cfg.m_neighbors, 3))
        anchor = tape.tile_rows(tape.reshape(tape.gather_rows(centers, [i]), (3,)), sur_cfg.m_neighbors)
        per_patch.append(chamfer_node(tape, tape.add(offset, anchor), gt_masked[i]))
    stacked = tape.reshape(per_patch[0], (1, 1))
    for patch in per_patch[1:]:
        stacked = tape.concat_cols(stacked, tape.reshape(patch, (1, 1)))
    recon = tape.mean_all(stacked)
    coverage = chamfer_node(tape, res.centers_query, query.input.points)
    return tape, tape.add(recon, tape.scale(coverage, s_cfg.alpha))


def test_item_loss_matches_per_patch_reference():
    s_cfg, sur_cfg = pipeline.sampler_config(TINY), pipeline.surrogate_config(TINY)
    stores = (init_sampler_params(s_cfg, np.random.default_rng(4)),
              init_surrogate_params(sur_cfg, np.random.default_rng(5)))

    def gradients(tape):
        for store in stores:
            store.zero_grads()
        tape.backward()
        return {name: p.grad.copy() for store in stores for name, p in store.items()}

    rng = np.random.default_rng(6)
    for i, task in enumerate(TASKS * 2):
        query = gen_pair(task, 1 + i % 5, TINY.s_points, 20 + i)
        prompt = gen_pair(task, 1 + i % 5, TINY.s_points, 40 + i)
        noise = gumbel_noise(rng, (TINY.s_points, TINY.n_centers))
        tau = (1.0, 0.3)[i % 2]
        res, loss, frozen = pipeline.item_loss(*stores, s_cfg, sur_cfg, TINY.mask_ratio, query,
                                               prompt, tau, noise, mask_rng=rng)
        got = gradients(res.tape)
        ref_tape, ref = per_patch_item_loss(*stores, s_cfg, sur_cfg, query, prompt, tau, noise, frozen)
        want = gradients(ref_tape)
        assert abs(float(loss.value) - float(ref.value)) <= 1e-14 * abs(float(ref.value))
        for name, grad in want.items():
            assert np.abs(got[name] - grad).max() <= 1e-12 * np.abs(grad).max(), name


def test_train_sampler_draws_query_and_prompt_noise_per_item(tmp_path, monkeypatch):
    # the prompt-sized draw is discarded, but it keeps the epoch's rng stream
    # (and so every later mask and prompt choice) where checkpoints expect it
    train, _ = pipeline.generate_pairs(TINY)
    draws = []

    def spy(rng, shape):
        draws.append(shape)
        return gumbel_noise(rng, shape)

    monkeypatch.setattr(pipeline, "gumbel_noise", spy)
    pipeline.train_sampler(TINY, train, tmp_path)
    items = TINY.sampler_epochs * len(train)
    assert len(draws) == 2 * items
    assert set(draws) == {(TINY.s_points, TINY.n_centers)}


def test_train_sampler_rejects_empty_mask(tmp_path):
    cfg = replace(TINY, mask_ratio=0.1)  # rint(0.1 * 4) == 0 hidden patches
    train, _ = pipeline.generate_pairs(cfg)
    with pytest.raises(ConfigurationError):
        pipeline.train_sampler(cfg, train, tmp_path / "never-written")
    assert not (tmp_path / "never-written").exists()


# ---- stage contracts ----

def test_sampler_training_artifacts(tiny_run):
    art = tiny_run.work / "artifacts"
    assert tiny_run.trained.sampler_path == art / "sampler.micasnn"
    assert (art / "sampler.micasnn.json").exists()
    meta = json.loads((art / "sampler_train.json").read_text())
    assert meta["config_sha256"] == config_hash(TINY)
    assert len(meta["history"]) == TINY.sampler_epochs
    assert all(np.isfinite(h["mean_loss"]) for h in meta["history"])
    store, s_cfg = load_sampler(tiny_run.trained.sampler_path)
    assert s_cfg.n_centers == TINY.n_centers


def test_ranker_requires_sampler_checkpoint(tmp_path):
    train, _ = pipeline.generate_pairs(TINY)
    with pytest.raises(ConfigurationError):
        pipeline.train_ranker(TINY, train, tmp_path / "missing.micasnn", tmp_path)


def test_ranker_refuses_a_sampler_trained_under_another_config(tiny_run, tmp_path):
    cfg = replace(TINY, n_centers=2, tau_end=0.5)  # the checkpoint has TINY's 4 and 0.1
    with pytest.raises(ConfigurationError,
                       match="the sampler checkpoint has n_centers = 4 but this run config gives n_centers = 2"):
        pipeline.train_ranker(cfg, tiny_run.train, tiny_run.trained.sampler_path, tmp_path)
    assert list(tmp_path.iterdir()) == []  # refused before the label pass


def test_k_candidates_bounded_by_a_training_querys_pool(tiny_run, tmp_path):
    # a training query draws from its task's 5 * train_per_cell pairs less itself
    pool = 5 * TINY.train_per_cell - 1
    with pytest.raises(ConfigurationError, match="k_candidates"):
        replace(TINY, k_candidates=pool + 1)
    cfg = replace(TINY, k_candidates=pool)
    ranked = pipeline.train_ranker(cfg, tiny_run.train, tiny_run.trained.sampler_path, tmp_path)
    assert len(load_label_cache(ranked.labels_path)) == len(tiny_run.train) * pool


def test_ranker_training_artifacts_and_hash_contract(tiny_run):
    art = tiny_run.work / "artifacts"
    assert tiny_run.ranked.ranker_path == art / "ranker.micasnn"
    assert tiny_run.ranked.labels_path == art / "labels.json"
    assert sorted(path.name for path in art.iterdir()) == [  # the label cache carries its provenance: no sidecar
        "labels.json", "ranker.micasnn", "ranker.micasnn.json", "ranker_train.json",
        "sampler.micasnn", "sampler.micasnn.json", "sampler_train.json"]
    assert tiny_run.ranked.sampler_sha256 == pipeline.file_sha256(art / "sampler.micasnn")
    meta = json.loads((art / "ranker_train.json").read_text())
    assert meta["sampler_sha256"] == meta["sampler_sha256_after"]
    assert len(meta["history"]) == TINY.ranker_epochs
    store, r_cfg = load_ranker(tiny_run.ranked.ranker_path)
    assert r_cfg.width == TINY.ranker_width
    # the label bounds live only in labels.json: the sidecar names the architecture alone
    assert json.loads((art / "ranker.micasnn.json").read_text()) == {"kind": "ranker", "width": TINY.ranker_width}


def test_label_cache_reused_and_load_bearing(tiny_run, tmp_path):
    art = tmp_path / "artifacts"
    shutil.copytree(tiny_run.work / "artifacts", art)
    cache_path = art / "labels.json"
    blob = cache_path.read_bytes()
    ranker_blob = (art / "ranker.micasnn").read_bytes()
    train, _ = pipeline.generate_pairs(TINY)

    (art / "ranker.micasnn").unlink()
    pipeline.train_ranker(TINY, train, art / "sampler.micasnn", art)
    assert cache_path.read_bytes() == blob  # every label came from the cache
    assert (art / "ranker.micasnn").read_bytes() == ranker_blob

    entries = load_label_cache(cache_path)
    key = sorted(entries)[0]
    entries[key] = entries[key] + 7.5  # a poisoned cache must change the outcome
    save_label_cache(entries, json.loads(blob)["provenance"], cache_path)
    pipeline.train_ranker(TINY, train, art / "sampler.micasnn", art)
    assert (art / "ranker.micasnn").read_bytes() != ranker_blob


def test_label_pass_encodes_each_candidate_pair_once(tiny_run, tmp_path, monkeypatch):
    encoded = []
    real = sampler_mod.encode_task

    def spy(tape, store, prompt_in_pts, prompt_out_pts):
        encoded.append(id(prompt_in_pts))
        return real(tape, store, prompt_in_pts, prompt_out_pts)

    monkeypatch.setattr(sampler_mod, "encode_task", spy)
    ranked = pipeline.train_ranker(TINY, tiny_run.train, tiny_run.trained.sampler_path, tmp_path)
    entries = load_label_cache(ranked.labels_path)
    assert sorted(encoded) == sorted({id(tiny_run.train[cid].input.points) for _, cid in entries})
    assert len(entries) > len(encoded)  # pairs are candidates of several queries
    assert ranked.labels_path.read_bytes() == tiny_run.ranked.labels_path.read_bytes()


def test_label_pass_encodes_each_query_cloud_once(tiny_run, tmp_path, monkeypatch):
    encoded = []
    real = sampler_mod.encode_points

    def spy(tape, store, pts):
        encoded.append(id(pts))
        return real(tape, store, pts)

    monkeypatch.setattr(sampler_mod, "encode_points", spy)
    ranked = pipeline.train_ranker(TINY, tiny_run.train, tiny_run.trained.sampler_path, tmp_path)
    assert encoded == [id(query.input.points) for query in tiny_run.train]  # not once per candidate
    assert ranked.labels_path.read_bytes() == tiny_run.ranked.labels_path.read_bytes()
    assert ranked.ranker_path.read_bytes() == tiny_run.ranked.ranker_path.read_bytes()


def test_label_cache_recomputed_after_sampler_retrain(tiny_run, tmp_path):
    # A sampler retrained into the run directory of an older one must not
    # inherit the labels computed with the older sampler.
    cfg = replace(TINY, sampler_epochs=3)
    reused = tmp_path / "reused"
    shutil.copytree(tiny_run.work / "artifacts", reused)
    old = load_label_cache(reused / "labels.json")
    pipeline.train_sampler(cfg, tiny_run.train, reused)
    pipeline.train_ranker(cfg, tiny_run.train, reused / "sampler.micasnn", reused)
    fresh = tmp_path / "fresh"
    pipeline.train_sampler(cfg, tiny_run.train, fresh)
    pipeline.train_ranker(cfg, tiny_run.train, fresh / "sampler.micasnn", fresh)

    labels = load_label_cache(reused / "labels.json")
    assert labels != old  # the retrained sampler moves the labels
    assert labels == load_label_cache(fresh / "labels.json")
    provenance = json.loads((reused / "labels.json").read_text())["provenance"]
    meta = json.loads((reused / "ranker_train.json").read_text())
    assert provenance["sampler_sha256"] == meta["sampler_sha256"]
    assert (reused / "labels.json").read_bytes() == (fresh / "labels.json").read_bytes()


def test_label_cache_recomputed_for_another_oracle(tiny_run, tmp_path, monkeypatch):
    # Labels cached under another label scheme or oracle must not be reused.
    art = tmp_path / "artifacts"
    shutil.copytree(tiny_run.work / "artifacts", art)
    cache_path = art / "labels.json"
    blob = cache_path.read_bytes()

    provenance = json.loads(blob)["provenance"]
    poisoned = {key: raw + 7.5 for key, raw in load_label_cache(cache_path).items()}
    save_label_cache(poisoned, {**provenance, "label_scheme": "another-scheme"}, cache_path)
    pipeline.train_ranker(TINY, tiny_run.train, art / "sampler.micasnn", art)
    assert cache_path.read_bytes() == blob  # every label recomputed, none moved

    gain = 2 * sur_mod.ORACLE_CENTER_GAIN
    monkeypatch.setattr(sur_mod, "ORACLE_CENTER_GAIN", gain)
    pipeline.train_ranker(TINY, tiny_run.train, art / "sampler.micasnn", art)
    fresh = pipeline.train_ranker(TINY, tiny_run.train, art / "sampler.micasnn", tmp_path / "fresh")
    assert blob != cache_path.read_bytes() == fresh.labels_path.read_bytes()
    assert json.loads(cache_path.read_text())["provenance"]["oracle"] == {
        "sigma0": sur_mod.ORACLE_SIGMA0, "center_gain": gain, "prompt_gain": sur_mod.ORACLE_PROMPT_GAIN}


def test_label_cache_cut_short_in_its_write_is_never_reused(tiny_run, tmp_path, monkeypatch):
    # Sampler A's labels are on disk; a run with sampler B stops partway
    # through rewriting the cache. A later run with sampler A must recompute
    # its labels, not take the remains for its own.
    art = tmp_path / "artifacts"
    shutil.copytree(tiny_run.work / "artifacts", art)
    other = pipeline.train_sampler(replace(TINY, sampler_epochs=3), tiny_run.train, tmp_path / "other")
    save = pipeline.save_label_cache

    def cut_short(entries, provenance, path):
        save(entries, provenance, path)
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])
        raise KeyboardInterrupt

    monkeypatch.setattr(pipeline, "save_label_cache", cut_short)
    with pytest.raises(KeyboardInterrupt):
        pipeline.train_ranker(TINY, tiny_run.train, other.sampler_path, art)
    with pytest.raises(FormatError, match="label cache is not JSON"):
        load_label_cache(art / "labels.json")  # what is left of sampler B's labels
    monkeypatch.setattr(pipeline, "save_label_cache", save)
    pipeline.train_ranker(TINY, tiny_run.train, art / "sampler.micasnn", art)
    assert (art / "labels.json").read_bytes() == tiny_run.ranked.labels_path.read_bytes()
    assert (art / "ranker.micasnn").read_bytes() == tiny_run.ranked.ranker_path.read_bytes()


# ---- pseudo-labels ----

def label_cases():
    """One (query, prompt) pair per task."""
    for i, task in enumerate(TASKS):
        query, prompt = gen_pair(task, 1 + i, 64, 200 + i), gen_pair(task, 2 + i, 64, 300 + i)
        yield query, prompt


def fixed_oracle():
    return OracleModel(lambda query_in_pts, prompt: query_in_pts[::8])


def test_pseudo_label_equals_loop_of_single_draws():
    oracle = fixed_oracle()
    for seed, (query, prompt) in enumerate(label_cases()):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        centers = oracle.centers_fn(query.input.points, prompt)
        vals = [raw_performance(query.task,
                                oracle_predict(query.input.points, query.target.points,
                                               prompt.input.points, centers, ref_rng),
                                query)[0] for _ in range(pipeline.LABEL_DRAWS)]
        assert pipeline.pseudo_label_raw(oracle, query, prompt, rng) == float(np.mean(vals))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_pseudo_label_computes_one_oracle_sigma(monkeypatch):
    calls = []
    real = sur_mod.oracle_sigma

    def counting_sigma(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(sur_mod, "oracle_sigma", counting_sigma)
    oracle = fixed_oracle()
    for query, prompt in label_cases():
        before = len(calls)
        pipeline.pseudo_label_raw(oracle, query, prompt, np.random.default_rng(0))
        assert len(calls) - before == 1, query.task


# ---- evaluation ----

def test_evaluate_variant_validation(tiny_run):
    with pytest.raises(ConfigurationError):
        pipeline.evaluate(TINY, tiny_run.test, tiny_run.train, sampler_variant="best")
    with pytest.raises(ConfigurationError):
        pipeline.evaluate(TINY, tiny_run.test, tiny_run.train, prompt_variant="oracle")
    with pytest.raises(ConfigurationError):
        pipeline.evaluate(TINY, tiny_run.test, tiny_run.train,
                          sampler_variant="adaptive", prompt_variant="random")
    with pytest.raises(ConfigurationError):
        pipeline.evaluate(TINY, tiny_run.test, tiny_run.train,
                          sampler_variant="fps", prompt_variant="ranked")
    # a test query whose task has no train prompts to draw from
    no_registration = [pair for pair in tiny_run.train if pair.task != "registration"]
    with pytest.raises(ValueError, match="'registration'"):
        pipeline.evaluate(TINY, tiny_run.test, no_registration, sampler_variant="fps", prompt_variant="random")


def test_evaluate_refuses_checkpoints_trained_under_another_config(tiny_run):
    sampler_art = load_sampler(tiny_run.trained.sampler_path)
    ranker_art = load_ranker(tiny_run.ranked.ranker_path)
    for cfg, cell, message in (
            (replace(TINY, n_centers=2, tau_end=0.5), ("adaptive", "random"),
             "the sampler checkpoint has n_centers = 4 but this run config gives n_centers = 2"),
            (replace(TINY, tau_end=0.5), ("adaptive", "ranked"),
             "the sampler checkpoint has tau_end = 0.1 but this run config gives tau_end = 0.5"),
            (replace(TINY, ranker_width=16), ("fps", "ranked"),
             "the ranker checkpoint has width = 8 but this run config gives width = 16")):
        with pytest.raises(ConfigurationError, match=message):
            pipeline.evaluate(cfg, tiny_run.test, tiny_run.train, sampler_art, ranker_art, *cell)


def test_evaluate_report_structure_and_baselines(tiny_run):
    report = pipeline.evaluate(TINY, tiny_run.test, tiny_run.train,
                               sampler_variant="fps", prompt_variant="random")
    assert report["schema"] == pipeline.REPORT_SCHEMA
    assert report["config_sha256"] == config_hash(TINY)
    assert set(report["cells"]) == set(TASKS)
    for task, levels in report["cells"].items():
        assert set(levels) == {"1", "2", "3", "4", "5"}
        for cell in levels.values():
            assert cell["count"] == TINY.test_per_cell
            expected = "miou" if task == "partseg" else "cd_x1000"
            assert cell["metric"] == expected
    # fps centers on denoising queries are graded for outlier hits
    assert report["denoising_outlier_centers"]["total"] == 5 * TINY.n_centers
    again = pipeline.evaluate(TINY, tiny_run.test, tiny_run.train,
                              sampler_variant="fps", prompt_variant="random")
    assert pipeline.report_equal(report, again)


def reference_cells(cfg, test, train, sampler_art, ranker_art, sampler_variant, prompt_variant):
    """Cells and outlier counts of a per-query loop that scores and samples every prompt afresh."""
    rows, hits, total = [], 0, 0
    for query_id, query in enumerate(test):
        rng = np.random.default_rng(np.uint64(cfg.seed) ^ np.uint64(query_id))
        pool = [i for i, pair in enumerate(train) if pair.task == query.task]
        cands = [train[i] for i in build_candidate_pool(pool, cfg.k_candidates, rng)]
        if prompt_variant == "ranked":
            store, r_cfg = ranker_art
            scores = score_prompts(Tape(record=False), store, [query.input.points],
                                   [[(p.input.points, p.target.points) for p in cands]]).value[0]
            pick = int(np.argmax(scores))
        else:
            pick = int(rng.integers(len(cands)))
        prompt = cands[pick]
        if sampler_variant == "adaptive":
            res = sample_inference(*sampler_art, query.input.points, prompt.input.points, prompt.target.points)
            soft = res.soft_query.value
            centers = res.centers_query.value
            near = soft.max(axis=0) >= pipeline.NEAR_HARD_THRESHOLD
            chosen = soft.argmax(axis=0)[near]
        else:
            chosen = geometry.fps_select(query.input.points, cfg.n_centers)
            centers = query.input.points[chosen]
        predicted = oracle_predict(query.input.points, query.target.points, prompt.input.points, centers, rng)
        raw = float(raw_performance(query.task, predicted, query)[0])
        rows.append((query.task, query.level, raw if query.task == "partseg" else raw * 1000.0))
        if query.task == "denoising":
            hits += int(query.input.noise_mask[chosen].sum())
            total += len(chosen)
    cells = {}
    for task in sorted({task for task, _, _ in rows}):
        cells[task] = {}
        for level in range(1, 6):
            values = [v for t, lvl, v in rows if t == task and lvl == level]
            if values:
                cells[task][str(level)] = {"metric": "miou" if task == "partseg" else "cd_x1000",
                                           "mean": float(np.mean(values)), "count": len(values),
                                           "values": values}
    return cells, hits, total


@pytest.mark.parametrize("sampler_variant", pipeline.SAMPLER_VARIANTS)
@pytest.mark.parametrize("prompt_variant", pipeline.PROMPT_VARIANTS)
def test_evaluate_equals_a_per_query_reference_loop(tiny_run, sampler_variant, prompt_variant):
    sampler_art = load_sampler(tiny_run.trained.sampler_path)
    ranker_art = load_ranker(tiny_run.ranked.ranker_path)
    cfg = replace(TINY, k_candidates=4)  # four of a task's ten train prompts per query
    test = tiny_run.test + [gen_pair(task, 2, TINY.s_points, 900 + i) for i, task in enumerate(TASKS)]
    report = pipeline.evaluate(cfg, test, tiny_run.train, sampler_art, ranker_art,
                               sampler_variant, prompt_variant)
    cells, hits, total = reference_cells(cfg, test, tiny_run.train, sampler_art, ranker_art,
                                         sampler_variant, prompt_variant)
    assert report["cells"] == cells
    assert (report["denoising_outlier_centers"]["hits"], report["denoising_outlier_centers"]["total"]) \
        == (hits, total)


def test_evaluate_pools_and_encodes_each_bank_prompt_once(tiny_run, monkeypatch, spy_values_pass):
    # the values pass sees each tagged block, a fresh array, so match by value: xyz, then the one-hot segment
    pooled = spy_values_pass("score.point", lambda x: (x[:, :3].tobytes(), int(np.argmax(x[0, 3:]))))
    encoded, drawn, oracle_prompts = [], [], []
    encode_task = sampler_mod.encode_task
    build_candidate_pool, oracle = pipeline.build_candidate_pool, pipeline.oracle_predict

    def encode_spy(tape, store, p_in, p_out):
        encoded.append((p_in, p_out))
        return encode_task(tape, store, p_in, p_out)

    def draw_spy(*args, **kwargs):
        drawn.append(build_candidate_pool(*args, **kwargs))
        return drawn[-1]

    def oracle_spy(query_in, query_target, prompt_in, *args):
        oracle_prompts.append(prompt_in)
        return oracle(query_in, query_target, prompt_in, *args)

    monkeypatch.setattr(sampler_mod, "encode_task", encode_spy)
    monkeypatch.setattr(pipeline, "build_candidate_pool", draw_spy)
    monkeypatch.setattr(pipeline, "oracle_predict", oracle_spy)
    sampler_art = load_sampler(tiny_run.trained.sampler_path)
    ranker_art = load_ranker(tiny_run.ranked.ranker_path)
    cfg = replace(TINY, k_candidates=2)
    test = tiny_run.test
    for _ in range(2):  # the counts hold per call, not per process
        pooled.clear(), encoded.clear(), drawn.clear(), oracle_prompts.clear()
        pipeline.evaluate(cfg, test, tiny_run.train, sampler_art, ranker_art, "adaptive", "ranked")
        used = [pair for i, pair in enumerate(tiny_run.train) if any(i in ids for ids in drawn)]
        picked = {id(prompt_in) for prompt_in in oracle_prompts}
        # some train prompt is never drawn, and some is drawn by more than one query
        assert len(used) < len(tiny_run.train) and len(used) < cfg.k_candidates * len(test)
        # each drawn train cloud and each query cloud runs through the point stack once
        expected = [(pair.input.points.tobytes(), SEGMENT_PROMPT_IN) for pair in used]
        expected += [(pair.target.points.tobytes(), SEGMENT_PROMPT_OUT) for pair in used]
        expected += [(query.input.points.tobytes(), SEGMENT_QUERY) for query in test]
        assert sorted(pooled) == sorted(expected)
        for pair in tiny_run.train:
            assert sum(p_in is pair.input.points and p_out is pair.target.points
                       for p_in, p_out in encoded) == int(id(pair.input.points) in picked)
        assert len(encoded) == len(picked) < len(test)
    pooled.clear(), encoded.clear()
    pipeline.evaluate(TINY, tiny_run.test, tiny_run.train, None, None, "fps", "random")
    assert pooled == [] and encoded == []


def test_evaluate_ranks_each_task_in_one_call_and_breaks_exact_ties_to_the_lowest_index(tiny_run, monkeypatch):
    calls, drawn, oracle_prompts = [], [], []
    build_candidate_pool, oracle = pipeline.build_candidate_pool, pipeline.oracle_predict

    def tied_scores(tape, store, queries, prompts):
        # candidates 1 and 2 tie exactly for the top score of every query
        calls.append(queries)
        return tape.const(np.tile([0.0, 1.0, 1.0], (len(queries), 1)))

    def draw_spy(*args, **kwargs):
        drawn.append(build_candidate_pool(*args, **kwargs))
        return drawn[-1]

    def oracle_spy(query_in, query_target, prompt_in, *args):
        oracle_prompts.append(prompt_in)
        return oracle(query_in, query_target, prompt_in, *args)

    monkeypatch.setattr(pipeline, "score_prompts", tied_scores)
    monkeypatch.setattr(pipeline, "build_candidate_pool", draw_spy)
    monkeypatch.setattr(pipeline, "oracle_predict", oracle_spy)
    ranker_art = load_ranker(tiny_run.ranked.ranker_path)
    assert TINY.k_candidates == 3
    pipeline.evaluate(TINY, tiny_run.test, tiny_run.train, None, ranker_art, "fps", "ranked")
    call_tasks = [{query.task for query in tiny_run.test if any(query.input.points is q for q in queries)}
                  for queries in calls]
    assert sorted(map(sorted, call_tasks)) == [[task] for task in sorted(TASKS)]  # one call per task
    assert sum(len(queries) for queries in calls) == len(oracle_prompts) == len(tiny_run.test)
    assert all(prompt_in is tiny_run.train[ids[1]].input.points for prompt_in, ids in zip(oracle_prompts, drawn))


def test_write_and_reload_report(tiny_run, tmp_path):
    report = pipeline.evaluate(TINY, tiny_run.test, tiny_run.train,
                               sampler_variant="fps", prompt_variant="random")
    json_path, csv_path = pipeline.write_report(report, tmp_path)
    assert pipeline.report_equal(pipeline.load_report(json_path), report)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "task,level,metric,mean,count"
    assert len(lines) == 1 + len(TASKS) * 5


def test_report_equal_semantics():
    base = {"schema": "x", "cells": {"a": [1.0, 2.0]}, "wall_time_seconds": 1.0,
            "generated_unix": 5.0}
    other = json.loads(json.dumps(base))
    other["wall_time_seconds"] = 99.0
    other["generated_unix"] = 0.0
    assert pipeline.report_equal(base, other)
    other["cells"]["a"][1] = 2.0 + 1e-15  # one rounding step off is a different report
    assert not pipeline.report_equal(base, other)
    assert not pipeline.report_equal(base, {"schema": "x"})


# ---- configuration ----

def test_parse_config_overrides_and_comments():
    cfg = parse_config_text("s_points = 64  # inline\n\n# full line\ntau_start = 0.8\n")
    assert cfg == desk_profile(s_points=64, tau_start=0.8)
    assert parse_config_text("seed = 9\n") == desk_profile(seed=9)


def test_config_text_round_trips():
    # every field off its default, float rates with a short decimal form included
    changed = RunConfig(
        seed=2**64 - 1, s_points=128, n_centers=8, m_neighbors=12, d1=32, d2=48, sampler_width=40,
        surrogate_width=24, ranker_width=16, tau_start=0.9, tau_end=0.15, alpha=0.25, mask_ratio=0.3,
        sampler_epochs=7, sampler_batch=3, sampler_lr0=0.015, sampler_lr_min=1e-05, ranker_epochs=5,
        ranker_batch=2, ranker_lr0=0.07, ranker_lr_min=0.003, k_candidates=5, train_per_cell=3, test_per_cell=2)
    assert all(getattr(changed, name) != value for name, value in asdict(desk_profile()).items())
    for cfg in (desk_profile(), changed):
        assert parse_config_text(config_text(cfg)) == cfg


def test_parse_config_rejections():
    with pytest.raises(ConfigurationError):
        parse_config_text("unknown_key = 3\n")
    with pytest.raises(ConfigurationError):
        parse_config_text("just words\n")
    with pytest.raises(ConfigurationError):
        parse_config_text("s_points = many\n")
    with pytest.raises(ConfigurationError, match=r"line 3: 'seed' is already set on line 1"):
        parse_config_text("seed = 3\n# the same key again\nseed = 5\n")


def test_config_validation_errors():
    with pytest.raises(ConfigurationError):
        RunConfig(n_centers=512, s_points=256)
    with pytest.raises(ConfigurationError):
        RunConfig(tau_start=0.1, tau_end=0.5)
    with pytest.raises(ConfigurationError):
        RunConfig(seed=-1)
    with pytest.raises(ConfigurationError):
        RunConfig(k_candidates=11, train_per_cell=2)
    with pytest.raises(ConfigurationError, match="k_candidates must be at least 2"):
        RunConfig(k_candidates=1)
    with pytest.raises(ConfigurationError):
        RunConfig(sampler_lr0=0.01, sampler_lr_min=0.1)
    with pytest.raises(ConfigurationError, match="line 1: unknown setting 'profile'"):
        parse_config_text("profile = desk\n")
    for name in ("sampler_epochs", "ranker_epochs"):
        with pytest.raises(ConfigurationError, match=name):
            RunConfig(**{name: 1})


def test_config_rejects_non_finite_settings():
    for key, value in (("alpha", "nan"), ("alpha", "inf"), ("sampler_lr0", "inf"), ("tau_start", "inf"),
                       ("tau_end", "-inf"), ("ranker_lr_min", "nan"), ("mask_ratio", "nan")):
        with pytest.raises(ConfigurationError, match=f"{key} must be finite"):
            parse_config_text(f"{key} = {value}\n")
        with pytest.raises(ConfigurationError, match=f"{key} must be finite"):
            RunConfig(**{key: float(value)})


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("`--config FILE`", 1)[1].split("```\n", 2)[1]
    cfg = parse_config_text(example)
    for line in example.splitlines():
        key, _, value = (part.strip() for part in line.partition("="))
        assert str(getattr(cfg, key)) == value


def test_config_hash_sensitivity(tmp_path):
    base = desk_profile()
    assert config_hash(base) == config_hash(desk_profile())
    assert config_hash(base) != config_hash(replace(base, seed=1))
    assert config_hash(base) != config_hash(replace(base, alpha=base.alpha + 1e-9))
    path = tmp_path / "run.cfg"
    path.write_text(TINY_CONFIG_TEXT)
    assert load_config(path) == TINY
    assert f"s_points = {TINY.s_points}" in config_text(TINY)


# ---- command line ----

def test_cli_pipeline_end_to_end(tmp_path, capsys):
    cfg_file = tmp_path / "tiny.cfg"
    cfg_file.write_text(TINY_CONFIG_TEXT)
    out = str(tmp_path / "run")
    common = ["--config", str(cfg_file), "--out", out]

    assert cli.main(["gen-data", *common]) == 0
    assert cli.main(["train-ranker", *common]) == 2  # stage order enforced
    assert "error:" in capsys.readouterr().err
    assert cli.main(["train-sampler", *common]) == 0
    assert cli.main(["train-ranker", *common]) == 0
    assert "unchanged" in capsys.readouterr().out
    run = tmp_path / "run"
    provenance = json.loads((run / "artifacts" / "labels.json").read_text())["provenance"]
    assert provenance["train_sha256"] == pipeline.file_sha256(run / "data" / "train.micasds")

    assert cli.main(["eval", *common, "--ablation", "fps,random"]) == 0
    report_path = tmp_path / "run" / "eval-fps-random" / "report.json"
    assert report_path.exists()
    assert cli.main(["eval", *common, "--ablation", "adaptive,ranked"]) == 0
    assert (tmp_path / "run" / "eval-adaptive-ranked" / "report.csv").exists()
    capsys.readouterr()

    assert cli.main(["report", str(report_path)]) == 0
    top = capsys.readouterr().out
    assert "sampling=fps" in top and "denoising" in top
    for not_a_report in ("ranker.micasnn", "ranker.micasnn.json"):
        path = str(tmp_path / "run" / "artifacts" / not_a_report)
        assert cli.main(["report", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and path in err

    assert cli.main(["eval", *common, "--ablation", "fps,oracle"]) == 2
    assert cli.main(["eval", "--out", str(tmp_path / "nowhere"), "--ablation", "fps,random"]) == 2
    assert cli.main(["gen-data", "--config", str(tmp_path / "absent.cfg")]) == 2
    capsys.readouterr()
    for file_system_error in (["report", str(tmp_path)], ["gen-data", "--config", str(tmp_path), "--out", out],
                              ["gen-data", "--out", str(cfg_file)]):
        assert cli.main(file_system_error) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_cli_path_flags_spread_a_run_over_three_directories(tmp_path):
    cfg_file = tmp_path / "tiny.cfg"
    cfg_file.write_text(TINY_CONFIG_TEXT)
    config = ["--config", str(cfg_file)]
    a, b, c, d = (tmp_path / name for name in "abcd")
    data = ["--data", str(a / "data")]
    sampler = ["--sampler", str(b / "artifacts" / pipeline.SAMPLER_CHECKPOINT)]
    ranker = ["--ranker", str(c / "artifacts" / pipeline.RANKER_CHECKPOINT)]

    def written(run):
        return sorted(str(path.relative_to(run)) for path in run.rglob("*") if path.is_file())

    assert cli.main(["gen-data", *config, "--out", str(a)]) == 0
    assert written(a) == ["data/test.micasds", "data/train.micasds"]
    assert cli.main(["train-sampler", *config, *data, "--out", str(b)]) == 0
    assert written(b) == ["artifacts/sampler.micasnn", "artifacts/sampler.micasnn.json", "artifacts/sampler_train.json"]
    assert cli.main(["train-ranker", *config, *data, *sampler, "--out", str(c)]) == 0
    assert written(c) == ["artifacts/labels.json", "artifacts/ranker.micasnn", "artifacts/ranker.micasnn.json",
                          "artifacts/ranker_train.json"]
    # an eval directory of its own holds no data or checkpoint, so eval reads every input through its flags
    assert cli.main(["eval", *config, *data, *sampler, *ranker, "--out", str(d)]) == 0
    assert written(d) == ["eval-adaptive-ranked/report.csv", "eval-adaptive-ranked/report.json"]


def test_cli_stages_refuse_a_train_split_too_small_for_k_candidates(tmp_path, capsys):
    small = tmp_path / "small.cfg"
    small.write_text(TINY_CONFIG_TEXT.replace("train_per_cell = 2", "train_per_cell = 1"))
    out = ["--out", str(tmp_path / "run")]
    assert cli.main(["gen-data", "--config", str(small), *out]) == 0
    assert cli.main(["train-sampler", "--config", str(small), *out]) == 0
    capsys.readouterr()
    # under the desk defaults, k_candidates = 8 and train_per_cell = 6
    for stage, prompts in ((["train-ranker"], 4), (["eval", "--ablation", "fps,random"], 5)):
        assert cli.main([*stage, *out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: k_candidates = 8 exceeds the {prompts} prompts a 'denoising' query")
        assert "train_per_cell than this config's 6" in err


def test_cli_stages_refuse_a_split_of_another_s_points(tmp_path, capsys):
    def config(points):
        path = tmp_path / f"{points}.cfg"
        path.write_text(TINY_CONFIG_TEXT.replace("s_points = 32", f"s_points = {points}"))
        return ["--config", str(path)]

    def refused(split, points, s_points):
        return (f"error: pair 0 of the {split} split holds a {points}-point cloud, but this config's s_points is "
                f"{s_points}; was the split generated under another s_points?\n")

    # 12-point clouds under the desk defaults, whose 16-point patches no such cloud can fill
    small = ["--out", str(tmp_path / "small")]
    assert cli.main(["gen-data", *config(12), *small]) == 0
    capsys.readouterr()
    assert cli.main(["train-sampler", *small]) == 2
    assert capsys.readouterr().err == refused("train", 12, 256)
    # 64-point clouds under a 256-point config that every stage could otherwise run under
    out = ["--out", str(tmp_path / "run")]
    assert cli.main(["gen-data", *config(64), *out]) == 0
    capsys.readouterr()
    for stage in (["train-sampler"], ["train-ranker"], ["eval", "--ablation", "fps,random"]):
        assert cli.main([*stage, *config(256), *out]) == 2
        assert capsys.readouterr().err == refused("train", 64, 256)
    # a test split of another size than its train split
    shutil.copy(tmp_path / "small" / "data" / pipeline.TEST_DATASET, tmp_path / "run" / "data")
    assert cli.main(["eval", *config(64), *out, "--ablation", "fps,random"]) == 2
    assert capsys.readouterr().err == refused("test", 12, 64)


def test_cli_stages_refuse_an_empty_train_split(tmp_path, capsys):
    cfg_file = tmp_path / "tiny.cfg"
    cfg_file.write_text(TINY_CONFIG_TEXT)
    run = tmp_path / "run"
    common = ["--config", str(cfg_file), "--out", str(run)]
    assert cli.main(["gen-data", *common]) == 0
    save_dataset([], run / "data" / pipeline.TRAIN_DATASET)
    capsys.readouterr()
    for stage in (["train-sampler"], ["train-ranker"], ["eval", "--ablation", "fps,random"]):
        assert cli.main([*stage, *common]) == 2
        assert capsys.readouterr().err == "error: the train split holds no pairs\n"


def test_cli_config_is_the_file_else_desk_and_seed_overrides_it(tmp_path, capsys):
    tiny = tmp_path / "tiny.cfg"
    tiny.write_text(TINY_CONFIG_TEXT)

    def build(*argv):
        return cli._build_config(cli.build_parser().parse_args(["gen-data", *argv]))

    assert build() == desk_profile()
    assert build("--seed", "5") == desk_profile(seed=5)
    assert build("--config", str(tiny)) == TINY
    assert build("--config", str(tiny), "--seed", "5") == replace(TINY, seed=5)
    with pytest.raises(SystemExit) as refused:
        cli.main(["gen-data", "--profile", "paper", "--out", str(tmp_path / "run")])
    assert refused.value.code == 2
    assert "unrecognized arguments: --profile paper" in capsys.readouterr().err


def test_cli_report_refuses_a_report_that_lacks_a_field(tmp_path, capsys):
    path = tmp_path / "report.json"
    report = {"schema": pipeline.REPORT_SCHEMA}
    for field, value in (("sampler_variant", "fps"), ("prompt_variant", "random"), ("seed", 0),
                         ("cells", {}), ("tasks", {})):
        path.write_text(json.dumps(report))
        assert cli.main(["report", str(path)]) == 2
        assert capsys.readouterr().err == f"error: report {path} lacks field {field!r}\n"
        report[field] = value
    path.write_text(json.dumps(report))
    assert cli.main(["report", str(path)]) == 0
    assert capsys.readouterr().out.startswith("variant: sampling=fps prompting=random seed=0\n")
    # a report written while reports still named a profile loads as it is
    path.write_text(json.dumps({**report, "profile": "desk"}))
    assert cli.main(["report", str(path)]) == 0
    assert capsys.readouterr().out.startswith("variant: sampling=fps prompting=random seed=0\n")
    for edit, message in (
            ({"cells": {"denoising": {"2": {}}}}, "task 'denoising' level 2 lacks field 'metric'"),
            ({"cells": {"denoising": {"2": {"metric": "cd_x1000", "count": 3}}}},
             "task 'denoising' level 2 lacks field 'mean'"),
            ({"cells": {"denoising": {"2": {"metric": "cd_x1000", "mean": 0.9}}}},
             "task 'denoising' level 2 lacks field 'count'"),
            ({"cells": {"denoising": []}}, "task 'denoising' cells is not an object"),
            ({"cells": []}, "cells is not an object"),
            ({"tasks": {"partseg": {"metric": "miou"}}}, "task 'partseg' level all lacks field 'mean'"),
            ({"tasks": {"partseg": {"mean": 0.97}}}, "task 'partseg' level all lacks field 'metric'"),
            ({"tasks": {"partseg": 0.97}}, "task 'partseg' level all is not an object"),
            ({"denoising_outlier_centers": None}, "denoising_outlier_centers is not an object"),
            ({"denoising_outlier_centers": {"hits": 1, "total": 4}}, "denoising_outlier_centers lacks field 'rate'"),
            ({"cells": {"denoising": {"2": {"metric": "cd_x1000", "mean": None, "count": 3}}}},
             "task 'denoising' level 2 field 'mean' is not a number: None"),
            ({"cells": {"denoising": {"2": {"metric": "cd_x1000", "mean": "0.9", "count": 3}}}},
             "task 'denoising' level 2 field 'mean' is not a number: '0.9'"),
            ({"cells": {"denoising": {"2": {"metric": "cd_x1000", "mean": 0.9, "count": None}}}},
             "task 'denoising' level 2 field 'count' is not an integer: None"),
            ({"cells": {"denoising": {"2": {"metric": None, "mean": 0.9, "count": 3}}}},
             "task 'denoising' level 2 field 'metric' is not a string: None"),
            ({"cells": {"denoising": {"two": {"metric": "cd_x1000", "mean": 0.9, "count": 3}}}},
             "task 'denoising' level 'two' is not a level number"),
            ({"tasks": {"partseg": {"metric": "miou", "mean": None}}}, "task 'partseg' level all field 'mean' is not a number"),
            ({"denoising_outlier_centers": {"hits": 1, "total": 4, "rate": None}},
             "denoising_outlier_centers field 'rate' is not a number: None")):
        path.write_text(json.dumps({**report, **edit}))
        assert cli.main(["report", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: report {path}: {message}")
    cell = {"metric": "cd_x1000", "mean": 0.9, "count": 3}
    path.write_text(json.dumps({**report, "cells": {"denoising": {"2": cell}},
                                "tasks": {"denoising": {"metric": "cd_x1000", "mean": 0.9}},
                                "denoising_outlier_centers": {"hits": 0, "total": 0, "rate": None}}))
    assert cli.main(["report", str(path)]) == 0
    assert "denoising            2  cd_x1000      0.90000      3\n" in capsys.readouterr().out


def test_cli_eval_refuses_a_malformed_checkpoint_sidecar(tiny_run, tmp_path, capsys):
    cfg_file = tmp_path / "tiny.cfg"
    cfg_file.write_text(TINY_CONFIG_TEXT)
    run = tmp_path / "run"
    pipeline.write_datasets(TINY, run / "data")
    shutil.copytree(tiny_run.work / "artifacts", run / "artifacts")
    common = ["eval", "--config", str(cfg_file), "--out", str(run)]
    for checkpoint, field, ablation in ((pipeline.SAMPLER_CHECKPOINT, "d1", "adaptive,random"),
                                        (pipeline.RANKER_CHECKPOINT, "width", "fps,ranked")):
        sidecar = run / "artifacts" / (checkpoint + ".json")
        meta = json.loads(sidecar.read_text())
        del meta[field]
        sidecar.write_text(json.dumps(meta))
        capsys.readouterr()
        assert cli.main([*common, "--ablation", ablation]) == 2
        assert capsys.readouterr().err.startswith(f"error: {checkpoint.split('.')[0]} sidecar lacks field '{field}'")


def test_cli_seed_override_changes_data(tmp_path):
    cfg_file = tmp_path / "tiny.cfg"
    cfg_file.write_text(TINY_CONFIG_TEXT)
    assert cli.main(["gen-data", "--config", str(cfg_file), "--seed", "7",
                     "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["gen-data", "--config", str(cfg_file), "--seed", "8",
                     "--out", str(tmp_path / "b")]) == 0
    blob_a = (tmp_path / "a" / "data" / "train.micasds").read_bytes()
    blob_b = (tmp_path / "b" / "data" / "train.micasds").read_bytes()
    assert blob_a != blob_b


def run_python(code, *args, threads=None) -> str:
    """Stdout of `code` run by a fresh interpreter on this package, with
    OPENBLAS_NUM_THREADS unset or, given `threads`, set to it."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(micas.__file__).resolve().parents[1])
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


# Prints the variable and whether numpy is loaded right after `import micas`,
# then the variable as it read when the package's first numpy import began.
BLAS_PIN_PROBE = """\
import os, sys
at_numpy = []

def hook(event, args):
    if event == "import" and args[0] == "numpy" and not at_numpy:
        at_numpy.append(os.environ.get("OPENBLAS_NUM_THREADS"))

sys.addaudithook(hook)
import micas
print(os.environ.get("OPENBLAS_NUM_THREADS"), "numpy" in sys.modules)
import micas.cli
print(at_numpy)
"""


def test_package_pins_blas_threads_unless_set():
    for preset, expect in ((None, "1"), ("2", "2")):
        lines = run_python(BLAS_PIN_PROBE, threads=preset).splitlines()
        assert lines == [f"{expect} False", f"[{expect!r}]"]


# Trains a sampler and a ranker into argv[2] under the config text argv[1].
TRAIN_PROBE = """\
import sys
from micas import pipeline
from micas.config import parse_config_text

cfg = parse_config_text(sys.argv[1])
train, _ = pipeline.generate_pairs(cfg)
trained = pipeline.train_sampler(cfg, train, sys.argv[2])
pipeline.train_ranker(cfg, train, trained.sampler_path, sys.argv[2])
"""


def test_checkpoints_independent_of_blas_threads(tmp_path):
    # At ranker width 64 a batch's weight gradients are (n, 64)^T @ (n, 64)
    # products, which a threaded OpenBLAS reduces with different rounding.
    # Unset, the variable takes the package's pin, not one thread per core.
    cfg_text = config_text(replace(TINY, train_per_cell=1, ranker_width=64))
    for name, threads in (("unset", None), ("one", "1")):
        run_python(TRAIN_PROBE, cfg_text, str(tmp_path / name), threads=threads)
    for checkpoint in ("sampler.micasnn", "labels.json", "ranker.micasnn"):
        assert (tmp_path / "unset" / checkpoint).read_bytes() == (tmp_path / "one" / checkpoint).read_bytes()


def test_cli_rejects_bad_config_value(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    for content, reason in (
            (b"n_centers = 4096\n", "n_centers and m_neighbors cannot exceed s_points"),
            (b"s_points = many\n", "bad value for 's_points': 'many'"),
            (b"seed = 3\nbogus = 1\n", "line 2: unknown setting 'bogus'"),
            (b"profile = desk\n", "line 1: unknown setting 'profile'"),
            (b"\xffseed = 3\n", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte")):
        cfg_file.write_bytes(content)
        assert cli.main(["gen-data", "--config", str(cfg_file), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"error: {cfg_file}: {reason}\n"
    assert not (tmp_path / "x").exists()
