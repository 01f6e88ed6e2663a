"""The three stage workloads: set-up, timed rounds, checks, quality.

Each workload times whole calls into `micas.pipeline` from outside. A run
sets up `setup_repeats` times into fresh directories (set-up time is the
median), then repeats one round of the stage until the run's seconds are
used up (always at least one round) and reports the median round. After
the timed phase it checks the outputs and scores the held-out split in an
untimed evaluation.

Set-up writes its data files and trains its checkpoints in a forked child
process, and this process only loads them. So the peak resident memory,
read right after the timed rounds, covers loading and the timed rounds,
not set-up's training and not the untimed checks.

The benchmark seed makes the inputs: the train and held-out splits are
generated by the pipeline's own generator with `RunConfig.seed` set to it.
The program then runs them under a fixed run seed (RUN_SEED), as a user
with a fixed configuration would; only its inputs change with the seed.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import checks
import layertrace
from micas import autodiff, geometry, pipeline, surrogate, tasks
from micas.config import desk_profile
from micas.ranker import fuse, init_ranker_params, load_label_cache, load_ranker, predict_score
from micas.sampler import init_sampler_params, load_sampler, sample_inference
from micas.surrogate import OracleModel, adaptive_centers_fn, init_surrogate_params

ABLATION_CELLS = (("adaptive", "ranked"), ("adaptive", "random"), ("fps", "ranked"), ("fps", "random"))
QUALITY_CELL = ("adaptive", "ranked")
CHECK_QUERIES = 8  # held-out queries sampled for the per-query checks
MC_DRAWS = 256  # draws of the independent label estimate, against the cache's LABEL_DRAWS
CHAMFER_SAMPLE = 12  # captured chamfer_nearest calls checked per size bucket


@dataclass(frozen=True)
class Size:
    s_points: int
    sampler_train_per_cell: int  # train split of sampler_train
    small_train_per_cell: int  # train split of ranker_train and eval
    test_per_cell: int  # held-out split of every workload, scored for quality
    eval_per_cell: int  # the part of it that eval's timed rounds score
    ranker_epochs: int  # epochs of ranker_train's timed train_ranker
    setup_repeats: dict


EPOCHS = 2  # the fewest the cosine schedule accepts; every training except ranker_train's round
RUN_SEED = 0

SIZES = {
    "full": Size(s_points=256, sampler_train_per_cell=6, small_train_per_cell=2, test_per_cell=24,
                 eval_per_cell=6, ranker_epochs=30,
                 setup_repeats={"sampler_train": 9, "ranker_train": 3, "eval": 1}),
    # For the self-test only: every code path, in seconds.
    "tiny": Size(s_points=64, sampler_train_per_cell=2, small_train_per_cell=2, test_per_cell=1,
                 eval_per_cell=1, ranker_epochs=EPOCHS,
                 setup_repeats={"sampler_train": 2, "ranker_train": 1, "eval": 1}),
}


def make_config(size: Size, train_per_cell: int, ranker_epochs: int = EPOCHS):
    return desk_profile(seed=RUN_SEED, s_points=size.s_points, train_per_cell=train_per_cell,
                        test_per_cell=size.test_per_cell, sampler_epochs=EPOCHS, ranker_epochs=ranker_epochs)


def write_split(cfg, seed: int, out_dir) -> list:
    """Generate the splits of `cfg` with the benchmark seed as data seed; return the train split."""
    train_path, _ = pipeline.write_datasets(replace(cfg, seed=seed), Path(out_dir) / "data")
    return tasks.load_dataset(train_path)


def load_split(out_dir):
    data = Path(out_dir) / "data"
    return tasks.load_dataset(data / pipeline.TRAIN_DATASET), tasks.load_dataset(data / pipeline.TEST_DATASET)


# ---- capture of real calls for the brute-force checks ----


class Capture:
    """Records a sample of real chamfer_nearest and fps_select calls.

    Installed only around untimed work. Binds at `geometry.<name>`, the
    name every caller in the package looks up.
    """

    def __init__(self):
        self.chamfer = {"geometry.chamfer_small": [], "geometry.chamfer_large": []}
        self.fps = []
        self._seen = {key: 0 for key in self.chamfer}

    @contextlib.contextmanager
    def installed(self):
        nearest, fps_select = geometry.chamfer_nearest, geometry.fps_select

        def capture_nearest(a, b):
            result = nearest(a, b)
            key = layertrace.chamfer_bucket(a, b)
            seen = self._seen[key]
            self._seen[key] += 1
            if seen < 4 or seen % 37 == 0:
                self.chamfer[key].append((np.array(geometry.as_points(a)), np.array(geometry.as_points(b)),
                                          tuple(np.array(r) for r in result)))
            return result

        def capture_fps(cloud, n, *args, **kwargs):
            picks = fps_select(cloud, n, *args, **kwargs)
            self.fps.append((np.array(geometry.as_points(cloud)), np.array(picks)))
            return picks

        geometry.chamfer_nearest, geometry.fps_select = capture_nearest, capture_fps
        try:
            yield self
        finally:
            geometry.chamfer_nearest, geometry.fps_select = nearest, fps_select

    def check(self, checker) -> None:
        checker("captured chamfer_nearest calls", checks.captured_some, sum(len(v) for v in self.chamfer.values()))
        for key, calls in self.chamfer.items():
            for a, b, result in _spread(calls, CHAMFER_SAMPLE):
                checker(f"{key} matches brute force", checks.chamfer_matches_brute, a, b, result)


def _spread(items, n: int):
    """Up to n items spaced evenly through the list, first and last included."""
    if len(items) <= n:
        return list(items)
    return [items[int(i)] for i in np.linspace(0, len(items) - 1, n).round()]


def first_per_cell(pairs, count: int):
    """The first `count` pairs of every (task, level) cell, in split order."""
    taken: dict = {}
    out = []
    for pair in pairs:
        cell = (pair.task, pair.level)
        if taken.get(cell, 0) < count:
            taken[cell] = taken.get(cell, 0) + 1
            out.append(pair)
    return out


def quality(report) -> dict:
    cd = [report["tasks"][task]["mean"] for task in checks.CHAMFER_TASKS]
    return {"heldout_cd_x1000": float(np.mean(cd)), "heldout_miou": report["tasks"]["partseg"]["mean"]}


def check_report(checker, report, per_cell: int) -> None:
    checker("every (task, level) cell has its queries", checks.report_counts, report, per_cell, tasks.TASKS)
    checker("scores lie in their ranges", checks.report_ranges, report)


def check_sampler_outputs(checker, sampler_art, test, train, seed: int) -> None:
    """Simplex columns and convex centers of sample_inference on held-out queries."""
    store, s_cfg = sampler_art
    rng = np.random.default_rng(pipeline.derive_seed(seed, "perfbench-sampler-check"))
    bank = tasks.PromptBank.from_pairs(train)
    for qid in _spread(range(len(test)), CHECK_QUERIES):
        query = test[qid]
        pool = bank.for_task(query.task)
        prompt = pool[int(rng.integers(len(pool)))]
        res = sample_inference(store, s_cfg, query.input.points, prompt.input.points, prompt.target.points)
        checker("soft weight columns sum to 1", checks.soft_columns_ok, res.soft_query.value)
        checker("centers lie in the query bounding box", checks.centers_in_bbox,
                res.centers_query.value, query.input.points)


# ---- workloads ----


class Stage:
    """A workload: build(dir) writes set-up files, load(dir) reads them back."""

    warm_up_round = True  # an unmeasured first round in traced runs

    def setup(self, out_dir) -> None:
        """Build and load in this process (the self-test's set-up)."""
        self.build(out_dir)
        self.load(out_dir)


class SamplerTrain(Stage):
    """pipeline.train_sampler on the desk train split (120 pairs)."""

    def __init__(self, seed: int, size: Size):
        self.seed = seed
        self.cfg = make_config(size, size.sampler_train_per_cell)
        self.per_cell = size.test_per_cell

    def build(self, out_dir) -> None:
        write_split(self.cfg, self.seed, out_dir)

    def load(self, out_dir) -> None:
        self.train, self.test = load_split(out_dir)

    def ops_per_round(self) -> int:
        return len(self.train) * self.cfg.sampler_epochs

    def round(self, out_dir):
        return pipeline.train_sampler(self.cfg, self.train, out_dir)

    def check_round(self, checker, trained) -> None:
        checker("every epoch's mean loss is finite and positive", checks.history_ok,
                trained.history, self.cfg.sampler_epochs)
        checker("sampler checkpoint reloads", checks.checkpoint_reloads, load_sampler,
                trained.sampler_path, pipeline.sampler_config(self.cfg))

    def finish(self, checker, trained) -> dict:
        sampler_art = load_sampler(trained.sampler_path)
        capture = Capture()
        with capture.installed():
            # One forward pass of the training loss on held-out pairs yields
            # real patch-sized Chamfer inputs; the evaluation yields cloud-sized ones.
            item_losses(self.cfg, sampler_art, self.test, self.seed)
            report = pipeline.evaluate(self.cfg, self.test, self.train, sampler_art, None,
                                       "adaptive", "random")
        capture.check(checker)
        check_report(checker, report, self.per_cell)
        check_sampler_outputs(checker, sampler_art, self.test, self.train, self.seed)
        return quality(report)


def item_losses(cfg, sampler_art, pairs, seed: int, count: int = 2) -> None:
    """Forward passes of the sampler training loss with the trained sampler."""
    store, s_cfg = sampler_art
    sur_cfg = pipeline.surrogate_config(cfg)
    rng = np.random.default_rng(pipeline.derive_seed(seed, "perfbench-item-loss"))
    sur_store = init_surrogate_params(sur_cfg, rng)
    for query in pairs[:count]:
        prompt = next(p for p in pairs if p.task == query.task and p is not query)
        pipeline.item_loss(store, sur_store, s_cfg, sur_cfg, cfg.mask_ratio, query, prompt,
                           s_cfg.tau_end, None, mask_rng=rng)


class RankerTrain(Stage):
    """pipeline.train_ranker with a cold label cache, on a 40-pair split, for the desk's 30 epochs."""

    # A round takes about a minute, so its warm-up is negligible, and a
    # traced run of three rounds would not end within three minutes.
    warm_up_round = False

    def __init__(self, seed: int, size: Size):
        self.seed = seed
        self.cfg = make_config(size, size.small_train_per_cell, size.ranker_epochs)
        self.per_cell = size.test_per_cell

    def build(self, out_dir) -> None:
        train = write_split(self.cfg, self.seed, out_dir)
        pipeline.train_sampler(self.cfg, train, Path(out_dir) / "sampler")

    def load(self, out_dir) -> None:
        self.train, self.test = load_split(out_dir)
        self.sampler_path = Path(out_dir) / "sampler" / pipeline.SAMPLER_CHECKPOINT
        self.sampler_sha = checks.sha256_file(self.sampler_path)

    def label_requests(self) -> int:
        return len(self.train) * self.cfg.k_candidates

    def ops_per_round(self) -> int:
        return self.label_requests() + len(self.train) * self.cfg.ranker_epochs

    def round(self, out_dir):
        return pipeline.train_ranker(self.cfg, self.train, self.sampler_path, out_dir)

    def check_round(self, checker, trained) -> None:
        entries = load_label_cache(trained.labels_path)
        checker("label cache holds train pairs x k_candidates finite labels",
                checks.label_cache_complete, entries, self.label_requests())
        checker("raw labels lie in their task's range", checks.raw_labels_in_range, entries,
                lambda qid: self.train[qid].task)
        checker("sampler checkpoint unchanged", checks.digests_equal, self.sampler_sha,
                checks.sha256_file(self.sampler_path))
        checker("every epoch's mean rank loss is finite and positive", checks.history_ok,
                trained.history, self.cfg.ranker_epochs)

    def finish(self, checker, trained) -> dict:
        sampler_art = load_sampler(self.sampler_path)
        capture = Capture()
        with capture.installed():
            report = pipeline.evaluate(self.cfg, self.test, self.train, sampler_art,
                                       load_ranker(trained.ranker_path), *QUALITY_CELL)
        capture.check(checker)
        check_report(checker, report, self.per_cell)
        self.check_labels(checker, sampler_art, load_label_cache(trained.labels_path))
        return quality(report)

    def check_labels(self, checker, sampler_art, entries) -> None:
        """One cached label per task against an independent Monte-Carlo estimate."""
        store, s_cfg = sampler_art
        rng = np.random.default_rng(pipeline.derive_seed(self.seed, "perfbench-mc"))
        constants = (surrogate.ORACLE_SIGMA0, surrogate.ORACLE_CENTER_GAIN, surrogate.ORACLE_PROMPT_GAIN)
        for task in tasks.TASKS:
            keys = sorted(key for key in entries if self.train[key[0]].task == task)
            qid, cid = keys[int(rng.integers(len(keys)))]
            query, prompt = self.train[qid], self.train[cid]
            centers = sample_inference(store, s_cfg, query.input.points, prompt.input.points,
                                       prompt.target.points).centers_query.value
            estimate, sd = checks.mc_label(query.input.points, query.target.points, query.target.labels,
                                           task, prompt.input.points, centers, constants,
                                           tasks.PART_ANCHORS, rng, MC_DRAWS)
            checker(f"{task} label agrees with an independent estimate", checks.label_matches_estimate,
                    entries[(qid, cid)], pipeline.LABEL_DRAWS, estimate, sd, MC_DRAWS)


class Eval(Stage):
    """pipeline.evaluate on all four ablation cells over held-out queries."""

    def __init__(self, seed: int, size: Size):
        self.seed = seed
        self.cfg = make_config(size, size.small_train_per_cell)
        self.per_cell = size.eval_per_cell
        self.quality_per_cell = size.test_per_cell

    def build(self, out_dir) -> None:
        out = Path(out_dir)
        train = write_split(self.cfg, self.seed, out)
        sampler_path = pipeline.train_sampler(self.cfg, train, out / "sampler").sampler_path
        pipeline.train_ranker(self.cfg, train, sampler_path, out / "ranker")

    def load(self, out_dir) -> None:
        out = Path(out_dir)
        self.train, self.test = load_split(out)
        self.queries = first_per_cell(self.test, self.per_cell)
        self.sampler_art = load_sampler(out / "sampler" / pipeline.SAMPLER_CHECKPOINT)
        self.ranker_art = load_ranker(out / "ranker" / pipeline.RANKER_CHECKPOINT)

    def ops_per_round(self) -> int:
        return len(ABLATION_CELLS) * len(self.queries)

    def evaluate(self, cell, queries):
        return pipeline.evaluate(self.cfg, queries, self.train, self.sampler_art, self.ranker_art, *cell)

    def round(self, out_dir):
        return {cell: self.evaluate(cell, self.queries) for cell in ABLATION_CELLS}

    def check_round(self, checker, reports) -> None:
        for report in reports.values():
            check_report(checker, report, self.per_cell)

    def finish(self, checker, reports) -> dict:
        capture = Capture()
        with capture.installed():
            again = {cell: self.evaluate(cell, self.queries) for cell in (QUALITY_CELL, ("fps", "random"))}
            report = self.evaluate(QUALITY_CELL, self.test)
        for cell, repeated in again.items():
            checker("evaluation repeats exactly", checks.reports_equal, pipeline.report_equal,
                    reports[cell], repeated)
        capture.check(checker)
        checker("captured fps_select calls", checks.captured_some, len(capture.fps))
        for points, picks in _spread(capture.fps, CHECK_QUERIES):
            checker("FPS picks are greedy max-min", checks.fps_greedy, points, picks)
        check_report(checker, report, self.quality_per_cell)
        return quality(report)


WORKLOADS = {"sampler_train": SamplerTrain, "ranker_train": RankerTrain, "eval": Eval}


# ---- fixed-size primitives (traced runs) ----


def _median_ms(fn, batches: int, per_batch: int) -> float:
    times = []
    for _ in range(batches):
        started = time.perf_counter()
        for _ in range(per_batch):
            fn()
        times.append((time.perf_counter() - started) / per_batch)
    return statistics.median(times) * 1e3


def primitives(cfg, train, seed: int) -> dict:
    """Median per-call times of the hot primitives on fixed inputs."""
    rng = np.random.default_rng(pipeline.derive_seed(seed, "perfbench-primitives"))
    out = {}
    for n, per_batch in ((16, 200), (256, 20)):
        a, b = rng.random((n, 3)), rng.random((n, 3))
        out[f"geometry.chamfer_{n}x{n}_us"] = _median_ms(lambda: geometry.chamfer_nearest(a, b), 7, per_batch) * 1e3
    s_cfg, sur_cfg, r_cfg = pipeline.sampler_config(cfg), pipeline.surrogate_config(cfg), pipeline.ranker_config(cfg)
    s_store = init_sampler_params(s_cfg, rng)
    query = train[0]
    prompt = next(p for p in train if p.task == query.task and p is not query)
    res, _, _ = pipeline.item_loss(s_store, init_surrogate_params(sur_cfg, rng), s_cfg, sur_cfg,
                                   cfg.mask_ratio, query, prompt, s_cfg.tau_start, None, mask_rng=rng)
    out["autodiff.backward_item_ms"] = _median_ms(lambda: res.tape.backward(1.0), 7, 3)
    r_store = init_ranker_params(r_cfg, rng)
    fused = fuse(query.input.points, prompt)
    out["ranker.predict_score_ms"] = _median_ms(
        lambda: predict_score(autodiff.Tape(), r_store, r_cfg, fused), 7, 5)
    oracle = OracleModel(adaptive_centers_fn(s_store, s_cfg))
    out["pipeline.pseudo_label_ms"] = _median_ms(
        lambda: pipeline.pseudo_label_raw(oracle, query, prompt, np.random.default_rng(seed)), 5, 1)
    return out


# ---- one run ----


def _build(stage, out_dir, tracer, send) -> None:
    if tracer:
        tracer.phase()  # count only this child's calls
    stage.build(out_dir)
    send.send(tracer.stats if tracer else None)
    send.close()


def build_in_child(stage, out_dir, tracer) -> None:
    """Run stage.build in a forked child and wait for it to end.

    The child's memory stays out of this process's ru_maxrss. A traced
    child sends its per-layer stats back, to be added to this process's.
    """
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    sys.stdout.flush()
    sys.stderr.flush()
    child = context.Process(target=_build, args=(stage, out_dir, tracer, send))
    child.start()
    send.close()
    try:
        stats = receive.recv()
        sent = True
    except EOFError:
        sent = False
    receive.close()
    child.join()
    if child.exitcode != 0 or not sent:
        raise RuntimeError(f"set-up child exited with code {child.exitcode}")
    if tracer:
        tracer.stats.add(stats)


def run(workload: str, seed: int, seconds: float, trace: bool, size_name: str, work_dir: Path) -> dict:
    size = SIZES[size_name]
    stage = WORKLOADS[workload](seed, size)
    checker = checks.Checker()
    tracer = layertrace.Tracer() if trace else None

    setup_times = []
    if tracer:
        tracer.install()
        setup_stats = tracer.phase()
    repeats = size.setup_repeats[workload]
    for i in range(repeats):
        started = time.perf_counter()
        build_in_child(stage, work_dir / f"setup{i}", tracer)
        stage.load(work_dir / f"setup{i}")
        setup_times.append(time.perf_counter() - started)

    # Untraced rounds give the end-to-end figures. A traced run alternates
    # untraced and traced rounds, so the difference of their medians is the
    # tracing overhead; a first, unmeasured round keeps the warm-up of the
    # stage's code paths out of that difference where rounds are short.
    walls, cpus, traced_walls = [], [], []
    if tracer:
        tracer.uninstall()
        timed_stats = tracer.phase()
        if stage.warm_up_round:
            stage.check_round(checker, stage.round(work_dir / "warm-up"))
            checker.attempted += stage.ops_per_round()
    began = time.perf_counter()
    while not walls or (tracer and not traced_walls) or time.perf_counter() - began < seconds:
        traced = tracer is not None and len(traced_walls) < len(walls)
        if traced:
            tracer.install()
        # process_time counts every thread of the process, BLAS workers included.
        wall0, cpu0 = time.perf_counter(), time.process_time()
        output = stage.round(work_dir / f"round{len(walls) + len(traced_walls)}")
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if traced:
            tracer.uninstall()
            traced_walls.append(wall)
        else:
            walls.append(wall)
            cpus.append(cpu)
        checker.attempted += stage.ops_per_round()
        stage.check_round(checker, output)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scores = stage.finish(checker, output)

    if tracer:
        metrics = layer_metrics(stage, setup_stats, repeats, timed_stats, traced_walls, walls)
        metrics.update({name: (value, "ms" if name.endswith("_ms") else "us")
                        for name, value in primitives(stage.cfg, stage.train, seed).items()})
        print(layertrace.format_table(setup_stats, repeats, "set-up"), file=sys.stderr)
        print(layertrace.format_table(timed_stats, len(traced_walls), "traced rounds"), file=sys.stderr)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "heldout_cd_x1000": (scores["heldout_cd_x1000"], "sqdist_x1000"),
            "heldout_miou": (scores["heldout_miou"], "ratio"),
        }
    print(f"{workload}: setups {[round(t, 3) for t in setup_times]}, untraced round walls {[round(w, 3) for w in walls]}, "
          f"traced {[round(w, 3) for w in traced_walls]}", file=sys.stderr)
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


CALL_LAYERS = (
    "geometry.chamfer_small", "geometry.chamfer_large", "autodiff.backward", "sampler.sample",
    "sampler.sample_inference", "surrogate.oracle_predict", "surrogate.oracle_sigma",
    "ranker.predict_score", "ranker.raw_performance", "pipeline.pseudo_label_raw",
)
SECONDS_LAYERS = CALL_LAYERS + (
    "geometry.knn_patches", "geometry.fps_select", "sampler.sampling_loss", "surrogate.surrogate_predict",
    "ranker.select_prompt", "ranker.listwise_rank_loss", "pipeline.item_loss",
)
SETUP_LAYERS = ("tasks.gen_pair", "tasks.load_dataset")


def _per_round(total, rounds: int):
    return total // rounds if isinstance(total, int) and total % rounds == 0 else total / rounds


def layer_metrics(stage, setup_stats, setups: int, stats, traced_walls, untraced_walls) -> dict:
    rounds = len(traced_walls)
    out = {}
    for key in CALL_LAYERS:
        out[f"{key}.calls"] = (_per_round(stats.calls.get(key, 0), rounds), "count")
    for key in SECONDS_LAYERS:
        out[f"{key}.s"] = (stats.seconds.get(key, 0.0) / rounds, "s")
    for key in SETUP_LAYERS:
        out[f"{key}.s"] = (setup_stats.seconds.get(key, 0.0) / setups, "s")
    out["autodiff.backward_nodes"] = (_per_round(stats.counters["autodiff.backward_nodes"], rounds), "count")
    labels, sigma = stats.calls.get("pipeline.pseudo_label_raw", 0), stats.calls.get("surrogate.oracle_sigma", 0)
    out["surrogate.oracle_sigma.calls_per_label"] = (sigma / labels if labels else 0.0, "ratio")
    requests = stage.label_requests() if hasattr(stage, "label_requests") else 0
    out["pipeline.label_cache.hits"] = (requests - _per_round(labels, rounds), "count")
    label_s = stats.seconds.get("pipeline.pseudo_label_raw", 0.0) / rounds
    out["pipeline.ranker_epochs.s"] = (statistics.mean(traced_walls) - label_s if requests else 0.0, "s")
    out["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(untraced_walls), "s")
    return out
