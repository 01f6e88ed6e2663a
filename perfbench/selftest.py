"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Runs every workload of BENCHMARK.json at the tiny size, untraced and
   traced, and confirms that each run is correct and prints exactly the
   metrics BENCHMARK.json names, each with its unit.
2. Feeds every correctness check a real output of the pipeline (it must
   pass) and deliberately corrupted copies of it (each must fail).
3. Runs the benchmark in a directory holding only BENCHMARK.json and the
   benchmark's files, where it must fail without printing a result.

Exits 0 when all of it holds; prints each failure otherwise.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import run

ROOT = run.ROOT
BENCH_DIR = Path(__file__).resolve().parent
PROBLEMS: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        PROBLEMS.append(what)


def bench_run(workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)


def check_printed_metrics(bench: dict) -> None:
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench_run(workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{label} exits 0 (stderr tail: {proc.stderr[-500:]})")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label} result keys")
            expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label} is correct with no failed operation")
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{label} prints every {section} metric with its unit"
                   + ("" if got == want else f" (missing {sorted(set(want) - set(got))}, "
                                             f"extra {sorted(set(got) - set(want))}, "
                                             f"units {[(k, got[k], want[k]) for k in want if k in got and got[k] != want[k]]})"))
            expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                   f"{label} prints numbers")


def passes_and_fails(name: str, fn, good_args, bad_cases) -> None:
    """fn(*good_args) must pass and fn(*bad) must fail for every bad case."""
    import checks

    try:
        fn(*good_args)
        expect(True, f"{name}: passes on the real output")
    except checks.CheckFailed as exc:
        expect(False, f"{name}: passes on the real output ({exc})")
    for what, bad_args in bad_cases:
        try:
            fn(*bad_args)
            expect(False, f"{name}: fails on {what}")
        except checks.CheckFailed:
            expect(True, f"{name}: fails on {what}")


def check_corruptions(work: Path) -> None:
    import checks
    import workloads
    from micas import geometry, pipeline, tasks
    from micas.ranker import load_label_cache
    from micas.sampler import load_sampler, sample_inference

    tiny = workloads.SIZES["tiny"]

    # sampler_train outputs
    stage = workloads.SamplerTrain(0, tiny)
    stage.setup(work / "s-setup")
    trained = stage.round(work / "s-round")
    epochs = stage.cfg.sampler_epochs
    history = trained.history
    passes_and_fails("history_ok", checks.history_ok, (history, epochs), [
        ("a NaN loss", ([{**history[0], "mean_loss": float("nan")}] + history[1:], epochs)),
        ("a negative loss", (history[:-1] + [{**history[-1], "mean_loss": -1.0}], epochs)),
        ("a missing epoch", (history[:-1], epochs)),
    ])
    truncated = work / "truncated.micasnn"
    truncated.write_bytes(trained.sampler_path.read_bytes()[:-8])
    shutil.copy(str(trained.sampler_path) + ".json", str(truncated) + ".json")
    s_cfg = pipeline.sampler_config(stage.cfg)
    passes_and_fails("checkpoint_reloads", checks.checkpoint_reloads, (load_sampler, trained.sampler_path, s_cfg), [
        ("a truncated checkpoint", (load_sampler, truncated, s_cfg)),
        ("another architecture", (load_sampler, trained.sampler_path, dataclasses.replace(s_cfg, n_centers=8))),
    ])
    store, s_cfg = load_sampler(trained.sampler_path)
    query, prompt = stage.test[0], stage.train[0]
    res = sample_inference(store, s_cfg, query.input.points, prompt.input.points, prompt.target.points)
    soft = res.soft_query.value
    off = soft.copy()
    off[:, 0] *= 1.0 + 1e-6
    negative = soft.copy()
    negative[0, 0], negative[1, 0] = -1e-3, negative[1, 0] + negative[0, 0] + 1e-3
    passes_and_fails("soft_columns_ok", checks.soft_columns_ok, (soft,), [
        ("a column off by 1e-6", (off,)), ("a negative weight", (negative,))])
    centers, pts = res.centers_query.value, query.input.points
    moved = centers.copy()
    moved[3] = pts.max(axis=0) + 1e-6
    passes_and_fails("centers_in_bbox", checks.centers_in_bbox, (centers, pts), [
        ("a center past the bounding box", (moved, pts))])

    # ranker_train outputs
    stage = workloads.RankerTrain(0, tiny)
    stage.setup(work / "r-setup")
    trained = stage.round(work / "r-round")
    entries = load_label_cache(trained.labels_path)
    expected = stage.label_requests()
    first = next(iter(entries))
    nan = {**entries, first: float("nan")}
    passes_and_fails("label_cache_complete", checks.label_cache_complete, (entries, expected), [
        ("a missing label", (dict(list(entries.items())[1:]), expected)), ("a NaN label", (nan, expected))])
    task_of = lambda qid: stage.train[qid].task  # noqa: E731
    chamfer_key = next(k for k in entries if task_of(k[0]) != "partseg")
    partseg_key = next(k for k in entries if task_of(k[0]) == "partseg")
    passes_and_fails("raw_labels_in_range", checks.raw_labels_in_range, (entries, task_of), [
        ("a zero Chamfer label", ({**entries, chamfer_key: 0.0}, task_of)),
        ("a partseg label above 1", ({**entries, partseg_key: 1.5}, task_of)),
    ])
    sha = checks.sha256_file(stage.sampler_path)
    passes_and_fails("digests_equal", checks.digests_equal, (sha, checks.sha256_file(stage.sampler_path)), [
        ("another file's digest", (sha, checks.sha256_file(trained.labels_path)))])
    sampler_art = load_sampler(stage.sampler_path)
    good = checks.Checker()
    stage.check_labels(good, sampler_art, entries)
    expect(good.attempted == 4 and good.failed == 0, "label_matches_estimate: passes on the cached labels")
    shifted = {k: (v - 0.3 if task_of(k[0]) == "partseg" else v * 1.5) for k, v in entries.items()}
    bad = checks.Checker()
    stage.check_labels(bad, sampler_art, shifted)
    expect(bad.failed == bad.attempted == 4, "label_matches_estimate: fails on every shifted label")

    # eval outputs
    stage = workloads.Eval(0, tiny)
    stage.setup(work / "e-setup")
    reports = stage.round(work / "e-round")
    report = reports[workloads.QUALITY_CELL]
    per_cell = stage.per_cell
    short = copy.deepcopy(report)
    cell = short["cells"]["denoising"]["3"]
    cell["values"], cell["count"] = cell["values"][:-1], cell["count"] - 1
    passes_and_fails("report_counts", checks.report_counts, (report, per_cell, tasks.TASKS), [
        ("a query missing from a cell", (short, per_cell, tasks.TASKS))])

    def corrupted(task, value=None, rate=None):
        out = copy.deepcopy(report)
        if value is not None:
            out["cells"][task]["1"]["values"][0] = value
        if rate is not None:
            out["denoising_outlier_centers"].update(rate=rate, total=max(1, out["denoising_outlier_centers"]["total"]))
        return out

    passes_and_fails("report_ranges", checks.report_ranges, (report,), [
        ("an mIoU above 1", (corrupted("partseg", 1.2),)),
        ("a negative cd_x1000", (corrupted("registration", -0.1),)),
        ("a NaN cd_x1000", (corrupted("reconstruction", float("nan")),)),
        ("an outlier rate above 1", (corrupted("denoising", rate=1.5),)),
    ])
    changed = corrupted("denoising", report["cells"]["denoising"]["1"]["values"][0] * (1 + 1e-9))
    passes_and_fails("reports_equal", checks.reports_equal, (pipeline.report_equal, report, stage.evaluate(workloads.QUALITY_CELL, stage.queries)), [
        ("a report with one score changed", (pipeline.report_equal, report, changed))])
    points = stage.test[0].input.points
    picks = geometry.fps_select(points, stage.cfg.n_centers)
    swapped = picks.copy()
    swapped[[1, 2]] = swapped[[2, 1]]
    replaced = picks.copy()
    replaced[-1] = next(i for i in range(len(points)) if i not in set(picks.tolist()))
    passes_and_fails("fps_greedy", checks.fps_greedy, (points, picks), [
        ("two picks swapped", (points, swapped)), ("a last pick that is not farthest", (points, replaced))])
    a, b = stage.test[1].input.points, stage.test[1].target.points
    result = geometry.chamfer_nearest(a, b)
    far = result[1].copy()
    far[0] = int(np.argmax(((b - a[0]) ** 2).sum(axis=1)))
    passes_and_fails("chamfer_matches_brute", checks.chamfer_matches_brute, (a, b, result), [
        ("distances scaled by 1 + 1e-6", (a, b, (result[0] * (1 + 1e-6),) + tuple(result[1:]))),
        ("a farthest point given as nearest", (a, b, (result[0], far) + tuple(result[2:]))),
    ])
    passes_and_fails("captured_some", checks.captured_some, (1,), [("no captured call", (0,))])


def check_bare_directory(work: Path) -> None:
    """Without the program's sources the benchmark must fail and print no result."""
    bare = work / "bare"
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "eval", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
    printed = any(line.lstrip().startswith("{") for line in proc.stdout.splitlines())
    expect(proc.returncode != 0 and not printed,
           f"a bare directory exits non-zero ({proc.returncode}) without printing a result")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_printed_metrics(bench)
    with run.scratch_dir("selftest") as work:
        check_bare_directory(work)
        run.import_package()
        check_corruptions(work)
    print(f"{len(PROBLEMS)} problem(s)" if PROBLEMS else "self-test passed")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
