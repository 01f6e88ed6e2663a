"""Command-line entry points.

Subcommands mirror the pipeline stages: gen-data, train-sampler,
train-ranker, eval, report. A run directory (--out) accumulates data/,
artifacts/, and eval outputs, so the whole pipeline chains through one
path.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import pipeline
from .config import RunConfig, load_config, profile_config
from .errors import ConfigurationError
from .ranker import load_ranker
from .sampler import load_sampler
from .tasks import load_dataset


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value settings file")
    parser.add_argument("--profile", choices=("desk", "paper"), default="desk")
    parser.add_argument("--seed", type=int, default=None, help="u64 run seed override")
    parser.add_argument("--out", default="micas-run", help="run directory")


def _build_config(args) -> RunConfig:
    base = profile_config(args.profile)
    cfg = load_config(args.config, base) if args.config else base
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _parse_ablation(text: str) -> tuple[str, str]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2 or parts[0] not in pipeline.SAMPLER_VARIANTS or parts[1] not in pipeline.PROMPT_VARIANTS:
        raise ConfigurationError(
            "ablation must be '<fps|adaptive>,<random|ranked>', e.g. 'adaptive,ranked'")
    return parts[0], parts[1]


def _cmd_gen_data(args) -> int:
    cfg = _build_config(args)
    train_path, test_path = pipeline.write_datasets(cfg, Path(args.out) / "data")
    print(f"wrote {train_path}")
    print(f"wrote {test_path}")
    return 0


def _cmd_train_sampler(args) -> int:
    cfg = _build_config(args)
    data = Path(args.data) if args.data else Path(args.out) / "data"
    train_pairs = load_dataset(data / pipeline.TRAIN_DATASET)
    result = pipeline.train_sampler(cfg, train_pairs, Path(args.out) / "artifacts")
    final = result.history[-1]["mean_loss"] if result.history else float("nan")
    print(f"wrote {result.sampler_path} (final mean loss {final:.6f})")
    return 0


def _cmd_train_ranker(args) -> int:
    cfg = _build_config(args)
    data = Path(args.data) if args.data else Path(args.out) / "data"
    sampler_path = Path(args.sampler) if args.sampler else Path(args.out) / "artifacts" / pipeline.SAMPLER_CHECKPOINT
    train_pairs = load_dataset(data / pipeline.TRAIN_DATASET)
    result = pipeline.train_ranker(cfg, train_pairs, sampler_path, Path(args.out) / "artifacts")
    final = result.history[-1]["mean_loss"] if result.history else float("nan")
    print(f"wrote {result.ranker_path} (final mean loss {final:.6f})")
    print(f"sampler checkpoint sha256 {result.sampler_sha256} (unchanged)")
    return 0


def _cmd_eval(args) -> int:
    cfg = _build_config(args)
    sampling, prompting = _parse_ablation(args.ablation)
    data = Path(args.data) if args.data else Path(args.out) / "data"
    artifacts = Path(args.out) / "artifacts"
    train_pairs = load_dataset(data / pipeline.TRAIN_DATASET)
    test_pairs = load_dataset(data / pipeline.TEST_DATASET)
    sampler_art = None
    if sampling == "adaptive":
        path = Path(args.sampler) if args.sampler else artifacts / pipeline.SAMPLER_CHECKPOINT
        sampler_art = load_sampler(path)
    ranker_art = None
    if prompting == "ranked":
        path = Path(args.ranker) if args.ranker else artifacts / pipeline.RANKER_CHECKPOINT
        ranker_art = load_ranker(path)
    report = pipeline.evaluate(cfg, test_pairs, train_pairs, sampler_art, ranker_art,
                               sampling, prompting)
    out_dir = Path(args.out) / f"eval-{sampling}-{prompting}"
    json_path, csv_path = pipeline.write_report(report, out_dir)
    _print_report(report)
    print(f"wrote {json_path}")
    print(f"wrote {csv_path}")
    return 0


def _cmd_report(args) -> int:
    _print_report(pipeline.load_report(args.path))
    return 0


def _print_report(report: dict) -> None:
    print(f"variant: sampling={report['sampler_variant']} prompting={report['prompt_variant']} "
          f"seed={report['seed']} profile={report['profile']}")
    print(f"{'task':<16} {'level':>5} {'metric':>9} {'mean':>12} {'count':>6}")
    for task in sorted(report["cells"]):
        for level in sorted(report["cells"][task], key=int):
            cell = report["cells"][task][level]
            print(f"{task:<16} {level:>5} {cell['metric']:>9} {cell['mean']:>12.5f} {cell['count']:>6}")
    for task in sorted(report["tasks"]):
        entry = report["tasks"][task]
        print(f"{task:<16} {'all':>5} {entry['metric']:>9} {entry['mean']:>12.5f}")
    outliers = report.get("denoising_outlier_centers", {})
    if outliers.get("total"):
        print(f"denoising outlier-center rate: {outliers['rate']:.4f} "
              f"({outliers['hits']}/{outliers['total']})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="micas",
                                     description="Adaptive point sampling and prompt ranking pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate train/test task pair datasets")
    _add_common(p)
    p.set_defaults(fn=_cmd_gen_data)

    p = sub.add_parser("train-sampler", help="stage one: train sampler and surrogate")
    _add_common(p)
    p.add_argument("--data", help="directory holding the dataset files")
    p.set_defaults(fn=_cmd_train_sampler)

    p = sub.add_parser("train-ranker", help="stage two: train the prompt ranker")
    _add_common(p)
    p.add_argument("--data", help="directory holding the dataset files")
    p.add_argument("--sampler", help="path to the frozen sampler checkpoint")
    p.set_defaults(fn=_cmd_train_ranker)

    p = sub.add_parser("eval", help="evaluate one ablation cell on the test split")
    _add_common(p)
    p.add_argument("--data", help="directory holding the dataset files")
    p.add_argument("--sampler", help="path to the sampler checkpoint")
    p.add_argument("--ranker", help="path to the ranker checkpoint")
    p.add_argument("--ablation", default="adaptive,ranked",
                   help="'<fps|adaptive>,<random|ranked>'")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("report", help="pretty-print a stored report")
    p.add_argument("path", help="path to a report.json")
    p.set_defaults(fn=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # FormatError and ConfigurationError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
