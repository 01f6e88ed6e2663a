"""Run configuration: the desk defaults, config files, and the settings hash.

The defaults of RunConfig are the one operating point; a config file and
--seed override them. Config files are flat "key = value" text, one setting
per line, with '#' comments. Unknown and repeated keys are rejected rather
than ignored or overwritten, so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, fields

from .errors import ConfigurationError


@dataclass
class RunConfig:
    seed: int = 0
    # data geometry
    s_points: int = 256
    n_centers: int = 16
    m_neighbors: int = 16
    # architecture
    d1: int = 64
    d2: int = 64
    sampler_width: int = 64
    surrogate_width: int = 64
    ranker_width: int = 64
    # sampling
    tau_start: float = 1.0
    tau_end: float = 0.1
    alpha: float = 0.5
    mask_ratio: float = 0.6
    # sampler optimization
    sampler_epochs: int = 100
    sampler_batch: int = 8
    sampler_lr0: float = 0.3
    sampler_lr_min: float = 0.015
    # ranker optimization
    ranker_epochs: int = 30
    ranker_batch: int = 4
    ranker_lr0: float = 0.2
    ranker_lr_min: float = 0.01
    k_candidates: int = 8
    # dataset sizes, per (task, level) cell
    train_per_cell: int = 6
    test_per_cell: int = 3

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError("seed must fit in u64")
        for name, value in asdict(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        positives = (
            "s_points", "n_centers", "m_neighbors", "d1", "d2", "sampler_width",
            "surrogate_width", "ranker_width", "sampler_batch", "ranker_batch",
            "train_per_cell", "test_per_cell",
        )
        for name in positives:
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive")
        for name in ("sampler_epochs", "ranker_epochs"):
            if getattr(self, name) < 2:  # the cosine learning-rate schedule needs two steps
                raise ConfigurationError(f"{name} must be at least 2")
        if self.n_centers > self.s_points or self.m_neighbors > self.s_points:
            raise ConfigurationError("n_centers and m_neighbors cannot exceed s_points")
        if not (self.tau_start >= self.tau_end > 0.0):
            raise ConfigurationError("need tau_start >= tau_end > 0")
        if self.alpha < 0.0 or not 0.0 <= self.mask_ratio <= 1.0:
            raise ConfigurationError("alpha must be >= 0 and mask_ratio in [0, 1]")
        for lr0, lr_min in ((self.sampler_lr0, self.sampler_lr_min), (self.ranker_lr0, self.ranker_lr_min)):
            if not (lr0 >= lr_min > 0.0):
                raise ConfigurationError("learning rates must satisfy lr0 >= lr_min > 0")
        # the rank loss orders at least two candidates, drawn from the query's task's
        # 5 * train_per_cell pairs less the query itself
        if not 2 <= self.k_candidates <= self.train_per_cell * 5 - 1:
            raise ConfigurationError(
                f"k_candidates must be at least 2, the fewest prompts the rank loss can order, and at most "
                f"train_per_cell * 5 - 1 = {self.train_per_cell * 5 - 1}, the prompts a training query can draw "
                f"from; got {self.k_candidates}")


def desk_profile(**overrides) -> RunConfig:
    """Small sizes that train and evaluate in minutes on one core."""
    return RunConfig(**overrides)


def parse_config_text(text: str) -> RunConfig:
    """Parse flat key = value lines on top of the desk defaults; a key may appear once."""
    merged = asdict(RunConfig())
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value'")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in merged:
            raise ConfigurationError(f"line {lineno}: unknown setting {key!r}")
        if key in first_line:
            raise ConfigurationError(f"line {lineno}: {key!r} is already set on line {first_line[key]}")
        first_line[key] = lineno
        try:
            merged[key] = type(merged[key])(value)  # every setting is an int or a float
        except ValueError as exc:
            raise ConfigurationError(f"bad value for {key!r}: {value!r}") from exc
    return RunConfig(**merged)


def load_config(path) -> RunConfig:
    """The config file at `path`; its ConfigurationErrors, an undecodable file's included, start with the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except (ConfigurationError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def config_text(cfg: RunConfig) -> str:
    """Canonical flat rendering, stable across runs for hashing."""
    lines = [f"{f.name} = {getattr(cfg, f.name)}" for f in fields(RunConfig)]
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(config_text(cfg).encode("utf-8")).hexdigest()
