"""Experiment configuration: flat key = value files with typed parsing.

Format: one ``key = value`` per line, ``#`` starts a comment, list values
are comma separated, omitted keys take the defaults below, unknown and
repeated keys are errors. Each value is parsed by its field's annotation
(``int``, ``float``, ``str`` or ``tuple[T, ...]``). ``serialize_config``
writes a file that parses back to an equal config (floats via repr, so they
round-trip exactly).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .agents import BudgetSplit, SystemConfig
from .baseline import GRID_SIZE, MAX_ITER, TOL, action_grid, check_settings
from .core import GaussianTaskSpec
from .mcmc import ChainConfig, SelectionConfig
from .vae import VaeArch

AGENT_KINDS = ("single", "multi")


def _default_betas() -> tuple[float, ...]:
    return tuple(float(b) for b in np.logspace(-1.0, 4.0, 20))


class ConfigError(Exception):
    """Bad configuration file or flag combination (usage error, exit code 1)."""


@dataclass
class ExperimentConfig:
    """All experiment knobs; field names double as the config-file keys."""

    # task
    num_worlds: int = GaussianTaskSpec.num_worlds
    width: float = GaussianTaskSpec.width
    means: tuple[float, ...] = GaussianTaskSpec.means
    # system
    num_priors: int = SystemConfig.num_priors
    agent_kinds: tuple[str, ...] = AGENT_KINDS
    total_steps: tuple[int, ...] = (100,)
    selection_steps: tuple[int, ...] = ()
    selection_fraction: float = 0.25
    episodes: int = 5000
    replicates: int = 1
    # exact solver / frontier
    grid_size: int = GRID_SIZE
    betas: tuple[float, ...] = field(default_factory=_default_betas)
    tol: float = TOL
    max_iter: int = MAX_ITER
    # chains
    gamma0: float = ChainConfig.gamma0
    alpha: float = ChainConfig.alpha
    proposal_sigma: float = ChainConfig.proposal_sigma
    gamma_sel0: float = SelectionConfig.gamma_sel0
    alpha_sel: float = SelectionConfig.alpha_sel
    utility_samples: int = SelectionConfig.utility_samples
    # vae
    hidden_dim: int = VaeArch.hidden_dim
    latent_dim: int = VaeArch.latent_dim
    decoder_variance: float = VaeArch.decoder_variance
    step_size: float = SystemConfig.step_size
    buffer_size: int = SystemConfig.buffer_size
    batch_size: int = SystemConfig.batch_size
    # measurement and io
    summary_window: float = 0.1
    mi_bins: int = 100
    seed: int = 0
    workers: int = 0


def _parser(hint):
    """Text-to-value parser for one field annotation: a scalar or ``tuple[T, ...]``."""
    if get_origin(hint) is tuple:
        item = get_args(hint)[0]
        return lambda raw: tuple(item(v.strip()) for v in raw.split(",") if v.strip())
    return hint


_HINTS = get_type_hints(ExperimentConfig)
_PARSERS = {key: _parser(hint) for key, hint in _HINTS.items()}


def validate_config(cfg: ExperimentConfig) -> None:
    """Sweep-level and cross-field checks, then build what the config describes.

    Every other range is checked where it is used, by the domain types and by
    the solvers' ``check_settings``; their ValueError becomes a ConfigError
    before any output is written. Each rule rejects NaN and +-inf itself.
    """
    if not cfg.agent_kinds:
        raise ConfigError("agent_kinds must not be empty")
    for kind in cfg.agent_kinds:
        if kind not in AGENT_KINDS:
            raise ConfigError(f"agent_kinds entries must be one of {AGENT_KINDS}, got '{kind}'")
    if not cfg.total_steps or min(cfg.total_steps) < 1:
        raise ConfigError("total_steps must list positive budgets")
    if cfg.selection_steps:
        if min(cfg.selection_steps) < 0:
            raise ConfigError("selection_steps entries must be >= 0")
        if min(cfg.selection_steps) > max(cfg.total_steps):
            raise ConfigError(
                f"selection_steps = {min(cfg.selection_steps)} exceeds every "
                f"total_steps budget (max {max(cfg.total_steps)})"
            )
    if not 0.0 <= cfg.selection_fraction < 1.0:
        raise ConfigError("selection_fraction must lie in [0, 1)")
    if cfg.episodes < 1 or cfg.replicates < 1:
        raise ConfigError("episodes and replicates must be >= 1")
    if not cfg.betas:
        raise ConfigError("betas must not be empty")
    if not 0.0 < cfg.summary_window <= 1.0:
        raise ConfigError("summary_window must lie in (0, 1]")
    if cfg.mi_bins < 1:
        raise ConfigError("mi_bins must be >= 1")
    if cfg.seed < 0 or cfg.workers < 0:
        raise ConfigError("seed and workers must be >= 0")
    try:
        task_spec(cfg)
        action_grid(cfg.grid_size)
        check_settings(cfg.betas, cfg.tol, cfg.max_iter)
        # each cell's BudgetSplit is valid once the step checks above pass
        system_config(cfg, "multi", BudgetSplit())
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path: str | Path | None, **overrides) -> ExperimentConfig:
    """Parse a config file (pure defaults for ``None``), apply ``overrides``, validate."""
    cfg = ExperimentConfig()
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            content = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        first_lines = {}
        for line_no, line in enumerate(content.splitlines(), start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"line {line_no}: expected 'key = value', got: {line.strip()}")
            key, raw = (part.strip() for part in text.split("=", 1))
            if key not in _PARSERS:
                raise ConfigError(f"line {line_no}: unknown key '{key}'")
            if key in first_lines:
                raise ConfigError(f"line {line_no}: key '{key}' repeats line {first_lines[key]}")
            first_lines[key] = line_no
            try:
                setattr(cfg, key, _PARSERS[key](raw))
            except ValueError as exc:
                raise ConfigError(f"line {line_no}: bad value for {key}: {exc}") from None
    cfg = replace(cfg, **overrides)
    cfg.betas = tuple(sorted(cfg.betas))
    validate_config(cfg)
    return cfg


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parses back to an equal config."""
    lines = [f"{f.name} = {_format_value(getattr(cfg, f.name))}" for f in fields(cfg)]
    return "\n".join(lines) + "\n"


def _from_config(cls, cfg: ExperimentConfig, **fixed):
    """Build ``cls`` from the config keys that share its field names, then ``fixed``."""
    shared = {f.name: getattr(cfg, f.name) for f in fields(cls) if f.name in _HINTS}
    return cls(**{**shared, **fixed})


def task_spec(cfg: ExperimentConfig) -> GaussianTaskSpec:
    return _from_config(GaussianTaskSpec, cfg)


def system_config(cfg: ExperimentConfig, kind: str, budget: BudgetSplit) -> SystemConfig:
    """Build the per-agent config; single-prior agents always get one prior."""
    return _from_config(
        SystemConfig,
        cfg,
        budget=budget,
        chain=_from_config(ChainConfig, cfg),
        selection=_from_config(SelectionConfig, cfg),
        vae=_from_config(VaeArch, cfg),
        **({"num_priors": 1} if kind == "single" else {}),
    )
