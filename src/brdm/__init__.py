"""Bounded-rational decision-making with anytime chains and adaptive priors."""

from .agents import (
    BudgetSplit,
    DecisionSystem,
    EpisodeRecord,
    SystemConfig,
    empirical_expected_utility,
    empirical_mutual_information,
    train_system,
)
from .baseline import (
    DiscretePolicy,
    FrontierPoint,
    TwoStageSolution,
    expected_utility,
    mutual_information,
    rate_distortion_curve,
    solve_single_stage,
    solve_two_stage,
    two_stage_residuals,
)
from .core import (
    GaussianTaskSpec,
    WorldModel,
    make_gaussian_task,
    make_rng,
    spawn_rng,
)
from .mcmc import (
    ChainConfig,
    ChainResult,
    SelectionConfig,
    mh_accept_prob,
    run_action_chain,
    run_selection_chain,
)
from .vae import (
    ElboReport,
    VaeArch,
    VaePrior,
    decode,
    encode,
    init_vae,
    kl_to_standard_normal,
    sample_action,
    train_step,
)

__version__ = "0.1.0"
