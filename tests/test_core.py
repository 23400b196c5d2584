import math

import numpy as np
import pytest

from brdm.agents import SystemConfig
from brdm.core import (
    GaussianTaskSpec,
    WorldModel,
    make_gaussian_task,
    make_rng,
    spawn_rng,
)
from brdm.mcmc import ChainConfig, SelectionConfig
from brdm.vae import VaeArch


def test_default_means_equally_spaced():
    spec = GaussianTaskSpec(num_worlds=6)
    expected = [1 / 12, 3 / 12, 5 / 12, 7 / 12, 9 / 12, 11 / 12]
    assert np.allclose(spec.means, expected)


def test_gaussian_task_uniform_rho_and_peak_value(gaussian_task):
    assert np.allclose(gaussian_task.rho, 1 / 6)
    for w, m in enumerate(GaussianTaskSpec().means):
        assert gaussian_task.utility(w, m) == pytest.approx(1.0)


def test_gaussian_one_sigma_value():
    task = make_gaussian_task(GaussianTaskSpec(width=0.05))
    m0 = GaussianTaskSpec(width=0.05).means[0]
    u = task.utility(0, m0 + 0.05)
    assert u == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_gaussian_argmax_on_fine_grid(gaussian_task):
    spec = GaussianTaskSpec()
    grid = np.linspace(0.0, 1.0, 10_001)
    for w in range(spec.num_worlds):
        values = [gaussian_task.utility(w, g) for g in grid.tolist()]
        best = grid[int(np.argmax(values))]
        assert abs(best - spec.means[w]) <= 1e-4


@pytest.mark.parametrize(
    "bad",
    [
        dict(width=0.0),
        dict(width=-1.0),
        dict(means=(0.2, 0.1, 0.3, 0.4, 0.5, 0.6)),
        dict(means=(0.1, 0.2, 0.3, 0.4, 0.5, 1.2)),
        dict(num_worlds=0),
        dict(width=1e-200),  # 2 width^2 underflows to 0.0, which the utility divides by
    ],
)
def test_spec_validation_errors(bad):
    with pytest.raises(ValueError):
        GaussianTaskSpec(**bad)


def test_world_model_validates_rho():
    util = lambda w, a: 0.0
    with pytest.raises(ValueError):
        WorldModel(num_worlds=2, rho=np.array([0.6, 0.6]), utility=util)
    with pytest.raises(ValueError):
        WorldModel(num_worlds=2, rho=np.array([1.2, -0.2]), utility=util)
    # a NaN weight passes the sum check, and a system on it drew world 2 of 2
    for rho in ([math.nan, 1.0], [1.0, math.nan], [math.inf, 1.0]):
        with pytest.raises(ValueError, match="finite"):
            WorldModel(num_worlds=2, rho=rho, utility=util)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "make",
    [
        lambda v: GaussianTaskSpec(means=(0.1, 0.2, 0.3, 0.4, 0.5, v)),
        lambda v: GaussianTaskSpec(width=v),
        lambda v: ChainConfig(gamma0=v),
        lambda v: ChainConfig(alpha=v),
        lambda v: ChainConfig(proposal_sigma=v),
        lambda v: SelectionConfig(gamma_sel0=v),
        lambda v: SelectionConfig(alpha_sel=v),
        lambda v: VaeArch(decoder_variance=v),
        lambda v: SystemConfig(step_size=v),
    ],
    ids=["means", "width", "gamma0", "alpha", "proposal_sigma", "gamma_sel0", "alpha_sel",
         "decoder_variance", "step_size"],
)
def test_library_float_fields_reject_non_finite_values(make, value):
    # alpha = inf made step 0's precision inf * log1p(0) = NaN
    with pytest.raises(ValueError):
        make(value)


def test_rng_reproducibility():
    a = make_rng(42)
    b = make_rng(42)
    assert np.array_equal(a.random(100), b.random(100))
    assert np.array_equal(a.normal(size=50), b.normal(size=50))


def test_spawn_rng_independent_streams():
    a0 = spawn_rng(7, 0).random(10)
    a1 = spawn_rng(7, 1).random(10)
    assert not np.array_equal(a0, a1)
    assert np.array_equal(a0, spawn_rng(7, 0).random(10))
