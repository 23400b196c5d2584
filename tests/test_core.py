import math

import numpy as np
import pytest

from brdm.core import (
    GaussianTaskSpec,
    WorldModel,
    make_gaussian_task,
    make_rng,
    spawn_rng,
)


def test_default_means_equally_spaced():
    spec = GaussianTaskSpec(num_worlds=6)
    expected = [1 / 12, 3 / 12, 5 / 12, 7 / 12, 9 / 12, 11 / 12]
    assert np.allclose(spec.means, expected)


def test_gaussian_task_uniform_rho_and_peak_value(gaussian_task):
    assert np.allclose(gaussian_task.rho, 1 / 6)
    for w, m in enumerate(GaussianTaskSpec().means):
        assert gaussian_task.utility(w, np.array([m])) == pytest.approx(1.0)


def test_gaussian_one_sigma_value():
    task = make_gaussian_task(GaussianTaskSpec(width=0.05))
    m0 = GaussianTaskSpec(width=0.05).means[0]
    u = task.utility(0, np.array([m0 + 0.05]))
    assert u == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_gaussian_argmax_on_fine_grid(gaussian_task):
    spec = GaussianTaskSpec()
    grid = np.linspace(0.0, 1.0, 10_001)
    for w in range(spec.num_worlds):
        values = [gaussian_task.utility(w, np.array([g])) for g in grid]
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
