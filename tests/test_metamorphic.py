"""Metamorphic relations of the closed loop: a change of state coordinates
x' = T x, of output coordinates y' = M y or of cost units (every cost times
s > 0) leaves each run's inputs as they were, and its cumulative cost as it
was (times s under cost scaling), path by path.

T and M are lower triangular with a positive diagonal, so the Cholesky factor
of T S T' is T times that of S: each noise draw, the x_0 draw and the sampled
initial estimate map as the state (or the output) does, and the transformed
runs meet the same noise."""

from functools import lru_cache

import numpy as np
import pytest

from bilq.core import BilinearSystem, CostSpec, NoiseSpec, RngStream, symmetrize
from bilq.presets import double_integrator_config, orthogonal_config
from bilq.sim import INIT_ESTIMATES, METRICS, PolicyConfig, SimConfig, monte_carlo

HORIZON, RUNS, SEED = 20, 10, 1
COST_SCALE = 1e3
PRESETS = {"orthogonal": lambda: orthogonal_config(RngStream(1), "a"),
           "double_integrator": lambda: double_integrator_config("bilinear")}


def lower_triangular(k, seed):
    """A well-conditioned k x k lower-triangular matrix with a positive diagonal."""
    rng = np.random.default_rng(seed)
    return np.diag(rng.uniform(0.5, 2.0, k)) + np.tril(0.3 * rng.standard_normal((k, k)), -1)


def congruence(t, s):
    return symmetrize(t @ s @ t.T)


def state_similarity(system, noise, cost):
    t = lower_triangular(system.n, 2)
    t_inv = np.linalg.inv(t)
    return (BilinearSystem(a=t @ system.a @ t_inv, b=t @ system.b, c0=system.c0 @ t_inv,
                           ck=tuple(c @ t_inv for c in system.ck)),
            NoiseSpec(sigma_w=congruence(t, noise.sigma_w), sigma_z=noise.sigma_z,
                      x0_mean=t @ noise.x0_mean, sigma_0=congruence(t, noise.sigma_0)),
            CostSpec(q=congruence(t_inv.T, cost.q), q_t=congruence(t_inv.T, cost.q_t),
                     r=cost.r)), 1.0


def output_transform(system, noise, cost):
    m = lower_triangular(system.m, 3)
    return (BilinearSystem(a=system.a, b=system.b, c0=m @ system.c0,
                           ck=tuple(m @ c for c in system.ck)),
            NoiseSpec(sigma_w=noise.sigma_w, sigma_z=congruence(m, noise.sigma_z),
                      x0_mean=noise.x0_mean, sigma_0=noise.sigma_0),
            cost), 1.0


def cost_scaling(system, noise, cost):
    return (system, noise, CostSpec(q=COST_SCALE * cost.q, q_t=COST_SCALE * cost.q_t,
                                    r=COST_SCALE * cost.r)), COST_SCALE


RELATIONS = {"state_similarity": state_similarity, "output_transform": output_transform,
             "cost_scaling": cost_scaling}


@lru_cache(maxsize=None)
def runs_of(preset, policy, init, relation=None):
    """Each run's inputs (RUNS, T, p) and cumulative costs (RUNS, T + 1), with
    the factor that the relation scales the costs by."""
    setup, scale = PRESETS[preset](), 1.0
    if relation is not None:
        setup, scale = RELATIONS[relation](*setup)
    result = monte_carlo(SimConfig(*setup, PolicyConfig(policy, init), HORIZON), RUNS, SEED)
    inputs = np.stack([rec.inputs for rec in result.records])
    return inputs, result.table[..., METRICS.index("cum_cost")], scale


@pytest.mark.parametrize("relation", list(RELATIONS))
@pytest.mark.parametrize("init", INIT_ESTIMATES)
@pytest.mark.parametrize("policy", ["separation_lqg", "numeric_bellman"])
@pytest.mark.parametrize("preset", list(PRESETS))
def test_inputs_and_costs_map_path_by_path(preset, policy, init, relation):
    inputs, cum_cost, _ = runs_of(preset, policy, init)
    got_inputs, got_cum_cost, scale = runs_of(preset, policy, init, relation)
    expected = scale * cum_cost
    assert np.all(np.abs(got_inputs - inputs) <= 1e-9 * (1.0 + np.abs(inputs)))
    assert np.all(np.abs(got_cum_cost - expected) <= 1e-9 * (1.0 + np.abs(expected)))
