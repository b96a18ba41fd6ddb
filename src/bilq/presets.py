"""Canned experiment configurations.

Three setups: a scalar two-stage system for the cost-landscape study, a
discretized double integrator whose position-sensor gain scales with the
input force, and a randomly generated six-state system whose static
observation matrix is drawn in the orthogonal complement of the
input-dependent ones (so the filter covariance stays bounded for any
inputs).
"""

import numpy as np

from .core import BilinearSystem, CostSpec, NoiseSpec
from .control import scalar_gap_params
from .observability import check_proposition1, orthogonal_complement_c0

ORTHO_N = 6
ORTHO_M = 3
ORTHO_P = 3
ORTHO_SPECTRAL_RADIUS = 1.1

SYSTEM_SUBSTREAM = 10
C0_SUBSTREAM = {"a": 11, "b": 12}


def scalar_config(c0=None, c1=None, offset=0.0):
    """Scalar two-stage setup: a = 0.9, b = 1, unit costs, prior N(0.1, 2),
    process/measurement noise 0.01/0.09.

    By default the input-dependent observation coefficient equals the
    quadratic stage weight and the static one is placed so the
    estimation-penalty peak sits `offset` away from the
    certainty-equivalent action.
    """
    noise = NoiseSpec(sigma_w=[[0.01]], sigma_z=[[0.09]], x0_mean=[0.1],
                      sigma_0=[[2.0]])
    cost = CostSpec(q=[[1.0]], q_t=[[1.0]], r=[[1.0]])
    probe = BilinearSystem(a=[[0.9]], b=[[1.0]], c0=[[0.0]], ck=([[1.0]],))
    base = scalar_gap_params(probe, noise, cost, prior_var=2.0)
    if c1 is None:
        c1 = base.alpha
    if c0 is None:
        c0 = c1 * (base.beta * base.x_hat0 / base.alpha - float(offset))
    system = BilinearSystem(a=[[0.9]], b=[[1.0]], c0=[[float(c0)]],
                            ck=([[float(c1)]],))
    return system, noise, cost


def double_integrator_config(obs_model, c1=1.0):
    """Position/velocity integrator with a force input, time step 0.3.

    obs_model selects the position sensor: "linear" reads position
    directly, "bilinear" scales the read-out with the applied force
    (static part zero), "perfect" keeps the linear sensor but is meant to
    be run with the perfect-observation policy.
    """
    a = [[1.0, 0.3], [0.0, 1.0]]
    b = [[0.0], [0.3]]
    if obs_model in ("linear", "perfect"):
        c0 = [[1.0, 0.0]]
        ck = ([[0.0, 0.0]],)
    elif obs_model == "bilinear":
        c0 = [[0.0, 0.0]]
        ck = ([[float(c1), 0.0]],)
    else:
        raise ValueError(f"unknown obs_model {obs_model!r}")
    system = BilinearSystem(a=a, b=b, c0=c0, ck=ck)
    noise = NoiseSpec(sigma_w=0.01 * np.eye(2), sigma_z=[[0.01]],
                      x0_mean=[0.0, 0.0], sigma_0=np.eye(2))
    cost = CostSpec(q=np.eye(2), q_t=np.eye(2), r=[[1000.0]])
    return system, noise, cost


def _draw_matrix(stream, rows, cols, scale):
    return scale * stream.standard_normal(rows * cols).reshape(rows, cols)


def orthogonal_config(stream, variant="a"):
    """Random six-state system satisfying the orthogonal-observation
    sufficient condition.

    The transition matrix is scaled to spectral radius 1.1 exactly; the
    static observation matrix is a fresh draw projected into the
    orthogonal complement of the input-dependent ones, unit Frobenius
    norm, redrawn (at most 10 draws) until the sufficient condition
    holds.  The transition/input/observation draws depend only on the
    stream seed, not the variant, so the two variants share everything
    except the static matrix.
    """
    n, m, p = ORTHO_N, ORTHO_M, ORTHO_P
    if variant not in C0_SUBSTREAM:
        raise ValueError(f"variant must be one of {sorted(C0_SUBSTREAM)}")
    sys_stream = stream.substream(SYSTEM_SUBSTREAM)
    a = _draw_matrix(sys_stream, n, n, 1.0)
    radius = float(np.abs(np.linalg.eigvals(a)).max())
    a *= ORTHO_SPECTRAL_RADIUS / radius
    b = _draw_matrix(sys_stream, n, p, 1.0 / np.sqrt(n))
    ck = tuple(_draw_matrix(sys_stream, m, n, 1.0 / np.sqrt(m)) for _ in range(p))

    c0_stream = stream.substream(C0_SUBSTREAM[variant])
    for _ in range(10):
        candidate = _draw_matrix(c0_stream, m, n, 1.0 / np.sqrt(m))
        system = BilinearSystem(a=a, b=b, c0=candidate, ck=ck)
        c0_perp = orthogonal_complement_c0(system)
        norm = float(np.linalg.norm(c0_perp))
        if norm < 1e-10:
            continue
        system = BilinearSystem(a=a, b=b, c0=c0_perp / norm, ck=ck)
        if check_proposition1(system).ok:
            break
    else:
        raise ValueError("failed to draw an observable orthogonal static matrix")
    noise = NoiseSpec(sigma_w=0.01 * np.eye(n), sigma_z=0.01 * np.eye(m),
                      x0_mean=np.zeros(n), sigma_0=np.eye(n))
    cost = CostSpec(q=np.eye(n), q_t=np.eye(n), r=np.eye(p))
    return system, noise, cost
