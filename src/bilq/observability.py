"""Input-dependent observability diagnostics.

The observability test sums n terms (A^k)^T C(u_k)^T C(u_k) A^k along an
input sequence; a time-invariant sufficient condition projects the static
observation matrix away from the span of the input-dependent ones and
checks observability of that projection.  A forward covariance probe gives
the matching empirical boundedness check: one kalman.closed_loop call, a
noise-free run from the prior mean, whose innovations are zero.
"""

from dataclasses import dataclass

import numpy as np

from .core import _as_array, _numbers, count, observation_matrix, symmetrize
from .kalman import closed_loop

DEFAULT_DELTA = 1e-8
GS_DROP_TOL = 1e-10
PROBE_THRESHOLD = 1e6


@dataclass(frozen=True)
class GramianReport:
    gramian: np.ndarray
    min_eigenvalue: float
    uniformly_observable: bool


def _observations(sys, inputs):
    """Observation matrices C(u_k) of the inputs, finite numbers, stacked (T, m, n); T >= n."""
    inputs = _numbers(list(inputs), "input")
    if len(inputs) < sys.n:
        raise ValueError(f"need at least {sys.n} inputs, got {len(inputs)}")
    return observation_matrix(sys, _as_array(inputs.reshape(len(inputs), -1), "input"))


def _blocks(sys, cs):
    """The blocks C_k A^k of an observability sum, C_k the k-th of cs (each
    one matrix or a stack of them)."""
    a_pow = np.eye(sys.n)
    blocks = []
    for c in cs:
        blocks.append(c @ a_pow)
        a_pow = sys.a @ a_pow
    return blocks


def _gram(blocks):
    """The symmetrized sum of t^T t over the blocks t (each one matrix or a
    stack of them), summed in block order."""
    return symmetrize(sum(t.swapaxes(-1, -2) @ t for t in blocks))


def window_gramians(sys, inputs):
    """The observability test matrix of every window of n consecutive inputs,
    (T - n + 1, n, n) for T inputs, with their minimum eigenvalues: one
    observation_matrix call and one eigvalsh call for all windows."""
    cs = _observations(sys, inputs)
    windows = len(cs) - sys.n + 1
    total = _gram(_blocks(sys, [cs[k:k + windows] for k in range(sys.n)]))
    return total, np.linalg.eigvalsh(total).min(axis=-1)


def gramian(sys, inputs, delta=DEFAULT_DELTA):
    """Observability test over the first n inputs of the supplied window:
    window_gramians on a stack of one window."""
    (total,), (low,) = window_gramians(sys, list(inputs)[:sys.n])
    return GramianReport(gramian=total, min_eigenvalue=float(low),
                         uniformly_observable=float(low) > float(delta))


def _project_out(mat, basis):
    """mat minus its projections on an orthonormal basis, one by one."""
    residual = mat.astype(float).copy()
    for e in basis:
        residual -= float(np.sum(e * residual)) * e
    return residual


def _frobenius_basis(matrices):
    """Frobenius-orthonormal basis of span{matrices} via modified Gram-Schmidt."""
    basis = []
    norms = [float(np.linalg.norm(m)) for m in matrices]
    scale = max(norms, default=0.0)
    if scale == 0.0:
        return basis
    for mat in matrices:
        residual = _project_out(mat, basis)
        norm = float(np.linalg.norm(residual))
        if norm > GS_DROP_TOL * scale:
            basis.append(residual / norm)
    return basis


def orthogonal_complement_c0(sys):
    """Project the static observation matrix away from span{ck} (Frobenius)."""
    return _project_out(sys.c0, _frobenius_basis(sys.ck))


def gramian_decomposition(sys, inputs):
    """Split the observability sum into static, cross, and input parts.

    Returns (o1, o2, o3) where o1 uses only the projected static matrix,
    o3 only the remainder c(u) - c0_perp, and o2 the cross terms; the
    three add back to the full test matrix.
    """
    c0_perp = orthogonal_complement_c0(sys)
    static = _blocks(sys, [c0_perp] * sys.n)
    rest = _blocks(sys, _observations(sys, inputs)[:sys.n] - c0_perp)
    cross = sum(t1.T @ t3 + t3.T @ t1 for t1, t3 in zip(static, rest))
    return _gram(static), symmetrize(cross), _gram(rest)


@dataclass(frozen=True)
class Prop1Report:
    ok: bool
    min_eigenvalue: float


def check_proposition1(sys, delta=DEFAULT_DELTA):
    """Sufficient condition for bounded filter covariance under any inputs.

    True iff the pair (a, c0_perp) is observable: the time-invariant test
    matrix built from c0_perp alone (gramian_decomposition's first part,
    which depends on no input) has min eigenvalue above delta.
    """
    o1 = _gram(_blocks(sys, [orthogonal_complement_c0(sys)] * sys.n))
    low = float(np.linalg.eigvalsh(o1).min())
    return Prop1Report(ok=low > delta, min_eigenvalue=low)


@dataclass(frozen=True)
class BoundednessReport:
    max_norm: float
    exceeded: bool
    norms: np.ndarray
    traces: np.ndarray
    inputs: np.ndarray


def covariance_boundedness_probe(sys, noise, input_policy, horizon):
    """Roll the covariance recursion forward and watch its spectral norm.

    input_policy(t, mean) -> input vector, mean the filter's estimate.  The
    probe is kalman.closed_loop on one noise-free run from the prior mean, so
    every innovation is zero and estimate-feedback policies close the loop
    deterministically.  The report's `exceeded` says whether the norm passed
    PROBE_THRESHOLD; a failed filter check raises ValueError naming its step.
    Empirical only: a finite horizon cannot prove boundedness.
    """
    T = count("horizon", horizon, sys.n)
    run = closed_loop(sys, noise, noise.x0_mean, (noise.x0_mean, noise.sigma_0),
                      lambda r, t: np.asarray(input_policy(t, r.means[0, t]), float).reshape(1, -1),
                      np.zeros((1, T, sys.n)), np.zeros((1, T, sys.m)), lambda t, _: f"step {t}")
    covs, inputs = run.covs[0], run.inputs[0]
    norms = np.linalg.norm(covs, 2, axis=(1, 2))
    max_norm = float(norms.max())
    return BoundednessReport(max_norm=max_norm, exceeded=max_norm > PROBE_THRESHOLD,
                             norms=norms, traces=np.trace(covs, axis1=1, axis2=2),
                             inputs=inputs)
