"""Input-dependent observability diagnostics.

The observability test sums n terms (A^k)^T C(u_k)^T C(u_k) A^k along an
input sequence; a time-invariant sufficient condition projects the static
observation matrix away from the span of the input-dependent ones and
checks observability of that projection.  A forward covariance probe gives
the matching empirical boundedness check; it runs the filter's stacked step
on a stack of one belief.
"""

from dataclasses import dataclass

import numpy as np

from .core import (BatchCheckError, check_beliefs, matvec, observation_matrix,
                   symmetrize)
from .kalman import kf_step_batch

DEFAULT_DELTA = 1e-8
GS_DROP_TOL = 1e-10
PROBE_THRESHOLD = 1e6


@dataclass(frozen=True)
class GramianReport:
    gramian: np.ndarray
    min_eigenvalue: float
    uniformly_observable: bool


def _observations(sys, inputs):
    """Observation matrices C(u_k) of the inputs, stacked (T, m, n); T >= n."""
    inputs = np.asarray(list(inputs), dtype=float)
    if len(inputs) < sys.n:
        raise ValueError(f"need at least {sys.n} inputs, got {len(inputs)}")
    return observation_matrix(sys, inputs.reshape(len(inputs), -1))


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
    count = len(cs) - sys.n + 1
    total = _gram(_blocks(sys, [cs[k:k + count] for k in range(sys.n)]))
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
    norm_o1: float = float("nan")
    norm_o2: float = float("nan")
    norm_o3: float = float("nan")


def check_proposition1(sys, inputs=None, delta=DEFAULT_DELTA):
    """Sufficient condition for bounded filter covariance under any inputs.

    True iff the pair (a, c0_perp) is observable: the time-invariant test
    matrix built from c0_perp alone has min eigenvalue above delta.  When
    an input sequence is supplied, the report carries the spectral norms
    of the three-part decomposition along it.
    """
    c0_perp = orthogonal_complement_c0(sys)
    o1 = _gram(_blocks(sys, [c0_perp] * sys.n))
    low = float(np.linalg.eigvalsh(o1).min())
    ok = low > delta
    if inputs is None:
        return Prop1Report(ok=ok, min_eigenvalue=low)
    d1, d2, d3 = gramian_decomposition(sys, inputs)
    return Prop1Report(ok=ok, min_eigenvalue=low,
                       norm_o1=float(np.linalg.norm(d1, 2)),
                       norm_o2=float(np.linalg.norm(d2, 2)),
                       norm_o3=float(np.linalg.norm(d3, 2)))


@dataclass(frozen=True)
class BoundednessReport:
    max_norm: float
    exceeded: bool
    norms: np.ndarray
    traces: np.ndarray
    inputs: np.ndarray


def covariance_boundedness_probe(sys, noise, input_policy, horizon):
    """Roll the covariance recursion forward and watch its spectral norm.

    input_policy(t, mean) -> input vector, mean the filter's estimate; the
    probe feeds the filter its own predicted outputs (zero innovation), so
    estimate-feedback policies close the loop deterministically.  The
    report's `exceeded` says whether the norm passed PROBE_THRESHOLD; a
    failed filter check raises ValueError naming its step.  Empirical
    only: a finite horizon cannot prove boundedness.
    """
    horizon = int(horizon)
    if horizon < sys.n:
        raise ValueError("horizon must be at least n")
    means = noise.x0_mean[None]
    covs = np.empty((horizon + 1, sys.n, sys.n))
    covs[0] = noise.sigma_0
    inputs = np.empty((horizon, sys.p))
    t = 0
    try:
        check_beliefs(means, covs[:1])
        for t in range(horizon):
            inputs[t] = np.asarray(input_policy(t, means[0]), dtype=float).reshape(-1)
            u = inputs[t:t + 1]
            y_predicted = matvec(observation_matrix(sys, u), means)
            _, _, means, cov_next = kf_step_batch(means, covs[t:t + 1], sys, noise,
                                                  u, y_predicted)
            covs[t + 1] = cov_next[0]
    except BatchCheckError as exc:
        raise exc.localized(f"step {t}") from exc
    norms = np.linalg.norm(covs, 2, axis=(1, 2))
    max_norm = float(norms.max())
    return BoundednessReport(max_norm=max_norm, exceeded=max_norm > PROBE_THRESHOLD,
                             norms=norms, traces=np.trace(covs, axis1=1, axis2=2),
                             inputs=inputs)
