"""Shared domain types, validation, and deterministic random streams.

Conventions used throughout the package:

- all matrices are dense float64 numpy arrays, row-major;
- systems are tiny (n <= 10), so every solve goes through direct dense
  factorizations, numpy.linalg's only (the package needs numpy and click
  at run time, not scipy); :func:`chol_solve` is its one symmetric
  positive definite solve;
- covariance-producing operations re-symmetrize their output, and a matrix
  is accepted as PSD when its minimum eigenvalue is >= -1e-10.
"""

import json
from dataclasses import dataclass, field, fields

import numpy as np

PSD_TOL = 1e-10
SYM_TOL = 1e-10


def _as_matrix(x, name):
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    a = a.copy()
    a.setflags(write=False)
    return a


def _as_vector(x, name):
    v = np.asarray(x, dtype=float).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has non-finite entries")
    v = v.copy()
    v.setflags(write=False)
    return v


def symmetrize(s):
    """Return (S + S^T)/2 (of each matrix in a stack); guards against
    eigenvalue drift over long rollouts."""
    return 0.5 * (s + s.swapaxes(-1, -2))


def is_symmetric(s, tol=SYM_TOL):
    scale = max(1.0, float(np.abs(s).max()) if s.size else 1.0)
    return float(np.abs(s - s.T).max()) <= tol * scale


def matvec(a, x):
    """a @ x for a vector x (n,) or a stack of them (..., n).

    Written as a matrix product against x[..., None] so each stacked item
    takes the same BLAS route, and gives the same bits, as a 2-d a @ x.
    """
    return (a @ np.asarray(x)[..., None])[..., 0]


def quadratic(v, weight):
    """v' W v for a vector v (k,) or each row of a stack (..., k), every
    item by the same BLAS route, and with the same bits, as a 1-d v @ W @ v."""
    return (v[..., None, :] @ weight @ v[..., :, None])[..., 0, 0]


def _raise_not_pd(a):
    """Raise LinAlgError naming the first non-PD matrix of a (one or a stack)
    and, as LAPACK's potrf does, its first leading minor that is not PD."""
    for i, item in enumerate(a.reshape(-1, *a.shape[-2:])):
        for k in range(1, len(item) + 1):
            try:
                np.linalg.cholesky(item[:k, :k])
            except np.linalg.LinAlgError:
                name = "the matrix" if a.ndim == 2 else f"matrix {i}"
                raise np.linalg.LinAlgError(
                    f"{k}-th leading minor of {name} is not positive definite") from None


def chol_solve(a, b):
    """a^-1 b for symmetric PD a (only its lower triangle is read): the
    lower Cholesky factor L, then L y = b and L' x = y by numpy's LU solve,
    which on an upper triangular matrix swaps no rows and eliminates
    nothing, so each is a back substitution (L y = b runs with its rows and
    columns reversed, which makes L upper triangular).

    A stack a (R, n, n) or b (R, n, k), the other stacked alike or shared,
    gives a C-contiguous (R, n, k), each item bit for bit its own solve;
    three numpy.linalg calls whatever R.  Non-finite input raises
    ValueError; a matrix that is not PD raises LinAlgError naming its index."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("chol_solve: array must not contain infs or NaNs")
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        _raise_not_pd(a)
        raise
    rhs = b[:, None] if b.ndim == 1 else b
    y = np.linalg.solve(lower[..., ::-1, ::-1], rhs[..., ::-1, :])[..., ::-1, :]
    x = np.linalg.solve(lower.swapaxes(-1, -2), y)
    return x[..., 0] if b.ndim == 1 else x


def min_eigenvalue(s):
    return float(np.linalg.eigvalsh(symmetrize(s)).min())


@dataclass(frozen=True)
class BilinearSystem:
    """State transition pair (a, b) and observation family c0, ck[0..p-1].

    The effective observation matrix for an input u is
    ``c0 + sum_k u[k] * ck[k]``; ck must contain one matrix per input channel.
    Shapes and finiteness are enforced at construction; count and numeric
    invariants are reported by :func:`validate_system`.
    """

    a: np.ndarray
    b: np.ndarray
    c0: np.ndarray
    ck: tuple

    def __post_init__(self):
        a = _as_matrix(self.a, "a")
        b = _as_matrix(self.b, "b")
        c0 = _as_matrix(self.c0, "c0")
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"a must be square, got {a.shape}")
        n = a.shape[0]
        if b.shape[0] != n:
            raise ValueError(f"b must have {n} rows, got {b.shape}")
        if c0.shape[1] != n:
            raise ValueError(f"c0 must have {n} columns, got {c0.shape}")
        ck = tuple(_as_matrix(c, f"ck[{i}]") for i, c in enumerate(self.ck))
        for i, c in enumerate(ck):
            if c.shape != c0.shape:
                raise ValueError(f"ck[{i}] shape {c.shape} != c0 shape {c0.shape}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "ck", ck)

    @property
    def n(self):
        return self.a.shape[0]

    @property
    def m(self):
        return self.c0.shape[0]

    @property
    def p(self):
        return self.b.shape[1]


@dataclass(frozen=True)
class NoiseSpec:
    """Process/measurement noise covariances and the initial state prior."""

    sigma_w: np.ndarray
    sigma_z: np.ndarray
    x0_mean: np.ndarray
    sigma_0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sigma_w", _as_matrix(self.sigma_w, "sigma_w"))
        object.__setattr__(self, "sigma_z", _as_matrix(self.sigma_z, "sigma_z"))
        object.__setattr__(self, "x0_mean", _as_vector(self.x0_mean, "x0_mean"))
        object.__setattr__(self, "sigma_0", _as_matrix(self.sigma_0, "sigma_0"))


@dataclass(frozen=True)
class CostSpec:
    """Stage cost q/r and terminal cost q_t; all must be symmetric PD."""

    q: np.ndarray
    q_t: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", _as_matrix(self.q, "q"))
        object.__setattr__(self, "q_t", _as_matrix(self.q_t, "q_t"))
        object.__setattr__(self, "r", _as_matrix(self.r, "r"))


class BatchCheckError(ValueError):
    """A numerical check failed on a stack of items.

    ``check`` is the failed check's message, ``index`` the position of the
    first failing item in the stack and ``detail`` an optional figure
    (e.g. a condition number); ``str()`` gives the check and the detail.
    """

    def __init__(self, check, index, detail=None):
        self.check = check
        self.index = int(index)
        self.detail = detail
        super().__init__(check if detail is None else f"{check} ({detail})")

    def localized(self, where):
        """The failure restated as a ValueError at `where` (e.g. "step 3"):
        "<check>: <where>, <detail>"."""
        detail = "" if self.detail is None else f", {self.detail}"
        return ValueError(f"{self.check}: {where}{detail}")


def raise_first_failure(bad, check, detail=None):
    """Raise BatchCheckError for the first True entry of the mask ``bad``;
    ``detail(index)``, when given, supplies its figure."""
    if bad.any():
        index = int(np.argmax(bad))
        raise BatchCheckError(check, index, None if detail is None else detail(index))


def check_beliefs(means, covs):
    """BeliefState's checks on a stack of beliefs, means (R, n) and covs
    (R, n, n), all at once: finite entries, covariance symmetric within
    SYM_TOL (relative to max(1, max |entry|)) and PSD within PSD_TOL.

    Raises BatchCheckError naming the first failing belief.
    """
    raise_first_failure(~np.isfinite(means).all(axis=-1), "mean has non-finite entries")
    raise_first_failure(~np.isfinite(covs).all(axis=(-2, -1)), "cov has non-finite entries")
    if covs.shape[-1] == 0:
        return
    scale = np.maximum(1.0, np.abs(covs).max(axis=(-2, -1)))
    asym = np.abs(covs - covs.swapaxes(-1, -2)).max(axis=(-2, -1))
    raise_first_failure(asym > SYM_TOL * scale, "cov not symmetric")
    low = np.linalg.eigvalsh(symmetrize(covs)).min(axis=-1)
    raise_first_failure(low < -PSD_TOL, "cov not PSD",
                        lambda i: f"min eigenvalue {low[i]:.3e}")


@dataclass(frozen=True)
class BeliefState:
    """Predicted state estimate and its error covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = _as_vector(self.mean, "mean")
        cov = _as_matrix(self.cov, "cov")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"cov shape {cov.shape} does not match mean size {mean.size}")
        check_beliefs(mean[None], cov[None])
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def add(self, message):
        self.violations.append(message)


def _check_sym_pd(report, mat, name, *, strict):
    if not is_symmetric(mat, tol=1e-12):
        report.add(f"{name} not symmetric")
        return
    lo = min_eigenvalue(mat)
    if strict and lo <= 0.0:
        report.add(f"{name} not positive definite")
    elif not strict and lo < -PSD_TOL:
        report.add(f"{name} not positive semidefinite")


def validate_system(sys, noise, cost):
    """Cross-check a system/noise/cost triple; returns a ValidationReport.

    Report-style: never raises, callers decide whether to abort.
    """
    report = ValidationReport()
    n, m, p = sys.n, sys.m, sys.p
    if len(sys.ck) != p:
        report.add("ck count mismatch")
    if noise.sigma_w.shape != (n, n):
        report.add(f"sigma_w shape {noise.sigma_w.shape} != ({n}, {n})")
    else:
        _check_sym_pd(report, noise.sigma_w, "sigma_w", strict=False)
    if noise.sigma_z.shape != (m, m):
        report.add(f"sigma_z shape {noise.sigma_z.shape} != ({m}, {m})")
    else:
        _check_sym_pd(report, noise.sigma_z, "sigma_z", strict=True)
    if noise.x0_mean.shape != (n,):
        report.add(f"x0_mean length {noise.x0_mean.size} != {n}")
    if noise.sigma_0.shape != (n, n):
        report.add(f"sigma_0 shape {noise.sigma_0.shape} != ({n}, {n})")
    else:
        _check_sym_pd(report, noise.sigma_0, "sigma_0", strict=True)
    for mat, name, dim in ((cost.q, "q", n), (cost.q_t, "q_t", n), (cost.r, "r", p)):
        if mat.shape != (dim, dim):
            report.add(f"{name} shape {mat.shape} != ({dim}, {dim})")
        else:
            _check_sym_pd(report, mat, name, strict=True)
    return report


def observation_matrix(sys, u):
    """Effective observation matrix c0 + sum_k u[k]*ck[k].

    A single input of length p gives an (m, n) matrix; a stack of inputs
    (R, p) gives one matrix per input, (R, m, n).  Summation runs in
    ascending k for bit-reproducibility.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2:
        u = u.reshape(-1)
    if u.shape[-1] != sys.p:
        raise ValueError(f"input length {u.shape[-1]} != p = {sys.p}")
    if len(sys.ck) != sys.p:
        raise ValueError("ck count mismatch")
    weights = u if u.ndim == 1 else u.T[..., None, None]
    c = sys.c0.copy()
    for k in range(sys.p):
        c = c + weights[k] * sys.ck[k]
    return c


def _box_muller(u1_words, u2_words):
    """Normals from raw 64-bit words: pair i takes u1 from u1_words[..., i]
    and u2 from u2_words[..., i]; cos/sin interleaved on the last axis."""
    u1 = ((u1_words >> np.uint64(11)).astype(float) + 1.0) * 2.0 ** -53
    u2 = (u2_words >> np.uint64(11)).astype(float) * 2.0 ** -53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    z = np.empty(u1.shape[:-1] + (2 * u1.shape[-1],))
    z[..., 0::2] = radius * np.cos(angle)
    z[..., 1::2] = radius * np.sin(angle)
    return z


class RngStream:
    """Counter-based random stream: Philox keyed by (seed, stream_id).

    Gaussian variates come from Box-Muller over the raw bit stream, so a
    given (seed, stream_id) replays the same sequence on every run.  Each
    stream is meant to be owned by a single rollout; substreams carve out
    independent key space (e.g. for initial-estimate draws) without
    disturbing the owner's sequence.
    """

    def __init__(self, seed, stream_id=0):
        seed = int(seed)
        stream_id = int(stream_id)
        if not 0 <= seed < 2 ** 64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if not 0 <= stream_id < 2 ** 64:
            raise ValueError("stream_id must be a 64-bit unsigned integer")
        self.seed = seed
        self.stream_id = stream_id
        self._bits = np.random.Philox(key=seed + (stream_id << 64))

    def substream(self, tag):
        """Independent stream with the same seed and a tagged id."""
        return RngStream(self.seed, self.stream_id ^ ((int(tag) + 1) << 48))

    def standard_normal(self, n):
        """n i.i.d. standard normal draws (Box-Muller pairs, cos/sin interleaved).

        A draw of n takes ceil(n/2) pairs: u1 from the first half of its
        2*ceil(n/2) raw words, u2 from the second; for odd n the last
        normal is dropped.
        """
        n = int(n)
        if n <= 0:
            return np.empty(0)
        pairs = (n + 1) // 2
        raw = self._bits.random_raw(2 * pairs)
        return _box_muller(raw[:pairs], raw[pairs:])[:n]


def normal_tape(streams, sizes):
    """What successive ``standard_normal(k)`` calls, k in sizes, would
    return on each stream, concatenated: shape (len(streams), sum(sizes)).

    Philox is counter-based, so each stream's raw words are fetched in one
    call and sliced exactly as the successive draws slice them; the
    streams advance as if the draws had been made.
    """
    sizes = [int(k) for k in sizes]
    pairs = np.array([(k + 1) // 2 for k in sizes], dtype=np.intp)
    starts = np.cumsum(2 * pairs) - 2 * pairs
    u1_index = np.concatenate([s + np.arange(p) for s, p in zip(starts, pairs)])
    u2_index = u1_index + np.repeat(pairs, pairs)
    keep = np.concatenate([s + np.arange(k) for s, k in zip(starts, sizes)])
    raw = np.stack([stream._bits.random_raw(int(2 * pairs.sum()))
                    for stream in streams])
    return _box_muller(raw[:, u1_index], raw[:, u2_index])[:, keep]


def gaussian_draws(mean, cov, normals):
    """mean + F z for each standard-normal vector z in normals (..., n).

    F F^T = cov, computed once: the lower Cholesky factor when cov is PD, a
    symmetric eigendecomposition otherwise (PSD-singular covariances are
    fine; cov = 0 returns the mean exactly).
    """
    mean = np.asarray(mean, dtype=float).reshape(-1)
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (mean.size, mean.size):
        raise ValueError("cov shape does not match mean")
    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(symmetrize(cov))
        if vals.min() < -PSD_TOL:
            raise ValueError(f"cov not PSD: min eigenvalue {vals.min():.3e}")
        factor = vecs * np.sqrt(np.clip(vals, 0.0, None))
    return mean + matvec(factor, normals)


def sample_gaussian(stream, mean, cov):
    """Draw one multivariate normal vector from the stream (see
    :func:`gaussian_draws`)."""
    return gaussian_draws(mean, cov, stream.standard_normal(np.size(mean)))


# config sections: key, the type built from it; each type's fields are the keys
CONFIG_SECTIONS = (("system", BilinearSystem), ("noise", NoiseSpec), ("cost", CostSpec))


def config_from_dict(data):
    """Build (system, noise, cost, horizon, runs, seed) from a config mapping."""
    try:
        sections = [(data[key], kind) for key, kind in CONFIG_SECTIONS]
        system, noise, cost = (kind(**{f.name: section[f.name] for f in fields(kind)})
                               for section, kind in sections)
        horizon = int(data["horizon"])
        runs = int(data["runs"])
        seed = int(data["seed"])
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        if runs < 1:
            raise ValueError(f"runs must be >= 1, got {runs}")
        if not 0 <= seed < 2 ** 64:
            raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    except KeyError as exc:
        raise ValueError(f"config missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config field invalid: {exc}") from exc
    return system, noise, cost, horizon, runs, seed


def load_config(path):
    """Load a JSON experiment config; raises ValueError with line/field context."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}") from exc
    try:
        return config_from_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _to_lists(value):
    return [c.tolist() for c in value] if isinstance(value, tuple) else value.tolist()


def config_to_dict(system, noise, cost, horizon, runs, seed):
    data = {key: {f.name: _to_lists(getattr(obj, f.name)) for f in fields(obj)}
            for (key, _), obj in zip(CONFIG_SECTIONS, (system, noise, cost))}
    data.update(horizon=int(horizon), runs=int(runs), seed=int(seed))
    return data
