"""Shared domain types, validation, and deterministic random streams.

Conventions used throughout the package:

- all matrices are dense float64 numpy arrays, row-major;
- systems are tiny (n <= 10), so every solve goes through direct dense
  factorizations, numpy.linalg's only (the package needs numpy and click
  at run time, not scipy); :func:`chol_solve` solves with a matrix
  that it tests to be symmetric positive definite;
- covariance-producing operations re-symmetrize their output, and a matrix
  is accepted as PSD when its minimum eigenvalue is >= -1e-10.
"""

import json
import numbers
import operator
from dataclasses import dataclass, field, fields

import numpy as np

PSD_TOL = 1e-10
SYM_TOL = 1e-10
EPS = float(np.finfo(float).eps)  # 2u, twice the unit roundoff


def _numbers(x, name):
    """x as a float64 copy whose entries are each a real number: a bool or a
    string, which float() would take, is not."""
    if isinstance(x, np.ndarray) and x.dtype.kind in "iuf":
        return x.astype(float)
    items = np.asarray(x, dtype=object)
    for v in items.flat:
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise ValueError(f"{name} entries must be numbers, got {v!r}")
    return items.astype(float)


def _as_array(x, name, ndim=2):
    """x as a read-only float64 copy (_numbers) with ndim dimensions (a matrix
    by default) and finite entries."""
    a = _numbers(x, name)
    if a.ndim != ndim:
        kind = "1-d vector" if ndim == 1 else "2-d matrix"
        raise ValueError(f"{name} must be a {kind}, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    a.setflags(write=False)
    return a


def count(name, value, low, high=None):
    """value as a Python int in [low, high), unbounded above when high is None.

    The one rule of every count bilq takes (horizons, run counts, seeds,
    stream ids, grid points): an int or a numpy integer, read through
    operator.index; a bool, a float (2.0 too), a string or None is refused,
    and nothing is truncated.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if number < low or (high is not None and number >= high):
        below = "" if high is None else f" and below {high}"
        raise ValueError(f"{name} must be at least {low}{below}, got {number}")
    return number


def real(x, name):
    """x, a number or an array of one, as a Python float by _as_array's number
    rule (_numbers: a bool or a string is refused).  Its finiteness is the
    caller's to check, in the caller's words."""
    a = _numbers(x, name)
    if a.size != 1:
        raise ValueError(f"{name} must be a number, got shape {a.shape}")
    return float(a.reshape(-1)[0])


def grid_points(grid, least, owner):
    """lo, hi and the point count of a uniform grid (lo, hi, points): lo and hi
    numbers (see real), finite with lo < hi (else "<owner> requires a finite
    grid lo < hi"), then points a count of at least `least` (see count)."""
    lo, hi = real(grid[0], "grid lo"), real(grid[1], "grid hi")
    if not (np.isfinite([lo, hi]).all() and lo < hi):
        raise ValueError(f"{owner} requires a finite grid lo < hi")
    return lo, hi, count("grid points", grid[2], least)


def symmetrize(s):
    """Return (S + S^T)/2 (of each matrix in a stack); guards against
    eigenvalue drift over long rollouts."""
    return 0.5 * (s + s.swapaxes(-1, -2))


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
    """a^-1 b for symmetric PD a (n, n) and b (n, k): the Cholesky factorization
    tests that a is PD, then numpy's LU solve of a itself, so both triangles
    are read and callers pass symmetric matrices.

    A stack a (R, n, n) or b (R, n, k), the other stacked alike or shared,
    gives a C-contiguous (R, n, k), each item bit for bit its own solve;
    two numpy.linalg calls whatever R.  Non-finite input raises
    ValueError; a matrix that is not PD raises LinAlgError naming its index."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("chol_solve: array must not contain infs or NaNs")
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        _raise_not_pd(a)
        raise
    return np.linalg.solve(a, b)


def cholesky_certified(shifted, rows):
    """rows (a mask) if Cholesky factors shifted, the rows' matrices shifted, else none.
    Factored, k x k A + dA is PD, ||dA||_2 <= k (k + 1) u max_j a_jj / (1 - (k + 1) u)
    (Higham, Accuracy and Stability, 2002, thm 10.3); rows must exclude non-finite A."""
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return np.zeros_like(rows)
    return rows


def min_eigenvalue(s):
    return float(np.linalg.eigvalsh(symmetrize(s)).min())


@dataclass(frozen=True)
class BilinearSystem:
    """State transition pair (a, b) and observation family c0, ck[0..p-1].

    The effective observation matrix for an input u is
    ``c0 + sum_k u[k] * ck[k]``; ck holds one matrix per column of b.
    Shapes, n, m, p >= 1, that count and finiteness are enforced at
    construction; numeric invariants are reported by :func:`validate_system`.
    """

    a: np.ndarray
    b: np.ndarray
    c0: np.ndarray
    ck: tuple

    def __post_init__(self):
        a = _as_array(self.a, "a")
        b = _as_array(self.b, "b")
        c0 = _as_array(self.c0, "c0")
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"a must be square, got {a.shape}")
        n = a.shape[0]
        if b.shape[0] != n:
            raise ValueError(f"b must have {n} rows, got {b.shape}")
        if c0.shape[1] != n:
            raise ValueError(f"c0 must have {n} columns, got {c0.shape}")
        if 0 in (n, c0.shape[0], b.shape[1]):
            raise ValueError(f"n, m, p must be at least 1, got {n}, {c0.shape[0]}, {b.shape[1]}")
        ck = tuple(_as_array(c, f"ck[{i}]") for i, c in enumerate(self.ck))
        if len(ck) != b.shape[1]:
            raise ValueError(f"ck count {len(ck)} != {b.shape[1]} columns of b")
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
        object.__setattr__(self, "sigma_w", _as_array(self.sigma_w, "sigma_w"))
        object.__setattr__(self, "sigma_z", _as_array(self.sigma_z, "sigma_z"))
        object.__setattr__(self, "x0_mean", _as_array(self.x0_mean, "x0_mean", ndim=1))
        object.__setattr__(self, "sigma_0", _as_array(self.sigma_0, "sigma_0"))


@dataclass(frozen=True)
class CostSpec:
    """Stage cost q/r and terminal cost q_t; all must be symmetric PD."""

    q: np.ndarray
    q_t: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", _as_array(self.q, "q"))
        object.__setattr__(self, "q_t", _as_array(self.q_t, "q_t"))
        object.__setattr__(self, "r", _as_array(self.r, "r"))


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
    """The belief rule, on mean (n,) and cov (n, n) or a stack, (R, n) and (R, n, n), at
    once: cov shaped for the mean (else ValueError), finite entries, covariance symmetric
    within SYM_TOL (relative to max(1, max |entry|)) and PSD within PSD_TOL.

    A Cholesky of sym + (PSD_TOL / 2) I, where the scale keeps its error within
    PSD_TOL / 10, proves min eigenvalue >= -0.6 PSD_TOL; the other covs (all if
    it fails) take eigvalsh.  Raises BatchCheckError naming the first failing belief.
    """
    n = means.shape[-1]
    if covs.shape != means.shape + (n,):
        raise ValueError(f"cov shape {covs.shape} does not match mean size {n}")
    if n == 0:
        return
    means, covs = means.reshape(-1, n), covs.reshape(-1, n, n)
    raise_first_failure(~np.isfinite(means).all(axis=-1), "mean has non-finite entries")
    raise_first_failure(~np.isfinite(covs).all(axis=(-2, -1)), "cov has non-finite entries")
    scale = np.maximum(1.0, np.abs(covs).max(axis=(-2, -1)))
    asym = np.abs(covs - covs.swapaxes(-1, -2)).max(axis=(-2, -1))
    raise_first_failure(asym > SYM_TOL * scale, "cov not symmetric")
    fit = scale * (n * (n + 2) * EPS) <= 0.1 * PSD_TOL  # bounds its error, as scale >= 1
    rest = ~cholesky_certified(symmetrize(covs[fit]) + 0.5 * PSD_TOL * np.eye(n), fit)
    if rest.any():
        low = np.zeros(len(covs))
        low[rest] = np.linalg.eigvalsh(symmetrize(covs[rest])).min(axis=-1)
        raise_first_failure(low < -PSD_TOL, "cov not PSD",
                            lambda i: f"min eigenvalue {low[i]:.3e}")


@dataclass(frozen=True)
class BeliefState:
    """Predicted state estimate and its error covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = _as_array(self.mean, "mean", ndim=1)
        cov = _as_array(self.cov, "cov")
        check_beliefs(mean, cov)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations


def _check_matrix(report, mat, name, dim, *, strict):
    """Shape (dim, dim), then symmetry within 1e-12 (relative to max(1, max |entry|)),
    then PD (strict) or PSD within PSD_TOL."""
    if mat.shape != (dim, dim):
        report.violations.append(f"{name} shape {mat.shape} != ({dim}, {dim})")
    elif np.abs(mat - mat.T).max() > 1e-12 * max(1.0, np.abs(mat).max()):
        report.violations.append(f"{name} not symmetric")
    elif strict and min_eigenvalue(mat) <= 0.0:
        report.violations.append(f"{name} not positive definite")
    elif not strict and min_eigenvalue(mat) < -PSD_TOL:
        report.violations.append(f"{name} not positive semidefinite")


def validate_system(sys, noise, cost):
    """Cross-check a system/noise/cost triple; returns a ValidationReport.

    Report-style: never raises, callers decide whether to abort.
    """
    report = ValidationReport()
    n, m, p = sys.n, sys.m, sys.p
    _check_matrix(report, noise.sigma_w, "sigma_w", n, strict=False)
    _check_matrix(report, noise.sigma_z, "sigma_z", m, strict=True)
    if noise.x0_mean.shape != (n,):
        report.violations.append(f"x0_mean length {noise.x0_mean.size} != {n}")
    _check_matrix(report, noise.sigma_0, "sigma_0", n, strict=False)
    for mat, name, dim in ((cost.q, "q", n), (cost.q_t, "q_t", n), (cost.r, "r", p)):
        _check_matrix(report, mat, name, dim, strict=True)
    return report


def observation_matrix(sys, u):
    """Effective observation matrix c0 + sum_k u[k]*ck[k].

    A single input of length p gives an (m, n) matrix; a stack of inputs
    (R, p) gives one matrix per input, (R, m, n), and when sys holds
    stacks c0 and ck[k] of shape (R, m, n), input i takes the i-th of
    each.  Summation runs in ascending k for bit-reproducibility.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2:
        u = u.reshape(-1)
    if u.shape[-1] != sys.p:
        raise ValueError(f"input length {u.shape[-1]} != p = {sys.p}")
    weights = u if u.ndim == 1 else u.T[..., None, None]
    c = sys.c0  # p >= 1: the sums below are new arrays
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
    disturbing the owner's sequence.  seed and stream_id are integers in
    [0, 2**64) (see :func:`count`).
    """

    def __init__(self, seed, stream_id=0):
        self.seed = count("seed", seed, 0, 2 ** 64)
        self.stream_id = count("stream_id", stream_id, 0, 2 ** 64)
        self._bits = np.random.Philox(key=self.seed + (self.stream_id << 64))

    def substream(self, tag):
        """Independent stream with the same seed and a tagged id."""
        return RngStream(self.seed, self.stream_id ^ ((count("tag", tag, 0) + 1) << 48))

    def standard_normal(self, n):
        """n i.i.d. standard normal draws (Box-Muller pairs, cos/sin interleaved),
        n a count (see :func:`count`).

        A draw of n takes ceil(n/2) pairs: u1 from the first half of its
        2*ceil(n/2) raw words, u2 from the second; for odd n the last
        normal is dropped.
        """
        n = count("n", n, 0)
        pairs = (n + 1) // 2
        raw = self._bits.random_raw(2 * pairs)
        return _box_muller(raw[:pairs], raw[pairs:])[:n]


def normal_tape(streams, sizes):
    """What successive ``standard_normal(k)`` calls, k in sizes, would
    return on each stream, concatenated: shape (len(streams), sum(sizes)).

    Philox is counter-based, so each stream's raw words are fetched in one
    call and sliced as the successive draws slice them, by closed-form indices
    for all draws at once; the streams advance as if the draws had been made.
    """
    sizes = np.asarray(sizes, dtype=np.intp).reshape(-1)
    pairs = (sizes + 1) // 2
    before = np.cumsum(pairs) - pairs
    u1_index = np.repeat(before, pairs) + np.arange(pairs.sum())
    keep = np.repeat(2 * before - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())
    raw = np.stack([stream._bits.random_raw(int(2 * pairs.sum())) for stream in streams])
    return _box_muller(raw[:, u1_index], raw[:, u1_index + np.repeat(pairs, pairs)])[:, keep]


def gaussian_draws(mean, cov, normals):
    """mean + F z for each standard-normal vector z in normals (..., n).

    F F^T = cov, computed once: the lower Cholesky factor when cov is PD, a
    symmetric eigendecomposition otherwise (PSD-singular covariances are
    fine; cov = 0 returns the mean exactly).  Refuses what check_beliefs refuses.
    """
    mean = np.asarray(mean, dtype=float).reshape(-1)
    cov = np.asarray(cov, dtype=float)
    check_beliefs(mean, cov)
    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(symmetrize(cov))
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
        horizon, runs, seed = (count("horizon", data["horizon"], 1),
                               count("runs", data["runs"], 1),
                               count("seed", data["seed"], 0, 2 ** 64))
    except KeyError as exc:
        raise ValueError(f"config missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
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
