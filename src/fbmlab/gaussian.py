"""Exact Gaussian conditioning: Schur-complement variances, the
conditional-variance flip identity, local-nondeterminism ratios, and PSD
matrix square roots."""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .constants import _integer, _real
from .fbm import covariance

__all__ = [
    "GaussianVectorSpec", "SingularConditioningWarning", "fbm_vector_spec",
    "conditional_variance", "flip_variance_check", "lnd_ratio", "psd_sqrt",
]


class SingularConditioningWarning(UserWarning):
    """Raised (as a warning) when a conditioning block is numerically
    singular and an eigenvalue-truncated pseudo-inverse is used."""


@dataclass(frozen=True)
class GaussianVectorSpec:
    """Covariance matrix of a centered Gaussian vector, with index labels."""

    covariance: np.ndarray
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=float)
        object.__setattr__(self, "covariance", cov)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError("covariance must be a square matrix")
        if not np.allclose(cov, cov.T, atol=1e-10 * max(1.0, np.abs(cov).max())):
            raise ValueError("covariance must be symmetric")
        trace = np.trace(cov)
        eigmin = np.linalg.eigvalsh(cov).min()
        if eigmin < -1e-10 * max(trace, 1.0):
            raise ValueError(f"covariance has eigenvalue {eigmin:g} below the "
                             "tolerated numerical negativity")
        if self.labels is not None and len(self.labels) != cov.shape[0]:
            raise ValueError("labels length must match dimension")

    @property
    def dim(self) -> int:
        return self.covariance.shape[0]

    def index_of(self, key) -> int:
        """The index of ``key``: an integer in [0, dim) or one of the
        labels.  A negative or out-of-range integer raises ``IndexError``,
        an unknown label ``KeyError``, a bool ``ValueError``."""
        if isinstance(key, (int, np.integer)):
            key = _integer("index", key)
            if not 0 <= key < self.dim:
                raise IndexError(f"index {key} is out of range for "
                                 f"dimension {self.dim}")
            return key
        if self.labels is None:
            raise KeyError(f"{key!r}: spec has no labels; use integer "
                           "indices")
        if key not in self.labels:
            raise KeyError(f"unknown label {key!r}; labels: {self.labels}")
        return self.labels.index(key)


def fbm_vector_spec(H: float, times: Sequence[float]) -> GaussianVectorSpec:
    """Spec of (B_{t_1}, ..., B_{t_m}) for fBm with parameter H."""
    t = np.asarray(times, dtype=float)
    cov = covariance(H, t[:, None], t[None, :])
    labels = tuple(f"B({ti:g})" for ti in t)
    return GaussianVectorSpec(cov, labels)


def _solve_given_block(cov_gg: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve cov_gg @ x = rhs, falling back to an eigenvalue-truncated
    pseudo-inverse (threshold 1e-12 * max eigenvalue) with a warning."""
    try:
        cond = np.linalg.cond(cov_gg)
    except np.linalg.LinAlgError:
        cond = np.inf
    if cond < 1e12:
        return np.linalg.solve(cov_gg, rhs)
    warnings.warn("conditioning block is numerically singular; using "
                  "eigenvalue-truncated pseudo-inverse",
                  SingularConditioningWarning)
    vals, vecs = np.linalg.eigh(cov_gg)
    cut = 1e-12 * vals.max()
    inv = np.where(vals > cut, 1.0 / np.where(vals > cut, vals, 1.0), 0.0)
    return vecs @ (inv * (vecs.T @ rhs))


def conditional_variance(spec: GaussianVectorSpec, target, given) -> float:
    """Var[X_target | X_given] via the Schur complement."""
    i = spec.index_of(target)
    g = [spec.index_of(k) for k in given]
    cov = spec.covariance
    if i in g:
        return 0.0
    if not g:
        return float(cov[i, i])
    sub = cov[np.ix_(g, g)]
    cross = cov[g, i]
    val = cov[i, i] - float(cross @ _solve_given_block(sub, cross))
    return max(val, 0.0)


def flip_variance_check(spec: GaussianVectorSpec, A, B,
                        N: Sequence = ()) -> tuple[float, float]:
    """Both sides of Var[B | N,A] = Var[A | N,B] Var[B | N] / Var[A | N],
    computed independently so callers can assert their agreement."""
    eigvals = np.linalg.eigvalsh(spec.covariance)
    if eigvals.min() <= 1e-12 * eigvals.max():
        raise ValueError("flip identity requires a non-degenerate spec")
    a = spec.index_of(A)
    b = spec.index_of(B)
    n = [spec.index_of(k) for k in N]
    lhs = conditional_variance(spec, b, n + [a])
    var_a_nb = conditional_variance(spec, a, n + [b])
    var_b_n = conditional_variance(spec, b, n)
    var_a_n = conditional_variance(spec, a, n)
    if var_a_n == 0.0:
        raise ValueError("degenerate spec: Var[A | N] vanishes")
    return lhs, var_a_nb * var_b_n / var_a_n


def lnd_ratio(H: float, t: float, grid: Sequence[float]) -> float:
    """Conditional variance of B_t given the grid values, divided by
    (min distance to the grid)^(2H): a local-nondeterminism diagnostic."""
    t = _real("t", t)
    if t <= 0:
        raise ValueError("t must be positive")
    grid = [_real("a grid time", tj) for tj in grid]
    if not grid:
        raise ValueError("grid must be nonempty")
    gap = min(abs(t - tj) for tj in grid)
    if gap == 0.0:
        raise ValueError("t coincides with a grid point")
    spec = fbm_vector_spec(H, grid + [t])
    var = conditional_variance(spec, spec.dim - 1, list(range(spec.dim - 1)))
    return var / gap ** (2 * H)


def psd_sqrt(M: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root by spectral decomposition of a matrix that
    ``GaussianVectorSpec`` accepts as a covariance (square, symmetric, no
    eigenvalue below -1e-10 * max(trace, 1)); the tolerated negative
    eigenvalues are clamped to zero."""
    vals, vecs = np.linalg.eigh(GaussianVectorSpec(M).covariance)
    root = vecs @ np.diag(np.sqrt(np.maximum(vals, 0.0))) @ vecs.T
    return 0.5 * (root + root.T)
