"""Wald decomposition of between-trial heterogeneity.

Holding the target population fixed and varying the source trial isolates
differences that case-mix standardization cannot remove (beyond-case-mix);
holding the source fixed and varying the target isolates the case-mix
component; the diagonal comparison is the conventional test of the published
marginal effects. All three reduce to quadratic-form contrasts over the same
K^2 effect vector and its joint covariance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._special import chi2_sf
from .errors import SingularContrastCovariance
from .transport import LOG_MEASURES

TRANSFORMED = "transformed"
RAW = "raw"
COND_LIMIT = 1e12


@dataclass
class WaldTestResult:
    hypothesis: str
    contrast_rows: list                 # human-readable row descriptions
    statistic: float
    df: int
    p_value: float
    scale: str
    feasible: bool = True
    condition_number: Optional[float] = None
    note: Optional[str] = None

    def reject(self, alpha: float = 0.05) -> bool:
        return self.feasible and self.p_value < alpha


def wald_test(estimates: Sequence[float], sigma: np.ndarray, M: np.ndarray,
              scale: str = TRANSFORMED, hypothesis: str = "contrast",
              contrast_rows: Optional[list] = None) -> WaldTestResult:
    """T = (Mv)' (M Sigma M')^-1 (Mv), df = rank(M), upper-tail chi-square p.

    Undefined inputs touched by the contrast make the test infeasible (NaN
    statistic, feasible=False). A numerically singular contrast covariance
    raises SingularContrastCovariance.
    """
    v = np.asarray(estimates, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[1] != len(v) or sigma.shape != (len(v), len(v)):
        raise ValueError("contrast, estimates and covariance shapes disagree")
    df = int(np.linalg.matrix_rank(M))
    if df == 0:
        raise ValueError("contrast matrix has rank zero")

    needed = np.flatnonzero(np.any(M != 0, axis=0))
    if df < M.shape[0]:
        # dependent rows restate a hypothesis already present; an orthonormal
        # row basis spans the same constraints and keeps M Sigma M' invertible
        M = np.linalg.svd(M)[2][:df]
    bad = (~np.isfinite(v[needed])) | np.any(~np.isfinite(sigma[np.ix_(needed, needed)]),
                                             axis=1)
    if np.any(bad):
        return WaldTestResult(
            hypothesis=hypothesis, contrast_rows=contrast_rows or [],
            statistic=float("nan"), df=df, p_value=float("nan"), scale=scale,
            feasible=False, note="undefined estimate or covariance entry")

    # restrict to touched columns: a zero coefficient times an undefined
    # entry elsewhere in sigma must not poison the quadratic form
    Msub = M[:, needed]
    d = Msub @ v[needed]
    V = Msub @ sigma[np.ix_(needed, needed)] @ Msub.T
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(V))):
        raise SingularContrastCovariance(
            "contrast covariance is not finite", condition_number=float("inf"))
    try:
        cond = float(np.linalg.cond(V))
    except np.linalg.LinAlgError:
        cond = float("inf")
    if not np.isfinite(cond) or cond >= COND_LIMIT:
        raise SingularContrastCovariance(
            f"contrast covariance condition number {cond:.3g} exceeds {COND_LIMIT:g}",
            condition_number=cond)
    T = float(d @ np.linalg.solve(V, d))
    T = max(T, 0.0)
    return WaldTestResult(
        hypothesis=hypothesis, contrast_rows=contrast_rows or [],
        statistic=T, df=df, p_value=chi2_sf(df, T), scale=scale,
        condition_number=cond)


def _vector_and_sigma(matrix, scale: str) -> tuple:
    if matrix.sigma is None:
        raise ValueError("effect matrix has no covariance attached")
    v = matrix.transformed_vector()
    sigma = np.asarray(matrix.sigma, dtype=float)
    if scale == RAW and matrix.measure in LOG_MEASURES:
        # back-transform: points exp(t), delta-method D Sigma D for the
        # diagonal D of the points, entry by entry, so that an undefined
        # cell leaves the other cells' entries defined
        pts = np.exp(v)
        d = np.where(np.isfinite(pts), pts, np.nan)
        sigma = d[:, None] * sigma * d[None, :]
        v = pts
    elif scale not in (RAW, TRANSFORMED):
        raise ValueError(f"unknown scale {scale!r}")
    return np.asarray(v, dtype=float), sigma


def _run(matrix, tests, scale) -> list:
    """The Wald tests `tests`, (hypothesis, cells) pairs of K distinct cells
    each, that the K cells' estimates are equal, all on one v and Sigma.
    Each test's contrast is the K-1 adjacent differences D of its cells, so
    df = K-1; d = D v and V = D Sigma D' are formed for every test at once,
    and the condition numbers and solves are one batched call each. A test
    is infeasible, as `wald_test` would make it, when an estimate or
    covariance entry of its cells is undefined, or when V is not finite or
    has a condition number of at least COND_LIMIT."""
    if matrix.K < 2:
        raise ValueError("heterogeneity tests need at least two trials")
    order = {jk: i for i, jk in enumerate(matrix.cell_order())}
    v, sigma = _vector_and_sigma(matrix, scale)
    if sigma.shape != (len(v), len(v)):
        raise ValueError("contrast, estimates and covariance shapes disagree")
    idx = np.array([[order[jk] for jk in cells] for _, cells in tests])   # T x K
    T, K = idx.shape
    D = np.eye(K - 1, K) - np.eye(K - 1, K, 1)
    vt, st = v[idx], sigma[idx[:, :, None], idx[:, None, :]]
    defined = np.isfinite(vt).all(axis=1) & np.isfinite(st).all(axis=(1, 2))
    d, V = np.zeros((T, K - 1)), np.zeros((T, K - 1, K - 1))
    d[defined], V[defined] = vt[defined] @ D.T, D @ st[defined] @ D.T
    finite = defined & np.isfinite(d).all(axis=1) & np.isfinite(V).all(axis=(1, 2))
    cond = np.full(T, np.inf)           # a V that is not finite is singular
    cond[finite] = np.linalg.cond(V[finite])
    ok = cond < COND_LIMIT
    stat = np.full(T, np.nan)
    x = np.linalg.solve(V[ok], d[ok, :, None])[..., 0]
    stat[ok] = [max(float(a @ b), 0.0) for a, b in zip(d[ok], x)]

    out = []
    for t, (hypothesis, cells) in enumerate(tests):
        out.append(WaldTestResult(
            hypothesis=hypothesis,
            contrast_rows=[f"({a[0]},{a[1]}) - ({b[0]},{b[1]})" for a, b in zip(cells, cells[1:])],
            statistic=float(stat[t]), df=K - 1, p_value=chi2_sf(K - 1, stat[t]), scale=scale,
            feasible=bool(ok[t]), condition_number=float(cond[t]) if defined[t] else None,
            note=None if ok[t] else "singular contrast covariance" if defined[t]
            else "undefined estimate or covariance entry"))
    return out


def beyond_casemix_test(matrix, j, scale: str = TRANSFORMED) -> WaldTestResult:
    """Equality of all source trials standardized to target j."""
    if j not in matrix.labels:
        raise ValueError(f"unknown target {j!r}")
    return _run(matrix, [_beyond(matrix, j)], scale)[0]


def casemix_test(matrix, k, scale: str = TRANSFORMED) -> WaldTestResult:
    """Equality of source k standardized to every target population."""
    if k not in matrix.labels:
        raise ValueError(f"unknown source {k!r}")
    return _run(matrix, [_casemix(matrix, k)], scale)[0]


def conventional_test(matrix, scale: str = TRANSFORMED) -> WaldTestResult:
    """Equality of the within-trial marginal effects (the diagonal)."""
    return _run(matrix, [_conventional(matrix)], scale)[0]


def _beyond(matrix, j) -> tuple:
    return f"beyond-case-mix[target={j}]", [(j, k) for k in matrix.labels]


def _casemix(matrix, k) -> tuple:
    return f"case-mix[source={k}]", [(j, k) for j in matrix.labels]


def _conventional(matrix) -> tuple:
    return "conventional", [(j, j) for j in matrix.labels]


def all_tests(matrix, scale: str = TRANSFORMED) -> list:
    """Every beyond-case-mix and case-mix test plus the conventional one, in
    one batched `_run`."""
    return _run(matrix, [_beyond(matrix, j) for j in matrix.labels]
                + [_casemix(matrix, k) for k in matrix.labels] + [_conventional(matrix)], scale)


def report_records(results: Sequence[WaldTestResult]) -> list:
    """Flat dict per test, ready for CSV/JSON serialization."""
    return [{
        "hypothesis": r.hypothesis,
        "scale": r.scale,
        "statistic": r.statistic,
        "df": r.df,
        "p_value": r.p_value,
        "feasible": r.feasible,
    } for r in results]
