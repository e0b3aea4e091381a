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


def _adjacent_contrast(cells: list, order: list, n_total: int) -> tuple:
    """(K-1)-row adjacent-difference contrast over the named cells."""
    M = np.zeros((len(cells) - 1, n_total))
    rows = []
    for r in range(len(cells) - 1):
        a, b = cells[r], cells[r + 1]
        M[r, order.index(a)] = 1.0
        M[r, order.index(b)] = -1.0
        rows.append(f"({a[0]},{a[1]}) - ({b[0]},{b[1]})")
    return M, rows


def _vector_and_sigma(matrix, scale: str) -> tuple:
    if matrix.sigma is None:
        raise ValueError("effect matrix has no covariance attached")
    v = matrix.transformed_vector()
    sigma = np.asarray(matrix.sigma, dtype=float)
    if scale == RAW and matrix.measure in ("rr", "or"):
        # back-transform: points exp(t), delta-method D Sigma D
        pts = np.exp(v)
        D = np.diag(np.where(np.isfinite(pts), pts, np.nan))
        sigma = D @ sigma @ D
        v = pts
    elif scale not in (RAW, TRANSFORMED):
        raise ValueError(f"unknown scale {scale!r}")
    return v, sigma


def _run(matrix, cells, hypothesis, scale) -> WaldTestResult:
    if matrix.K < 2:
        raise ValueError("heterogeneity tests need at least two trials")
    order = matrix.cell_order()
    v, sigma = _vector_and_sigma(matrix, scale)
    M, rows = _adjacent_contrast(cells, order, len(order))
    try:
        return wald_test(v, sigma, M, scale=scale, hypothesis=hypothesis,
                         contrast_rows=rows)
    except SingularContrastCovariance as e:
        return WaldTestResult(
            hypothesis=hypothesis, contrast_rows=rows,
            statistic=float("nan"), df=M.shape[0], p_value=float("nan"),
            scale=scale, feasible=False,
            condition_number=e.condition_number,
            note="singular contrast covariance")


def beyond_casemix_test(matrix, j, scale: str = TRANSFORMED) -> WaldTestResult:
    """Equality of all source trials standardized to target j."""
    if j not in matrix.labels:
        raise ValueError(f"unknown target {j!r}")
    cells = [(j, k) for k in matrix.labels]
    return _run(matrix, cells, f"beyond-case-mix[target={j}]", scale)


def casemix_test(matrix, k, scale: str = TRANSFORMED) -> WaldTestResult:
    """Equality of source k standardized to every target population."""
    if k not in matrix.labels:
        raise ValueError(f"unknown source {k!r}")
    cells = [(j, k) for j in matrix.labels]
    return _run(matrix, cells, f"case-mix[source={k}]", scale)


def conventional_test(matrix, scale: str = TRANSFORMED) -> WaldTestResult:
    """Equality of the within-trial marginal effects (the diagonal)."""
    cells = [(j, j) for j in matrix.labels]
    return _run(matrix, cells, "conventional", scale)


def all_tests(matrix, scale: str = TRANSFORMED) -> list:
    """Every beyond-case-mix and case-mix test plus the conventional one."""
    out = [beyond_casemix_test(matrix, j, scale) for j in matrix.labels]
    out += [casemix_test(matrix, k, scale) for k in matrix.labels]
    out.append(conventional_test(matrix, scale))
    return out


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
