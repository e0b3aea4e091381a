"""Random-effects pooling of one target population's standardized effects.

Each row of an effect matrix holds the effects of K source trials standardized
to the same target population j. Pooling that row answers: what is the average
effect in population j across the evidence base, and how much do the sources
disagree beyond sampling noise?
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import NoEstimableInputs
from .transport import to_natural

Z975 = 1.959963984540054           # ndtri(0.975), the normal 97.5% quantile

REML_MAX_ITER = 200
REML_TOL = 1e-10


@dataclass
class MetaSummary:
    target: object
    measure: str
    estimate: float                     # pooled, on the transformed scale
    se: float
    ci_lower: float
    ci_upper: float
    tau2: float
    i2: float
    q: float
    k_used: int
    tau2_method: str = "dl"
    sources: list = field(default_factory=list)
    points: list = field(default_factory=list)
    ses: list = field(default_factory=list)
    weights: list = field(default_factory=list)  # normalized random-effects weights
    dropped: list = field(default_factory=list)

    def point_natural(self) -> float:
        """Pooled estimate back on the natural scale (exp for rr/or)."""
        return to_natural(self.measure, self.estimate)

    def ci_natural(self) -> tuple:
        return (to_natural(self.measure, self.ci_lower), to_natural(self.measure, self.ci_upper))


def _dl_tau2(y: np.ndarray, v: np.ndarray) -> tuple:
    """DerSimonian-Laird moment estimator; also returns Q from the same pass."""
    w = 1.0 / v
    mu_fe = float(w @ y / w.sum())
    q = float(w @ (y - mu_fe) ** 2)
    k = len(y)
    denom = w.sum() - (w ** 2).sum() / w.sum()
    tau2 = max(0.0, (q - (k - 1)) / denom) if denom > 0 else 0.0
    return tau2, q


def _reml_tau2(y: np.ndarray, v: np.ndarray) -> float:
    """Fixed-point REML iteration; falls back to the moment value on failure."""
    tau2, _ = _dl_tau2(y, v)
    k = len(y)
    if k < 2:
        return 0.0
    for _ in range(REML_MAX_ITER):
        w = 1.0 / (v + tau2)
        mu = float(w @ y / w.sum())
        num = float(w ** 2 @ ((y - mu) ** 2 - v)) + tau2 * float((w ** 2).sum() / w.sum())
        new = max(0.0, num / float((w ** 2).sum()))
        if abs(new - tau2) < REML_TOL * (1.0 + tau2):
            return new
        tau2 = new
    return tau2


def pool_row(points: Sequence[float], ses: Sequence[float],
             sources: Optional[Sequence] = None,
             target=None, measure: str = "rr",
             tau2_method: str = "dl") -> MetaSummary:
    """Pool one target population's row of transformed effects.

    Entries with a missing point or a missing/zero SE are dropped and listed
    in the summary; pooling a single usable entry returns it unchanged with
    tau2 = 0.
    """
    if tau2_method not in ("dl", "reml"):
        raise ValueError(f"unknown tau2 method {tau2_method!r}")
    points = list(points)
    ses = list(ses)
    if sources is None:
        sources = list(range(len(points)))
    if not (len(points) == len(ses) == len(sources)):
        raise ValueError("points, ses and sources must have equal length")

    keep, dropped = [], []
    for src, pt, se in zip(sources, points, ses):
        ok = (pt is not None and se is not None
              and np.isfinite(pt) and np.isfinite(se) and se > 0)
        (keep if ok else dropped).append((src, pt, se))
    if not keep:
        raise NoEstimableInputs(
            f"no usable inputs to pool for target {target!r} ({measure})")

    y = np.array([pt for _, pt, _ in keep], dtype=float)
    v = np.array([se for _, _, se in keep], dtype=float) ** 2
    k = len(y)

    if k == 1:
        est, se_p, tau2, q, i2 = float(y[0]), float(np.sqrt(v[0])), 0.0, 0.0, 0.0
        wts = [1.0]
    else:
        tau2_dl, q = _dl_tau2(y, v)
        tau2 = _reml_tau2(y, v) if tau2_method == "reml" else tau2_dl
        w = 1.0 / (v + tau2)
        est = float(w @ y / w.sum())
        se_p = float(np.sqrt(1.0 / w.sum()))
        i2 = max(0.0, (q - (k - 1)) / q) if q > 0 else 0.0
        wts = list(w / w.sum())

    return MetaSummary(
        target=target, measure=measure,
        estimate=est, se=se_p,
        ci_lower=est - Z975 * se_p, ci_upper=est + Z975 * se_p,
        tau2=float(tau2), i2=float(i2), q=float(q), k_used=k,
        tau2_method=tau2_method,
        sources=[src for src, _, _ in keep],
        points=[float(pt) for _, pt, _ in keep],
        ses=[float(se) for _, _, se in keep],
        weights=[float(x) for x in wts],
        dropped=[src for src, _, _ in dropped])


def pool_matrix(matrix, tau2_method: str = "dl") -> dict:
    """Pool every row of an effect matrix; returns {target: MetaSummary}.

    Rows with no usable cell are skipped rather than raised so one degenerate
    target does not abort the rest.
    """
    out = {}
    for j in matrix.labels:
        points, ses, sources = [], [], []
        for k in matrix.labels:
            cell = matrix.cells[(j, k)]
            points.append(cell.transformed_point if cell.defined else None)
            ses.append(cell.se_transformed)
            sources.append(k)
        try:
            out[j] = pool_row(points, ses, sources=sources, target=j,
                              measure=matrix.measure, tau2_method=tau2_method)
        except NoEstimableInputs:
            continue
    return out


def forest_rows(summary: MetaSummary) -> list:
    """Per-source and pooled rows for a forest display, as plain dicts."""
    rows = []
    for src, pt, se, w in zip(summary.sources, summary.points,
                              summary.ses, summary.weights):
        rows.append({
            "target": summary.target, "source": src, "kind": "study",
            "measure": summary.measure, "point": pt, "se": se,
            "ci_lower": pt - Z975 * se, "ci_upper": pt + Z975 * se,
            "weight": w,
        })
    rows.append({
        "target": summary.target, "source": None, "kind": "pooled",
        "measure": summary.measure, "point": summary.estimate, "se": summary.se,
        "ci_lower": summary.ci_lower, "ci_upper": summary.ci_upper,
        "weight": 1.0,
    })
    return rows
