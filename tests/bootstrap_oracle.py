"""Per-replicate bootstrap oracle: the stratified bootstrap as one full grid
per replicate.

Each replicate draws the same indices as `variance.bootstrap_cov`, builds the
resampled dataset with `IpdDataset.subset` and recomputes the whole grid with
`standardized_grid` and the parent's settings; a replicate that raises is
excluded everywhere and counted by exception name. The covariance is the
pairwise-complete covariance computed pair by pair. `bootstrap_cov` must
agree with this on sigma, on the exclusion counts and on its warnings.
"""

from collections import Counter

import numpy as np

from casemix.errors import CasemixError
from casemix.transport import effect_transform, standardized_grid
from casemix.variance import _entropy, _se_from_sigma


def replicate_probs(grid, B, seed=0, _indices=None, settings=None) -> tuple:
    """([replicate, cell, arm] probabilities, failures by exception name)."""
    ds = grid.ds
    order = [(j, k) for j in ds.studies for k in ds.studies]
    probs = np.full((B, len(order), 2), np.nan)
    failures: Counter = Counter()
    for b in range(B):
        rng = np.random.default_rng(np.random.SeedSequence(_entropy(seed) + [b]))
        if _indices is not None:
            idx = _indices(b, rng, ds.study_rows)
        else:
            idx = np.concatenate([rows[rng.integers(0, len(rows), size=len(rows))]
                                  for rows in ds.study_rows])
        try:
            rep = standardized_grid(ds.subset(np.asarray(idx)), settings or grid.settings)
        except (CasemixError, np.linalg.LinAlgError) as e:
            failures[type(e).__name__] += 1
            continue
        probs[b] = [[rep[(j, k, x)].prob for x in (0, 1)] for j, k in order]
    return probs, dict(sorted(failures.items()))


def pairwise_cov_loop(D: np.ndarray) -> np.ndarray:
    """Pairwise-complete covariance of D's columns, one pair at a time."""
    m = D.shape[1]
    valid = np.isfinite(D)
    M = np.full((m, m), np.nan)
    for a in range(m):
        for bcol in range(a, m):
            both = valid[:, a] & valid[:, bcol]
            nb = int(both.sum())
            if nb >= 2:
                da = D[both, a] - D[both, a].mean()
                db = D[both, bcol] - D[both, bcol].mean()
                M[a, bcol] = M[bcol, a] = float(da @ db) / (nb - 1)
    return M


def oracle_bootstrap(grid, measures, B, seed=0, _indices=None, settings=None) -> dict:
    """sigma, se and per-cell exclusions per measure, and failures by name."""
    probs, failures = replicate_probs(grid, B, seed, _indices, settings)
    out = {"sigma": {}, "se": {}, "excluded": {}, "failures": failures, "probs": probs}
    for msr in measures:
        msr = msr.lower()
        D = effect_transform(msr, probs[..., 1], probs[..., 0])[0]
        out["excluded"][msr] = (B - np.isfinite(D).sum(axis=0)).astype(int)
        out["sigma"][msr] = pairwise_cov_loop(D)
        out["se"][msr] = _se_from_sigma(out["sigma"][msr])
    return out
