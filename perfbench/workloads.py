"""Workload definitions and the benchmark's own input generator.

The analyze CSVs are built here from the seed with numpy alone, never through
`casemix.simlab` or `casemix.ipd.save_ipd`, so a change to casemix cannot
change the inputs it is measured on. Study sizes and model coefficients are
fixed per workload; only the random draws depend on the seed, so every seed
asks for the same amount of work.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

import numpy as np

ANALYZE = "analyze"
SIMULATE = "simulate"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                       # ANALYZE or SIMULATE
    why: str
    K: int = 0                      # analyze: number of trials
    n: int = 0                      # analyze: rows; simulate: n_total per replication
    cli_args: tuple = ()            # casemix arguments besides input, seed and --out
    reps: int = 0                   # simulate only
    work_unit: str = "rows"
    # layers whose calls must be nonzero in a traced op (a zero means the
    # span wrapper missed a binding or the workload stopped exercising it)
    expect_layers: tuple = field(default_factory=tuple)

    @property
    def labels(self) -> tuple:
        """Study labels of the analyze input, in file order."""
        return tuple(str(k + 1) for k in range(self.K))

    @property
    def work(self) -> int:
        """Units of work per op: input rows (analyze) or replications (simulate)."""
        return self.reps if self.kind == SIMULATE else self.n


_ANALYZE_LAYERS = ("ipd.load", "ipd.mask", "formula.design", "glm.logistic",
                   "transport.grid", "transport.control_check", "variance.sandwich",
                   "variance.build_system", "variance.bread", "variance.meat",
                   "meta.pool", "het.tests", "cli.main")

WORKLOADS = {
    "analyze-ocr-k5": Workload(
        name="analyze-ocr-k5", kind=ANALYZE, K=5, n=200_000,
        why="analyst main path: CSV ingest and the large-n OCR sandwich dominate; "
            "no bootstrap and no multinomial fit",
        cli_args=("--method", "ocr",
                  "--outcome-formula", "y ~ 1 + treat + L1 + L2 + treat:L1",
                  "--measure", "rr", "--variance", "sandwich"),
        expect_layers=_ANALYZE_LAYERS),
    "analyze-ipw-k10": Workload(
        name="analyze-ipw-k10", kind=ANALYZE, K=10, n=100_000,
        why="stabilized IPW with a multinomial membership model: the wide stacked "
            "system (m=327) sets peak memory and the weights path runs",
        cli_args=("--method", "ipw-stabilized",
                  "--ps-formula", "study ~ 1 + L1 + L2",
                  "--measure", "rr", "--variance", "sandwich"),
        expect_layers=_ANALYZE_LAYERS + ("glm.multinomial",)),
    "simulate-boot": Workload(
        name="simulate-boot", kind=SIMULATE, n=1500, reps=20,
        work_unit="replications",
        why="thousands of small fits and grids with bootstrap resampling through "
            "IpdDataset.subset; no CSV ingest and no large-n sandwich",
        cli_args=("--preset", "1", "--analyses", "OCR1,IPW1", "--n-total", "1500",
                  "--bootstrap-b", "50", "--oracle-runs", "300"),
        expect_layers=("ipd.subset", "ipd.mask", "formula.design", "glm.logistic",
                       "transport.grid", "variance.sandwich", "variance.build_system",
                       "variance.bread", "variance.meat", "variance.bootstrap",
                       "het.tests", "simlab.generate", "simlab.oracle", "cli.main")),
}

# Tiny sizes for the benchmark's own tests (--smoke).
SMOKE = {
    "analyze-ocr-k5": {"n": 2000},
    "analyze-ipw-k10": {"n": 2000},
    "simulate-boot": {"reps": 2, "cli_args": ("--preset", "1", "--analyses", "OCR1,IPW1",
                                              "--n-total", "400", "--bootstrap-b", "4",
                                              "--oracle-runs", "20")},
}


def smoke(w: Workload) -> Workload:
    kw = {**w.__dict__, **SMOKE[w.name]}
    return Workload(**kw)


def _study_sizes(n: int, K: int) -> list:
    """Unequal, seed-independent trial sizes summing to n (largest about 2x smallest)."""
    raw = np.array([1.0 + k / max(K - 1, 1) for k in range(K)])
    sizes = np.floor(raw / raw.sum() * n).astype(int)
    sizes[-1] += n - int(sizes.sum())
    return sizes.tolist()


def analyze_rows(w: Workload, seed: int) -> tuple:
    """Arrays (study, treat, outcome, L1, L2) for one analyze input.

    Trial s enrolls a shifted case mix (mean of L1 and rate of L2 grow with s)
    and has its own baseline risk, so the grid has both case-mix and
    beyond-case-mix heterogeneity. Treatment is randomized 1:1 within trials.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), w.K, w.n]))
    K = w.K
    cols = {"study": [], "treat": [], "outcome": [], "L1": [], "L2": []}
    for s, size in enumerate(_study_sizes(w.n, K)):
        frac = s / max(K - 1, 1)
        L1 = rng.normal(-0.5 + frac, 1.0, size)
        L2 = (rng.random(size) < 0.3 + 0.4 * frac).astype(np.int64)
        treat = (rng.random(size) < 0.5).astype(np.int64)
        lp = (-1.0 + 0.3 * (frac - 0.5) - 0.5 * treat + 0.4 * L1 + 0.3 * L2
              + 0.2 * treat * L1)
        outcome = (rng.random(size) < 1.0 / (1.0 + np.exp(-lp))).astype(np.int64)
        cols["study"].append(np.full(size, s + 1))     # labels "1".."K"
        cols["treat"].append(treat)
        cols["outcome"].append(outcome)
        cols["L1"].append(L1)
        cols["L2"].append(L2)
    return tuple(np.concatenate(cols[c]) for c in ("study", "treat", "outcome", "L1", "L2"))


def write_analyze_csv(w: Workload, seed: int, path: str) -> dict:
    """Write the analyze input CSV; floats in shortest round-trip form (full
    precision). Returns the file's facts: path, rows, bytes and sha256."""
    study, treat, outcome, L1, L2 = analyze_rows(w, seed)
    lines = ["study,treat,outcome,L1,L2"]
    lines.extend(f"{s},{t},{y},{a!r},{b}" for s, t, y, a, b in
                 zip(study.tolist(), treat.tolist(), outcome.tolist(),
                     L1.tolist(), L2.tolist()))
    data = ("\n".join(lines) + "\n").encode("ascii")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(data)
    return {"path": os.path.basename(path), "rows": int(len(study)),
            "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
