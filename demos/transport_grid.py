"""
Standardizing trial results to each other's populations
=======================================================

Two randomized trials study the same treatment but enroll different
patients.  Each trial's own estimate answers a different question, so
comparing them directly mixes up the treatment with the case mix.  Here
we move every trial's result onto every trial's population: entry (j, k)
of the grid is "what trial k's data say the effect would be in trial j's
population".
"""

import numpy as np

from casemix.formula import parse
from casemix.simlab import preset_config, generate_setting
from casemix.transport import GridSettings, standardized_grid, effect_matrix

# a synthetic two-trial dataset with a known covariate shift:
# trial 2 enrolls systematically different L than trial 1
cfg = preset_config(1, n_total=3000)
ds = generate_setting(cfg, seed=20240817)

print("studies:", ds.studies)
for lab in ds.studies:
    m = ds.study_idx == ds.studies.index(lab)
    print(f"  trial {lab}: n={int(m.sum())}, "
          f"mean L={float(ds.covariate_columns()['L'][m].mean()):+.3f}")

# ---------------------------------------------------------------
# Outcome regression route: fit the outcome model on the source
# trial, then average its predictions over the target population.

outcome = parse("y ~ 1 + treat + L + treat:L")
grid = standardized_grid(ds, GridSettings("ocr", outcome_formula=outcome))

print("\nstandardized P(Y(x)=1), outcome-regression route")
print("  (target j, source k, arm x)")
for j in ds.studies:
    for k in ds.studies:
        p1 = grid[(j, k, 1)].prob
        p0 = grid[(j, k, 0)].prob
        print(f"  j={j} k={k}:  p1={p1:.4f}  p0={p0:.4f}")

# the diagonal (j == k) is just each trial analyzed on its own people;
# the off-diagonal cells are the transported versions
rr = effect_matrix(grid, "rr")
print("\nrisk ratio grid (rows = target population, cols = source trial)")
hdr = "        " + "".join(f"  k={k}   " for k in ds.studies)
print(hdr)
for j in ds.studies:
    row = "  ".join(f"{rr.cells[(j, k)].point:.4f}" for k in ds.studies)
    print(f"  j={j}   {row}")

# ---------------------------------------------------------------
# Weighting route: reweight the source trial so its covariates look
# like the target population, via a study-membership model.

ps = parse("study ~ 1 + L + L^2")
grid_w = standardized_grid(ds, GridSettings("ipw", ps_formula=ps))

print("\nsame grid, inverse-odds-weighting route")
for j in ds.studies:
    for k in ds.studies:
        p1 = grid_w[(j, k, 1)].prob
        p0 = grid_w[(j, k, 0)].prob
        print(f"  j={j} k={k}:  p1={p1:.4f}  p0={p0:.4f}")

# both routes estimate the same estimand, so with correct models they
# should land close to each other
diff = max(abs(grid[(j, k, x)].prob - grid_w[(j, k, x)].prob)
           for j in ds.studies for k in ds.studies for x in (0, 1))
print(f"\nlargest OCR vs IPW disagreement: {diff:.4f}")

# ---------------------------------------------------------------
# The weights deserve a look before trusting a weighted estimate.
# Heavy right tails mean a few source patients carry the whole cell.
# Each weighted cell keeps the diagnostics of the weights behind it.

diag = grid_w[("2", "1", 1)].weights_summary
print("\nweights for transporting trial 1 onto population 2:")
print(f"  n={int(ds.mask('1').sum())}  max={diag.max:.3f}  "
      f"95th pct={diag.p95:.3f}")
print(f"  effective sample size={diag.ess:.1f}  "
      f"over threshold {diag.threshold:g}: {diag.n_over_threshold}")

# stabilized weights cap the damage when the populations barely overlap;
# on well-behaved data they just reproduce the plain weighted answer
grid_s = standardized_grid(ds, GridSettings("ipw-stabilized", ps_formula=ps))
p = grid_s[("2", "1", 1)].prob
print(f"\nstabilized P(Y(1)=1) in population 2 from trial 1: {p:.4f}")
print(f"unstabilized same cell:                            "
      f"{grid_w[('2', '1', 1)].prob:.4f}")
