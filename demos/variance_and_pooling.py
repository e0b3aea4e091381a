"""
Standard errors and pooled effects
==================================

The transported estimates are functions of fitted model coefficients,
so their uncertainty has to account for the model fitting too.  We get
a joint covariance for the whole grid two ways (stacked estimating
equations, and a within-trial bootstrap), then pool each target
population's row with a random-effects summary.
"""

import numpy as np

from casemix.formula import parse
from casemix.meta import pool_matrix, forest_rows
from casemix.simlab import preset_config, generate_setting
from casemix.transport import GridSettings, effect_matrix, standardized_grid
from casemix.variance import sandwich_cov, bootstrap_cov, attach_covariance

ds = generate_setting(preset_config(1, n_total=3000), seed=7)
outcome = parse("y ~ 1 + treat + L + treat:L")

grid = standardized_grid(ds, GridSettings("ocr", outcome_formula=outcome))
rr = effect_matrix(grid, "rr")

# ---------------------------------------------------------------
# Route 1: one stacked system containing every model score and every
# standardization, differentiated at the solution, then carried to the
# log-RR scale by the delta method.  No resampling.

sand = sandwich_cov(grid)
attach_covariance(rr, sand)

print("log-RR grid with sandwich standard errors")
for (j, k) in rr.cell_order():
    cell = rr.cells[(j, k)]
    print(f"  j={j} k={k}:  logRR={cell.transformed_point:+.4f}"
          f"  se={cell.se_transformed:.4f}")

# the full covariance is available as a matrix over the cell order,
# which the heterogeneity tests need (cells from the same data are
# strongly correlated, so per-cell SEs alone would not be enough)
sig = rr.sigma
c01 = sig[0, 1] / np.sqrt(sig[0, 0] * sig[1, 1])
print(f"\ncorrelation between the two target-1 cells: {c01:+.3f}")

# ---------------------------------------------------------------
# Route 2: resample subjects within trial, rebuild the grid with the
# same settings, take the empirical covariance of the replicates.
# Slower, fewer assumptions.

boot = bootstrap_cov(grid, B=200, seed=11)
se_sand = sand.se["rr"]
se_boot = boot.se["rr"]
print("\nsandwich vs bootstrap SEs (log RR scale)")
for i, (j, k) in enumerate(rr.cell_order()):
    print(f"  j={j} k={k}:  sandwich={se_sand[i]:.4f}  bootstrap={se_boot[i]:.4f}")

# ---------------------------------------------------------------
# Pooling: each row of the grid holds several estimates of the same
# target-population effect, one per source trial.  A random-effects
# summary combines them and prices in residual disagreement.

pooled = pool_matrix(rr)
for j, summ in pooled.items():
    print(f"\ntarget population {j}: pooled RR = {summ.point_natural():.4f}"
          f"  95% CI ({summ.ci_natural()[0]:.4f}, {summ.ci_natural()[1]:.4f})")
    print(f"  tau^2 = {summ.tau2:.5f}   I^2 = {summ.i2:.3f}")
    for row in forest_rows(summ):
        src = row["source"] if row["source"] is not None else "pooled"
        print(f"    {row['kind']:>6} {src:>6}:"
              f"  point={row['point']:+.4f}"
              f"  [{row['ci_lower']:+.4f}, {row['ci_upper']:+.4f}]"
              f"  weight={row['weight']:.3f}")
