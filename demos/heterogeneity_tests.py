"""
Where does between-trial disagreement come from?
================================================

Two trials can report different effects because they enrolled different
patients (case mix), or because something beyond the patients differed:
the protocol, the era, the way the treatment actually works there.  The
grid separates the two.  Comparing cells in the same row holds the
population fixed and varies the trial, so a within-row difference is
beyond-case-mix.  Comparing down a column varies only the population.

The conventional heterogeneity test compares the diagonal, where both
change at once, and the two sources can hide each other.
"""

import numpy as np

from casemix.formula import parse
from casemix.het import all_tests, report_records
from casemix.simlab import preset_config, generate_setting
from casemix.transport import GridSettings, effect_matrix, standardized_grid
from casemix.variance import sandwich_cov, attach_covariance

outcome = parse("y ~ 1 + treat + L + treat:L")


def tested_matrix(ds, measure="rr"):
    grid = standardized_grid(ds, GridSettings("ocr", outcome_formula=outcome))
    m = effect_matrix(grid, measure)
    attach_covariance(m, sandwich_cov(grid, measures=(measure,)))
    return m


def show(tests):
    for rec in report_records(tests):
        flag = "" if rec["feasible"] else "  (infeasible)"
        print(f"  {rec['hypothesis']:<28} T={rec['statistic']:8.3f}"
              f"  df={rec['df']}  p={rec['p_value']:.4f}{flag}")


# ---------------------------------------------------------------
# Scenario A: the trials differ only in whom they enrolled.  The
# same treatment mechanism runs in both.

ds_a = generate_setting(preset_config(1, n_total=6000), seed=3)
m_a = tested_matrix(ds_a)
print("scenario A: case-mix differences only")
show(all_tests(m_a))

# reading: the case-mix tests reject (moving the population really
# moves the effect) while the beyond-case-mix tests do not (within a
# row, both trials tell the same story).  the conventional test also
# rejects, but it cannot say which source it detected

# ---------------------------------------------------------------
# Scenario B: the treatment genuinely works better in trial 2, and
# the enrollment difference pushes the other way.  On the diagonal
# the two effects cancel, so the trials appear to agree.

cfg_b = preset_config(2, n_total=6000, s2_shift="treatment")
ds_b = generate_setting(cfg_b, seed=3)
m_b = tested_matrix(ds_b)
print("\nscenario B: a real trial-level difference masked by case mix")
show(all_tests(m_b))

diag = [m_b.cells[(j, j)].point for j in m_b.labels]
row1 = [m_b.cells[("1", k)].point for k in m_b.labels]
print(f"\n  diagonal RRs (what the trials themselves report): "
      f"{diag[0]:.3f} vs {diag[1]:.3f}")
print(f"  row-1 RRs (both trials standardized to population 1): "
      f"{row1[0]:.3f} vs {row1[1]:.3f}")

# the conventional test sees the nearly equal diagonal and stays
# quiet; the beyond-case-mix test compares like with like and flags
# the trial-level difference

# ---------------------------------------------------------------
# The tests run on the model scale (log RR here) by default; "raw"
# contrasts the untransformed values instead.

raw = all_tests(m_b, scale="raw")
print("\nscenario B again on the raw scale")
show(raw)
