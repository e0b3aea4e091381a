"""The two special functions the package needs, in numpy and `math`.

`expit` is the logistic function and `chi2_sf` the chi-square upper tail at
an integer number of degrees of freedom, the only kind a Wald or
likelihood-ratio test here has.
"""

from __future__ import annotations

import math
import operator

import numpy as np


def expit(x):
    """1 / (1 + e^-x), elementwise. e^-x overflows to inf below x = -709,
    which gives the probability 0 that it is."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def chi2_sf(df, x) -> float:
    """P(X > x) for X chi-square on the integer `df` >= 1 degrees of freedom.

    With h = x/2, the tail is the Poisson sum e^-h sum_{i<df/2} h^i / i! for
    even df, and erfc(sqrt h) + e^-h sum_{i<(df-1)/2} h^(i+1/2) / Gamma(i+3/2)
    for odd df (Abramowitz & Stegun, section 26.4). Each term is taken in log
    space, so no partial product over- or underflows. x <= 0 gives 1 and NaN
    gives NaN."""
    df = operator.index(df)
    x = float(x)
    if math.isnan(x):
        return math.nan
    if x <= 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    h = 0.5 * x
    log_h = math.log(h)
    a = 0.5 * (df % 2)
    terms = [math.exp((i + a) * log_h - h - math.lgamma(i + a + 1.0))
             for i in range(df // 2)]
    if a:
        terms.append(math.erfc(math.sqrt(h)))
    return math.fsum(terms)
