"""Shared fixtures: small datasets built from exact cell counts.

Every covariate is binary and every model in the tests is saturated, so the
standardized probabilities and weights are ratios of integers that can be
checked against hand enumeration instead of against the code under test.
"""

import numpy as np
import pytest

from casemix.ipd import IpdDataset


def cell(study, L, treat, n, successes):
    """One (study, covariate level, arm) cell with an exact success count."""
    assert 0 <= successes <= n
    return (study, float(L), int(treat), int(n), int(successes))


def dataset_from_cells(cells) -> IpdDataset:
    study, L, treat, y = [], [], [], []
    for s, l, x, n, succ in cells:
        study += [s] * n
        L += [l] * n
        treat += [x] * n
        y += [1] * succ + [0] * (n - succ)
    labels = list(dict.fromkeys(study))
    idx = np.array([labels.index(s) for s in study])
    return IpdDataset.from_arrays(["L"], labels, idx, np.array(treat),
                                  np.array(y), np.array(L)[:, None])


def enum_dataset() -> IpdDataset:
    """Two trials, binary L, saturated truth.

    Trial 1 has 200 subjects per L level (risk 0.5 everywhere); trial 2 has
    600 at L=0 and 200 at L=1. Both weight values are exact: the density
    ratio of trial 1 to trial 2 is 1/3 at L=0 and 1 at L=1.
    """
    return dataset_from_cells([
        cell("1", 0, 1, 100, 50), cell("1", 0, 0, 100, 50),
        cell("1", 1, 1, 100, 50), cell("1", 1, 0, 100, 50),
        cell("2", 0, 1, 300, 90), cell("2", 0, 0, 300, 60),
        cell("2", 1, 1, 100, 60), cell("2", 1, 0, 100, 60),
    ])


@pytest.fixture
def enum_ds() -> IpdDataset:
    return enum_dataset()


# hand-enumerated standardized probabilities for enum_ds, keyed (j, k, x)
ENUM_GRID = {
    ("1", "1", 1): 0.5, ("1", "1", 0): 0.5,
    ("1", "2", 1): 0.45, ("1", "2", 0): 0.4,
    ("2", "1", 1): 0.5, ("2", "1", 0): 0.5,
    ("2", "2", 1): 0.375, ("2", "2", 0): 0.3,
}

ENUM_RR = {("1", "1"): 1.0, ("1", "2"): 1.125, ("2", "1"): 1.0, ("2", "2"): 1.25}
ENUM_OR = {("1", "1"): 1.0, ("1", "2"): 27.0 / 22.0, ("2", "1"): 1.0, ("2", "2"): 1.4}
ENUM_RD = {("1", "1"): 0.0, ("1", "2"): 0.05, ("2", "1"): 0.0, ("2", "2"): 0.075}


def oob_dataset() -> IpdDataset:
    """Positivity-violating fixture: weighting trial 2 toward population 1
    puts weight 9 on 30 treated subjects who all have the event, so the
    unstabilized probability is 270/200 = 1.35."""
    return dataset_from_cells([
        cell("1", 0, 1, 20, 10), cell("1", 0, 0, 20, 10),
        cell("1", 1, 1, 180, 90), cell("1", 1, 0, 180, 90),
        cell("2", 0, 1, 170, 0), cell("2", 0, 0, 190, 0),
        cell("2", 1, 1, 30, 30), cell("2", 1, 0, 10, 10),
    ])


@pytest.fixture
def oob_ds() -> IpdDataset:
    return oob_dataset()


@pytest.fixture
def three_trial_ds() -> IpdDataset:
    """Three trials for the multinomial membership path; still saturated.

    L=0 counts 100/60/40 and L=1 counts 100/20/80, so the trial-1-vs-2
    density ratio is 5/3 at L=0 and 5 at L=1.
    """
    return dataset_from_cells([
        cell("1", 0, 1, 50, 25), cell("1", 0, 0, 50, 25),
        cell("1", 1, 1, 50, 25), cell("1", 1, 0, 50, 25),
        cell("2", 0, 1, 30, 12), cell("2", 0, 0, 30, 6),
        cell("2", 1, 1, 10, 8), cell("2", 1, 0, 10, 4),
        cell("3", 0, 1, 20, 10), cell("3", 0, 0, 20, 10),
        cell("3", 1, 1, 40, 20), cell("3", 1, 0, 40, 20),
    ])


@pytest.fixture
def aligned_ds() -> IpdDataset:
    """Like enum_ds but with trial 1's control risks matched to trial 2's
    (0.2 at L=0, 0.6 at L=1), so the control-exchangeability statistic is 0."""
    return dataset_from_cells([
        cell("1", 0, 1, 100, 50), cell("1", 0, 0, 100, 20),
        cell("1", 1, 1, 100, 50), cell("1", 1, 0, 100, 60),
        cell("2", 0, 1, 300, 90), cell("2", 0, 0, 300, 60),
        cell("2", 1, 1, 100, 60), cell("2", 1, 0, 100, 60),
    ])


def separated_dataset() -> IpdDataset:
    """Trial 2's outcome equals L in both arms: any outcome model with an L
    term is perfectly separated there."""
    return dataset_from_cells([
        cell("1", 0, 1, 100, 40), cell("1", 0, 0, 100, 30),
        cell("1", 1, 1, 100, 60), cell("1", 1, 0, 100, 50),
        cell("2", 0, 1, 100, 0), cell("2", 0, 0, 100, 0),
        cell("2", 1, 1, 100, 100), cell("2", 1, 0, 100, 100),
    ])


def continuous_ds(seed=0, n=400) -> IpdDataset:
    """Smooth two-trial fixture with continuous L for derivative checks.

    Treatment alternates within trial so both arms always exist.
    """
    rng = np.random.default_rng(seed)
    L = rng.normal(0.0, 1.0, size=n)
    from scipy.special import expit
    S = (rng.random(n) < expit(0.3 * L)).astype(int)
    treat = np.zeros(n, dtype=int)
    for s in (0, 1):
        rows = np.flatnonzero(S == s)
        treat[rows[::2]] = 1
    p = expit(-0.2 + 0.4 * treat + 0.5 * L - 0.3 * treat * L)
    y = (rng.random(n) < p).astype(int)
    labels = ["1", "2"]
    return IpdDataset.from_arrays(["L"], labels, S, treat, y, L[:, None])
