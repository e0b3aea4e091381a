"""Formula parsing, canonical text, and design-matrix construction."""

import numpy as np
import pytest

from casemix.errors import DimensionMismatch
from casemix.formula import (
    Interaction,
    Intercept,
    Main,
    ModelFormula,
    Power,
    parse,
)


def test_parse_canonical_round_trip():
    f = parse("y ~ 1 + treat + L + L^2 + treat:L")
    assert f.text() == "y ~ 1 + treat + L + L^2 + treat:L"
    assert parse(f.text()) == f


def test_default_intercept_inserted_first():
    f = parse("y ~ L + treat")
    assert isinstance(f.terms[0], Intercept)
    assert f.text() == "y ~ 1 + L + treat"
    assert f.has_intercept


def test_zero_suppresses_intercept():
    f = parse("y ~ 0 + L")
    assert not f.has_intercept
    assert f.terms == (Main("L"),)
    assert f.text() == "y ~ 0 + L"


def test_response_label_is_kept():
    f = parse("study ~ 1 + L")
    assert f.response == "study"
    # equality compares terms only, not the response label
    assert f == parse("y ~ 1 + L")
    assert hash(f) == hash(parse("y ~ 1 + L"))


def test_rhs_only_text_defaults_response():
    assert parse("1 + L").text() == "y ~ 1 + L"


def test_duplicate_terms_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        parse("y ~ 1 + L + L")
    with pytest.raises(ValueError, match="duplicate"):
        ModelFormula([Intercept(), Intercept()])


def test_power_needs_degree_two():
    with pytest.raises(ValueError):
        Power("L", 1)
    assert parse("y ~ 0 + L^3").terms == (Power("L", 3),)


def test_unparsable_factor_rejected():
    with pytest.raises(ValueError, match="cannot parse"):
        parse("y ~ 1 + 2L")
    with pytest.raises(ValueError, match="empty"):
        parse("y ~ ")


def test_requires_treat_and_covariate_names():
    f = parse("y ~ 1 + treat + L + M^2 + treat:L")
    assert f.requires_treat
    assert f.covariate_names() == ["L", "M"]
    assert f.covariate_names(include_treat=True) == ["treat", "L", "M"]
    assert not parse("study ~ 1 + L").requires_treat


def test_without_and_with_terms():
    f = parse("y ~ 1 + treat + L + treat:L")
    inter = Interaction(Main("treat"), Main("L"))
    reduced = f.without(inter)
    assert reduced.text() == "y ~ 1 + treat + L"
    assert reduced.with_terms([inter]) == f
    with pytest.raises(ValueError, match="not in formula"):
        reduced.without(inter)


def test_design_matrix_columns_in_term_order():
    f = parse("y ~ 1 + treat + L + L^2 + treat:L")
    L = np.array([0.0, 1.0, 2.0])
    x = np.array([0.0, 1.0, 1.0])
    X = f.design_matrix({"L": L}, treat=x)
    assert f.column_names() == ["1", "treat", "L", "L^2", "treat:L"]
    np.testing.assert_allclose(X[:, 0], 1.0)
    np.testing.assert_allclose(X[:, 1], x)
    np.testing.assert_allclose(X[:, 2], L)
    np.testing.assert_allclose(X[:, 3], L ** 2)
    np.testing.assert_allclose(X[:, 4], x * L)


def test_design_matrix_missing_treat_or_covariate():
    f = parse("y ~ 1 + treat + L")
    with pytest.raises(DimensionMismatch, match="treat"):
        f.design_matrix({"L": np.zeros(3)})
    with pytest.raises(DimensionMismatch, match="unknown covariate"):
        parse("y ~ 1 + M").design_matrix({"L": np.zeros(3)})


def test_design_matrix_length_mismatch():
    f = parse("y ~ 1 + L + M")
    with pytest.raises(DimensionMismatch, match="unequal"):
        f.design_matrix({"L": np.zeros(3), "M": np.zeros(4)})


def test_formula_hash_is_stable_and_equal_for_equal_formulas():
    f = parse("y ~ 1 + treat + L + L^2 + treat:L")
    assert hash(f) == hash(f) == hash(parse("y ~ treat + L + L^2 + treat:L"))
    assert hash(f) == hash(parse(f.text())) == hash(ModelFormula(f.terms))
    assert f == parse(f.text()) and len({f, parse(f.text())}) == 1
    with pytest.raises(AttributeError):
        f.terms = ()
    assert isinstance(f.terms, tuple)
