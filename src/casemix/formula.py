"""Declarative model formulas shared by outcome and membership models.

A formula is an ordered list of terms over the reserved treatment symbol
``treat`` and named covariates. The canonical text form is R-like::

    y ~ 1 + treat + L + L^2 + treat:L

``1`` is the intercept (``0`` suppresses it, otherwise it is present by
default), ``^d`` a polynomial power with d >= 2, and ``:`` a two-factor
interaction. Terms bind to data through :meth:`ModelFormula.design_matrix`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union

import numpy as np

from .errors import DimensionMismatch

TREAT = "treat"

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")


@dataclass(frozen=True)
class Intercept:
    def label(self) -> str:
        return "1"


@dataclass(frozen=True)
class Main:
    name: str

    def label(self) -> str:
        return self.name


@dataclass(frozen=True)
class Power:
    name: str
    degree: int

    def __post_init__(self):
        if self.degree < 2:
            raise ValueError("power terms need degree >= 2; use a main term")

    def label(self) -> str:
        return f"{self.name}^{self.degree}"


Factor = Union[Main, Power]


@dataclass(frozen=True)
class Interaction:
    a: Factor
    b: Factor

    def label(self) -> str:
        return f"{self.a.label()}:{self.b.label()}"


Term = Union[Intercept, Main, Power, Interaction]


def _parse_factor(tok: str) -> Factor:
    if "^" in tok:
        base, _, deg = tok.partition("^")
        if not _NAME_RE.match(base) or not deg.isdigit():
            raise ValueError(f"cannot parse factor {tok!r}")
        return Power(base, int(deg))
    if not _NAME_RE.match(tok):
        raise ValueError(f"cannot parse factor {tok!r}")
    return Main(tok)


class ModelFormula:
    """Ordered, validated term list with a response label."""

    def __init__(self, terms: Iterable[Term], response: str = "y"):
        terms = list(terms)
        seen = set()
        n_icpt = 0
        for t in terms:
            if isinstance(t, Intercept):
                n_icpt += 1
            if t in seen:
                raise ValueError(f"duplicate term {t.label()!r}")
            seen.add(t)
        if n_icpt > 1:
            raise ValueError("intercept listed more than once")
        self._terms = tuple(terms)
        self._hash = hash(self._terms)     # design-cache keys hash formulas often
        self.response = response

    @classmethod
    def parse(cls, text: str) -> "ModelFormula":
        if "~" in text:
            lhs, _, rhs = text.partition("~")
            response = lhs.strip() or "y"
        else:
            response, rhs = "y", text
        toks = [t.strip() for t in rhs.split("+") if t.strip()]
        if not toks:
            raise ValueError("empty formula")
        terms: list[Term] = []
        explicit_icpt = None
        for tok in toks:
            if tok == "1":
                explicit_icpt = True
            elif tok == "0":
                explicit_icpt = False
            elif ":" in tok:
                a, _, b = tok.partition(":")
                terms.append(Interaction(_parse_factor(a.strip()), _parse_factor(b.strip())))
            else:
                terms.append(_parse_factor(tok))
        if explicit_icpt is None:
            explicit_icpt = True
        if explicit_icpt:
            terms.insert(0, Intercept())
        return cls(terms, response=response)

    def text(self) -> str:
        """Canonical text form (always states the intercept explicitly)."""
        labels = [t.label() for t in self.terms if not isinstance(t, Intercept)]
        lead = "1" if self.has_intercept else "0"
        return f"{self.response} ~ " + " + ".join([lead] + labels)

    def __repr__(self):
        return f"ModelFormula({self.text()!r})"

    def __eq__(self, other):
        return isinstance(other, ModelFormula) and self._terms == other._terms

    def __hash__(self):
        return self._hash

    @property
    def terms(self) -> tuple:
        return self._terms

    @property
    def has_intercept(self) -> bool:
        return any(isinstance(t, Intercept) for t in self.terms)

    @property
    def requires_treat(self) -> bool:
        return TREAT in self.covariate_names(include_treat=True)

    def covariate_names(self, include_treat: bool = False) -> list[str]:
        names: list[str] = []

        def add(f: Factor):
            if f.name not in names:
                names.append(f.name)

        for t in self.terms:
            if isinstance(t, (Main, Power)):
                add(t)
            elif isinstance(t, Interaction):
                add(t.a)
                add(t.b)
        if not include_treat:
            names = [n for n in names if n != TREAT]
        return names

    def column_names(self) -> list[str]:
        return [t.label() for t in self.terms]

    def without(self, term: Term) -> "ModelFormula":
        if term not in self.terms:
            raise ValueError(f"term {term.label()!r} not in formula")
        return ModelFormula([t for t in self.terms if t != term], response=self.response)

    def with_terms(self, extra: Iterable[Term]) -> "ModelFormula":
        return ModelFormula(list(self.terms) + list(extra), response=self.response)

    def design_matrix(
        self,
        covariates: Mapping[str, np.ndarray],
        treat: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Build the n x p design matrix, one column per term in order."""
        ref = treat if treat is not None else next(iter(covariates.values()), None)
        if ref is None:
            raise DimensionMismatch("no data columns supplied")
        n = len(ref)

        def col(f: Factor) -> np.ndarray:
            if f.name == TREAT:
                if treat is None:
                    raise DimensionMismatch("formula references treat but no treatment column given")
                base = np.asarray(treat, dtype=float)
            else:
                if f.name not in covariates:
                    raise DimensionMismatch(f"unknown covariate {f.name!r}")
                base = np.asarray(covariates[f.name], dtype=float)
            if len(base) != n:
                raise DimensionMismatch("columns have unequal lengths")
            if isinstance(f, Power):
                return base ** f.degree
            return base

        cols = []
        for t in self.terms:
            if isinstance(t, Intercept):
                cols.append(np.ones(n))
            elif isinstance(t, Interaction):
                cols.append(col(t.a) * col(t.b))
            else:
                cols.append(col(t))
        return np.column_stack(cols) if cols else np.empty((n, 0))


def parse(text: str) -> ModelFormula:
    """Shorthand for ModelFormula.parse."""
    return ModelFormula.parse(text)
