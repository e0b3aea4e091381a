"""Individual patient data: schema, validation, CSV round-trip.

The on-disk format is UTF-8 CSV with a header row and columns
``study,treat,outcome,<cov1>,<cov2>,...``. ``treat`` and ``outcome`` are
binary; everything after the three reserved columns is a numeric covariate.
Study identifiers are arbitrary strings, mapped internally to a dense index
in first-appearance order; reports always show the original labels. The
accepted CSV dialect is described in README.md ("Input CSV").
"""

from __future__ import annotations

import csv
import io
import os
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    EmptyDataset,
    MissingColumn,
    NonBinaryValue,
    NonNumericCovariate,
    SingleArmStudy,
    UnknownStudy,
)

RESERVED = ("study", "treat", "outcome")


@dataclass(frozen=True)
class CovariateSchema:
    names: tuple
    kinds: tuple  # "continuous" | "binary", parallel to names

    def __post_init__(self):
        if len(self.names) == 0:
            raise ValueError("schema needs at least one covariate")
        if len(set(self.names)) != len(self.names):
            raise ValueError("covariate names must be unique")
        if any(not n for n in self.names):
            raise ValueError("covariate names must be non-empty")
        if len(self.kinds) != len(self.names):
            raise ValueError("kinds must parallel names")
        for k in self.kinds:
            if k not in ("continuous", "binary"):
                raise ValueError(f"unknown covariate kind {k!r}")

    @classmethod
    def infer(cls, names: Sequence[str], columns: np.ndarray) -> "CovariateSchema":
        binary = np.all((columns == 0) | (columns == 1), axis=0)
        return cls(tuple(names), tuple("binary" if b else "continuous" for b in binary))


class IpdDataset:
    """Immutable K-trial dataset backed by numpy arrays.

    `study_idx` is the dense 0-based index aligned with `study_labels`;
    `cov` is the n x d covariate matrix in schema order; `study_rows[i]` holds
    the ascending row indices of study i.
    """

    def __init__(self, schema: CovariateSchema, study_labels: Sequence[str],
                 study_idx: np.ndarray, treat: np.ndarray, outcome: np.ndarray,
                 cov: np.ndarray):
        self.schema = schema
        self.study_labels = tuple(str(s) for s in study_labels)
        # copies: the arrays are frozen below, and the caller's must stay writeable
        self.study_idx = np.array(study_idx, dtype=np.intp)
        self.treat = np.array(treat, dtype=np.int8)
        self.outcome = np.array(outcome, dtype=np.int8)
        self.cov = np.array(cov, dtype=float)
        self._validate()
        self._number = {label: i for i, label in enumerate(self.study_labels)}
        self._index()

    def _index(self):
        """Cache each study's mask and rows, and freeze every array."""
        self._masks = self.study_idx == np.arange(self.K)[:, None]
        self.study_rows = tuple(np.flatnonzero(m) for m in self._masks)
        for a in (self.study_idx, self.treat, self.outcome, self.cov, self._masks,
                  *self.study_rows):
            a.setflags(write=False)

    def _validate(self):
        n = len(self.study_idx)
        if n == 0:
            raise EmptyDataset("dataset has no records")
        if self.cov.shape != (n, len(self.schema.names)):
            raise NonNumericCovariate("covariate matrix shape does not match schema")
        if not np.all(np.isfinite(self.cov)):
            raise NonNumericCovariate("covariates contain non-finite values")
        if len(self.treat) != n or len(self.outcome) != n:
            raise EmptyDataset("column lengths differ")
        if not np.all((self.treat == 0) | (self.treat == 1)):
            raise NonBinaryValue("treat outside {0,1}")
        if not np.all((self.outcome == 0) | (self.outcome == 1)):
            raise NonBinaryValue("outcome outside {0,1}")
        if len(set(self.study_labels)) != len(self.study_labels):
            raise ValueError("duplicate study labels")
        self._validate_rows()

    def _validate_rows(self):
        """The checks that a row selection of a valid dataset can fail."""
        if len(self.study_idx) == 0:
            raise EmptyDataset("dataset has no records")
        K = len(self.study_labels)
        arms = np.bincount(self.study_idx * 2 + self.treat, minlength=2 * K)
        for label, (n_control, n_treated) in zip(self.study_labels, arms.reshape(K, 2)):
            if n_control + n_treated == 0:
                raise EmptyDataset(f"study {label!r} has no records")
            if n_control == 0 or n_treated == 0:
                raise SingleArmStudy(f"study {label!r} lacks one of the two arms")

    # --- constructors ---

    @classmethod
    def from_arrays(cls, cov_names: Sequence[str], study_labels: Sequence[str],
                    study_idx, treat, outcome, cov) -> "IpdDataset":
        cov = np.asarray(cov, dtype=float)
        schema = CovariateSchema.infer(cov_names, cov)
        return cls(schema, study_labels, study_idx, treat, outcome, cov)

    # --- views ---

    @property
    def n(self) -> int:
        return len(self.study_idx)

    @property
    def studies(self) -> tuple:
        return self.study_labels

    @property
    def K(self) -> int:
        return len(self.study_labels)

    def study_number(self, study: str) -> int:
        try:
            return self._number[str(study)]
        except KeyError:
            raise UnknownStudy(f"unknown study {study!r}; have {list(self.study_labels)}") from None

    def mask(self, study) -> np.ndarray:
        """Read-only boolean row mask of one study (cached)."""
        return self._masks[self.study_number(study)]

    def covariate_columns(self, rows=slice(None)) -> dict:
        """Covariate name -> column, restricted to `rows` (a mask or indices)."""
        return {name: self.cov[:, i][rows] for i, name in enumerate(self.schema.names)}

    def subset(self, row_mask: np.ndarray) -> "IpdDataset":
        """Row subset keeping the full study label set (used by resampling).

        The selected rows of a valid dataset are valid, so only the checks a
        selection can fail run: no rows, or a study left without both arms."""
        sub = object.__new__(IpdDataset)
        sub.schema, sub.study_labels, sub._number = self.schema, self.study_labels, self._number
        sub.study_idx, sub.treat = self.study_idx[row_mask], self.treat[row_mask]
        sub.outcome, sub.cov = self.outcome[row_mask], self.cov[row_mask]
        sub._validate_rows()
        sub._index()
        return sub


def arm_counts(ds: IpdDataset, k) -> tuple:
    """(n_treated, n_control) in study k; their ratio is the randomization ratio."""
    m = ds.mask(k)
    n_t = int(np.sum(ds.treat[m] == 1))
    return n_t, int(m.sum() - n_t)


def _open_text(source, mode="r"):
    if isinstance(source, (str, os.PathLike)):
        return open(source, mode, encoding="utf-8", newline=""), True
    if isinstance(source, bytes):
        return io.StringIO(source.decode("utf-8")), False
    if isinstance(source, io.TextIOBase):
        return source, False
    # binary file-like
    return io.TextIOWrapper(source, encoding="utf-8", newline=""), False


def load_ipd(source, schema: Optional[CovariateSchema] = None) -> IpdDataset:
    """Read an IPD CSV (path, bytes, or open stream) into a validated dataset."""
    stream, should_close = _open_text(source)
    try:
        # a failed read is read again, so a one-shot stream is buffered first
        body = stream if stream.seekable() else io.StringIO(stream.read())
        try:
            header = next(csv.reader(iter(body.readline, "")))
        except StopIteration:
            raise EmptyDataset("CSV has no header row") from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            raise MissingColumn(f"duplicate column names in header {header}")
        for col in RESERVED:
            if col not in header:
                raise MissingColumn(f"required column {col!r} missing from header")
        cov_names = [h for h in header if h not in RESERVED]
        if not cov_names:
            raise MissingColumn("no covariate columns after study/treat/outcome")
        if schema is not None and tuple(cov_names) != tuple(schema.names):
            raise MissingColumn(
                f"covariate columns {cov_names} do not match schema {list(schema.names)}")
        pos = {h: i for i, h in enumerate(header)}

        start = body.tell()
        try:
            table, labels = _read_body(body, start, header, pos)
        except ValueError:
            skip = _locate(body, start, header, pos, cov_names)
            table, labels = _read_body(body, start, header, pos, skip)
        cov = np.ascontiguousarray(table[:, [pos[c] for c in cov_names]])
        if schema is None:
            schema = CovariateSchema.infer(cov_names, cov)
        return IpdDataset(schema, labels, table[:, pos["study"]], table[:, pos["treat"]],
                          table[:, pos["outcome"]], cov)
    finally:
        if should_close:
            stream.close()


# np.loadtxt settings for the csv module's default dialect; `#` is data
_DIALECT = dict(delimiter=",", comments=None, quotechar='"', ndmin=2)


def _read_body(body, start: int, header: list, pos: dict,
               skip: Optional[set] = None) -> tuple:
    """Parse the body at offset `start`, in one pass, into an n x len(header)
    float table and the distinct stripped study labels in first-appearance
    order, leaving out the 1-based body lines in `skip`. The table's study
    column holds each row's index into those labels. ValueError on a bad row."""
    body.seek(start)
    lines = body if skip is None else (
        line for i, line in enumerate(body, start=1) if i not in skip)
    labels = {}

    def study(field: str) -> int:
        return labels.setdefault(field.strip(), len(labels))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)    # empty lines, empty body
        table = np.loadtxt(lines, converters={pos["study"]: study}, **_DIALECT)
    if table.size == 0:
        raise EmptyDataset("CSV has a header but no data rows")
    if table.shape[1] != len(header):
        raise ValueError("ragged row")
    arms = table[:, [pos["treat"], pos["outcome"]]]
    if not np.all((arms == 0) | (arms == 1)):
        raise ValueError("non-binary treat or outcome")
    return table, list(labels)


def _locate(body, start: int, header: list, pos: dict, cov_names: list) -> set:
    """Failure path of `_read_body`: re-read the body row by row, raise the
    first offending line's error, and return the body lines of rows of only
    blanks and commas (skipped, but unreadable to `np.loadtxt`)."""
    body.seek(start)
    reader = csv.reader(body)
    skip, last = set(), 0
    for ln, row in enumerate(reader, start=2):
        if all(not c.strip() for c in row):
            skip.update(range(last + 1, reader.line_num + 1))
        elif len(row) != len(header):
            raise MissingColumn(f"line {ln}: expected {len(header)} fields, got {len(row)}")
        else:
            for what in ("treat", "outcome"):
                raw = row[pos[what]]
                if not _is_number(raw):
                    raise NonBinaryValue(f"line {ln}: {what} value {raw!r} is not numeric")
                if float(raw) not in (0.0, 1.0):
                    raise NonBinaryValue(f"line {ln}: {what} must be 0 or 1, got {raw!r}")
            if not all(_is_number(row[pos[c]]) for c in cov_names):
                raise NonNumericCovariate(f"line {ln}: non-numeric covariate value")
        last = reader.line_num
    return skip


def _is_number(raw: str) -> bool:
    """Whether `np.loadtxt` reads `raw` as a float: `float` does, and it is
    ASCII without `_` digit groups."""
    try:
        float(raw)
    except ValueError:
        return False
    return "_" not in raw and raw.strip().isascii()


def save_ipd(ds: IpdDataset, target) -> None:
    """Write the dataset as CSV. `repr` float formatting makes the
    save -> load round trip bit-identical."""
    stream, should_close = _open_text(target, mode="w")
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(list(RESERVED) + list(ds.schema.names))
        labels = np.array(ds.study_labels, dtype=object)[ds.study_idx]
        writer.writerows(zip(labels.tolist(), ds.treat.tolist(), ds.outcome.tolist(),
                             *(map(repr, c.tolist()) for c in ds.cov.T)))
    finally:
        if should_close:
            stream.close()
