"""Dataset validation and the CSV round trip."""

import csv
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casemix.errors import (
    EmptyDataset,
    MissingColumn,
    NonBinaryValue,
    NonNumericCovariate,
    SingleArmStudy,
    UnknownStudy,
)
from casemix import ipd
from casemix.ipd import (
    CovariateSchema,
    IpdDataset,
    _locate as locate,
    arm_counts,
    load_ipd,
    save_ipd,
)

from conftest import dataset_from_cells, cell


def small_ds():
    return dataset_from_cells([
        cell("a", 0, 1, 3, 1), cell("a", 0, 0, 3, 2),
        cell("b", 1, 1, 4, 2), cell("b", 1, 0, 4, 1),
    ])


def test_labels_keep_first_appearance_order():
    ds = small_ds()
    assert ds.studies == ("a", "b")
    assert ds.study_number("b") == 1
    assert ds.K == 2 and ds.n == 14


def test_unknown_study_raises():
    with pytest.raises(UnknownStudy, match="unknown study"):
        small_ds().study_number("c")


def test_arm_counts():
    assert arm_counts(small_ds(), "a") == (3, 3)
    assert arm_counts(small_ds(), "b") == (4, 4)


def test_single_arm_study_rejected():
    with pytest.raises(SingleArmStudy):
        dataset_from_cells([
            cell("a", 0, 1, 3, 1), cell("a", 0, 0, 3, 2),
            cell("b", 1, 1, 4, 2),
        ])


def test_nonbinary_treat_rejected():
    with pytest.raises(NonBinaryValue):
        IpdDataset.from_arrays(["L"], ["a"], np.zeros(4, int),
                               np.array([0, 1, 0, 3]), np.zeros(4, int),
                               np.zeros((4, 1)))


def test_nonfinite_covariate_rejected():
    with pytest.raises(NonNumericCovariate):
        IpdDataset.from_arrays(["L"], ["a"], np.zeros(4, int),
                               np.array([0, 1, 0, 1]), np.zeros(4, int),
                               np.array([[0.0], [1.0], [np.nan], [0.0]]))


def test_empty_dataset_rejected():
    with pytest.raises(EmptyDataset):
        IpdDataset.from_arrays(["L"], [], np.zeros(0, int), np.zeros(0, int),
                               np.zeros(0, int), np.zeros((0, 1)))


def test_schema_validation():
    with pytest.raises(ValueError):
        CovariateSchema((), ())
    with pytest.raises(ValueError):
        CovariateSchema(("L", "L"), ("binary", "binary"))
    with pytest.raises(ValueError):
        CovariateSchema(("L",), ("qualitative",))
    inferred = CovariateSchema.infer(["a", "b"],
                                     np.array([[0.0, 1.5], [1.0, 2.0]]))
    assert inferred.kinds == ("binary", "continuous")


def test_arrays_are_frozen():
    ds = small_ds()
    with pytest.raises(ValueError):
        ds.treat[0] = 0


def test_caller_arrays_stay_writeable():
    # arrays that already have the stored dtype must be copied, not frozen
    idx = np.array([0, 0, 1, 1], dtype=np.intp)
    cov = np.array([[0.0], [1.0], [0.0], [1.0]])
    ds = IpdDataset.from_arrays(["L"], ["a", "b"], idx, [0, 1, 0, 1], [1, 0, 0, 1], cov)
    assert idx.flags.writeable and cov.flags.writeable
    idx[0], cov[0, 0] = 1, 5.0
    assert ds.study_idx[0] == 0 and ds.cov[0, 0] == 0.0


def test_subset_requires_every_study_present():
    # subset keeps the full label table, so dropping a whole study fails
    # validation rather than silently shrinking K
    ds = small_ds()
    with pytest.raises(EmptyDataset):
        ds.subset(ds.study_idx == 0)


def test_subset_of_both_studies_is_valid():
    ds = small_ds()
    keep = np.ones(ds.n, dtype=bool)
    sub = ds.subset(keep)
    assert sub.n == ds.n


def test_csv_round_trip_is_bit_identical(tmp_path):
    ds = dataset_from_cells([
        cell("a", 0.1, 1, 3, 1), cell("a", 1 / 3, 0, 3, 2),
        cell("b", 0.7, 1, 4, 2), cell("b", 0.7, 0, 4, 1),
    ])
    path = tmp_path / "ipd.csv"
    save_ipd(ds, str(path))
    back = load_ipd(str(path))
    assert back.studies == ds.studies
    assert np.array_equal(back.treat, ds.treat)
    assert np.array_equal(back.outcome, ds.outcome)
    assert np.array_equal(back.cov, ds.cov)  # exact, thanks to repr formatting


def _save_row_by_row(ds) -> str:
    """The row loop `save_ipd` replaced: the bytes it must still write."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["study", "treat", "outcome"] + list(ds.schema.names))
    for i in range(ds.n):
        writer.writerow(
            [ds.study_labels[ds.study_idx[i]], int(ds.treat[i]), int(ds.outcome[i])]
            + [repr(float(v)) for v in ds.cov[i]])
    return buf.getvalue()


def test_save_writes_the_bytes_of_the_row_loop():
    cov = np.array([[0.1, -0.0], [1e-300, 1 / 3], [-2.5e17, 0.0], [7.0, 1e-5]])
    ds = IpdDataset.from_arrays(["L1", "L2"], ['tri"al, 1', "b"], np.array([0, 1, 0, 1]),
                                np.array([1, 0, 0, 1]), np.array([0, 1, 1, 0]), cov)
    buf = io.StringIO()
    save_ipd(ds, buf)
    assert buf.getvalue() == _save_row_by_row(ds)
    assert '"tri""al, 1",1,0,0.1,-0.0\nb,0,1,1e-300,' in buf.getvalue()


def test_load_from_bytes_and_stream():
    text = "study,treat,outcome,L\na,1,1,0.5\na,0,0,0.5\nb,1,0,1\nb,0,1,1\n"
    ds = load_ipd(text.encode())
    assert ds.studies == ("a", "b")
    ds2 = load_ipd(io.StringIO(text))
    assert np.array_equal(ds2.cov, ds.cov)

    class OneShot(io.StringIO):     # a pipe: read once, no seeking back
        def seekable(self):
            return False

    assert np.array_equal(load_ipd(OneShot(text)).cov, ds.cov)


def test_load_skips_blank_lines():
    text = "study,treat,outcome,L\na,1,1,0.5\n\na,0,0,0.5\nb,1,0,1\nb,0,1,1\n"
    assert load_ipd(text.encode()).n == 4


def test_load_missing_required_column():
    with pytest.raises(MissingColumn, match="outcome"):
        load_ipd(b"study,treat,L\na,1,0.5\n")


def test_load_rejects_duplicate_columns():
    with pytest.raises(MissingColumn, match="duplicate column"):
        load_ipd(b"study,treat,outcome,L,treat\na,1,1,0.5,0\na,0,0,0.5,1\n")


def test_load_requires_a_covariate():
    with pytest.raises(MissingColumn, match="covariate"):
        load_ipd(b"study,treat,outcome\na,1,1\n")


def test_load_rejects_ragged_row():
    with pytest.raises(MissingColumn, match="line 3"):
        load_ipd(b"study,treat,outcome,L\na,1,1,0.5\na,0,0\n")


def test_load_rejects_nonbinary_and_nonnumeric():
    with pytest.raises(NonBinaryValue, match="treat"):
        load_ipd(b"study,treat,outcome,L\na,2,1,0.5\n")
    with pytest.raises(NonNumericCovariate):
        load_ipd(b"study,treat,outcome,L\na,1,1,abc\n")


def test_load_empty_inputs():
    with pytest.raises(EmptyDataset, match="header"):
        load_ipd(b"")
    with pytest.raises(EmptyDataset, match="no data"):
        load_ipd(b"study,treat,outcome,L\n")


def test_load_schema_mismatch():
    schema = CovariateSchema(("M",), ("continuous",))
    with pytest.raises(MissingColumn, match="schema"):
        load_ipd(b"study,treat,outcome,L\na,1,1,0.5\na,0,0,0.5\n", schema=schema)


def test_cached_masks_and_rows_are_read_only():
    ds = small_ds()
    for i, label in enumerate(ds.studies):
        assert np.array_equal(ds.mask(label), ds.study_idx == i)
        assert np.array_equal(ds.study_rows[i], np.flatnonzero(ds.study_idx == i))
        for cached in (ds.mask(label), ds.study_rows[i]):
            with pytest.raises(ValueError):
                cached[0] = cached[1]


HEADER = "study,treat,outcome,L\n"


@pytest.mark.parametrize("body, studies, cov", [
    # `#` is data, not a comment
    ("a#1,1,1,0.5\na#1,0,0,1.5\n", ("a#1",), [0.5, 1.5]),
    # quoted labels: a comma and a doubled quote, a newline
    ('"x, ""y""",1,1,0.5\n"x, ""y""",0,0,1.5\n', ('x, "y"',), [0.5, 1.5]),
    ('"p\nq",1,1,0.5\n"p\nq",0,0,1.5\n', ("p\nq",), [0.5, 1.5]),
    # CRLF line endings and no trailing newline
    ("a,1,1,0.5\r\na,0,0,1.5", ("a",), [0.5, 1.5]),
    # padded fields; lines of only commas or blanks are skipped
    (" a , 1 , 1 , 0.5 \n,,,\n   \n , , , \n\na,0,0,1.5\n", ("a",), [0.5, 1.5]),
    # a long label is not truncated
    ("s" * 300 + ",1,1,0.5\n" + "s" * 300 + ",0,0,1.5\n", ("s" * 300,), [0.5, 1.5]),
    # labels keep first-appearance order
    ("b,1,1,0.5\na,1,0,1\nb,0,0,1.5\na,0,1,2\n", ("b", "a"), [0.5, 1, 1.5, 2]),
    # a trailing NUL is part of the label: two trials, not one
    ("a\x00,1,1,0.5\na\x00,0,0,1.5\na,1,1,2.5\na,0,0,3.5\n", ("a\x00", "a"),
     [0.5, 1.5, 2.5, 3.5]),
])
def test_load_csv_dialect(body, studies, cov):
    ds = load_ipd((HEADER + body).encode())
    assert ds.studies == studies
    assert ds.cov[:, 0].tolist() == cov


def _count_loadtxt(monkeypatch):
    """A list that gains one entry per `np.loadtxt` call."""
    calls, loadtxt = [], np.loadtxt

    def counting(*args, **kwargs):
        calls.append(1)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting)
    return calls


def test_clean_body_is_parsed_in_one_pass(monkeypatch):
    calls = _count_loadtxt(monkeypatch)
    ds = load_ipd((HEADER + "b,1,1,0.5\na,1,0,1\nb,0,0,1.5\na,0,1,2\n").encode())
    assert len(calls) == 1
    assert ds.studies == ("b", "a")
    assert ds.study_idx.tolist() == [0, 1, 0, 1]


def test_blank_row_costs_one_locate_and_one_reread(monkeypatch):
    calls = _count_loadtxt(monkeypatch)
    located = []
    monkeypatch.setattr(ipd, "_locate", lambda *a: located.append(1) or locate(*a))
    # the failed first pass meets the blank row's empty label first; the
    # re-read must not keep it
    ds = load_ipd((HEADER + ",,,\nb,1,1,0.5\na,1,0,1\nb,0,0,1.5\na,0,1,2\n").encode())
    assert (len(calls), len(located)) == (2, 1)
    assert ds.studies == ("b", "a")
    assert ds.study_idx.tolist() == [0, 1, 0, 1]


@pytest.mark.parametrize("text, error, message", [
    (HEADER + "a,1,1,0.5\n\na,x,1,0.5\n", NonBinaryValue, "line 4: treat value 'x' is not numeric"),
    (HEADER + "a,1,1,0.5\n\na,1,y,0.5\n", NonBinaryValue, "line 4: outcome value 'y' is not numeric"),
    (HEADER + "a,1,1,0.5\n\na,1,0.5,1\n", NonBinaryValue, "line 4: outcome must be 0 or 1, got '0.5'"),
    (HEADER + "a,1,1,0.5\n\na,1,1,z\n", NonNumericCovariate, "line 4: non-numeric covariate value"),
    # numbers are what numpy parses: no `_` digit groups
    (HEADER + "a,1,1,0.5\n\na,1,1,1_0\n", NonNumericCovariate, "line 4: non-numeric covariate value"),
    (HEADER + "a,1,1,0.5\n\na,1,1,0.5,9\n", MissingColumn, "line 4: expected 4 fields, got 5"),
    (HEADER + "a,1,1,0.5,9\na,0,0,1,9\n", MissingColumn, "line 2: expected 4 fields, got 5"),
])
def test_load_reports_first_bad_line(text, error, message):
    # the blank line 3 still counts; a later bad line never wins
    with pytest.raises(error, match=re.escape(message)):
        load_ipd((text + "b,2,1,zz\nb,1\n").encode())


_LABELS = st.lists(
    st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\r\x00"),
            min_size=1, max_size=8).filter(lambda s: s == s.strip()),
    min_size=1, max_size=4, unique=True)


@settings(max_examples=60, deadline=None)
@given(labels=_LABELS, data=st.data())
def test_save_load_round_trip_property(labels, data):
    K = len(labels)
    rows = [(i, t) for i in range(K) for t in (0, 1)]
    rows += data.draw(st.lists(st.tuples(st.integers(0, K - 1), st.integers(0, 1)),
                               max_size=5))
    rows = data.draw(st.permutations(rows))
    n, d = len(rows), data.draw(st.integers(1, 2))
    cov = np.array(data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                      min_size=n * d, max_size=n * d))).reshape(n, d)
    idx = np.array([i for i, _ in rows])
    treat = np.array([t for _, t in rows])
    ds = IpdDataset.from_arrays([f"L{c}" for c in range(d)], labels, idx, treat,
                                1 - treat, cov)
    buf = io.StringIO()
    save_ipd(ds, buf)
    back = load_ipd(buf.getvalue().encode())
    first_seen = list(dict.fromkeys(idx.tolist()))
    assert back.studies == tuple(labels[i] for i in first_seen)
    assert [back.studies[i] for i in back.study_idx] == [labels[i] for i in idx]
    assert np.array_equal(back.treat, ds.treat)
    assert np.array_equal(back.outcome, ds.outcome)
    assert back.cov.tobytes() == ds.cov.tobytes()     # bit-identical, -0.0 included
    assert back.schema == ds.schema


def _resample(ds, seed=0):
    rng = np.random.default_rng(seed)
    return np.concatenate([rows[rng.integers(0, len(rows), size=len(rows))]
                           for rows in ds.study_rows])


@pytest.mark.parametrize("select", ["indices", "mask"])
def test_subset_equals_the_dataset_built_from_the_same_rows(three_trial_ds, select):
    ds = three_trial_ds
    idx = _resample(ds) if select == "indices" else np.arange(ds.n) % 3 != 0
    sub = ds.subset(idx)
    built = IpdDataset(ds.schema, ds.study_labels, ds.study_idx[idx], ds.treat[idx],
                       ds.outcome[idx], ds.cov[idx])
    # an attribute the constructor gains and subset misses fails here
    assert vars(sub).keys() == vars(built).keys()
    assert sub.schema == built.schema and sub.study_labels == built.study_labels
    assert sub.studies == built.studies and sub.n == built.n
    for name in ("study_idx", "treat", "outcome", "cov", "_masks"):
        a, b = getattr(sub, name), getattr(built, name)
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name
        assert not a.flags.writeable, name
    assert len(sub.study_rows) == len(built.study_rows)
    for a, b in zip(sub.study_rows, built.study_rows):
        assert a.dtype == b.dtype and np.array_equal(a, b) and not a.flags.writeable
    for label in ds.studies:
        assert np.array_equal(sub.mask(label), built.mask(label))
        assert sub.study_number(label) == built.study_number(label)
        assert arm_counts(sub, label) == arm_counts(built, label)
    assert idx.flags.writeable


def _rows_error(make):
    with pytest.raises(Exception) as exc:
        make()
    return type(exc.value), str(exc.value)


@pytest.mark.parametrize("drop", ["arm", "study", "all"])
def test_subset_raises_what_the_constructor_raises(drop):
    ds = small_ds()
    if drop == "arm":           # study "b" keeps only its treated rows
        idx = np.flatnonzero((ds.study_idx == 0) | (ds.treat == 1))
    elif drop == "study":
        idx = np.flatnonzero(ds.study_idx == 0)
    else:
        idx = np.array([], dtype=np.intp)
    got = _rows_error(lambda: ds.subset(idx))
    want = _rows_error(lambda: IpdDataset(ds.schema, ds.study_labels, ds.study_idx[idx],
                                          ds.treat[idx], ds.outcome[idx], ds.cov[idx]))
    assert got == want
    assert got[0] is {"arm": SingleArmStudy, "study": EmptyDataset,
                      "all": EmptyDataset}[drop]
