"""Ingestion, validation, splitting, and label-noise behavior of the data layer."""

import ast
import gzip
import hashlib
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dataset_path, libsvm_file, make_ds
from infsub import data, synthdata
from infsub.data import (DataError, SparseDataset, SplitSpec, flip_labels,
                         load_aligned, load_libsvm, read_table,
                         round_half_up, split, write_libsvm, write_table)


def test_round_half_up():
    assert round_half_up(0.5) == 1
    assert round_half_up(1.5) == 2
    assert round_half_up(2.4) == 2
    assert round_half_up(2.6) == 3
    assert round_half_up(-0.5) == 0
    assert round_half_up(3.0) == 3


# ---------------------------------------------------------------- parsing

def test_parse_single_row(tmp_path):
    ds = load_libsvm(libsvm_file(tmp_path, ["1 1:0.5 3:2.0"]))
    assert ds.n_rows == 1
    assert ds.n_features == 4
    assert ds.y.tolist() == [1]
    lo, hi = ds.X.indptr[0], ds.X.indptr[1]
    idx, val = ds.X.indices[lo:hi], ds.X.data[lo:hi]
    assert idx.tolist() == [1, 3]
    assert val.tolist() == [0.5, 2.0]


def test_parse_label_minus_one_maps_to_zero(tmp_path):
    ds = load_libsvm(libsvm_file(tmp_path, ["-1 0:1.0"]))
    assert ds.y.tolist() == [0]


def test_parse_pm1_alphabet(tmp_path):
    ds = load_libsvm(libsvm_file(tmp_path, ["-1 0:1", "+1 0:2", "-1 1:3"]))
    assert ds.y.tolist() == [0, 1, 0]


def test_parse_one_two_alphabet(tmp_path):
    ds = load_libsvm(libsvm_file(tmp_path, ["1 0:1", "2 0:2"]))
    assert ds.y.tolist() == [0, 1]


def test_parse_all_ones_read_as_positive(tmp_path):
    # {1} fits the 0/1 alphabet, which takes precedence over {1,2}.
    ds = load_libsvm(libsvm_file(tmp_path, ["1 0:1", "1 1:2"]))
    assert ds.y.tolist() == [1, 1]


def test_parse_all_twos_read_as_positive(tmp_path):
    ds = load_libsvm(libsvm_file(tmp_path, ["2 0:1", "2 1:2"]))
    assert ds.y.tolist() == [1, 1]


def test_parse_mixed_alphabet_rejected(tmp_path):
    with pytest.raises(DataError, match="label alphabet"):
        load_libsvm(libsvm_file(tmp_path, ["-1 0:1", "2 0:2"]))
    with pytest.raises(DataError, match="label alphabet"):
        load_libsvm(libsvm_file(tmp_path, ["-1 0:1", "0 0:2", "1 0:3"]))


def test_parse_bad_label_reports_line(tmp_path):
    with pytest.raises(DataError, match="line 2"):
        load_libsvm(libsvm_file(tmp_path, ["1 0:1", "spam 0:1"]))
    with pytest.raises(DataError, match="line 1.*non-integer"):
        load_libsvm(libsvm_file(tmp_path, ["1.5 0:1"]))


def test_parse_bad_feature_tokens(tmp_path):
    with pytest.raises(DataError, match="line 1"):
        load_libsvm(libsvm_file(tmp_path, ["1 novalue"]))
    with pytest.raises(DataError, match="line 1"):
        load_libsvm(libsvm_file(tmp_path, ["1 0:abc"]))
    # An index is digits alone, unlike a value.
    with pytest.raises(DataError, match="bad feature '1.0:1'"):
        load_libsvm(libsvm_file(tmp_path, ["1 1.0:1"]))
    with pytest.raises(DataError, match="negative"):
        load_libsvm(libsvm_file(tmp_path, ["1 -2:1.0"]))
    with pytest.raises(DataError, match="non-finite"):
        load_libsvm(libsvm_file(tmp_path, ["1 0:inf"]))
    with pytest.raises(DataError, match="duplicate"):
        load_libsvm(libsvm_file(tmp_path, ["1 3:1.0 3:2.0"]))


def test_parse_sorts_indices_within_row(tmp_path):
    ds = load_libsvm(libsvm_file(tmp_path, ["1 3:1.0 1:2.0"]))
    lo, hi = ds.X.indptr[0], ds.X.indptr[1]
    idx, val = ds.X.indices[lo:hi], ds.X.data[lo:hi]
    assert idx.tolist() == [1, 3]
    assert val.tolist() == [2.0, 1.0]


def test_parse_skips_blank_lines(tmp_path):
    ds = load_libsvm(libsvm_file(tmp_path, ["", "1 0:1", "   ", "0 1:2", "\n"]))
    assert ds.n_rows == 2


def test_parse_empty_input(tmp_path):
    ds = load_libsvm(libsvm_file(tmp_path, []))
    assert ds.n_rows == 0
    assert ds.n_features == 0


def test_parse_n_features_override(tmp_path):
    ds = load_libsvm(libsvm_file(tmp_path, ["1 0:1"]), n_features=7)
    assert ds.n_features == 7
    with pytest.raises(DataError, match="overflows"):
        load_libsvm(libsvm_file(tmp_path, ["1 5:1"]), n_features=5)
    with pytest.raises(DataError, match="nonnegative"):
        load_libsvm(libsvm_file(tmp_path, ["1 0:1"]), n_features=-1)


def test_negative_n_features_is_refused_before_any_parse(tmp_path, monkeypatch):
    # The file is malformed too: the setting's error comes first, without
    # the path, since the file is not at fault, and no block is parsed.
    path = tmp_path / "bad.svm"
    path.write_text("1 0:1\nspam 0:x\n")
    calls = []
    monkeypatch.setattr(data, "_parse_block", lambda *block: calls.append(block))
    with pytest.raises(DataError) as err:
        load_libsvm(str(path), n_features=-1)
    assert str(err.value) == "n_features must be nonnegative, got -1"
    assert calls == []


def test_load_gzip_and_plain(tmp_path):
    text = "1 0:0.5 2:1.25\n-1 1:3.0\n"
    plain = tmp_path / "data.svm"
    plain.write_text(text)
    gz = tmp_path / "data.svm.gz"
    with gzip.open(gz, "wt", encoding="utf-8") as fh:
        fh.write(text)
    a = load_libsvm(str(plain))
    b = load_libsvm(str(gz))
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.X.toarray(), b.X.toarray())


def test_load_missing_file():
    with pytest.raises(DataError, match="cannot read"):
        load_libsvm("/nonexistent/data.svm")


def test_load_truncated_gzip(tmp_path):
    packed = gzip.compress(b"1 0:1\n0 1:2\n" * 100)
    path = tmp_path / "cut.svm.gz"
    path.write_bytes(packed[:len(packed) // 2])
    with pytest.raises(DataError, match="cannot read .*end-of-stream"):
        load_libsvm(str(path))


def test_a_malformed_file_is_named_before_its_line(tmp_path):
    # Several files are often read together; the error says which one is bad.
    lines = ["1 0:1", "1 2:x"]
    for name, write in (("bad.svm", open), ("bad.svm.gz", gzip.open)):
        path = tmp_path / name
        with write(path, "wt", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(DataError) as err:
            load_libsvm(str(path))
        assert str(err.value) == f"{path}: line 2: bad feature '2:x'"
    mixed = tmp_path / "mixed.svm"
    mixed.write_text("-1 0:1\n2 0:2\n")
    with pytest.raises(DataError, match=re.escape(f"{mixed}: label alphabet")):
        load_libsvm(str(mixed))


def test_load_aligned_widens_every_file_to_the_widest(tmp_path):
    paths = []
    for name, rows in (("a.svm", [[1.0, 2.0]]), ("b.svm", [[0.0, 0.0, 0.0, 3.0]]),
                       ("c.svm", [[4.0]])):
        paths.append(str(tmp_path / name))
        write_libsvm(make_ds(rows, [1]), paths[-1])
    parts = load_aligned(paths)
    assert [ds.n_features for ds in parts] == [4, 4, 4]
    for path, ds in zip(paths, parts):
        alone = load_libsvm(path)
        assert np.array_equal(ds.X.toarray()[:, :alone.n_features], alone.X.toarray())
        assert np.array_equal(ds.y, alone.y)
    assert [ds.n_features for ds in load_aligned(paths, 6)] == [6, 6, 6]
    with pytest.raises(DataError, match="overflows dimension 3"):
        load_aligned(paths, 3)


def test_write_libsvm_unwritable_path(tmp_path):
    ds = make_ds([[1.0, 0.0]], [1])
    with pytest.raises(DataError, match="cannot write"):
        write_libsvm(ds, str(tmp_path / "missing_dir" / "out.svm"))


def test_only_data_opens_text_files():
    # read_lines, write_lines and load_libsvm are the one text-file layer: no
    # other module of the package calls the builtin open or imports gzip.
    modules = sorted(Path(data.__file__).parent.glob("*.py"))
    assert "data.py" in [path.name for path in modules]
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            opens = (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                     and node.func.id == "open")
            gzips = (isinstance(node, ast.Import) and "gzip" in [a.name for a in node.names]
                     or isinstance(node, ast.ImportFrom) and node.module == "gzip")
            if (opens or gzips) and path.name != "data.py":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_write_parse_round_trip_exact(tmp_path):
    rng = np.random.default_rng(11)
    dense = rng.normal(size=(9, 4))
    dense[rng.random(size=dense.shape) < 0.4] = 0.0
    dense[0, 0] = 1.0 / 3.0  # not exactly representable in decimal
    ds = make_ds(dense, rng.integers(0, 2, size=9))
    path = tmp_path / "rt.svm"
    write_libsvm(ds, str(path))
    back = load_libsvm(str(path), n_features=ds.n_features)
    assert np.array_equal(back.y, ds.y)
    assert np.array_equal(back.X.toarray(), ds.X.toarray())


# ---------------------------------------------------------------- CSV tables

def test_table_round_trip_formats_each_column_by_dtype(tmp_path):
    path = tmp_path / "t.csv"
    write_table(str(path), ["index", "x", "name", "n"],
                [range(3), np.array([1.0, 1.0 / 3.0, -np.inf]), ["a", "b", "c"],
                 np.array([7, 8, 9])], comment="k=v")
    assert path.read_text() == ("# k=v\nindex,x,name,n\n"
                                "0,1.0,a,7\n1,0.3333333333333333,b,8\n2,-inf,c,9\n")
    comment, header, columns = read_table(str(path))
    assert comment == "k=v"
    assert header == ["index", "x", "name", "n"]
    assert columns == [["0", "1", "2"], ["1.0", "0.3333333333333333", "-inf"],
                       ["a", "b", "c"], ["7", "8", "9"]]
    write_table(str(path), ["x", "y"], [[], []])
    assert read_table(str(path)) == (None, ["x", "y"], [[], []])


def test_table_writer_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_table(str(tmp_path / "t.csv"), ["a", "b"], [[1.0, 2.0], [3.0]])


def test_table_reader_checks(tmp_path):
    path = tmp_path / "t.csv"
    for text, match in (("", "empty table"), ("# only a comment\n", "empty table"),
                        ("a,b\n1,2\n3\n", "bad row '3'"),
                        ("index,x\n0,1\n2,1\n", "indexed 0..n-1"),
                        ("index,x\n1,1\n", "indexed 0..n-1")):
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            read_table(str(path))
    path.write_text("\n\nx,index\n\n5,9\n")
    assert read_table(str(path)) == (None, ["x", "index"], [["5"], ["9"]])
    with pytest.raises(DataError, match="cannot read"):
        read_table(str(tmp_path / "missing.csv"))


def test_table_reader_names_the_file_of_a_bad_index(tmp_path):
    # The index column reads as write_table writes it, or the error names the file.
    path = tmp_path / "t.csv"
    for bad in ("x", "1.0", "01", "+1", "1_0"):
        path.write_text(f"index,phi\n0,1.0\n{bad},2.0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: rows must be indexed 0..n-1")):
            read_table(str(path))


# ------------------------------------------------------------- the dataset type

def test_dataset_rejects_bad_inputs():
    X = sp.csr_array(np.eye(2))
    with pytest.raises(DataError, match="CSR"):
        SparseDataset(sp.coo_array(np.eye(2)), np.array([0, 1]))
    with pytest.raises(DataError, match="CSR"):
        SparseDataset(np.eye(2), np.array([0, 1]))
    with pytest.raises(DataError, match="labels"):
        SparseDataset(X, np.array([0, 2]))
    with pytest.raises(DataError, match="flat"):
        SparseDataset(X, np.array([[0], [1]]))
    with pytest.raises(DataError, match="rows but"):
        SparseDataset(X, np.array([0, 1, 1]))
    with pytest.raises(DataError, match="finite"):
        SparseDataset(sp.csr_array(np.array([[np.inf, 0.0], [0.0, 1.0]])),
                      np.array([0, 1]))


def test_dataset_rejects_noncanonical_rows():
    # Indices out of order within a row.
    X = sp.csr_array((np.array([1.0, 2.0]), np.array([1, 0]), np.array([0, 2])),
                     shape=(1, 2))
    with pytest.raises(DataError, match="sorted"):
        SparseDataset(X, np.array([1]))


def test_subset_and_row_views():
    ds = make_ds([[1.0, 0.0], [0.0, 2.0], [3.0, 4.0]], [0, 1, 0])
    sub = ds.subset(np.array([2, 0]))
    assert sub.n_rows == 2
    assert sub.y.tolist() == [0, 0]
    assert np.array_equal(sub.X.toarray(), np.array([[3.0, 4.0], [1.0, 0.0]]))
    lo, hi = ds.X.indptr[1], ds.X.indptr[2]
    assert ds.X.indices[lo:hi].tolist() == [1]
    assert ds.X.data[lo:hi].tolist() == [2.0]
    assert ds.y.mean() == pytest.approx(1.0 / 3.0)


# ---------------------------------------------------------------- splitting

def test_index_arrays_stay_int32(tmp_path):
    # The parser's indices are int32; int64 row pointers would make scipy
    # widen them, doubling the bytes of every dataset, split and subset.
    path = tmp_path / "d.svm"
    path.write_text("".join(f"{i % 2} {i % 7}:1.0 {7 + i % 5}:0.5\n" for i in range(40)))
    ds = load_libsvm(str(path))
    tr, va, te = split(ds, SplitSpec(0.25, 0.25, seed=3))
    empty_te = split(ds, SplitSpec(0.25))[2]
    wide = load_aligned([str(path), libsvm_file(tmp_path, ["1 49:1.0"], "wide.svm")])[0]
    assert wide.n_features == 50
    for part in (ds, tr, va, te, empty_te, ds.subset(np.array([5, 1, 5])),
                 wide, load_libsvm(libsvm_file(tmp_path, []))):
        assert part.X.indices.dtype == np.int32
        assert part.X.indptr.dtype == np.int32


def test_split_spec_validation():
    with pytest.raises(DataError):
        SplitSpec(va_fraction=0.0)
    with pytest.raises(DataError):
        SplitSpec(va_fraction=1.0)
    with pytest.raises(DataError):
        SplitSpec(va_fraction=0.3, te_fraction=-0.1)
    with pytest.raises(DataError):
        SplitSpec(va_fraction=0.6, te_fraction=0.4)
    with pytest.raises(DataError, match="split seed must be nonnegative, got -1"):
        SplitSpec(va_fraction=0.3, seed=-1)


def _id_dataset(n, n_pos):
    """Rows carry a unique value so split membership can be tracked."""
    rows = [[float(i + 1)] for i in range(n)]
    labels = [1] * n_pos + [0] * (n - n_pos)
    return make_ds(rows, labels)


def _ids(ds):
    return sorted(ds.X.toarray().ravel().tolist())


def test_split_sizes_and_stratification():
    ds = _id_dataset(100, 50)
    tr, va, te = split(ds, SplitSpec(va_fraction=0.3, te_fraction=0.2, seed=7))
    assert (tr.n_rows, va.n_rows, te.n_rows) == (50, 30, 20)
    assert int(np.sum(tr.y)) == 25
    assert int(np.sum(va.y)) == 15
    assert int(np.sum(te.y)) == 10


def test_split_is_a_partition():
    ds = _id_dataset(23, 9)
    tr, va, te = split(ds, SplitSpec(va_fraction=0.3, te_fraction=0.2, seed=3))
    combined = _ids(tr) + _ids(va) + _ids(te)
    assert sorted(combined) == [float(i + 1) for i in range(23)]


def test_split_deterministic():
    ds = _id_dataset(40, 17)
    spec = SplitSpec(va_fraction=0.25, te_fraction=0.25, seed=5)
    a = split(ds, spec)
    b = split(ds, spec)
    for x, y in zip(a, b):
        assert _ids(x) == _ids(y)
        assert np.array_equal(x.y, y.y)


def test_split_seed_changes_partition():
    ds = _id_dataset(60, 30)
    a = split(ds, SplitSpec(va_fraction=0.3, te_fraction=0.2, seed=0))
    b = split(ds, SplitSpec(va_fraction=0.3, te_fraction=0.2, seed=1))
    assert any(_ids(x) != _ids(y) for x, y in zip(a, b))


def test_split_te_fraction_zero_gives_empty_te():
    ds = _id_dataset(20, 10)
    tr, va, te = split(ds, SplitSpec(va_fraction=0.3, te_fraction=0.0, seed=0))
    assert te.n_rows == 0
    assert tr.n_rows + va.n_rows == 20


def test_split_missing_class_rejected():
    all_pos = make_ds([[1.0]] * 10, [1] * 10)
    with pytest.raises(DataError, match="no rows of class"):
        split(all_pos, SplitSpec(va_fraction=0.3, te_fraction=0.2, seed=0))
    # One positive row cannot stock a nonempty test split.
    lopsided = _id_dataset(21, 1)
    with pytest.raises(DataError, match="no rows of class"):
        split(lopsided, SplitSpec(va_fraction=0.3, te_fraction=0.2, seed=0))


@settings(max_examples=60, deadline=None)
@given(
    n_pos=st.integers(min_value=12, max_value=80),
    n_neg=st.integers(min_value=12, max_value=80),
    va_fraction=st.floats(min_value=0.15, max_value=0.45),
    te_fraction=st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=0.3)),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_split_class_ratio_within_one_row(n_pos, n_neg, va_fraction, te_fraction, seed):
    ds = _id_dataset(n_pos + n_neg, n_pos)
    parts = split(ds, SplitSpec(va_fraction=va_fraction, te_fraction=te_fraction, seed=seed))
    total = sum(p.n_rows for p in parts)
    assert total == ds.n_rows
    for part in parts:
        if part.n_rows == 0:
            continue
        # Quotas are rounded per class, so each split's class ratio sits
        # within one row of the parent's.
        assert abs(part.y.mean() - ds.y.mean()) <= 1.0 / part.n_rows + 1e-12


# ---------------------------------------------------------------- label flips

def test_flip_count_exact():
    ds = _id_dataset(100, 40)
    flipped = flip_labels(ds, 0.4, seed=2)
    assert int(np.sum(flipped.y != ds.y)) == 40


def test_flip_rounding_half_up():
    ds = _id_dataset(10, 5)
    flipped = flip_labels(ds, 0.25, seed=0)
    assert int(np.sum(flipped.y != ds.y)) == 3  # 2.5 rounds up


def test_flip_zero_and_one():
    ds = _id_dataset(12, 6)
    same = flip_labels(ds, 0.0, seed=9)
    assert np.array_equal(same.y, ds.y)
    inverted = flip_labels(ds, 1.0, seed=9)
    assert np.array_equal(inverted.y, 1 - ds.y)


def test_flip_shares_feature_matrix():
    ds = _id_dataset(8, 4)
    assert flip_labels(ds, 0.5, seed=1).X is ds.X


def test_flip_bad_fraction():
    ds = _id_dataset(8, 4)
    with pytest.raises(DataError):
        flip_labels(ds, -0.1, seed=0)
    with pytest.raises(DataError):
        flip_labels(ds, 1.5, seed=0)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=60),
    fraction=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_flip_is_an_involution(n, fraction, seed):
    labels = [(i * 7) % 2 for i in range(n)]
    ds = make_ds([[float(i + 1)] for i in range(n)], labels)
    twice = flip_labels(flip_labels(ds, fraction, seed), fraction, seed)
    assert np.array_equal(twice.y, ds.y)


# ------------------------------------------------------------ bundled data

# The bundled files are the demo data; these digests pin their bytes.
BUNDLED_SHA256 = {
    "breast_cancer_like.svm": "d5a4b62a43657f845748883e8fec7d03a38796441809232e4c73abb98ebcc022",
    "pima_like.svm": "e3534d19ed812fac7cbf78d68f4fadaf681b344a35b494e670a57908b0e1bd5d",
}


def test_synthdata_copies_the_pinned_bundled_files(tmp_path, capsys):
    for name, digest in BUNDLED_SHA256.items():
        with open(dataset_path(name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, name
    out = tmp_path / "data"
    assert synthdata._main([str(out)]) == 0
    for name, digest in BUNDLED_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
    assert capsys.readouterr().out == (
        f"wrote {out / 'breast_cancer_like.svm'}: 683 rows, 10 features, 0.350 positive\n"
        f"wrote {out / 'pima_like.svm'}: 768 rows, 9 features, 0.367 positive\n")


def test_synthdata_reports_an_unwritable_target_with_exit_2(tmp_path, capsys):
    # A file where the directory should go, a directory under that file, and
    # a directory where a data file should go: each ends in one error line.
    (tmp_path / "afile").write_bytes(b"")
    (tmp_path / "out" / "pima_like.svm").mkdir(parents=True)
    for target in ("afile", "afile/sub", "out"):
        assert synthdata._main([str(tmp_path / target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(tmp_path / target) in err
    assert err.startswith(f"error: cannot write {tmp_path / 'out' / 'pima_like.svm'}: ")
