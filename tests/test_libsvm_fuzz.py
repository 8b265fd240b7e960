"""Differential tests: the block-wise libsvm reader and writer against the
token-by-token oracle in ``libsvm_oracle``.

Random files, valid and malformed, go through both readers, plain and
gzipped, with blocks shrunk to a few bytes so that lines straddle block
ends, parsed by one worker or two. Both must give the same CSR and labels,
or the same DataError message, line number included.

Deliberate differences are kept out of the alphabet below, by name:
underscores in numbers (``1_0``), non-ASCII whitespace and digits, bytes
that are not UTF-8, ``inf``/``nan`` labels (the oracle crashes on them with
OverflowError or ValueError) and indices above 2**31 - 1. Each is pinned by
its own test at the end.
"""

import gzip
import re
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import libsvm_oracle as oracle
from conftest import dataset_path, libsvm_file
from infsub import cli, data, parallel
from infsub.data import DataError, SparseDataset, load_libsvm, write_libsvm

LABELS = ["0", "1", "-1", "+1", "2", "1.0", "1e0", "-0", "0.0", "10e-1", "-1.00",
          "3", "1.5", "spam", "1:1", "1e", "+", "\x00", "NaNa"]
BAD_INDICES = ["1.0", "1e1", "a", "", "+", "-", "+-1", "1-", "inf", "0x1"]
WORDS = ["1.5", "-2.5E+2", ".5", "5.", "+0", "-0.0", "1e-3", "1E5", "1e400", "1e-400",
         "0.1000000000000000055511151231257827", "inf", "-Infinity", "nan", "NaN",
         "abc", "", "1e", "--1", "+.e1", "0x1", "1d5", "infinit", "tiny", "é"]
SEPARATORS = [" ", "  ", "\t", " \t ", "\x0b", "\x0c", "\x1c", "\x1f"]
LINE_ENDS = ["\n", "\r\n", "\r"]
ZEROS = "0" * 30   # pads an index past the 24 characters the reader's digit columns read

indices = st.one_of(
    st.integers(0, 40).map(str),
    st.integers(0, 40).map(lambda i: f"+{i}"),
    st.integers(0, 9).map(lambda i: f"00{i}"),
    st.integers(0, 3).map(lambda i: f"-{i}"),
    st.just(str(2**31 - 1)),
    st.tuples(st.sampled_from(["", "+", "-"]), st.integers(0, 40)).map(
        lambda i: i[0] + ZEROS + str(i[1])),
    st.sampled_from(BAD_INDICES),
)
# Plain decimals at the edges of the reader's exact kernel: 1 to 16 digits
# (m = 10**16 - 1 is past 2**53), the point first, last or inside, signs
# and leading zeros.
short_decimals = st.tuples(
    st.sampled_from(["", "+", "-"]),
    st.text(alphabet="0123456789", min_size=1, max_size=16),
    st.integers(0, 16),
).map(lambda d: d[0] + d[1][:d[2]] + "." + d[1][d[2]:] if d[2] <= len(d[1])
      else d[0] + d[1])
values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-5, 5).map(str),
    short_decimals,
    st.sampled_from(WORDS + ["-0", "0009007199254740993", "9007199254740993.5"]),
)
# Tokens that fail more than one check at once, to pin the order of the checks.
edge_features = st.tuples(st.sampled_from(["-1", "-0", "+2", "7", "1.0", ""]),
                          st.sampled_from(["inf", "nan", "1e400", "2", "x", ""])).map(":".join)
features = st.one_of(
    edge_features,
    st.tuples(indices, values).map(":".join),
    st.tuples(indices, values, values).map(":".join),
    st.sampled_from(["novalue", "5", ":5", "5:", ":"]),
)
# Mostly well-formed rows, so that files often parse and errors land late.
good_rows = st.tuples(
    st.sampled_from(["0", "1"]),
    st.lists(st.tuples(st.integers(0, 30), st.floats(-1e3, 1e3)), max_size=6),
).map(lambda r: " ".join([r[0]] + [f"{i}:{v!r}" for i, v in r[1]]))
any_rows = st.tuples(st.sampled_from(LABELS), st.lists(features, max_size=5),
                     st.lists(st.sampled_from(SEPARATORS), min_size=6, max_size=6)).map(
    lambda r: "".join(t + s for t, s in zip([r[0]] + r[1], r[2])).rstrip(" "))
blank_rows = st.sampled_from(["", " ", "\t", " \x0c "])
files = st.tuples(
    st.lists(st.one_of(good_rows, good_rows, good_rows, any_rows, blank_rows), max_size=12),
    st.lists(st.sampled_from(LINE_ENDS), min_size=12, max_size=12),
    st.booleans(),
).map(lambda f: "".join(r + e for r, e in zip(f[0], f[1]))[:None if f[2] else -1])


def outcome(parse):
    """A parse result reduced to comparable parts, or its DataError text."""
    try:
        ds = parse()
    except DataError as exc:
        return str(exc)
    X = ds.X
    return (X.shape, ds.y.tolist(), X.indptr.tolist(), X.indices.tolist(),
            X.data.view(np.uint64).tolist(), X.indices.dtype, X.indptr.dtype)


@settings(max_examples=300, deadline=None)
@given(text=files, block=st.sampled_from([1, 2, 7, 64, 1 << 17]),
       n_features=st.sampled_from([None, None, 31, 41]), workers=st.sampled_from([1, 2]))
def test_reader_agrees_with_oracle(tmp_path_factory, text, block, n_features, workers):
    root = tmp_path_factory.getbasetemp()
    plain, packed = root / "fuzz.svm", root / "fuzz.svm.gz"
    plain.write_bytes(text.encode("utf-8"))
    packed.write_bytes(gzip.compress(text.encode("utf-8")))
    with open(plain, encoding="utf-8") as fh:
        lines = list(fh)
    want = outcome(lambda: oracle.parse_libsvm(lines, n_features))
    with mock.patch.object(data, "BLOCK_BYTES", block), \
            mock.patch.object(parallel, "cpu_count", lambda: workers):
        for path in (plain, packed):
            # A file's error is the oracle's, after the file's path.
            named = f"{path}: {want}" if isinstance(want, str) else want
            assert outcome(lambda: load_libsvm(str(path), n_features)) == named


def test_reader_agrees_on_bundled_files():
    for name in ("breast_cancer_like.svm", "pima_like.svm"):
        with open(dataset_path(name), encoding="utf-8") as fh:
            want = outcome(lambda: oracle.parse_libsvm(fh))
        assert outcome(lambda: load_libsvm(dataset_path(name))) == want


def test_blank_blocks_raise_no_warning(tmp_path):
    # A block of blank lines has no numbers, and must read without a warning.
    path = tmp_path / "blank.svm"
    path.write_bytes(b"1 0:1\n" + b" \n" * 40 + b"0 1:2\n")
    with mock.patch.object(data, "BLOCK_BYTES", 8):
        assert load_libsvm(str(path)).n_rows == 2


# ------------------------------------------------ deliberate differences

@pytest.mark.parametrize("line, match", [
    ("1_0 0:1", "bad label '1_0'"),
    ("1 1_0:1", "bad feature '1_0:1'"),
    ("1 0:1_0", "bad feature '0:1_0'"),
    ("1 ٣:1", "bad feature '٣:1'"),
    ("1 0:1\u00a02:1", "bad feature '0:1\\xa02:1'"),
    ("1\u20030:1", "bad label '1\\u20030:1'"),
    ("inf 0:1", "non-integer label 'inf'"),
    ("nan 0:1", "non-integer label 'nan'"),
    ("1 2147483648:1", "feature index 2147483648 exceeds 2147483647"),
])
def test_deliberate_differences_from_the_oracle(tmp_path, line, match):
    path = libsvm_file(tmp_path, [line])
    with pytest.raises(DataError, match=re.escape(f"{path}: line 1: {match}")):
        load_libsvm(path)


HUGE = "9" * 5000   # more digits than int() reads


@pytest.mark.parametrize("token, message", [
    (HUGE, f"feature index {HUGE} exceeds 2147483647"),
    (f"-{HUGE}", f"negative feature index -{HUGE}"),
], ids=["huge", "negative-huge"])
def test_an_index_too_long_for_int_is_named_with_its_line(tmp_path, capsys, token, message):
    second = libsvm_file(tmp_path, ["1 0:1", f"1 {token}:1"])
    with pytest.raises(DataError) as err:
        load_libsvm(second)
    assert str(err.value) == f"{second}: line 2: {message}"
    path = tmp_path / "huge.svm"
    path.write_text(f"1 {token}:1\n")
    assert cli.main(["train", "--tr", str(path), "--out", str(tmp_path / "m.txt")]) == 2
    assert f"line 1: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("token, message", [
    ("-007", "negative feature index -7"),
    ("+002147483648", "feature index 2147483648 exceeds 2147483647"),
    ("-" + ZEROS + "7", "negative feature index -7"),
    ("+" + ZEROS + "2147483648", "feature index 2147483648 exceeds 2147483647"),
])
def test_an_out_of_range_index_is_written_as_int_writes_it(tmp_path, token, message):
    path = libsvm_file(tmp_path, [f"1 {token}:1"])
    with pytest.raises(DataError, match=f"^{re.escape(path)}: line 1: {re.escape(message)}$"):
        load_libsvm(path)


@pytest.mark.parametrize("token, index", [
    (ZEROS + "7", 7),
    ("+" + ZEROS + "7", 7),
    ("-" + ZEROS, 0),
    (ZEROS + "2147483647", 2147483647),
])
def test_a_long_zero_padded_index_reads_as_its_digits(tmp_path, token, index):
    assert load_libsvm(libsvm_file(tmp_path, [f"1 {token}:1"])).X.indices.tolist() == [index]


def test_bytes_that_are_not_utf8_are_a_bad_token(tmp_path):
    path = tmp_path / "latin1.svm"
    path.write_bytes(b"1 0:1\n1 0:\xe9\n")
    with pytest.raises(DataError, match="line 2: bad feature '0:\ufffd'"):
        load_libsvm(str(path))


# ------------------------------------------------------------- the writer

rows_strategy = st.lists(
    st.dictionaries(st.integers(0, 20),
                    st.one_of(st.sampled_from([0.0, -0.0, 1.0, 1.0 / 3.0, -2.5]),
                              st.floats(allow_nan=False, allow_infinity=False)),
                    max_size=5),
    max_size=8)


@settings(max_examples=100, deadline=None)
@given(rows=rows_strategy, labels=st.lists(st.integers(0, 1), min_size=8, max_size=8),
       batch=st.sampled_from([1, 3, 1 << 15]))
def test_writer_bytes_match_oracle(tmp_path_factory, rows, labels, batch):
    n = len(rows)
    indptr = np.cumsum([0] + [len(r) for r in rows])
    idx = np.array([j for r in rows for j in sorted(r)], dtype=np.int32)
    val = np.array([r[j] for r in rows for j in sorted(r)], dtype=np.float64)
    ds = SparseDataset(sp.csr_array((val, idx, indptr), shape=(n, 21)),
                       np.array(labels[:n], dtype=np.int8))
    root = tmp_path_factory.getbasetemp()
    with mock.patch.object(data, "WRITE_ENTRIES", batch):
        write_libsvm(ds, str(root / "new.svm"))
    oracle.write_libsvm(ds, str(root / "old.svm"))
    assert (root / "new.svm").read_bytes() == (root / "old.svm").read_bytes()


def test_line_ends_count_as_text_mode_counts_them(tmp_path):
    # "\r\n" is one line end, and a bare "\r" is one too, even across blocks.
    path = tmp_path / "ends.svm"
    path.write_bytes(b"1 0:1\r0 1:2\r\n\rspam\n")
    with open(path, encoding="utf-8") as fh:
        with pytest.raises(DataError, match="line 4: bad label 'spam'"):
            oracle.parse_libsvm(fh)
    for block in (1, 6, 1 << 17):
        with mock.patch.object(data, "BLOCK_BYTES", block):
            with pytest.raises(DataError, match="line 4: bad label 'spam'"):
                load_libsvm(str(path))


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("packed", [False, True], ids=["plain", "gzip"])
def test_blocks_stay_bounded_whatever_the_line_end(tmp_path, end, packed):
    # Each block is about BLOCK_BYTES and the rest of one line, whichever
    # line end the file uses, so a file of bare "\r" ends is not one block.
    rows = [f"{i % 2} {i % 7}:1 {i % 7 + 1}:{i % 10}" for i in range(200)]
    lf = tmp_path / "lf.svm"
    lf.write_text("\n".join(rows) + "\n")
    body = (end.join(rows) + end).encode()
    path = tmp_path / ("ends.svm.gz" if packed else "ends.svm")
    path.write_bytes(gzip.compress(body) if packed else body)
    spy = mock.Mock(wraps=data._parse_block)
    with mock.patch.object(data, "BLOCK_BYTES", 64), \
            mock.patch.object(data, "_parse_block", spy), \
            mock.patch.object(parallel, "cpu_count", lambda: 1):
        got = outcome(lambda: load_libsvm(str(path)))
    sizes = [len(call.args[0]) for call in spy.call_args_list]
    assert len(sizes) > 1
    assert max(sizes) <= 64 + max(len(row) + 1 for row in rows)
    assert got == outcome(lambda: load_libsvm(str(lf)))
