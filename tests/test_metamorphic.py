"""Metamorphic relations: two pipeline runs whose inputs differ only in a way
the math ignores must report the same numbers.

Each relation runs ``cli.main`` twice on the bundled ``pima_like.svm``, or on
its tr/va/te splits, with the five-method grid of CI's cross-CPU step, at two
repeats, and compares the report files. None needs an oracle for the numbers
themselves.
"""

import csv
import gzip
import math
from pathlib import Path

import numpy as np

from conftest import dataset_path
from infsub import cli
from infsub.data import SplitSpec, load_libsvm, split, write_libsvm

GRID = ["--method", "dropout,random,optlr,linear,sigmoid", "--alpha", "1,5",
        "--ratio", "0.9,0.7", "--repeats", "2", "--seed", "3", "--gamma"]
REPORTS = {"report.csv", "report_aggregate.csv", "report_gamma.csv"}


def _reports(out_dir, *data):
    out_dir.mkdir()
    argv = ["pipeline", *data, *GRID, "--out", str(out_dir / "report.csv")]
    assert cli.main(argv) == 0
    written = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert set(written) == REPORTS
    return written


def _labels(path):
    with open(path, "rb") as fh:
        return {line.split()[0] for line in fh if line.strip()}


def test_labels_rewritten_as_01_change_no_report_byte(tmp_path, capsys):
    pima = dataset_path("pima_like.svm")
    assert _labels(pima) == {b"-1", b"1"}
    relabelled = tmp_path / "pima01.svm"
    write_libsvm(load_libsvm(pima), str(relabelled))
    assert _labels(relabelled) == {b"0", b"1"}
    assert (_reports(tmp_path / "pm1", "--dataset", pima)
            == _reports(tmp_path / "01", "--dataset", str(relabelled)))


def test_gzipped_input_changes_no_report_byte(tmp_path, capsys):
    pima = dataset_path("pima_like.svm")
    zipped = tmp_path / "pima_like.svm.gz"
    zipped.write_bytes(gzip.compress(Path(pima).read_bytes()))
    assert (_reports(tmp_path / "plain", "--dataset", pima)
            == _reports(tmp_path / "gz", "--dataset", str(zipped)))


# ``--n-features 20`` gives pima's 9 columns 11 more that are all zero. They
# add exact zeros to every product, and theta stays exactly 0 on them (its
# gradient there is C theta_j, from 0), so the fits, solves and draws do the
# same arithmetic. Only the grouping of sums over the longer vectors may
# change, which moves a value by an ulp or so: 1.1e-16 at most here, where
# every value (a logloss, its spread, a squared parameter shift) lies in
# [0, 1]. The bound leaves four orders of magnitude above that. A fit that
# stops at another point inside the 1e-8 gradient tolerance (a stopping rule
# scaled by sqrt(d), or an inner solve capped by d) moves a loss by 3e-10
# or more.
ROUNDING = 1e-12


def test_zero_feature_columns_keep_every_cell(tmp_path, capsys):
    pima = dataset_path("pima_like.svm")
    base = _reports(tmp_path / "d9", "--dataset", pima)
    wide = _reports(tmp_path / "d20", "--dataset", pima, "--n-features", "20")
    for name in sorted(REPORTS):
        rows = list(csv.reader(base[name].decode().splitlines()))
        wide_rows = list(csv.reader(wide[name].decode().splitlines()))
        assert len(rows) == len(wide_rows) > 1, name
        assert rows[0] == wide_rows[0], name
        for row, wide_row in zip(rows[1:], wide_rows[1:]):
            assert len(row) == len(wide_row), name
            for text, wide_text in zip(row, wide_row):
                if text == wide_text:
                    continue
                value, wide_value = float(text), float(wide_text)
                assert 0.0 <= value <= 1.0, (name, row)
                assert abs(value - wide_value) <= ROUNDING, (name, row, wide_row)


def _te_rounding(n, mean):
    """How far two sums of the same n positive te losses, in two row orders,
    may put their means apart.

    numpy sums a column pairwise: halves down to blocks of at most 128
    terms, each summed in 8 interleaved partial sums (at most 15 additions
    each), which are added pairwise (3 more), then the block's at most 7
    left-over terms one by one. So no loss passes through more than
    h = 25 + ceil(log2(n / 128)) additions, and the mean's division adds one
    rounding. Each mean is then within gamma_{h+1} = (h+1) u / (1 - (h+1) u)
    of the exact mean, relative (Higham, "Accuracy and Stability of
    Numerical Algorithms", 2002, sec. 4.2), and the two within twice that;
    dividing ``mean``, one of the two, by 1 - gamma_{h+1} bounds the exact one.
    """
    h = 25 + max(0, math.ceil(math.log2(n / 128)))
    gamma = (h + 1) * 2.0 ** -53 / (1 - (h + 1) * 2.0 ** -53)
    return 2 * gamma * mean / (1 - gamma)


def test_te_rows_permuted_keep_every_cell(tmp_path, capsys):
    # Each te row's margin and loss do not depend on the other rows, so only
    # the order of the mean's sum moves: va_logloss and the accuracy (a count
    # of rows) stay byte-identical, and te_logloss stays within rounding.
    tr, va, te = split(load_libsvm(dataset_path("pima_like.svm")), SplitSpec(0.3, 0.2, seed=0))
    shuffled = te.subset(np.random.default_rng(4).permutation(te.n_rows))
    paths = {name: str(tmp_path / f"{name}.svm") for name in ("tr", "va", "te", "te-shuffled")}
    for name, part in zip(paths, (tr, va, te, shuffled)):
        write_libsvm(part, paths[name])
    assert Path(paths["te"]).read_bytes() != Path(paths["te-shuffled"]).read_bytes()
    runs = [_reports(tmp_path / te_name, "--tr", paths["tr"], "--va", paths["va"],
                     "--te", paths[te_name], "--flip", "0.3")
            for te_name in ("te", "te-shuffled")]
    assert runs[0]["report_gamma.csv"] == runs[1]["report_gamma.csv"]
    header, *rows = csv.reader(runs[0]["report.csv"].decode().splitlines())
    shuffled_header, *shuffled_rows = csv.reader(runs[1]["report.csv"].decode().splitlines())
    assert header == shuffled_header
    assert header[3:] == ["va_logloss", "te_logloss", "accuracy"]
    assert len(rows) == len(shuffled_rows) == 24
    for row, shuffled_row in zip(rows, shuffled_rows):
        assert row[:4] + row[5:] == shuffled_row[:4] + shuffled_row[5:]
        te_loss, shuffled_loss = float(row[4]), float(shuffled_row[4])
        assert abs(te_loss - shuffled_loss) <= _te_rounding(te.n_rows, te_loss), row
