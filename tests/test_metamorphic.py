"""Metamorphic relations: two pipeline runs whose inputs differ only in a way
the math ignores must report the same numbers.

Each relation runs ``cli.main`` twice on the bundled ``pima_like.svm`` with
the five-method grid of CI's cross-CPU step, at two repeats, and compares the
three report files. Neither needs an oracle for the numbers themselves.
"""

import csv
import gzip
from pathlib import Path

from conftest import dataset_path
from infsub import cli
from infsub.data import load_libsvm, write_libsvm

GRID = ["--method", "dropout,random,optlr,linear,sigmoid", "--alpha", "1,5",
        "--ratio", "0.9,0.7", "--repeats", "2", "--seed", "3", "--gamma"]
REPORTS = {"report.csv", "report_aggregate.csv", "report_gamma.csv"}


def _reports(out_dir, dataset, *flags):
    out_dir.mkdir()
    argv = ["pipeline", "--dataset", dataset, *GRID, *flags, "--out", str(out_dir / "report.csv")]
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
    assert (_reports(tmp_path / "pm1", pima)
            == _reports(tmp_path / "01", str(relabelled)))


def test_gzipped_input_changes_no_report_byte(tmp_path, capsys):
    pima = dataset_path("pima_like.svm")
    zipped = tmp_path / "pima_like.svm.gz"
    zipped.write_bytes(gzip.compress(Path(pima).read_bytes()))
    assert (_reports(tmp_path / "plain", pima)
            == _reports(tmp_path / "gz", str(zipped)))


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
    base = _reports(tmp_path / "d9", pima)
    wide = _reports(tmp_path / "d20", pima, "--n-features", "20")
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
