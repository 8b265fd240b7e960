"""Differential test: ``model.load_params`` against a line-by-line oracle.

Files start as ``save_params`` writes them, and then a few of their lines
are spoiled: fields that int() or float() refuse, nan or inf values, indices
out of range or repeated, a negative or non-numeric header, blank lines and
CRLF or CR line ends. Both readers must return the same theta bits and C,
or the same ModelError message.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from infsub.model import ModelError, ModelParams, load_params, save_params


def oracle_load(path: str) -> ModelParams:
    """Read a model file one line at a time: int() and float() per line, a set for repeats."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    dim, reg_c, seen = None, None, set()
    for no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        what = "header" if dim is None else "weight line"
        try:
            k_s, v_s = line.split()
            k, v = int(k_s), float(v_s)
        except ValueError:
            raise ModelError(f"{path}:{no}: bad {what} {line!r}") from None
        if not math.isfinite(v) or (dim is None and v < 0):
            raise ModelError(f"{path}:{no}: bad {what} {line!r}")
        if dim is None:
            if k < 0:
                raise ModelError(f"{path}:{no}: negative dimension {k}")
            if k >= 2**63:
                raise ModelError(f"{path}:{no}: dimension {k} too large")
            dim, reg_c, theta = k, v, np.zeros(k)
        elif not 0 <= k < dim:
            raise ModelError(f"{path}:{no}: index {k} out of range for dimension {dim}")
        elif k in seen:
            raise ModelError(f"{path}:{no}: duplicate index {k}")
        else:
            seen.add(k)
            theta[k] = v
    if dim is None:
        raise ModelError(f"{path}: empty model file")
    return ModelParams(theta, reg_c)


def outcome(load, path: str):
    """The weights' bits and C's, or the ModelError message."""
    try:
        params = load(path)
    except ModelError as exc:
        return str(exc)
    return params.theta.view(np.uint64).tolist(), params.reg_c.hex()


# Lines that int() or float() refuse, and a few that they read.
LINES = ["x 1.0", "1", "1 2.0 3", "1.0 2.0", "1e0 2.0", "0x1 2.0", "1 abc", "1 2.0 #c",
         "+1 2_5.0", "1_0 2.0", "\u0663 1.0", "1\u00a02.0", "1 --2", "1 1e400"]
BAD_VALUES = ["nan", "inf", "-inf", "-Infinity", "NaN", "1e999"]
# A header's dimension is small or past int64, which numpy refuses without
# allocating; an index edit puts the latter in a header that follows a blank line.
HEADERS = ["x 0.1", "-3 0.1", "3 -0.5", "3 nan", "3 inf", "3", "3.0 0.1", "-0 -0.0",
           "+2 1e-3", "2 0.1 x", "1_0 0.1", "0 0.0", "-99999999999999999999 0.1",
           "99999999999999999999 0.1"]
BLANKS = ["", " ", "\t", " \x0c "]
LINE_ENDS = ["\n", "\n", "\r\n", "\r"]
KINDS = ["line", "value", "index", "repeat", "header", "blank"]


def indices(d: int) -> list[str]:
    return [str(d), str(d + 1), "-1", "-0", "+0", "007", "99999999999999999999"]


def spoil(lines: list[str], d: int, kind: str, at: int, pick: int) -> None:
    """Apply one edit to the lines of a model file, in place."""
    if kind == "blank":
        lines.insert(at % (len(lines) + 1), BLANKS[pick % len(BLANKS)])
        return
    if kind == "line":
        lines[at % len(lines)] = LINES[pick % len(LINES)]
        return
    if kind == "header" or len(lines) == 1:
        lines[0] = HEADERS[pick % len(HEADERS)]
        return
    at = 1 + at % (len(lines) - 1)
    k, v = (lines[at].split() + ["0", "1.0"])[:2]
    if kind == "value":
        v = BAD_VALUES[pick % len(BAD_VALUES)]
    elif kind == "index":
        k = indices(d)[pick % len(indices(d))]
    else:   # repeat the index of another weight line
        k = (lines[1 + pick % (len(lines) - 1)].split() + ["0"])[0]
    lines[at] = f"{k} {v}"


weights = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([0.0, -0.0, 1.5, -2.25, 5e-324]))
edits = st.lists(st.tuples(st.sampled_from(KINDS), st.integers(0, 15), st.integers(0, 15)),
                 max_size=3)


@settings(max_examples=150, deadline=None)
@given(theta=st.lists(weights, max_size=10), reg_c=st.sampled_from([0.0, 0.1, 5e-324, 1e308]),
       edits=edits, ends=st.lists(st.sampled_from(LINE_ENDS), min_size=14, max_size=14),
       final_end=st.booleans())
def test_reader_agrees_with_oracle(tmp_path_factory, theta, reg_c, edits, ends, final_end):
    path = str(tmp_path_factory.getbasetemp() / "fuzz.model")
    save_params(ModelParams(np.array(theta), reg_c), path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for kind, at, pick in edits:
        spoil(lines, len(theta), kind, at, pick)
    text = "".join(line + end for line, end in zip(lines, ends))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text if final_end else text[:-len(ends[len(lines) - 1])])
    assert outcome(load_params, path) == outcome(oracle_load, path)
