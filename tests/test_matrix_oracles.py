"""The array-backed truncated matrix and its CSV writer against the code they replaced.

`old_transition_matrix` builds one Distribution per row and `old_matrix_csv`
formats those rows one line at a time (both in tests/oracles.py).  The
matrix must give the same rows and leak bit for bit, and `chain matrix` the
same text byte for byte, on stdout and in a file, at levels 1..22.
"""

import json

import numpy as np
import pytest

from fibmachine import (
    ConstantTail,
    GeometricDecay,
    PowerLawComplement,
    TailUndefined,
    all_ones,
    construct_positive_recurrent,
    geometric_budget,
    transition_matrix,
)
from fibmachine.cli import CSV_BLOCK, _matrix_csv, main
from fibmachine.probseq import to_config

from oracles import old_matrix_csv, old_transition_matrix

LEVELS = range(1, 23)

SEQUENCES = {
    # at level 1 the top row's only entry is the certain increment: the row is empty
    "all-ones": all_ones,
    "null": lambda: ConstantTail((1.0,), 0.5),
    "transient": lambda: PowerLawComplement(0.5, 2.0),
    "geometric": lambda: GeometricDecay(0.9, 0.3),
    # a fresh instance per use, since the construction extends on demand
    "constructed": lambda: construct_positive_recurrent(0.7, 0.4, geometric_budget(0.4), 3),
    # every product past the first rung underflows to 0.0 and is dropped
    "underflow": lambda: ConstantTail((1e-200,) * 3, 1e-200),
}


def flat(rows):
    """Per-row counts, targets and probabilities of Distribution rows, as arrays."""
    entries = [entry for row in rows for entry in row.entries]
    return (
        np.array([len(row.entries) for row in rows], dtype=np.int64),
        np.array([t for t, _ in entries], dtype=np.int64),
        np.array([v for _, v in entries], dtype=np.float64),
    )


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", SEQUENCES)
def test_matrix_and_csv_match_old_code_levels_1_to_22(name, capsys, tmp_path):
    make = SEQUENCES[name]
    cfg = None
    if name != "constructed":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prob_seq": to_config(make())}))
    for level in LEVELS:
        mat = transition_matrix(level, make())
        old_rows, old_leak = old_transition_matrix(level, make())
        counts, targets, probs = flat(old_rows)
        assert [row.state for row in old_rows] == list(range(mat.size))
        assert np.array_equal(np.diff(mat.indptr), counts)
        assert np.array_equal(mat.targets, targets) and mat.targets.dtype == np.int64
        assert same_bits(mat.probs, probs)
        assert mat.leak_prob.hex() == old_leak.hex()
        want = "".join(old_matrix_csv(old_rows, mat.size - 1, old_leak))
        assert "".join(_matrix_csv(mat)) == want
        if cfg is not None:
            assert run(capsys, "chain", "matrix", str(level), "--config", str(cfg)) == (0, want, "")
            out = tmp_path / "m.csv"
            assert run(
                capsys, "chain", "matrix", str(level), "--config", str(cfg), "--out", str(out)
            ) == (0, "", "")
            assert out.read_text(encoding="utf-8") == want
    # the last text spans several blocks
    assert want.count("\n") > 2 * CSV_BLOCK


@pytest.mark.parametrize("name", SEQUENCES)
def test_rows_and_row_match_old_rows(name):
    for level in (*range(1, 15), 18):
        mat = transition_matrix(level, SEQUENCES[name]())
        old_rows, _ = old_transition_matrix(level, SEQUENCES[name]())
        # every probability is positive, so == on the floats compares their bits
        assert all(v > 0.0 for row in old_rows for _, v in row.entries)
        rows = tuple(mat.row(i) for i in range(mat.size))
        assert rows == old_rows
        assert all(type(t) is int and type(v) is float for row in rows for t, v in row.entries)
        step = max(1, mat.size // 500)
        for i in (*range(0, mat.size, step), mat.size - 1):
            assert mat.row(i) == old_rows[i]
        assert mat.row(np.int64(mat.size - 1)) == old_rows[-1]


def test_explicit_without_tail_fails_where_the_old_code_did(capsys, tmp_path):
    # p_4 is asked for once a row climbs four rungs: the same level as before
    make = lambda: ConstantTail((0.9, 0.8, 0.7), None)  # noqa: E731
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"prob_seq": to_config(make())}))
    refused = 0
    for level in LEVELS:
        try:
            old_rows, old_leak = old_transition_matrix(level, make())
        except TailUndefined as exc:
            with pytest.raises(TailUndefined) as got:
                transition_matrix(level, make())
            assert str(got.value) == str(exc)
            assert run(capsys, "chain", "matrix", str(level), "--config", str(cfg)) == (
                2,
                "",
                f"error: {exc}\n",
            )
            refused += 1
            continue
        mat = transition_matrix(level, make())
        rows = tuple(mat.row(i) for i in range(mat.size))
        assert rows == old_rows and mat.leak_prob.hex() == old_leak.hex()
        want = "".join(old_matrix_csv(old_rows, mat.size - 1, old_leak))
        assert run(capsys, "chain", "matrix", str(level), "--config", str(cfg)) == (0, want, "")
    assert 0 < refused < len(LEVELS)


def test_row_refuses_a_state_outside_the_truncation():
    mat = transition_matrix(5, ConstantTail((), 0.5))
    assert mat.size == 13
    for bad in (-1, 13, 10**30):
        with pytest.raises(ValueError, match=f"state {bad} is outside the truncation 0..12"):
            mat.row(bad)
    for bad in (1.5, 2.0, "3", None, True):
        with pytest.raises(ValueError, match="state must be an integer, got"):
            mat.row(bad)
    assert mat.row(12) == old_transition_matrix(5, ConstantTail((), 0.5))[0][12]


def test_matrix_repr_and_read_only_arrays():
    a = transition_matrix(9, ConstantTail((), 0.5))
    text = repr(a)
    assert text.startswith("TruncatedMatrix(level=9, size=89, leak_state=88, leak_prob=")
    for array in (a.indptr, a.targets, a.probs):
        with pytest.raises(ValueError):
            array[0] = 0
