"""chain._fsum_rows against math.fsum, bit for bit, error for error.

The three residuals sum their rows through `_fsum_rows`: TwoSum sweeps over
a padded term array, a certificate per row, and math.fsum for the rows the
certificate does not cover.  Here it meets a loop of math.fsum over the same
rows on rows built to be hard: cancellation to exactly 0, sums at exactly
half an ulp and just off it, subnormals, -0.0, one-term rows, rows with no
terms, 1e308 rows whose partial sums overflow, and rows with ±inf or NaN.
The terms sit in arbitrary columns, with values the helper must not read
(NaN, inf, 1e308) in between.  Every sum must have fsum's bits, and a call
whose rows make fsum raise must raise the first such row's error, with the
same type and text.  On the residuals' own rows, the sweeps certify nearly
every sum, so math.fsum sees almost none of them.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibmachine import ConstantTail, GeometricDecay, OrbitEscaped, PowerLawComplement, chain, spectrum
from fibmachine.chain import _fsum_rows

# the helper warns about nothing, not even on the rows it leaves to fsum
pytestmark = pytest.mark.filterwarnings("error")

TINY = 5e-324
MIN_NORMAL = 2.2250738585072014e-308
BIG = 1.7976931348623157e308

#: Values that sit on the edges fsum and TwoSum care about.
POOL = [
    0.0, -0.0, TINY, -TINY, MIN_NORMAL, -MIN_NORMAL, 1.0, -1.0, 2.0**-53, 2.0**-54,
    1.0 + 2.0**-52, 1e308, -1e308, BIG, -BIG, 2.0**1000, -(2.0**1000),
    math.inf, -math.inf, math.nan,
]

#: What may lie outside a row's terms: never read.
GARBAGE = [math.nan, math.inf, -math.inf, 1e308, 0.0, 1.0]

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300)
value = st.one_of(
    st.floats(),
    st.sampled_from(POOL),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.integers(-(2**60), 2**60).map(float),
)


@st.composite
def tie(draw):
    """x with half an ulp of it, and maybe a tiny push off the tie either way."""
    x = draw(st.floats(min_value=1e-290, max_value=1e290)) * draw(st.sampled_from([1.0, -1.0]))
    half = math.ulp(x) / 2 * draw(st.sampled_from([1.0, -1.0]))
    row = [x, half, *draw(st.lists(st.sampled_from([TINY, -TINY, half / 2**20, -half / 2**20]), max_size=1))]
    return draw(st.permutations(row))


@st.composite
def cancelling(draw):
    """Terms and their negations, maybe with a little left over: the sum is exactly 0 or tiny."""
    xs = draw(st.lists(finite, min_size=1, max_size=6))
    rest = draw(st.lists(st.sampled_from([TINY, 2.0**-60, -(2.0**-70)]), max_size=1))
    return draw(st.permutations(xs + [-x for x in xs] + rest))


row = st.one_of(
    st.lists(value, max_size=12),
    st.lists(finite, min_size=1, max_size=12),
    tie(),
    cancelling(),
    st.lists(st.sampled_from(POOL), max_size=5),
)


def fsum_loop(rows):
    """Each row's fsum in hex, or the error of the first row fsum refuses."""
    sums = []
    for terms in rows:
        try:
            sums.append(math.fsum(terms).hex())
        except (ValueError, OverflowError) as exc:
            return ("error", type(exc), str(exc))
    return ("ok", sums)


def helper(rows, width, columns, garbage):
    """_fsum_rows on the rows laid out in `columns` of a padded array."""
    terms = np.full((len(rows), width), garbage)
    keep = np.zeros((len(rows), width), dtype=bool)
    for r, (values, cols) in enumerate(zip(rows, columns)):
        terms[r, cols] = values
        keep[r, cols] = True
    before = terms.copy()
    try:
        got = ("ok", [x.hex() for x in _fsum_rows(terms, keep).tolist()])
    except (ValueError, OverflowError) as exc:
        got = ("error", type(exc), str(exc))
    assert np.array_equal(terms, before, equal_nan=True)  # the terms are not written
    return got


@st.composite
def layouts(draw):
    rows = draw(st.lists(row, max_size=8))
    width = max([len(r) for r in rows] + [0]) + draw(st.integers(0, 3))
    columns = [sorted(draw(st.permutations(range(width)))[: len(r)]) for r in rows]
    return rows, width, columns, draw(st.sampled_from(GARBAGE))


@settings(max_examples=250, deadline=None)
@given(layouts())
def test_every_row_sums_as_fsum_sums_it(layout):
    rows, width, columns, garbage = layout
    assert helper(rows, width, columns, garbage) == fsum_loop(rows)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(tie(), cancelling(), st.lists(finite, min_size=1, max_size=20)), min_size=1, max_size=30))
def test_finite_rows_give_fsum_bits(rows):
    width = max(map(len, rows))
    columns = [list(range(len(r))) for r in rows]
    assert helper(rows, width, columns, 0.0) == fsum_loop(rows)


@pytest.mark.parametrize(
    "rows",
    [
        [[1.0, 2.0**-53]],  # a tie, to even: 1.0
        [[1.0 + 2.0**-52, 2.0**-53]],  # a tie, to even: up
        [[1.0, 2.0**-53, TINY]],  # just past the tie
        [[1.0, 2.0**-53, -TINY]],  # just short of it
        [[2.0, -(2.0**-53)]],  # below a power of two, the gap halves
        [[0.1, 0.2, -0.3]],
        [[-0.0], [-0.0, -0.0], [0.0, -0.0], []],  # fsum's zero is +0.0
        [[TINY, TINY, -TINY], [MIN_NORMAL, -TINY]],
        [[1e308, 1e308, -1e308]],  # intermediate overflow
        [[1e308, -1e308, 1e308, 1e308]],
        [[BIG, BIG / 2**53]],
        [[math.inf, -math.inf]],
        [[math.inf, 1.0], [math.nan, 1.0], [-math.inf]],
        [[1.0, 2.0], [math.inf, -math.inf], [1e308, 1e308]],  # the first refused row decides
        [[1.0, 2.0], [1e308, 1e308], [math.inf, -math.inf]],
        [[2.0**1000, 2.0**1000], [-(2.0**1000), 1.0]],
    ],
)
def test_edge_rows(rows):
    width = max([len(r) for r in rows] + [1])
    columns = [list(range(len(r))) for r in rows]
    assert helper(rows, width, columns, math.nan) == fsum_loop(rows)


def test_no_columns_and_no_rows():
    assert _fsum_rows(np.empty((3, 0)), np.empty((3, 0), dtype=bool)).tolist() == [0.0] * 3
    assert _fsum_rows(np.empty((0, 4)), np.empty((0, 4), dtype=bool)).tolist() == []


class CountingMath:
    """The math module, with its fsum calls counted."""

    def __init__(self):
        self.fsums = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def fsum(self, values):
        self.fsums += 1
        return math.fsum(values)


def test_the_residuals_rows_rarely_reach_fsum(monkeypatch):
    counting = CountingMath()
    rows = [0]

    def counted(terms, keep):
        rows[0] += len(terms)
        return _fsum_rows(terms, keep)

    monkeypatch.setattr(chain, "math", counting)
    monkeypatch.setattr(chain, "_fsum_rows", counted)
    monkeypatch.setattr(spectrum, "_fsum_rows", counted)
    rng = random.Random(2300)
    lams = [complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)) for _ in range(30)]

    def eigen_residuals(p):
        for lam in lams:
            try:
                spectrum.eigen_residual(lam, p, 10)
            except OrbitEscaped:
                pass

    for p in (ConstantTail((1.0,), 0.5), PowerLawComplement(0.5, 2.0), GeometricDecay(0.9, 0.3)):
        for residual in (
            lambda: chain.beta_eigen_residual(16, p),
            lambda: chain.stationarity_residual(16, p),
            lambda: eigen_residuals(p),
        ):
            rows[0] = counting.fsums = 0
            residual()
            assert rows[0] > 0
            # under 3% here; one sweep alone leaves 4-22% to fsum
            assert counting.fsums <= rows[0] // 20, (p, counting.fsums, rows[0])
