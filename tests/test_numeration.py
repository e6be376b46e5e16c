"""Digit words: greedy encoding, decoding, admissibility, generalized bases."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fibmachine import (
    FIB64,
    FIBONACCI,
    UINT64_MAX,
    BaseDef,
    CapacityError,
    InadmissibleWord,
    base_sequence,
    decode,
    digits_of_int,
    encode,
    is_admissible,
)
from fibmachine.cli import main
from fibmachine.numeration import _scale_table
from oracles import old_decode, old_is_admissible, old_window_is_admissible


def greedy_oracle(n: int, scale: list[int]) -> str:
    """Independent greedy digits: subtract the largest scale value repeatedly."""
    if n == 0:
        return ""
    digits = []
    started = False
    for value in reversed(scale):
        d = n // value
        n -= d * value
        if d or started:
            digits.append(str(d))
            started = True
    assert n == 0
    return "".join(digits)


def test_scale_values_fibonacci():
    assert base_sequence(FIBONACCI, 8) == [1, 2, 3, 5, 8, 13, 21, 34]
    assert FIB64[7] == 34 and FIB64[10] == 144 and FIB64[19] == 10946
    assert FIB64[12] == 377 and FIB64[15] == 1597 and FIB64[20] == 17711


def test_scale_values_order3():
    base = BaseDef((1, 1, 1), name="order3")
    assert base_sequence(base, 5) == [1, 2, 4, 7, 13]


def test_scale_values_with_larger_coeffs():
    # F_n = a_1 F_(n-1) + ... + a_d F_(n-d), with the +1 boost below depth d
    base = BaseDef((2, 1), name="two-one")
    seq = base_sequence(base, 6)
    assert seq[0] == 1 and seq[1] == 2 * 1 + 1
    for n in range(2, 6):
        assert seq[n] == 2 * seq[n - 1] + seq[n - 2]


def test_encode_worked_examples():
    assert encode(12) == "10101"
    assert encode(17) == "100101"
    assert encode(14) == "100001"
    assert encode(0) == ""
    assert encode(1) == "1"
    assert encode(4) == "101"


def test_encode_matches_greedy_oracle():
    scale = base_sequence(FIBONACCI, 30)
    for n in range(0, 3000):
        assert encode(n) == greedy_oracle(n, scale)


def test_decode_inverts_encode_small():
    for n in range(0, 5000):
        assert decode(encode(n)) == n


def test_decode_accepts_leading_zeros():
    assert decode("00101") == 4
    assert decode("0" * 95 + "1") == 1
    assert decode("") == 0
    assert decode("0") == 0


def test_digits_of_int_lsb_order():
    assert digits_of_int(12) == (1, 0, 1, 0, 1)
    assert digits_of_int(17) == (1, 0, 1, 0, 0, 1)
    assert digits_of_int(0) == ()


def test_admissibility_fibonacci():
    assert is_admissible("10101")
    assert is_admissible("")
    assert is_admissible("0")
    assert not is_admissible("11")
    assert not is_admissible("0110")
    assert not is_admissible("2")
    assert not is_admissible("10201")


def test_admissibility_order3():
    # order-3 all-ones: windows of three digits must stay below (1,1,1) lex
    base = BaseDef((1, 1, 1), name="order3")
    assert is_admissible("110", base)
    assert not is_admissible("111", base)
    assert not is_admissible("1110", base)
    assert not is_admissible("2", base)


def test_admissibility_windows_cover_single_digits():
    # bound digits near the low end must respect the zero-padded window rule
    base = BaseDef((2, 1), name="two-one")
    assert is_admissible("2", base)  # window (2,0) < (2,1) lex
    assert not is_admissible("21", base)  # window (2,1) is not < (2,1)
    assert is_admissible("20", base)


def test_every_encoded_word_is_admissible_order3():
    base = BaseDef((1, 1, 1), name="order3")
    for n in range(0, 400):
        word = encode(n, base)
        assert is_admissible(word, base)
        assert decode(word, base) == n


def test_capacity_errors():
    with pytest.raises(CapacityError):
        encode(2**64)
    with pytest.raises(CapacityError):
        decode("1" + "0" * 95)
    assert decode(encode(UINT64_MAX - 1)) == UINT64_MAX - 1


def test_encode_rejects_non_integers():
    # no float may come back as a word with dots in it, such as "1.000" for 3.0
    # nor a bool as the word of 1: each is refused with a ValueError naming n
    for base in (FIBONACCI, BaseDef((1, 1, 1), name="order3")):
        for value in (3.0, 2.5, "5", True):
            with pytest.raises(ValueError, match=f"^n must be an integer, got {re.escape(repr(value))}$"):
                encode(value, base)


def test_decode_rejects_inadmissible():
    with pytest.raises(InadmissibleWord):
        decode("11")
    with pytest.raises(InadmissibleWord):
        decode("3")


def test_base_validation():
    with pytest.raises(ValueError):
        BaseDef((1,), name="too-short")
    with pytest.raises(ValueError):
        BaseDef((1, 2), name="increasing")
    with pytest.raises(ValueError):
        BaseDef((1, 0), name="zero")


def test_base_refuses_bool_and_non_integer_coefficients():
    for coeffs in [(1.9, True), (2, 1.0), (True, 1), (1, True), ("1", 1), (2, np.bool_(True))]:
        with pytest.raises(ValueError, match="base coeffs must be integers"):
            BaseDef(coeffs)
    base = BaseDef((np.int64(2), np.int32(1)))
    assert base.coeffs == (2, 1) and all(type(c) is int for c in base.coeffs)


@given(st.integers(min_value=0, max_value=10**12))
@settings(max_examples=200)
def test_roundtrip_property(n):
    word = encode(n)
    assert is_admissible(word)
    assert decode(word) == n


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=100)
def test_roundtrip_order3_property(n):
    base = BaseDef((1, 1, 1), name="order3")
    word = encode(n, base)
    assert is_admissible(word, base)
    assert decode(word, base) == n


# non-increasing coefficients a_1 >= ... >= a_d >= 1 with d = 2..5 and a_1 <= 9
ORDER_D_COEFFS = st.lists(st.integers(1, 9), min_size=2, max_size=5).map(
    lambda c: tuple(sorted(c, reverse=True))
)


@given(ORDER_D_COEFFS, st.integers(min_value=0, max_value=UINT64_MAX))
@settings(max_examples=300)
def test_roundtrip_order_d_property(coeffs, n):
    base = BaseDef(coeffs, name="order-d")
    word = encode(n, base)
    assert is_admissible(word, base)
    assert decode(word, base) == n


@given(st.integers(min_value=1, max_value=10**9))
@settings(max_examples=100)
def test_greedy_digit_value_property(n):
    # the value equals the scale-weighted digit sum by construction
    eps = digits_of_int(n)
    assert sum(e * FIB64[i] for i, e in enumerate(eps)) == n
    assert eps[-1] == 1  # no high zeros
    assert all(eps[i] * eps[i + 1] == 0 for i in range(len(eps) - 1))


# ---------------------------------------------------------------------------
# regressions for the Fibonacci string fast path and the digit-sequence path


def test_decode_lsb_digit_sequences():
    assert decode((1, 0, 1, 0, 0, 1)) == 17
    assert decode([0, 1, 0, 1]) == 7
    assert decode([]) == 0
    assert decode([1] + [0] * 95) == 1  # high zeros are harmless in sequences too
    with pytest.raises(InadmissibleWord, match=r"^word \[1, 1\] is not admissible in this base$"):
        decode([1, 1])
    with pytest.raises(InadmissibleWord, match=r"^word \(2,\) is not admissible in this base$"):
        decode((2,))
    with pytest.raises(CapacityError, match="^decoded value exceeds the 64-bit range$"):
        decode([0] * 92 + [1])


def test_decode_capacity_boundary_92_digits():
    assert decode(encode(UINT64_MAX)) == UINT64_MAX
    assert len(encode(UINT64_MAX)) == 92
    assert decode("1" + "0" * 91) == FIB64[91]
    assert decode("000" + "1" + "0" * 91) == FIB64[91]
    for word in ("10" * 46, "1" + "0" * 92):
        with pytest.raises(CapacityError, match="^decoded value exceeds the 64-bit range$"):
            decode(word)


def test_decode_non_ascii_digits_rejected():
    for word in ("١٠", "1٠", "１", "1é"):
        with pytest.raises(InadmissibleWord) as exc:
            decode(word)
        assert str(exc.value) == f"word {word!r} contains a non-digit character"
        assert not is_admissible(word)
    for word in ("+1", " 1", "1_0", "-1"):  # accepted by int(word, 2), not by decode
        with pytest.raises(InadmissibleWord, match="contains a non-digit character"):
            decode(word)
        assert not is_admissible(word)


# ---------------------------------------------------------------------------
# one decode path and one admissibility test, against the retired paths


def outcome(f, *args):
    """The value of f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)


@st.composite
def order2_words(draw):
    """(word, base): a Fibonacci or order-2 base, and a word of 0-130 digits in
    one of three forms, often an encoded value padded and then mutated."""
    if draw(st.booleans()):
        base = FIBONACCI
    else:
        a1 = draw(st.integers(1, 9))
        base = BaseDef((a1, draw(st.integers(1, a1))))
    length = draw(st.one_of(st.integers(0, 130), st.integers(89, 95)))
    if draw(st.booleans()):
        digits = draw(st.lists(st.integers(-1, 10), min_size=length, max_size=length))
    else:
        word = encode(draw(st.integers(0, UINT64_MAX)), base)
        digits = [0] * max(length - len(word), 0) + [int(c) for c in word]
        digits = [0] * draw(st.integers(0, 3)) + ([1] if draw(st.booleans()) else []) + digits
        for _ in range(draw(st.integers(0, 2))):
            if digits:
                digits[draw(st.integers(0, len(digits) - 1))] = draw(st.integers(-1, 10))
    form = draw(st.sampled_from(["str", "tuple", "list"]))
    if form == "str":  # MSB first; -1 and 10 become "-1" and "10"
        return "".join(map(str, digits)), base
    lsb = digits[::-1]
    return (tuple(lsb) if form == "tuple" else lsb), base


@given(order2_words())
@settings(max_examples=600, deadline=None)
def test_is_admissible_equals_the_retired_paths(case):
    word, base = case
    assert is_admissible(word, base) is old_is_admissible(word, base)


@st.composite
def order2_to_4_words(draw):
    """(word, base): a base of order 2 to 4 and a word of 0-130 digits, random or
    an encoded value mutated, as a string (MSB first, so -1 and 10 read as
    several characters, some not digits at all) or an LSB-first sequence."""
    d = draw(st.integers(2, 4))
    a1 = draw(st.integers(1, 9))
    rest = draw(st.lists(st.integers(1, a1), min_size=d - 1, max_size=d - 1))
    base = BaseDef((a1, *sorted(rest, reverse=True)))
    if draw(st.booleans()):
        digits = draw(st.lists(st.integers(-2, 10), max_size=130))
    else:
        digits = [int(c) for c in encode(draw(st.integers(0, UINT64_MAX)), base)]
        for _ in range(draw(st.integers(0, 3))):
            if digits:
                digits[draw(st.integers(0, len(digits) - 1))] = draw(st.integers(-2, 10))
    form = draw(st.sampled_from(["str", "tuple", "list", "text"]))
    if form == "text":  # characters that are not digits, or not ASCII
        return "".join(map(str, digits)) + draw(st.sampled_from(["x", " ", "\u0663", "+1", ""])), base
    if form == "str":
        return "".join(map(str, digits)), base
    lsb = digits[::-1]
    return (tuple(lsb) if form == "tuple" else lsb), base


@given(order2_to_4_words())
@example(("1" * 90, BaseDef((1, 1, 1))))
@example(((0, -1, 1), BaseDef((2, 2, 1, 1))))
@settings(max_examples=800, deadline=None)
def test_is_admissible_equals_the_window_slices(case):
    word, base = case
    assert is_admissible(word, base) is old_window_is_admissible(word, base)


def late_fault(word):
    """A Fibonacci word whose first fault from the low end lies past a one at digit 92 or above.

    The retired digit-sequence loop met that one before the fault and raised
    CapacityError; decode now tests admissibility first and raises
    InadmissibleWord, as it does in every other base."""
    eps = tuple(int(c) for c in reversed(word)) if isinstance(word, str) else tuple(word)
    prev = 0
    for i, e in enumerate(eps):
        if e not in (0, 1) or (e == 1 and prev == 1):
            return False
        if e == 1 and i >= len(FIB64):
            return any(d not in (0, 1) for d in eps[i:]) or any(
                a == b == 1 for a, b in zip(eps[i:], eps[i + 1 :])
            )
        prev = e
    return False


@given(order2_words())
@example(("11" + "0" * 92, BaseDef((1, 1))))  # the Fibonacci coefficients under another name
@settings(max_examples=600, deadline=None)
def test_decode_equals_the_retired_paths(case):
    word, base = case
    new, old = outcome(decode, word, base), outcome(old_decode, word, base)
    if new == old:
        return
    if old[0] is CapacityError and old[1].startswith("scale value F_"):
        # one capacity message for every base
        assert base.coeffs != (1, 1)
        assert new == (CapacityError, "decoded value exceeds the 64-bit range")
    else:
        # admissibility before value: the documented precedence change, in
        # every base with the Fibonacci coefficients, whatever its name
        assert base.coeffs == (1, 1) and late_fault(word), (word, new, old)
        assert old == (CapacityError, "decoded value exceeds the 64-bit range")
        assert new == (InadmissibleWord, f"word {word!r} is not admissible in this base")


def test_decode_tests_admissibility_before_value(capsys):
    # a one at digit 92 is past F_91, and digits 92 and 93 are adjacent ones
    for word in ([0] * 92 + [1, 1], "11" + "0" * 92, "10211" + "0" * 92):
        with pytest.raises(InadmissibleWord, match="is not admissible in this base$"):
            decode(word)
        assert late_fault(word) and outcome(old_decode, word)[0] is CapacityError
    assert main(["decode", "11" + "0" * 92]) == 2
    assert capsys.readouterr().err == f"error: word {'11' + '0' * 92!r} is not admissible in this base\n"


def test_decode_capacity_message_is_the_same_in_every_base():
    for base in (BaseDef((2, 1)), BaseDef((1, 1, 1)), BaseDef((3, 3))):
        word = "1" + "0" * len(_scale_table(base))  # one digit past the last scale value
        with pytest.raises(CapacityError, match="^decoded value exceeds the 64-bit range$"):
            decode(word, base)
    with pytest.raises(CapacityError, match=r"^scale value F_\d+ exceeds the 64-bit range$"):
        base_sequence(FIBONACCI, len(FIB64) + 1)
