"""Increment routes: carry rewriting vs transducer vs plain integer +1."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibmachine import (
    CapacityError,
    InadmissibleWord,
    NoPath,
    TransducerEdge,
    UINT64_MAX,
    decode,
    encode,
    format_path,
    succ_carry,
    succ_transducer,
)
from fibmachine.numeration import digits_lsb

from oracles import old_succ_carry


def increment_oracle(word: str) -> str:
    """The only thing an adding machine can mean: encode(decode(word) + 1)."""
    return encode(decode(word) + 1)


def test_carry_worked_example_low_zero():
    # 3 -> 4, lowest digit clear: the carry dies on the first rung
    word, trace = succ_carry("100")
    assert word == "101"
    assert trace.branch == "low_zero"
    assert trace.carries == (1, 0)
    assert trace.start_index == -1
    assert trace.halted_at == 0


def test_carry_worked_example_low_one():
    # 4 -> 5, lowest digit set: two live carries, halt at index 2
    word, trace = succ_carry("101")
    assert word == "1000"
    assert trace.branch == "low_one"
    assert trace.carries == (1, 1, 0)
    assert trace.start_index == 0
    assert trace.halted_at == 2


def test_carry_accepts_leading_zeros():
    word, trace = succ_carry("00101")
    assert word == "1000"
    assert trace.carries == (1, 1, 0)


def test_transducer_worked_example():
    word, edges = succ_transducer("100101")
    assert word == "101000"
    assert format_path(edges) == "(T,1/1,T)(T,00/01,I)(I,10/00,I)(I,1/0,I)"


def test_transducer_zero():
    word, edges = succ_transducer("")
    assert word == "1"
    assert format_path(edges) == "(T,00/01,I)"


def test_routes_agree_exhaustive():
    for n in range(0, 3000):
        word = encode(n)
        expected = increment_oracle(word)
        carry_word, _ = succ_carry(word)
        trans_word, _ = succ_transducer(word)
        assert carry_word == expected
        assert trans_word == expected


def test_rewrite_stabilizes_above_halted_carry():
    # digits above the last rewritten pair are copied unchanged
    for n in range(0, 2000):
        word = encode(n)
        new_word, trace = succ_carry(word)
        before = digits_lsb(word)
        after = digits_lsb(new_word)
        j = trace.halted_at
        first_untouched = 2 * j + 2 if trace.branch == "low_zero" else 2 * j + 1
        for i in range(first_untouched, max(len(before), len(after))):
            b = before[i] if i < len(before) else 0
            a = after[i] if i < len(after) else 0
            assert a == b


def test_inadmissible_input_rejected():
    with pytest.raises(InadmissibleWord):
        succ_carry("110")
    with pytest.raises(NoPath):
        succ_transducer("110")


def test_capacity_guard():
    top = encode(UINT64_MAX)
    with pytest.raises(CapacityError):
        succ_carry(top)
    with pytest.raises(CapacityError):
        succ_transducer(top)
    # one below the cap still increments fine
    word, _ = succ_carry(encode(UINT64_MAX - 1))
    assert decode(word) == UINT64_MAX


def test_transducer_edge_structure():
    # the path is: optional 1/0 edge, some 10/00 edges, one 00/01 edge, copies
    for n in (0, 1, 2, 4, 12, 17, 33, 88):
        _, edges = succ_transducer(encode(n))
        labels = [(e.label_in, e.label_out) for e in edges]
        terminal = labels.index(("00", "01"))
        for label in labels[:terminal]:
            assert label in (("1", "0"), ("10", "00"))
        for lin, lout in labels[terminal + 1 :]:
            assert lin == lout and lin in ("0", "1")


@given(st.integers(min_value=0, max_value=10**10))
@settings(max_examples=300)
def test_routes_agree_property(n):
    word = encode(n)
    expected = increment_oracle(word)
    assert succ_carry(word)[0] == expected
    assert succ_transducer(word)[0] == expected


# ---------------------------------------------------------------------------
# regressions for the bit-level fast paths


def test_transducer_copies_leading_zeros():
    # 4 -> 5: the rewritten prefix is three edges; the leading zero at digit 5
    # is still copied, and the result has no leading zeros
    word, edges = succ_transducer("000101")
    assert word == "1000"
    assert edges == (
        TransducerEdge("I", "1", "0", "I"),
        TransducerEdge("I", "10", "00", "I"),
        TransducerEdge("I", "00", "01", "T"),
        TransducerEdge("T", "0", "0", "T"),
    )
    assert succ_carry("000101")[0] == "1000"


def test_transducer_carry_past_top_digit_copies_nothing():
    # the halting edge reads zeros above the top digit, so no digit is left to copy
    assert format_path(succ_transducer("101")[1]) == "(T,00/01,I)(I,10/00,I)(I,1/0,I)"
    assert format_path(succ_transducer("1010")[1]) == "(T,00/01,I)(I,10/00,I)(I,10/00,I)"
    assert succ_transducer("1010")[0] == "10000"


def test_transducer_full_edge_tuple_63_bit_word():
    word = "1000101010000000010001000100010100000010010100000010101000100100010100101001000010000101010"
    assert decode(word) == 2**63 - 1
    new_word, edges = succ_transducer(word)
    assert new_word == encode(2**63)
    carry = TransducerEdge("I", "10", "00", "I")
    halt = TransducerEdge("I", "00", "01", "T")
    # digits 0..7 are rewritten; digits 8..90 are copied, least significant first
    copies = tuple(TransducerEdge("T", ch, ch, "T") for ch in reversed(word[:-8]))
    assert len(copies) == 83
    assert edges == (carry, carry, carry, halt) + copies
    assert format_path(edges).endswith("(T,0/0,T)(T,00/01,I)(I,10/00,I)(I,10/00,I)(I,10/00,I)")


def test_capacity_boundary_92_digits():
    top = encode(UINT64_MAX)
    assert len(top) == 92 and decode(top) == UINT64_MAX
    for route in (succ_carry, succ_transducer):
        with pytest.raises(CapacityError, match="^successor would exceed the 64-bit range$"):
            route(top)
        with pytest.raises(CapacityError, match="^successor would exceed the 64-bit range$"):
            route("00" + top)
        assert route(encode(UINT64_MAX - 1))[0] == top
        # F_91 alone, the smallest 92-digit word, still increments
        assert route("1" + "0" * 91)[0] == "1" + "0" * 90 + "1"
        # the largest 92-digit word and any 93-digit word are past the cap
        for word in ("10" * 46, "1" + "0" * 92):
            with pytest.raises(CapacityError, match="^decoded value exceeds the 64-bit range$"):
                route(word)


def test_non_ascii_digits_rejected_with_route_messages():
    for word in ("١٠", "1٠", "１"):  # Arabic-Indic and fullwidth digits
        with pytest.raises(InadmissibleWord) as exc:
            succ_carry(word)
        assert str(exc.value) == f"word {word!r} is not an admissible Fibonacci word"
        with pytest.raises(NoPath) as exc:
            succ_transducer(word)
        assert str(exc.value) == f"the transducer rejects {word!r}"


def test_carry_loop_equals_the_two_branch_oracle():
    # one loop for both branches: same word and same CarryTrace as one loop per branch
    rng = random.Random(20261019)
    values = [
        *range(100_001),
        *(rng.getrandbits(63) for _ in range(5_000)),
        *range(UINT64_MAX - 100, UINT64_MAX),
    ]
    words = [encode(n) for n in values]
    words += ["0" * rng.randint(1, 4) + encode(rng.getrandbits(63)) for _ in range(1_000)]
    words += ["0", "00", "000101", "0010010"]
    for word in words:
        assert succ_carry(word) == old_succ_carry(word), word
