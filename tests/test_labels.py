import pytest
from hypothesis import given, strategies as st

from stopline.labels import (
    MOTHER,
    concat,
    format_label,
    generation,
    is_antichain,
    is_strict_ancestor,
    make_label,
    parse_label,
)

labels = st.lists(st.integers(min_value=0, max_value=12), max_size=6).map(tuple)


def test_concat_identity():
    assert concat(MOTHER, (3,)) == (3,)
    assert concat((3,), MOTHER) == (3,)


def test_concat_definition():
    assert concat((1, 2), (0,)) == (1, 2, 0)
    assert concat((0,), (0,)) == (0, 0)


def test_strict_ancestor_basic():
    assert is_strict_ancestor((1,), (1, 0))
    assert not is_strict_ancestor((1,), (1,))
    assert not is_strict_ancestor((1, 0), (1,))


@given(labels, labels)
def test_concat_generation_additive(i, j):
    assert generation(concat(i, j)) == generation(i) + generation(j)


@given(labels, labels)
def test_concat_creates_strict_descendants(i, k):
    if k:
        assert is_strict_ancestor(i, concat(i, k))


@given(labels, labels, labels)
def test_concat_associative(i, j, k):
    assert concat(concat(i, j), k) == concat(i, concat(j, k))


@given(st.lists(labels, max_size=8))
def test_antichain_matches_pairwise_definition(labs):
    brute = not any(
        is_strict_ancestor(a, b) or is_strict_ancestor(b, a)
        for ii, a in enumerate(labs)
        for b in labs[ii + 1:]
    )
    assert is_antichain(labs) == brute


def test_format_and_parse_roundtrip():
    assert format_label(MOTHER) == "∅"
    assert format_label((1, 2, 0)) == "1.2.0"
    assert parse_label("∅") == MOTHER
    assert parse_label("1.2.0") == (1, 2, 0)


@given(labels)
def test_parse_inverts_format(i):
    assert parse_label(format_label(i)) == i


def test_make_label_rejects_negative():
    with pytest.raises(ValueError):
        make_label([1, -2])
