import pytest

from billiardknots.recursions import expand_block, f_terms, padovan
from billiardknots.terms import APM, add_all, product
from billiardknots.tiling import (
    count_domino_tilings,
    enumerate_term_tilings,
    render_tilings,
    tiling_to_term,
)

TILES_RENDERED = {
    4: "(S2,V)+(S1,H)",
    5: "(S2,C)+(S1,H,V)",
    6: "(S2,[C,V]+[V,H])+(S1,H,C)",
    7: "(S2,C,C)+(S2,V,H,V)+(S1,H,[C,V]+[V,H])",
    8: "(S2,C,[C,V]+[V,H])+(S2,V,H,C)+(S1,H,C,C)+(S1,H,V,H,V)",
    9: "(S2,C,C,C)+(S2,C,V,H,V)+(S2,V,H,[C,V]+[V,H])"
       "+(S1,H,C,[C,V]+[V,H])+(S1,H,V,H,C)",
    10: "(S2,C,C,[C,V]+[V,H])+(S2,C,V,H,C)+(S2,V,H,C,C)+(S2,V,H,V,H,V)"
        "+(S1,H,C,C,C)+(S1,H,C,V,H,V)+(S1,H,V,H,[C,V]+[V,H])",
}


def test_fibonacci_counts():
    assert count_domino_tilings(0) == 1
    assert count_domino_tilings(1) == 1
    assert count_domino_tilings(2) == 2
    assert count_domino_tilings(10) == 89
    with pytest.raises(ValueError):
        count_domino_tilings(-1)


def test_enumeration_base():
    assert enumerate_term_tilings(4) == (("S2", "V"), ("S1", "H"))


def test_enumeration_width7():
    assert enumerate_term_tilings(7) == (
        ("S2", "C", "C"),
        ("S2", "V", "H", "V"),
        ("S1", "H", "C", "V"),
        ("S1", "H", "V", "H"),
    )


def test_counts_match_f_expansion():
    for b in range(4, 13):
        assert len(enumerate_term_tilings(b)) == padovan(b + 4), b


def test_term_tilings_below_all_tilings():
    for b in range(4, 13):
        assert len(enumerate_term_tilings(b)) < count_domino_tilings(b - 1)


def test_rendered_tile_lists():
    for b, want in TILES_RENDERED.items():
        assert render_tilings(b) == want, b


def test_dictionary_on_base_tiles():
    assert tiling_to_term(("S2", "V")).canonical() == product(expand_block("f3"), APM).canonical()
    one = tiling_to_term(("S1", "H"))
    assert one.width == 3 and len(one.terms) == 1


def test_round_trip_reproduces_f_terms():
    for b in range(4, 11):
        mapped = add_all(tiling_to_term(t) for t in enumerate_term_tilings(b))
        assert mapped.canonical() == f_terms(b).canonical(), b
    # Independent of the summands: a term tiling with m C-squares stands for
    # its 2^m domino tilings, one flat term each.
    for b in range(4, 13):
        terms = f_terms(b).canonical()
        assert len(set(terms)) == len(terms) == count_domino_tilings(b - 1), b


def test_injectivity():
    for b in range(4, 11):
        images = {tiling_to_term(t).canonical() for t in enumerate_term_tilings(b)}
        assert len(images) == padovan(b + 4), b


def test_bad_tilings_rejected():
    with pytest.raises(ValueError):
        tiling_to_term(("V", "S1", "H"))
    with pytest.raises(ValueError):
        tiling_to_term(("S1", "S2"))
    with pytest.raises(ValueError):
        enumerate_term_tilings(3)
