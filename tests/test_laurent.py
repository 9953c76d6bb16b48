import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from billiardknots.laurent import (
    DELTA,
    LaurentPoly,
    QuarterPoly,
    coefficient_string,
    delta_power,
    jones_normalize,
)

A = LaurentPoly.monomial
ONE = LaurentPoly.one()
ZERO = LaurentPoly.zero()


def test_additive_identity():
    p = LaurentPoly({5: -1, -3: 2})
    assert ZERO + p == p
    assert p + ZERO == p


def test_kink_value_from_smoothing_sum():
    # A + A^-1 * delta collapses to the positive-kink bracket -A^-3.
    assert A(1) + A(-1) * DELTA == A(-3, -1)


def test_loop_value_plus_constant():
    # (-A^4 - 1) + 2 = 1 - A^4, the equal-signs branch of the X block.
    assert LaurentPoly({4: -1, 0: -1}) + LaurentPoly({0: 2}) == LaurentPoly({0: 1, 4: -1})


def test_multiplicative_identity():
    p = LaurentPoly({2: 3, -2: -3})
    assert ONE * p == p


def test_trefoil_state_product():
    assert A(-3, -1) * A(-3, -1) * A(-1) == A(-7)


def test_delta_square_by_hand():
    assert DELTA * DELTA == LaurentPoly({4: 1, 0: 2, -4: 1})


def test_delta_power():
    assert delta_power(0) == ONE
    assert delta_power(1) == LaurentPoly({2: -1, -2: -1})
    assert delta_power(2) == LaurentPoly({4: 1, 0: 2, -4: 1})
    with pytest.raises(ValueError):
        delta_power(-1)


def test_delta_power_rebuilt_after_cache_clear():
    # The memo clears like every other package memo, and a rebuilt power
    # equals DELTA multiplied k times whatever order the powers are asked in.
    delta_power(8)
    delta_power.cache_clear()
    assert delta_power.cache_info().currsize == 0
    want = [ONE]
    for _ in range(8):
        want.append(want[-1] * DELTA)
    for k in (5, 8, 0, 3, 7, 1, 2, 6, 4):
        assert delta_power(k) == want[k], k
    with pytest.raises(ValueError):
        delta_power(-1)
    assert len(delta_power(2001).terms) == 2002


_polys = st.dictionaries(
    st.integers(-8, 8), st.integers(-9, 9), max_size=6
).map(LaurentPoly)


@settings(max_examples=200, deadline=None)
@given(_polys, _polys)
def test_add_mul_commute(p, q):
    assert p + q == q + p
    assert p * q == q * p


@settings(max_examples=150, deadline=None)
@given(_polys, _polys, _polys)
def test_associativity_distributivity(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=100, deadline=None)
@given(_polys)
def test_no_stored_zero_coefficients(p):
    q = p - p
    assert q == ZERO and not q.terms
    assert all(c != 0 for c in (p * DELTA).terms.values())


def test_jones_normalize_unknot():
    assert jones_normalize(ONE, 0) == QuarterPoly.one()


def test_jones_normalize_trefoil():
    bracket = LaurentPoly({5: -1, -3: -1, -7: 1})
    # t + t^3 - t^4
    assert jones_normalize(bracket, 3) == QuarterPoly({4: 1, 12: 1, 16: -1})


def test_jones_normalize_figure_eight():
    bracket = LaurentPoly({-8: 1, -4: -1, 0: 1, 4: -1, 8: 1})
    # t^-2 - t^-1 + 1 - t + t^2
    assert jones_normalize(bracket, 0) == QuarterPoly(
        {8: 1, 4: -1, 0: 1, -4: -1, -8: 1}
    )


def test_quarter_poly_integrality_and_text():
    v = QuarterPoly({4: 1, 12: 1, 16: -1})
    assert v.is_integral()
    assert v.text() == "t + t^3 - t^4"
    w = QuarterPoly({2: 1})
    assert not w.is_integral()
    assert w.text() == "t^(1/2)"


def test_coefficient_string_single_term():
    assert coefficient_string(ONE) == (1,)
    assert coefficient_string(A(-6)) == (1,)


def test_coefficient_string_trefoil():
    # Support 5, -3, -7 has stride 4; the gap at exponent 1 shows as a zero.
    assert coefficient_string(LaurentPoly({5: -1, -3: -1, -7: 1})) == (-1, 0, -1, 1)


def test_coefficient_string_figure_eight():
    p = LaurentPoly({8: 1, 4: -1, 0: 1, -4: -1, -8: 1})
    assert coefficient_string(p) == (1, -1, 1, -1, 1)


def test_coefficient_string_empty_errors():
    with pytest.raises(ValueError, match="empty polynomial"):
        coefficient_string(ZERO)


def test_text_rendering():
    assert LaurentPoly({5: -1, -3: -1, -7: 1}).text() == "-A^5 - A^-3 + A^-7"
    assert ZERO.text() == "0"
    assert LaurentPoly({0: 2, 1: 1}).text() == "A + 2"


def test_json_pairs_sorted_descending():
    p = LaurentPoly({-7: 1, 5: -1, -3: -1})
    assert p.json_pairs() == [[5, -1], [-3, -1], [-7, 1]]


def test_mirror():
    p = LaurentPoly({5: -1, -3: 2})
    assert p.mirror() == LaurentPoly({-5: -1, 3: 2})


def test_jones_value_never_equals_a_bracket():
    v = jones_normalize(ONE, 0)
    assert isinstance(v, QuarterPoly) and v == QuarterPoly.one() == 1
    assert QuarterPoly({0: 1}) != LaurentPoly.one()
    assert LaurentPoly.one() != QuarterPoly({0: 1})
    assert repr(v) == "QuarterPoly(1)" and repr(ONE) == "LaurentPoly(1)"
    assert type(v + v) is QuarterPoly and -v == QuarterPoly({0: -1})


@pytest.mark.parametrize("terms", [{0.5: 1}, {1: 2.5}, {1: True}, {True: 1}, {"1": 1}])
def test_constructor_refuses_non_int_terms(terms):
    # Z[A, A^-1] only: no truncated exponent, float or bool coefficient.
    with pytest.raises(ValueError, match="must map int to int"):
        LaurentPoly(terms)


@pytest.mark.parametrize("other", [0.5, "1", None])
def test_arithmetic_refuses_non_polynomial_operands(other):
    p = LaurentPoly({5: -1, -3: 2})
    for op in (lambda: p + other, lambda: other + p, lambda: p - other,
               lambda: p * other, lambda: other * p):
        with pytest.raises(TypeError):
            op()
    assert (p == other) is False
