import itertools
import random

import pytest

from billiardknots.laurent import DELTA, LaurentPoly, delta_power
from billiardknots.recursions import expand_block, h_terms
from billiardknots.terms import (
    AMP,
    APM,
    C_BLOCK,
    EMPTY,
    F2MP,
    F2PM,
    F3_BLOCK,
    G2_BLOCK,
    H2_BLOCK,
    CompiledTermSum,
    Factor,
    SlotTerm,
    TermSum,
    X_BLOCK,
    _as_delta_power,
    add_all,
    parse_signs,
    product,
)

A = LaurentPoly.monomial
H3 = expand_block("h3")


def test_factor_values():
    assert APM.evaluate((1,)) == A(1)
    assert APM.evaluate((-1,)) == A(-1)
    assert AMP.evaluate((1,)) == A(-1)
    assert F2PM.evaluate((1,)) == A(-3, -1)
    assert F2PM.evaluate((-1,)) == A(3, -1)
    assert F2MP.evaluate((1,)) == A(3, -1)
    assert F2MP.evaluate((-1,)) == A(-3, -1)


def test_x_block_cases():
    assert X_BLOCK.evaluate("++") == LaurentPoly({0: 1, 4: -1})
    assert X_BLOCK.evaluate("--") == LaurentPoly({0: 1, -4: -1})
    assert X_BLOCK.evaluate("+-") == LaurentPoly.zero()
    assert X_BLOCK.evaluate("-+") == LaurentPoly.zero()


def test_h2_cases():
    assert H2_BLOCK.evaluate("+-") == LaurentPoly.one()
    assert H2_BLOCK.evaluate("-+") == LaurentPoly.one()
    assert H2_BLOCK.evaluate("++") == A(-6)
    assert H2_BLOCK.evaluate("--") == A(6)


def test_g2_cases():
    hopf = LaurentPoly({4: -1, -4: -1})
    assert G2_BLOCK.evaluate("++") == hopf
    assert G2_BLOCK.evaluate("--") == hopf
    assert G2_BLOCK.evaluate("+-") == DELTA
    assert G2_BLOCK.evaluate("-+") == DELTA


def test_f3_cases():
    assert F3_BLOCK.evaluate("++") == DELTA
    assert F3_BLOCK.evaluate("+-") == LaurentPoly({4: -1, -4: -1})


def test_concat_f3_c():
    both = product(F3_BLOCK, C_BLOCK)
    assert both.width == 4
    assert len(both.terms) == 4


def test_concat_identity_and_width():
    assert product(EMPTY, H2_BLOCK).canonical() == H2_BLOCK.canonical()
    triple = product(H2_BLOCK, APM, APM)
    assert triple.width == 4
    assert len(triple.terms) == 4


def test_slot_width_and_blocks():
    assert H3.width == 4


def test_expand_block_api():
    for i in range(1, 9):
        assert expand_block(f"P{i}").width == 2 * i
        assert expand_block(f"P̃{i}").width == 2 * i
    for i in range(3, 9):
        assert expand_block(f"Q{i}").width == 2 * i
    p1 = expand_block("P1")
    assert len(p1.terms) == 1
    assert expand_block("P̃1").canonical() == p1.canonical()
    assert len(expand_block("P3").terms) == 2 and len(expand_block("Q3").terms) == 2
    for m in range(1, 7):
        assert expand_block(f"h{m}").canonical() == h_terms(m).canonical(), m
    assert expand_block("C") is C_BLOCK
    for bad in ("P0", "P01", "Q2", "h0", "P", "Q", "P̃", "nope", "P'2", "h-1", ""):
        with pytest.raises(ValueError):
            expand_block(bad)


def test_p2_blocks_flat_shape():
    assert len(expand_block("P2").terms) == 5
    assert len(expand_block("P̃2").terms) == 5


def test_eval_errors():
    with pytest.raises(ValueError, match="length"):
        H2_BLOCK.evaluate("+")
    with pytest.raises(ValueError, match="skip"):
        TermSum([SlotTerm(LaurentPoly.one(), (Factor.SKIP, Factor.APM))]).evaluate("++")
    with pytest.raises(ValueError, match="skip"):
        H2_BLOCK.evaluate("+_")
    with pytest.raises(ValueError, match="bad sign"):
        parse_signs("+x")


def test_term_sum_width_consistency():
    one = LaurentPoly.one()
    narrow, wide = SlotTerm(one, (Factor.APM,)), SlotTerm(one, (Factor.APM, Factor.APM))
    skip_first = SlotTerm(one, (Factor.SKIP, Factor.APM))
    skip_last = SlotTerm(one, (Factor.APM, Factor.SKIP))
    builders = [
        TermSum,
        lambda terms: add_all(TermSum([t]) for t in terms),
    ]
    for build in builders:
        with pytest.raises(ValueError, match="width"):
            build([narrow, wide])
        with pytest.raises(ValueError, match="skip"):
            build([skip_first, skip_last])


def test_scale_and_render():
    scaled = H2_BLOCK.scale(DELTA)
    assert scaled.evaluate("+-") == DELTA
    text = H2_BLOCK.render()
    assert text == "(A^±,A^±)+δ(A^±,A^∓)+δ(A^∓,A^±)+δ^2(A^∓,A^∓)"


def test_compiled_matches_plain_evaluation():
    rng = random.Random(11)
    sums = [H3, product(G2_BLOCK, expand_block("Q4")), product(expand_block("P̃3"), X_BLOCK)]
    for ts in sums:
        compiled = CompiledTermSum(ts)
        for _ in range(25):
            signs = tuple(rng.choice((1, -1)) for _ in range(ts.width))
            assert compiled.evaluate(signs) == ts.evaluate(signs)


def test_compiled_exhaustive_small():
    ts = H3
    compiled = CompiledTermSum(ts)
    for combo in itertools.product((1, -1), repeat=4):
        assert compiled.evaluate(combo) == ts.evaluate(combo)


def test_delta_power_decomposition_past_64():
    d70 = delta_power(70)
    assert _as_delta_power(d70) == (1, 70)
    assert _as_delta_power(-d70) == (-1, 70)
    assert _as_delta_power(LaurentPoly.one()) == (1, 0)
    for scalar in (A(2), A(140), d70 + 1, d70 * 2, LaurentPoly.zero(), A(-2)):
        assert _as_delta_power(scalar) == (1, None)
    scaled = H2_BLOCK.scale(-d70)
    assert scaled.render().startswith("-δ^70(A^±,A^±)")
    assert CompiledTermSum(scaled).evaluate("+-") == scaled.evaluate("+-")
