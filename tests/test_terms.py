import itertools
import random

import pytest

from billiardknots.laurent import DELTA, LaurentPoly, delta_power
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
    H3_BLOCK,
    CompiledTermSum,
    Factor,
    SlotTerm,
    TermSum,
    X_BLOCK,
    _as_delta_power,
    add_all,
    expand_block,
    p_prime,
    p_tilde,
    parse_signs,
    product,
    q_block,
)

A = LaurentPoly.monomial


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
    assert H3_BLOCK.width == 4
    for i in range(1, 7):
        assert p_prime(i).width == 2 * i
        assert p_tilde(i).width == 2 * i
    for i in range(3, 8):
        assert q_block(i).width == 2 * i


def test_expand_block_api():
    p1 = expand_block("P'", 1)
    assert len(p1.terms) == 1 and p1.width == 2
    assert expand_block("P~'", 1).canonical() == p1.canonical()
    p3 = expand_block("P'", 3)
    assert p3.width == 6 and len(p3.terms) == 2
    q3 = expand_block("Q", 3)
    assert q3.width == 6 and len(q3.terms) == 2
    # Parity resolution through the generic P name.
    assert expand_block("P", 2, j=1).canonical() == p_prime(2).canonical()
    assert expand_block("P", 2, j=2).canonical() == p_tilde(2).canonical()
    assert expand_block("C").width == 2
    with pytest.raises(ValueError):
        expand_block("Q", 2)
    with pytest.raises(ValueError):
        expand_block("P'", 0)
    with pytest.raises(ValueError):
        expand_block("nope")
    with pytest.raises(ValueError):
        expand_block("P", 2)


def test_p2_blocks_flat_shape():
    assert len(p_prime(2).terms) == 5
    assert len(p_tilde(2).terms) == 5


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
    sums = [H3_BLOCK, product(G2_BLOCK, q_block(4)), product(p_tilde(3), X_BLOCK)]
    for ts in sums:
        compiled = CompiledTermSum(ts)
        for _ in range(25):
            signs = tuple(rng.choice((1, -1)) for _ in range(ts.width))
            assert compiled.evaluate(signs) == ts.evaluate(signs)


def test_compiled_exhaustive_small():
    ts = H3_BLOCK
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
