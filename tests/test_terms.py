import itertools
import random

import pytest

from billiardknots.billiard import diagram
from billiardknots.laurent import DELTA, LaurentPoly, delta_power
from billiardknots.recursions import b_terms, bt_terms, expand_block, f_terms, h_terms
from billiardknots.terms import (
    AMP,
    APM,
    BLOCKS,
    C_BLOCK,
    EMPTY,
    F2MP,
    F2PM,
    F3_BLOCK,
    G2_BLOCK,
    H2_BLOCK,
    SKIP,
    CompiledTermSum,
    Factor,
    SlotTerm,
    TermSum,
    X_BLOCK,
    add_all,
    parse_signs,
    product,
)

A = LaurentPoly.monomial
H3 = expand_block("h3")
FAMILIES = {"f": f_terms, "h": h_terms, "b": b_terms, "bt": bt_terms}


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
    skip_first = TermSum([SlotTerm(0, (Factor.SKIP, Factor.APM))])
    evaluators = [
        (H2_BLOCK.evaluate, skip_first.evaluate),
        (CompiledTermSum(H2_BLOCK).evaluate, CompiledTermSum(skip_first).evaluate),
        (diagram(3, 3).assign_signs, diagram(5, 2, bumpers=2).assign_signs),
    ]
    for plain, skipped in evaluators:
        with pytest.raises(ValueError, match="length"):
            plain("+")
        with pytest.raises(ValueError, match="sign/skip mismatch at slot 1"):
            skipped("++")
        with pytest.raises(ValueError, match="sign/skip mismatch at slot 2"):
            plain("+_")
    with pytest.raises(ValueError, match="bad sign"):
        parse_signs("+x")


def test_term_sum_width_consistency():
    narrow, wide = SlotTerm(0, (Factor.APM,)), SlotTerm(0, (Factor.APM, Factor.APM))
    skip_first = SlotTerm(0, (Factor.SKIP, Factor.APM))
    skip_last = SlotTerm(0, (Factor.APM, Factor.SKIP))
    builders = [
        TermSum,
        lambda terms: add_all(TermSum([t]) for t in terms),
    ]
    for build in builders:
        with pytest.raises(ValueError, match="width"):
            build([narrow, wide])
        with pytest.raises(ValueError, match="skip"):
            build([skip_first, skip_last])


def test_negative_delta_rejected():
    for delta in (-1, 1.0, None):
        with pytest.raises(ValueError, match="delta"):
            TermSum([SlotTerm(delta, (Factor.APM,))])


def test_render():
    assert H2_BLOCK.render() == "(A^±,A^±)+δ(A^±,A^∓)+δ(A^∓,A^±)+δ^2(A^∓,A^∓)"
    # Flat products of blocks: a skip slot in b4, δ-powers up to 3 in bt3.
    assert h_terms(3).render() == (
        "(A^±,A^±,A^±,A^±)+"
        "δ(A^±,A^∓,A^±,A^±)+"
        "δ(A^∓,A^±,A^±,A^±)+"
        "δ^2(A^∓,A^∓,A^±,A^±)+"
        "(f2^∓,f2^∓,A^∓,A^∓)+"
        "δ(A^±,A^±,A^±,A^∓)+"
        "(A^±,A^∓,A^±,A^∓)+"
        "(A^∓,A^±,A^±,A^∓)+"
        "δ(A^∓,A^∓,A^±,A^∓)+"
        "(f2^∓,f2^±,A^∓,A^±)"
    )
    assert b_terms(4).render() == (
        "(A^±,A^±,A^±,A^±,_,A^±)+"
        "δ(A^±,A^∓,A^±,A^±,_,A^±)+"
        "δ(A^∓,A^±,A^±,A^±,_,A^±)+"
        "δ^2(A^∓,A^∓,A^±,A^±,_,A^±)+"
        "(f2^∓,f2^∓,A^∓,A^∓,_,A^±)+"
        "δ(A^±,A^±,A^±,A^∓,_,A^±)+"
        "(A^±,A^∓,A^±,A^∓,_,A^±)+"
        "(A^∓,A^±,A^±,A^∓,_,A^±)+"
        "δ(A^∓,A^∓,A^±,A^∓,_,A^±)+"
        "(f2^∓,f2^±,A^∓,A^±,_,A^±)+"
        "(A^±,A^±,A^±,f2^∓,_,A^∓)+"
        "δ(A^±,A^∓,A^±,f2^∓,_,A^∓)+"
        "δ(A^∓,A^±,A^±,f2^∓,_,A^∓)+"
        "δ^2(A^∓,A^∓,A^±,f2^∓,_,A^∓)+"
        "(f2^∓,f2^±,A^∓,f2^∓,_,A^∓)"
    )
    assert bt_terms(3).render() == (
        "δ(A^±,A^±,A^±,A^±)+"
        "(A^±,A^±,A^±,A^∓)+"
        "(A^±,A^±,A^∓,A^±)+"
        "δ^2(A^±,A^∓,A^±,A^±)+"
        "δ(A^±,A^∓,A^±,A^∓)+"
        "δ(A^±,A^∓,A^∓,A^±)+"
        "δ^2(A^∓,A^±,A^±,A^±)+"
        "δ(A^∓,A^±,A^±,A^∓)+"
        "δ(A^∓,A^±,A^∓,A^±)+"
        "δ^3(A^∓,A^∓,A^±,A^±)+"
        "δ^2(A^∓,A^∓,A^±,A^∓)+"
        "δ^2(A^∓,A^∓,A^∓,A^±)+"
        "(f2^±,f2^∓,A^∓,A^∓)"
    )


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
    scaled = TermSum(
        [SlotTerm(70, (Factor.APM, Factor.F2MP)), SlotTerm(0, (Factor.AMP, Factor.APM))]
    )
    assert scaled.render() == "δ^70(A^±,f2^∓)+(A^∓,A^±)"
    for signs in ("++", "+-", "-+", "--"):
        assert CompiledTermSum(scaled).evaluate(signs) == scaled.evaluate(signs)
    assert scaled.evaluate("+-") == A(-2) - A(-2) * delta_power(70)


def test_built_sums_match_validated_construction():
    # product and add_all derive width and skips from their parts; the public
    # constructor recomputes them from the terms.
    built = [fam(n) for fam in FAMILIES.values() for n in range(1, 10)]
    for ts in built + list(BLOCKS.values()):
        checked = TermSum(ts.terms, ts.width)
        assert (checked.width, checked.skip_positions) == (ts.width, ts.skip_positions)
    assert b_terms(4).skip_positions == {4}


def test_add_all_rejects_mismatched_parts():
    with pytest.raises(ValueError, match="width"):
        add_all([H2_BLOCK, product(H2_BLOCK, APM)])
    with pytest.raises(ValueError, match="skip"):
        add_all([product(SKIP, X_BLOCK), product(X_BLOCK, SKIP)])
    with pytest.raises(ValueError, match="skip"):
        add_all([product(SKIP, APM), product(APM, APM)])


def test_product_shifts_skips_by_offset():
    ts = product(H2_BLOCK, SKIP, C_BLOCK, SKIP, APM)
    assert ts.width == 7
    assert ts.skip_positions == {2, 5}
    assert TermSum(ts.terms, ts.width).skip_positions == {2, 5}
    assert product(SKIP).skip_positions == {0}
    assert product(EMPTY, SKIP, EMPTY, APM).skip_positions == {0}


def _per_term_sum(ts, signs):
    """Reference evaluation: one monomial per term, times its δ-power."""
    value = {Factor.APM: (1, 1), Factor.AMP: (-1, 1), Factor.F2PM: (-3, -1),
             Factor.F2MP: (3, -1), Factor.SKIP: (0, 1)}
    total = LaurentPoly.zero()
    for t in ts.terms:
        exponent, coefficient = 0, 1
        for f, s in zip(t.factors, signs):
            weight, c = value[f]
            exponent += weight * (s or 0)
            coefficient *= c
        total = total + A(exponent, coefficient) * delta_power(t.delta)
    return total


def test_evaluation_matches_per_term_reference():
    rng = random.Random(20)
    scaled = TermSum([SlotTerm(70, (Factor.APM, Factor.F2MP)),
                      SlotTerm(3, (Factor.AMP, Factor.F2PM)),
                      SlotTerm(70, (Factor.AMP, Factor.APM))])
    sums = [fam(n) for fam in FAMILIES.values() for n in range(1, 10)] + [scaled]
    for ts in sums:
        compiled = CompiledTermSum(ts)
        for _ in range(3):
            signs = tuple(None if i in ts.skip_positions else rng.choice((1, -1))
                          for i in range(ts.width))
            want = _per_term_sum(ts, signs)
            assert ts.evaluate(signs) == want
            assert compiled.evaluate(signs) == want
