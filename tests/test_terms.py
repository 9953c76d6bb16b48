import inspect
import itertools
import random
import re
import sys
from array import array
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from billiardknots import recursions, terms
from billiardknots.billiard import diagram
from billiardknots.laurent import DELTA, LaurentPoly, delta_power
from billiardknots.recursions import (
    BLOCK_SPELLINGS,
    HSkeleton,
    b_terms,
    bt_terms,
    bumpered_summands,
    expand_block,
    f_summands,
    f_terms,
    h_summands,
    h_terms,
    p_spelling,
    q_spelling,
)
from billiardknots.signseq import parse_signs
from billiardknots.terms import (
    AMP,
    APM,
    EMPTY,
    F2MP,
    F2PM,
    SKIP,
    UNITS,
    CompiledTermSum,
    Factor,
    TermSum,
    add_all,
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
    assert expand_block("X").evaluate("++") == LaurentPoly({0: 1, 4: -1})
    assert expand_block("X").evaluate("--") == LaurentPoly({0: 1, -4: -1})
    assert expand_block("X").evaluate("+-") == LaurentPoly.zero()
    assert expand_block("X").evaluate("-+") == LaurentPoly.zero()


def test_h2_cases():
    assert expand_block("h2").evaluate("+-") == LaurentPoly.one()
    assert expand_block("h2").evaluate("-+") == LaurentPoly.one()
    assert expand_block("h2").evaluate("++") == A(-6)
    assert expand_block("h2").evaluate("--") == A(6)


def test_g2_cases():
    hopf = LaurentPoly({4: -1, -4: -1})
    assert expand_block("g2").evaluate("++") == hopf
    assert expand_block("g2").evaluate("--") == hopf
    assert expand_block("g2").evaluate("+-") == DELTA
    assert expand_block("g2").evaluate("-+") == DELTA


def test_f3_cases():
    assert expand_block("f3").evaluate("++") == DELTA
    assert expand_block("f3").evaluate("+-") == LaurentPoly({4: -1, -4: -1})


def test_concat_f3_c():
    both = product(expand_block("f3"), expand_block("C"))
    assert both.width == 4
    assert len(both.terms) == 4


def test_concat_identity_and_width():
    assert product(EMPTY, expand_block("h2")).canonical() == expand_block("h2").canonical()
    triple = product(expand_block("h2"), APM, APM)
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
        assert h_terms(m) is expand_block(f"h{m}"), m
    assert expand_block("C") is expand_block("C")
    for bad in ("P0", "P01", "Q2", "h0", "P", "Q", "P̃", "nope", "P'2", "h-1", ""):
        with pytest.raises(ValueError):
            expand_block(bad)


def test_head_blocks_sum_the_three_heads():
    # head<i> is the sum of a height-5 skeleton's three heads, in order.
    for i in range(3, 9):
        heads = HSkeleton(i, ()).heads()
        want = [t for head in heads for t in product(*map(expand_block, head)).terms]
        assert list(expand_block(f"head{i}").terms) == want
    for bad in ("head", "head0", "head1", "head2", "head03"):
        with pytest.raises(ValueError):
            expand_block(bad)


def test_p2_blocks_flat_shape():
    assert len(expand_block("P2").terms) == 5
    assert len(expand_block("P̃2").terms) == 5


def test_eval_errors():
    skip_first = TermSum([(0, (Factor.SKIP, Factor.APM))])
    evaluators = [
        (expand_block("h2").evaluate, skip_first.evaluate),
        (CompiledTermSum(expand_block("h2")).evaluate, CompiledTermSum(skip_first).evaluate),
        (diagram(3, 3).assign_signs, diagram(5, 2, bumpers=2).assign_signs),
    ]
    for plain, skipped in evaluators:
        with pytest.raises(ValueError, match="length"):
            plain("+")
        with pytest.raises(ValueError, match="sign/skip mismatch at slot 1"):
            skipped("++")
        with pytest.raises(ValueError, match="sign/skip mismatch at slot 2"):
            plain("+_")
        # Only +1, -1 and None are signs.
        for bad in ((1, 0), (1, 2), (1, 0.5), (1, "+")):
            with pytest.raises(ValueError, match="bad sign .* at slot 2"):
                plain(bad)
    with pytest.raises(ValueError, match="bad sign"):
        parse_signs("+x")
    # A value equal to +1 is the sign +1.
    assert expand_block("h2").evaluate((1.0, -1)) == expand_block("h2").evaluate("+-")


def test_slot_term_is_an_immutable_tuple():
    ts = TermSum([(2, (Factor.APM, Factor.SKIP, Factor.F2MP))])
    (t,) = ts.terms
    assert type(t) is tuple
    assert t == (2, bytes((Factor.APM, Factor.SKIP, Factor.F2MP)))
    assert (ts.width, ts.render()) == (3, "δ^2(A^±,_,f2^∓)")
    assert (TermSum([(0, ())]).width, TermSum([(1, ())]).render()) == (0, "δ()")
    assert hash(t) == hash((2, t[1]))
    with pytest.raises(TypeError):
        t[0] = 3


def test_term_sum_width_consistency():
    narrow, wide = (0, (Factor.APM,)), (0, (Factor.APM, Factor.APM))
    skip_first = (0, (Factor.SKIP, Factor.APM))
    skip_last = (0, (Factor.APM, Factor.SKIP))
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
            TermSum([(delta, (Factor.APM,))])


#: Every block of the registry as it prints: render, width, skipped slots.
BLOCK_LAYOUTS = {
    "A^±": ("(A^±)", 1, set()),
    "A^∓": ("(A^∓)", 1, set()),
    "f2^±": ("(f2^±)", 1, set()),
    "f2^∓": ("(f2^∓)", 1, set()),
    "_": ("(_)", 1, {0}),
    "δ": ("δ()", 0, set()),
    "C": ("(A^±,A^±)+(f2^∓,A^∓)", 2, set()),
    "X": ("δ(A^±,A^±)+(A^±,A^∓)+(A^∓,A^±)", 2, set()),
    "K": ("(f2^∓,f2^∓,A^∓,A^∓)", 4, set()),
    "L": ("(f2^∓,A^±,A^∓)", 3, set()),
    "M": ("(f2^∓,f2^±,A^∓)", 3, set()),
    "N": ("(f2^∓,A^∓,A^∓,A^∓)", 4, set()),
    "Ñ": ("(A^∓,f2^∓,A^∓,A^∓)", 4, set()),
    "R": ("(f2^∓,A^±,A^∓,A^∓)", 4, set()),
    "R̃": ("(A^±,f2^∓,A^∓,A^∓)", 4, set()),
    "S": ("(f2^±,f2^∓,A^∓,A^∓)", 4, set()),
    "g2": ("δ(A^±,A^±)+(A^±,A^∓)+(A^∓,A^±)+δ(A^∓,A^∓)", 2, set()),
    "h2": ("(A^±,A^±)+δ(A^±,A^∓)+δ(A^∓,A^±)+δ^2(A^∓,A^∓)", 2, set()),
    "f3": ("(f2^±,A^±)+(f2^∓,A^∓)", 2, set()),
}


def test_block_layouts():
    assert [*UNITS, *BLOCK_SPELLINGS] == list(BLOCK_LAYOUTS)
    for name, (render, width, skips) in BLOCK_LAYOUTS.items():
        ts = expand_block(name)
        assert (ts.render(), ts.width, ts.skip_positions) == (render, width, skips), name
    assert expand_block("δ").terms == ((1, b""),)


def test_render():
    assert expand_block("h2").render() == "(A^±,A^±)+δ(A^±,A^∓)+δ(A^∓,A^±)+δ^2(A^∓,A^∓)"
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
    sums = [H3, product(expand_block("g2"), expand_block("Q4")), product(expand_block("P̃3"), expand_block("X"))]
    for ts in sums:
        compiled = CompiledTermSum(ts)
        for _ in range(25):
            signs = tuple(rng.choice((1, -1)) for _ in range(ts.width))
            assert compiled.evaluate(signs) == _per_term_sum(ts, signs)


def test_compiled_exhaustive_small():
    ts = H3
    compiled = CompiledTermSum(ts)
    for combo in itertools.product((1, -1), repeat=4):
        assert compiled.evaluate(combo) == _per_term_sum(ts, combo)


def test_delta_power_decomposition_past_64():
    scaled = TermSum(
        [(70, (Factor.APM, Factor.F2MP)), (0, (Factor.AMP, Factor.APM))]
    )
    assert scaled.render() == "δ^70(A^±,f2^∓)+(A^∓,A^±)"
    for signs in ("++", "+-", "-+", "--"):
        assert CompiledTermSum(scaled).evaluate(signs) == _per_term_sum(scaled, parse_signs(signs))
    assert scaled.evaluate("+-") == A(-2) - A(-2) * delta_power(70)


def test_compiled_reused_over_every_sign_vector():
    # One packed sum evaluated many times; b6 carries a skipped slot.
    assert b_terms(6).skip_positions
    for ts in (h_terms(6), b_terms(6)):
        compiled = CompiledTermSum(ts)
        live = [i for i in range(ts.width) if i not in ts.skip_positions]
        for combo in itertools.product((1, -1), repeat=len(live)):
            signs = [None] * ts.width
            for i, s in zip(live, combo):
                signs[i] = s
            assert compiled.evaluate(tuple(signs)) == _per_term_sum(ts, signs)


def test_empty_and_width_zero_sums():
    for width in (0, 3):
        empty = TermSum([], width)
        signs = (1,) * width
        assert empty.evaluate(signs) == LaurentPoly.zero()
        assert CompiledTermSum(empty).evaluate(signs) == LaurentPoly.zero()
    assert EMPTY.evaluate(()) == LaurentPoly.one()
    assert UNITS["δ"].evaluate("") == DELTA
    assert CompiledTermSum(UNITS["δ"]).evaluate(()) == DELTA
    scalars = TermSum([(0, ()), (3, ()), (3, ())], 0)
    assert scalars.evaluate(()) == delta_power(3) + delta_power(3) + 1


def test_factors_are_the_kernel_codes():
    # A factor's value is the byte the packed kernel reads, so no module
    # keeps a second encoding and the kernel neither checks nor translates.
    assert [int(f) for f in Factor] == [4, 2, 8, 14, 3]
    init = inspect.getsource(CompiledTermSum.__init__)
    assert "translate" not in init and "Factor" not in init
    root = Path(__file__).resolve().parents[1]
    for path in [*root.glob("src/billiardknots/*.py"), root / "README.md"]:
        text = path.read_text(encoding="utf-8")
        assert not re.search(r"SlotTerm|_PACK|chain\.from_iterable|NamedTuple", text), path


def test_factor_code_outside_the_five_raises():
    for code in (5, 255, 256, -1):
        with pytest.raises(ValueError):
            TermSum([(0, (Factor.APM, code))])


def test_packing_bound(monkeypatch):
    # Codes stay below (2·max δ + 2)·(6w + 1) and must fit the field.
    # 32-bit fields at width 1: δ = 306783377 is the largest that fits.
    CompiledTermSum(TermSum([(306_783_377, (Factor.APM,))]))
    with pytest.raises(ValueError, match="overflows"):
        CompiledTermSum(TermSum([(306_783_378, (Factor.APM,))]))
    # 16-bit fields: (δ, w) = (9, 545) is the largest at δ = 9 and evaluates
    # exactly, with the top code 2^16 - 117 in the all-f2 term.
    monkeypatch.setattr(CompiledTermSum, "_FIELD", "H")
    width = 545
    rng = random.Random(5)
    terms = [(9, (Factor.F2MP,) * width), (9, (Factor.F2PM,) * width)]
    terms += [(rng.randrange(10), tuple(rng.choice(_LIVE) for _ in range(width)))
              for _ in range(6)]
    ts = TermSum(terms)
    compiled = CompiledTermSum(ts)
    for signs in ((1,) * width, (-1,) * width,
                  tuple(rng.choice((1, -1)) for _ in range(width))):
        want = _per_term_sum(ts, signs)
        assert compiled.evaluate(signs) == ts.evaluate(signs) == want
    for past in (TermSum([(10, (Factor.APM,) * width)]),
                 TermSum([(9, (Factor.APM,) * (width + 1))])):
        with pytest.raises(ValueError, match="overflows"):
            CompiledTermSum(past)
        with pytest.raises(ValueError, match="overflows"):
            past.evaluate((1,) * past.width)


def test_built_sums_match_validated_construction():
    # product and add_all derive the width from their parts without checking
    # terms; the public constructor checks every term and rebuilds the same
    # two columns from the pair view.  Both read the skip layout off the rows.
    built = [fam(n) for fam in FAMILIES.values() for n in range(1, 10)]
    for ts in built + [expand_block(name) for name in [*UNITS, *BLOCK_SPELLINGS]]:
        checked = TermSum(ts.terms, ts.width)
        assert (checked.width, checked.skip_positions) == (ts.width, ts.skip_positions)
        assert (checked.deltas, checked.rows) == (ts.deltas, ts.rows)
        assert type(ts.deltas) is tuple and type(ts.rows) is tuple
        assert all(type(codes) is bytes for codes in ts.rows)
    assert b_terms(4).skip_positions == {4}


def _held_bytes(ts):
    """Bytes of the objects a term sum's slots hold, a tuple's items included."""
    total = 0
    for name in type(ts).__slots__:
        value = getattr(ts, name)
        total += sys.getsizeof(value)
        if type(value) is tuple:
            total += sum(map(sys.getsizeof, value))
    return total


def test_columns_hold_width_plus_delta_field_per_term():
    # One code byte per slot and one δ field per term, plus the column
    # objects' headers: no object per term.
    field = array("I").itemsize
    for ts in (h_terms(9), bt_terms(9)):
        assert len(ts) > 5000
        assert _held_bytes(ts) <= (ts.width + field) * len(ts) + 1024


def test_product_delta_overflow_raises():
    # δ-powers add in the δ column's machine ints; a product whose top
    # δ-power passes the column's maximum is refused, never wrapped.
    top = terms._DELTA_MAX
    assert top == 2 ** (8 * array("I").itemsize) - 1
    half = TermSum([(top // 2 + 1, (Factor.APM,)), (0, (Factor.AMP,))])
    single = TermSum([(top // 2 + 1, (Factor.APM,))])
    rest = TermSum([(top - top // 2 - 1, (Factor.AMP,))])
    assert product(half, rest).deltas == (top, top - top // 2 - 1)
    assert product(rest, single).deltas == (top,)
    for parts in ((half, half), (single, single), (rest, UNITS["δ"], single),
                  (rest, UNITS["δ"], half), (half, UNITS["δ"], single)):
        with pytest.raises(ValueError, match="overflows the δ column"):
            product(*parts)
    with pytest.raises(ValueError, match="overflows the δ column"):
        TermSum([(top + 1, (Factor.APM,))])


def _pairwise(*parts):
    """Reference product of term lists: every pair (pd + qd, pc + qc), the
    last part varying fastest."""
    terms = [(0, b"")]
    for part in parts:
        terms = [(pd + qd, pc + qc) for pd, pc in terms for qd, qc in part]
    return terms


def _spelled(summands):
    return [t for s in summands for t in _pairwise(*map(_reference, s))]


@lru_cache(maxsize=None)
def _reference(symbol):
    """A block's terms as a plain list of pairs, built from its spelling."""
    if symbol in UNITS:
        return list(UNITS[symbol].terms)
    if symbol in BLOCK_SPELLINGS:
        return _spelled(BLOCK_SPELLINGS[symbol])
    name, i = re.fullmatch(r"(P̃|P|Q|h)(\d+)", symbol).groups()
    i = int(i)
    if name == "h":
        return _spelled(h_summands(i))
    return _spelled(q_spelling(i) if name == "Q" else p_spelling(i, tilde=name == "P̃"))


def test_columns_match_pairwise_reference():
    # The two columns hold, in order, the terms that a product of
    # (delta, codes) pairs builds from each family's and block's spelling.
    spellings = {
        "f": lambda n: [recursions._f_symbols(s) for s in f_summands(n)],
        "h": h_summands,
        "b": lambda n: bumpered_summands(n, 2),
        "bt": lambda n: bumpered_summands(n, 1),
    }
    cases = [(fam(n), _spelled(spellings[name](n)))
             for name, fam in FAMILIES.items() for n in range(1, 10)]
    blocks = [f"{p}{i}" for p in ("P", "P̃", "h") for i in range(1, 9)]
    blocks += [f"Q{i}" for i in range(3, 9)]
    cases += [(expand_block(name), _reference(name)) for name in blocks]
    for ts, want in cases:
        assert list(ts.terms) == want
        assert len(ts) == len(ts.deltas) == len(ts.rows) == len(want)


def test_add_all_rejects_mismatched_parts():
    with pytest.raises(ValueError, match="width"):
        add_all([expand_block("h2"), product(expand_block("h2"), APM)])
    with pytest.raises(ValueError, match="skip"):
        add_all([product(SKIP, expand_block("X")), product(expand_block("X"), SKIP)])
    with pytest.raises(ValueError, match="skip"):
        add_all([product(SKIP, APM), product(APM, APM)])


def test_product_shifts_skips_by_offset():
    ts = product(expand_block("h2"), SKIP, expand_block("C"), SKIP, APM)
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
    for delta, codes in ts.terms:
        exponent, coefficient = 0, 1
        for f, s in zip(codes, signs):
            weight, c = value[f]
            exponent += weight * (s or 0)
            coefficient *= c
        total = total + A(exponent, coefficient) * delta_power(delta)
    return total


def test_evaluation_matches_per_term_reference():
    rng = random.Random(20)
    scaled = TermSum([(70, (Factor.APM, Factor.F2MP)),
                      (3, (Factor.AMP, Factor.F2PM)),
                      (70, (Factor.AMP, Factor.APM))])
    sums = [fam(n) for fam in FAMILIES.values() for n in range(1, 10)] + [scaled]
    for ts in sums:
        compiled = CompiledTermSum(ts)
        for _ in range(3):
            signs = tuple(None if i in ts.skip_positions else rng.choice((1, -1))
                          for i in range(ts.width))
            want = _per_term_sum(ts, signs)
            assert ts.evaluate(signs) == want
            assert compiled.evaluate(signs) == want


_LIVE = (Factor.APM, Factor.AMP, Factor.F2PM, Factor.F2MP)


@st.composite
def _term_sums_and_signs(draw):
    """A term sum of width 0-40 with δ-powers 0-70 on a seeded skip layout,
    always holding the all-f2^± and all-f2^∓ terms (every live slot
    negative, exponents ±3w at a constant sign), and a sign vector."""
    width = draw(st.integers(0, 40))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from((0.0, 0.25, 1.0)))
    skips = {i for i in range(width) if rng.random() < density}

    def term(pick):
        return tuple(Factor.SKIP if i in skips else pick() for i in range(width))

    layouts = [term(lambda: rng.choice(_LIVE)) for _ in range(draw(st.integers(0, 12)))]
    layouts += [term(lambda: Factor.F2PM), term(lambda: Factor.F2MP)]
    deltas = draw(st.lists(st.integers(0, 70), min_size=len(layouts), max_size=len(layouts)))
    mode = draw(st.sampled_from((1, -1, 0)))
    signs = tuple(None if i in skips else mode or rng.choice((1, -1)) for i in range(width))
    return TermSum([(d, fs) for d, fs in zip(deltas, layouts)], width), signs


@settings(max_examples=150, deadline=None)
@given(_term_sums_and_signs())
def test_evaluation_kernel_matches_references(case):
    ts, signs = case
    want = _per_term_sum(ts, signs)
    assert ts.evaluate(signs) == want
    assert CompiledTermSum(ts).evaluate(signs) == want


def test_evaluation_kernel_at_full_negative_count():
    # Every slot of the widest drawn width negative: exponent ±3w, sign (-1)^w.
    for width in (39, 40):
        for factor, weight in ((Factor.F2MP, 3), (Factor.F2PM, -3)):
            ts = TermSum([(70, (factor,) * width)])
            for s in (1, -1):
                want = A(weight * s * width, (-1) ** width) * delta_power(70)
                assert ts.evaluate((s,) * width) == want
