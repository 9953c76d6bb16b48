import json
import math
import random
import re

import pytest

from billiardknots.billiard import BilliardDiagram, TableSpec, diagram
from billiardknots.laurent import LaurentPoly, delta_power, jones_normalize
from billiardknots.oracle import bracket_bruteforce


def bracket_from_pd(pd_text: str) -> LaurentPoly:
    """Independent evaluator working purely from a PD code string.

    For X[a,b,c,d] (counterclockwise from the incoming under-strand) the
    A-smoothing joins (a,b) and (c,d); the B-smoothing joins (a,d) and (b,c).
    """
    xs = [tuple(map(int, m.group(1).split(","))) for m in re.finditer(r"X\[([0-9,]+)\]", pd_text)]
    arcs = sorted({x for t in xs for x in t})
    idx = {a: i for i, a in enumerate(arcs)}
    k = len(xs)
    total = LaurentPoly.zero()
    for sigma in range(1 << k):
        parent = list(range(len(arcs)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        loops = len(arcs)
        for c, (a, b, cc, d) in enumerate(xs):
            pairs = ((a, b), (cc, d)) if not (sigma >> c) & 1 else ((a, d), (b, cc))
            for x, y in pairs:
                rx, ry = find(idx[x]), find(idx[y])
                if rx != ry:
                    parent[rx] = ry
                    loops -= 1
        total = total + LaurentPoly.monomial(k - 2 * bin(sigma).count("1")) * delta_power(loops - 1)
    return total


# -- spec shapes -------------------------------------------------------


def test_crossing_counts_height3():
    for b in range(1, 13):
        assert diagram(3, b).crossing_count == b - 1


def test_crossing_counts_height5():
    for b in range(1, 11):
        assert diagram(5, b).crossing_count == 2 * (b - 1)


def test_coprime_crossing_formula():
    for a in (3, 4, 5):
        for b in range(1, 10):
            if math.gcd(a, b) == 1:
                assert diagram(a, b).crossing_count == (a - 1) * (b - 1) // 2


def test_unknot_table():
    d = BilliardDiagram(TableSpec(3, 1))
    assert d.crossing_count == 0
    assert d.component_count() == 1


def test_t33_two_components():
    d = diagram(3, 3)
    assert d.crossing_count == 2
    assert d.component_count() == 2


def test_t57_single_component():
    d = diagram(5, 7)
    assert d.crossing_count == 12
    assert d.component_count() == 1


def test_t42_two_long_components():
    d = diagram(4, 2)
    assert d.crossing_count == 2
    assert d.component_count() == 2


def test_bumpered_shapes():
    d = BilliardDiagram(TableSpec(5, 7, 2))
    assert d.component_count() == 1
    assert d.crossing_count == 11
    assert not d.skip_positions

    d8 = diagram(5, 8, bumpers=2)
    assert d8.component_count() == 2
    assert d8.slot_count == 14
    assert d8.skip_positions == {12}

    d13 = diagram(5, 3, bumpers=1)
    assert d13.slot_count == 4
    assert not d13.skip_positions

    d2 = diagram(5, 2, bumpers=2)
    assert d2.slot_count == 2
    assert d2.skip_positions == {0}


def test_bumpered_height_is_not_substituted():
    # Bumpers exist at height 5 only; another height is rejected, not
    # silently replaced by 5.
    for a, b, bump in [(3, 4, 2), (4, 5, 1), (3, 3, 1)]:
        with pytest.raises(ValueError, match="only supported at a=5"):
            diagram(a, b, bumpers=bump)
    assert diagram(5, 4, bumpers=2).spec == TableSpec(5, 4, 2)


def test_canonical_order_stable_and_sorted():
    d1, d2 = diagram(5, 6), diagram(5, 6)
    pos1 = [(c.x, c.y) for c in d1.crossings]
    assert pos1 == [(c.x, c.y) for c in d2.crossings]
    assert pos1 == sorted(pos1)


def test_parity_rule_rejections():
    # The bumper side is derived: top exactly when (bumpers == 2) == (b odd).
    assert TableSpec(5, 7, 2).side == "top"
    assert TableSpec(5, 8, 2).side == "bottom"
    assert TableSpec(5, 7, 1).side == "bottom"
    assert TableSpec(5, 8, 1).side == "top"
    assert TableSpec(5, 7).side is None
    assert TableSpec(5, 7, 2).label() == "B^2(5,7)"
    assert TableSpec(5, 8, 2).label() == "B_2(5,8)"
    assert TableSpec(5, 7, 1).label() == "B_1(5,7)"
    assert TableSpec(5, 8, 1).label() == "B^1(5,8)"
    with pytest.raises(ValueError):
        TableSpec(3, 5, bumpers=1)
    with pytest.raises(ValueError):
        TableSpec(6, 4)


def test_table_spec_is_an_immutable_value():
    spec = TableSpec(5, 7, 2)
    same = TableSpec(a=5, b=7, bumpers=2)
    assert spec == same and hash(spec) == hash(same)
    assert len({spec, same}) == 1
    assert {spec: "x"}[same] == "x"
    assert spec != TableSpec(5, 7, 1) and spec != TableSpec(5, 7)
    assert TableSpec(5, 7) == TableSpec(5, 7, 0)
    assert spec != (5, 7, 2)
    with pytest.raises(AttributeError):
        spec.a = 3
    assert spec.a == 5
    for args, message in [((6, 4), "unsupported table height a=6"),
                          ((5, 0), "table width b must be >= 1"),
                          ((5, 4, 3), "bumpers must be 0, 1 or 2"),
                          ((4, 5, 1), "only supported at a=5"),
                          ((5, 7, True), "bumpers must be an int, got True"),
                          ((5.0, 7), "a must be an int, got 5.0"),
                          ((5, 7.0), "b must be an int, got 7.0")]:
        with pytest.raises(ValueError, match=message):
            TableSpec(*args)


def test_every_table_has_at_least_b_minus_1_crossings():
    # The CLI refuses widths past a crossing limit + 1 before tracing them.
    built = 0
    for a, bumpers in [(3, 0), (4, 0), (5, 0), (5, 1), (5, 2)]:
        for b in range(1, 31):
            try:
                d = diagram(a, b, bumpers=bumpers)
            except ValueError:
                assert a == 4 and b % 8 == 4, (a, b)
                continue
            built += 1
            assert d.crossing_count >= b - 1, d.spec.label()
    assert built == 146


def test_assign_signs_validation():
    d = diagram(3, 4)
    with pytest.raises(ValueError, match="length"):
        d.assign_signs("+-")
    with pytest.raises(ValueError, match="slot"):
        d.assign_signs("+_+")
    d8 = diagram(5, 8, bumpers=2)
    with pytest.raises(ValueError, match="slot"):
        d8.assign_signs("+" * 14)


def test_writhe_examples():
    assert diagram(3, 1).assign_signs("").writhe() == 0
    assert diagram(3, 4).assign_signs("+-+").writhe() == 3
    assert diagram(3, 5).assign_signs("+-+-").writhe() == 0
    assert diagram(3, 2).assign_signs("+").writhe() == -1


def test_planarity_chord_rule():
    # T(4, b) with b = 4 (mod 8) leaves the two open strands' ends
    # interleaved on the boundary, so no crossing-free closure exists; every
    # other table of every kind closes.
    specs = [(a, b, 0) for a in (3, 4, 5) for b in range(1, 201)]
    specs += [(5, n, bump) for bump in (1, 2) for n in range(1, 201)]
    refused = 0
    for a, b, bump in specs:
        if a == 4 and b % 8 == 4:
            with pytest.raises(ValueError, match=rf"^T\(4,{b}\) has no planar closure: "
                               "its strand ends interleave on the boundary$"):
                diagram(a, b, bumpers=bump)
            refused += 1
        else:
            diagram(a, b, bumpers=bump)
    assert (len(specs), refused) == (1000, 25)


def test_pd_trefoil_matches_independent_evaluator():
    sd = diagram(3, 4).assign_signs("+-+")
    assert bracket_from_pd(sd.pd_code()) == bracket_bruteforce(sd)


def test_pd_hopf_two_crossings():
    sd = diagram(3, 3).assign_signs("+-")
    pd = sd.pd_code()
    assert pd.count("X[") == 2
    assert bracket_from_pd(pd) == bracket_bruteforce(sd)


def test_pd_bumpered_and_height5():
    for a, b, bump, signs in [(5, 3, 0, "++--"), (5, 4, 1, "+--++-"),
                              (5, 5, 2, "+-+-+-+")]:
        sd = diagram(a, b, bumpers=bump).assign_signs(signs)
        assert bracket_from_pd(sd.pd_code()) == bracket_bruteforce(sd)


def test_pd_unknot_marker():
    sd = diagram(3, 1).assign_signs("")
    assert sd.pd_code() == "PD[U]"
    assert sd.gauss_code() == "U"


def test_gauss_code_trefoil():
    sd = diagram(3, 4).assign_signs("+-+")
    assert sd.gauss_code() == "O1+ U2+ O3+ U1+ O2+ U3+"


def test_pd_deterministic():
    one = diagram(5, 4).assign_signs("+-+-+-").pd_code()
    two = diagram(5, 4).assign_signs("+-+-+-").pd_code()
    assert one == two


def test_json_dump():
    d = diagram(5, 4, bumpers=2)
    data = json.loads(d.json_dump())
    assert data["schema"] == 2
    assert data["table"] == "B_2(5,4)"
    assert [s["skipped"] for s in data["slots"]].count(True) == 1
    assert len(data["crossings"]) == d.crossing_count
    assert data["closures"] == [[[0, 0], [4, 2]]]
    # One-bumper tangle ends pair by position (b odd: bottom pair, right pair).
    tangle = json.loads(diagram(5, 3, bumpers=1).json_dump())
    assert tangle["closures"] == [[[0, 0], [2, 0]], [[3, 1], [3, 5]]]


def _omega_value(v) -> tuple[int, int]:
    """V(omega) = x + y*omega in Z[omega], omega = e^(2 pi i/3), for an
    integral Jones polynomial: t-exponents fold mod 3, omega^2 = -1 - omega."""
    x = y = 0
    for n, c in v.terms.items():
        r = (n // 4) % 3
        if r == 0:
            x += c
        elif r == 1:
            y += c
        else:
            x, y = x - c, y - c
    return x, y


def test_knot_jones_invariants():
    # Knot Jones polynomials have integer exponents and V(omega) = 1; both
    # fail when a crossing's writhe sign disagrees with its component's
    # orientation (as it did on one-bumper tangles).
    specs = [(a, b, 0) for a in (3, 4, 5) for b in range(1, 13) if not (a == 4 and b % 8 == 4)]
    specs += [(5, n, bump) for bump in (1, 2) for n in range(1, 13)]
    rng = random.Random(2024)
    checked = set()
    for a, b, bump in specs:
        d = diagram(a, b, bumpers=bump)
        if d.component_count() != 1 or d.crossing_count > 14:
            continue
        checked.add(d.spec.label())
        for _ in range(10):
            signs = "".join(
                "_" if i in d.skip_positions else rng.choice("+-") for i in range(d.slot_count)
            )
            sd = d.assign_signs(signs)
            v = jones_normalize(bracket_bruteforce(sd), sd.writhe())
            assert v.is_integral(), (d.spec.label(), signs)
            assert _omega_value(v) == (1, 0), (d.spec.label(), signs)
    assert {"B_1(5,3)", "B^1(5,4)", "B^1(5,8)"} <= checked
