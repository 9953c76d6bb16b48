import itertools
import random

import pytest

from billiardknots import oracle
from billiardknots.billiard import diagram
from billiardknots.laurent import DELTA, LaurentPoly, QuarterPoly, jones_normalize
from billiardknots.oracle import (
    ORACLE_LIMIT,
    SWEEP_LIMIT,
    _arc_pairings,
    _moves,
    bracket_all_signs,
    bracket_bruteforce,
    sign_sequences,
)

A = LaurentPoly.monomial


def test_unknot_bracket():
    assert bracket_bruteforce(diagram(3, 1).assign_signs("")) == LaurentPoly.one()
    assert bracket_bruteforce(diagram(5, 1).assign_signs("")) == LaurentPoly.one()


def test_single_kink_values():
    d = diagram(3, 2)
    assert bracket_bruteforce(d.assign_signs("+")) == A(-3, -1)
    assert bracket_bruteforce(d.assign_signs("-")) == A(3, -1)


def test_two_component_values():
    d = diagram(3, 3)
    assert bracket_bruteforce(d.assign_signs("++")) == DELTA
    assert bracket_bruteforce(d.assign_signs("+-")) == LaurentPoly({4: -1, -4: -1})


def test_trefoil():
    sd = diagram(3, 4).assign_signs("+-+")
    assert bracket_bruteforce(sd) == LaurentPoly({5: -1, -3: -1, -7: 1})


def test_all_signs_kink_table():
    table = bracket_all_signs(diagram(3, 2))
    assert table == {"+": A(-3, -1), "-": A(3, -1)}


def test_all_signs_double_kink_table():
    table = bracket_all_signs(diagram(5, 2))
    assert table == {
        "++": A(-6),
        "+-": LaurentPoly.one(),
        "-+": LaurentPoly.one(),
        "--": A(6),
    }


def test_all_signs_two_long_knots_table():
    hopf = LaurentPoly({4: -1, -4: -1})
    table = bracket_all_signs(diagram(4, 2))
    assert table == {"++": hopf, "+-": DELTA, "-+": DELTA, "--": hopf}


def test_reducible_final_crossing_behavior():
    # Each kink multiplies the bracket by -A^(-3 sign); stacked kinks compose.
    d = diagram(5, 2)
    for s1 in (1, -1):
        for s2 in (1, -1):
            sd = d.assign_signs((s1, s2))
            assert bracket_bruteforce(sd) == A(-3 * s1, -1) * A(-3 * s2, -1)
    # One kink on a skipped-slot table reduces to the bare kink value.
    d2 = diagram(5, 2, bumpers=2)
    assert bracket_bruteforce(d2.assign_signs("_+")) == A(-3, -1)
    assert bracket_bruteforce(d2.assign_signs("_-")) == A(3, -1)


def test_mirror_symmetry():
    for a, b in [(3, 5), (3, 6), (5, 3), (5, 4)]:
        d = diagram(a, b)
        for s in sign_sequences(d):
            flipped = s.replace("+", "x").replace("-", "+").replace("x", "-")
            got = bracket_bruteforce(d.assign_signs(s)).mirror()
            assert got == bracket_bruteforce(d.assign_signs(flipped))


def test_smoothing_order_independence():
    rng = random.Random(5)
    sd = diagram(5, 4).assign_signs("++--+-")
    want = bracket_bruteforce(sd)
    for _ in range(5):
        order = list(range(6))
        rng.shuffle(order)
        assert bracket_bruteforce(sd, order=order) == want
    with pytest.raises(ValueError, match="permutation"):
        bracket_bruteforce(sd, order=[0, 0, 1, 2, 3, 4])


def test_crossing_limit():
    over_oracle = diagram(5, 14)
    assert over_oracle.crossing_count == 26 > ORACLE_LIMIT
    with pytest.raises(ValueError, match="oracle limit"):
        bracket_bruteforce(over_oracle.assign_signs("+-" * 13))
    over_sweep = diagram(5, 9)
    assert over_sweep.crossing_count == 16 > SWEEP_LIMIT
    with pytest.raises(ValueError, match="sweep limit"):
        bracket_all_signs(over_sweep)


def test_all_signs_matches_bruteforce():
    cases = [(3, 5, 0), (5, 3, 0), (5, 4, 2), (5, 4, 1), (3, 6, 0),
             (3, 8, 0), (3, 9, 0), (3, 10, 0), (4, 5, 0), (5, 5, 0),
             (3, 11, 0),
             (5, 5, 1), (5, 5, 2), (5, 6, 2),
             # No crossing: the sweep's one entry is the free loops' state.
             (3, 1, 0), (4, 1, 0), (5, 1, 0), (5, 1, 1), (5, 1, 2)]
    for a, b, bump in cases:
        d = diagram(a, b, bumpers=bump)
        table = bracket_all_signs(d)
        assert len(table) == 1 << d.crossing_count
        for s in sign_sequences(d):
            assert table[s] == bracket_bruteforce(d.assign_signs(s))


def test_all_signs_sampled_at_sweep_limit():
    # Up to the sweep limit (k >= 10).
    assert diagram(5, 8).crossing_count == 14 == SWEEP_LIMIT
    rng = random.Random(14)
    for a, b, bump in [(5, 8, 0), (5, 6, 0), (5, 6, 1), (5, 7, 2)]:
        d = diagram(a, b, bumpers=bump)
        assert d.crossing_count >= 10
        table = bracket_all_signs(d)
        assert list(table) == list(sign_sequences(d))
        for s in rng.sample(list(table), 20):
            assert table[s] == bracket_bruteforce(d.assign_signs(s)), (a, b, bump, s)


def test_all_signs_field_width_holds_on_every_table(monkeypatch):
    """The packed fields are wide enough for every table the sweep accepts.

    Each sweep is compared with a run in 64-bit fields, which is exact by the
    loose bound |coefficient| <= 2^(k + lo) that the tests assert.
    """
    tables = []
    for a, b, bump in itertools.product(range(1, 31), range(1, SWEEP_LIMIT + 2), range(3)):
        try:
            d = diagram(a, b, bumpers=bump)
        except ValueError:
            continue
        if d.crossing_count <= SWEEP_LIMIT:
            tables.append(d)
    assert len(tables) == 48
    shipped = [bracket_all_signs(d) for d in tables]
    monkeypatch.setattr(oracle, "_FIELD_BITS", 64)
    for d, table in zip(tables, shipped):
        lo = d.free_loops + _moves(d)[1] - 1
        assert d.crossing_count + lo + 2 <= 64, d.spec
        assert bracket_all_signs(d) == table, d.spec


def test_all_signs_entries_do_not_alias():
    # Sign vectors with equal brackets may share one polynomial; working
    # with one entry must leave every other entry as it was.
    d = diagram(3, 8)
    table = bracket_all_signs(d)
    assert len({id(v) for v in table.values()}) < len(table)
    before = {s: dict(v.terms) for s, v in table.items()}
    for s in table:
        v = table[s] + 1
        assert v == LaurentPoly(before[s]) + 1
        assert table[s].mirror() == LaurentPoly(before[s]).mirror()
        assert {t: dict(w.terms) for t, w in table.items()} == before


def test_all_signs_mirror():
    for a, b, bump in [(5, 5, 0), (5, 6, 2), (3, 10, 0)]:
        table = bracket_all_signs(diagram(a, b, bumpers=bump))
        for s, value in table.items():
            flipped = s.replace("+", "x").replace("-", "+").replace("x", "-")
            assert table[flipped] == value.mirror()


def test_all_signs_iteration_order_deterministic():
    keys = list(bracket_all_signs(diagram(5, 2)))
    assert keys == ["++", "+-", "-+", "--"]
    d = diagram(5, 6, bumpers=2)
    assert d.skip_positions and d.crossing_count >= 3
    assert list(bracket_all_signs(d)) == list(sign_sequences(d))


def test_sign_sequences_literal_order():
    # '+' first, slot 0 slowest, '_' fixed at every skip.
    assert list(sign_sequences(diagram(3, 4))) == [
        "+++", "++-", "+-+", "+--", "-++", "-+-", "--+", "---",
    ]
    assert list(sign_sequences(diagram(5, 2, bumpers=2))) == ["_+", "_-"]
    seqs = list(sign_sequences(diagram(5, 4, bumpers=2)))
    assert len(seqs) == 32
    assert seqs[:4] == ["++++_+", "++++_-", "+++-_+", "+++-_-"]
    assert seqs[-2:] == ["----_+", "----_-"]


def _union_find_loops(pairs, n_arcs):
    parent = list(range(n_arcs))
    loops = n_arcs
    for x, y in pairs:
        while parent[x] != x:
            x = parent[x]
        while parent[y] != y:
            y = parent[y]
        if x != y:
            parent[x] = y
            loops -= 1
    return loops


def test_loops_table_matches_union_find():
    # Every constructible table with at most 12 crossings, links included:
    # the loops closed along each pairing vector's moves in the sweep's pass 1.
    tables = [(a, b, 0) for a in (3, 4, 5) for b in range(1, 15)]
    tables += [(5, n, bump) for bump in (1, 2) for n in range(1, 8)]
    checked = 0
    for a, b, bump in tables:
        try:
            d = diagram(a, b, bumpers=bump)
        except ValueError:
            assert a == 4 and b % 8 == 4  # no planar closure
            continue
        k = d.crossing_count
        if k > 12:
            continue
        pairings = _arc_pairings(d)
        steps, most = _moves(d)
        assert len(steps) == k
        got = []
        for pi in range(1 << k):
            state, total = (), 0
            for c, moves in zip(reversed(range(k)), steps):
                state, loops = moves[state][(pi >> c) & 1]
                total += loops
            assert state == ()
            got.append(total)
        want = [
            _union_find_loops(
                [p for c in range(k) for p in pairings[c][(pi >> c) & 1]], d.arc_count
            )
            for pi in range(1 << k)
        ]
        assert got == want, (a, b, bump)
        assert most == max(want), (a, b, bump)
        checked += 1
    assert checked == 42


def test_jones_values():
    sd = diagram(3, 2).assign_signs("+")
    assert jones_normalize(bracket_bruteforce(sd), sd.writhe()) == QuarterPoly.one()
    sd = diagram(5, 2).assign_signs("++")
    assert jones_normalize(bracket_bruteforce(sd), sd.writhe()) == QuarterPoly.one()
    sd = diagram(3, 4).assign_signs("+-+")
    assert jones_normalize(bracket_bruteforce(sd), sd.writhe()) == QuarterPoly(
        {4: 1, 12: 1, 16: -1}
    )


def test_jones_integral_on_knots():
    # Knot diagrams normalize to whole t-exponents.
    cases = [(3, b) for b in (2, 4, 5, 7, 8)] + [(5, b) for b in (2, 3, 4)]
    rng = random.Random(3)
    for a, b in cases:
        d = diagram(a, b)
        k = d.crossing_count
        for _ in range(4):
            signs = tuple(rng.choice((1, -1)) for _ in range(k))
            sd = d.assign_signs(signs)
            assert jones_normalize(bracket_bruteforce(sd), sd.writhe()).is_integral()
