"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines inline.
Every comparison is exact (integer Laurent arithmetic); the stated runtime
budgets are asserted with ``time.perf_counter``.
"""

import itertools
import random
import time

from billiardknots.billiard import diagram
from billiardknots.laurent import (
    DELTA,
    LaurentPoly,
    QuarterPoly,
    coefficient_string,
    jones_normalize,
)
from billiardknots.oracle import bracket_bruteforce, sign_sequences
from billiardknots.recursions import (
    b_terms,
    bt_terms,
    expand_block,
    f_summands,
    f_terms,
    h_skeletons,
    h_terms,
    padovan,
    writhe_recursive,
)
from billiardknots.terms import CompiledTermSum, F2MP, F2PM, add_all

A = LaurentPoly.monomial

TABLE1 = {
    4: (1, -1, 0, -1),
    5: (1, -1, 1, -1, 1),
    7: (-1, 2, -2, 3, -2, 2, -1),
    8: (1, -3, 3, -4, 4, -3, 2, -1),
    10: (-1, 4, -6, 8, -10, 9, -8, 5, -3, 1),
    11: (-1, 4, -7, 11, -14, 15, -14, 11, -7, 4, -1),
}

TABLE2 = {
    2: (1,),
    3: (1, -1, 1, -1, 1),
    4: (1, -1, 2, -2, 2, -2, 1),
    6: (1, -4, 8, -11, 15, -16, 15, -12, 8, -4, 1),
    7: (1, -5, 13, -23, 34, -42, 45, -42, 34, -23, 13, -5, 1),
}


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_trefoil():
    sd = diagram(3, 4).assign_signs("+-+")
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        bracket = bracket_bruteforce(sd)
        w = sd.writhe()
        v = jones_normalize(bracket, w)
        best = min(best, time.perf_counter() - t0)
    ok = (
        bracket == LaurentPoly({5: -1, -3: -1, -7: 1})
        and w == 3
        and v == QuarterPoly({4: 1, 12: 1, 16: -1})
        and best < 1e-3
    )
    report(1, ok, f"trefoil bracket/writhe/jones exact, {best * 1e6:.0f}us < 1ms")


def test_criterion_02_base_blocks():
    d32, d52, d42 = diagram(3, 2), diagram(5, 2), diagram(4, 2)
    checks = [
        F2PM.evaluate("+") == A(-3, -1) == bracket_bruteforce(d32.assign_signs("+")),
        F2PM.evaluate("-") == A(3, -1) == bracket_bruteforce(d32.assign_signs("-")),
        F2MP.evaluate("+") == A(3, -1),
    ]
    for s, want in (("+-", LaurentPoly.one()), ("-+", LaurentPoly.one()),
                    ("++", A(-6)), ("--", A(6))):
        checks.append(
            expand_block("h2").evaluate(s) == want == bracket_bruteforce(d52.assign_signs(s))
        )
    hopf = LaurentPoly({4: -1, -4: -1})
    for s, want in (("++", hopf), ("--", hopf), ("+-", DELTA), ("-+", DELTA)):
        checks.append(
            expand_block("g2").evaluate(s) == want == bracket_bruteforce(d42.assign_signs(s))
        )
    report(2, all(checks), "kink, double-kink and width-2 tangle blocks vs oracle")


def test_criterion_03_table1():
    t0 = time.perf_counter()
    results = {}
    for b in TABLE1:
        signs = "".join("+-"[i % 2] for i in range(b - 1))
        results[b] = coefficient_string(f_terms(b).evaluate(signs))
    elapsed = time.perf_counter() - t0
    ok = all(
        results[b] == want or results[b] == tuple(reversed(want))
        for b, want in TABLE1.items()
    ) and elapsed < 0.1
    report(3, ok, f"alternating height-3 coefficient strings, {elapsed * 1e3:.1f}ms < 100ms")


def test_criterion_04_table2():
    results = {}
    for b in TABLE2:
        signs = "".join("++--"[i % 4] for i in range(2 * (b - 1)))
        results[b] = coefficient_string(h_terms(b).evaluate(signs))
    ok = all(
        results[b] == want or results[b] == tuple(reversed(want))
        for b, want in TABLE2.items()
    )
    report(4, ok, "alternating height-5 coefficient strings exact")


def test_criterion_05_oracle_sweep_height3():
    t0 = time.perf_counter()
    mismatches = 0
    checked = 0
    for b in range(3, 11):
        d = diagram(3, b)
        ts = f_terms(b)
        for s in sign_sequences(d):
            checked += 1
            if ts.evaluate(s) != bracket_bruteforce(d.assign_signs(s)):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and checked == sum(2 ** (b - 1) for b in range(3, 11)) and elapsed < 60
    report(5, ok, f"f vs oracle, {checked} sequences, {mismatches} mismatches, {elapsed:.1f}s < 60s")


def test_criterion_06_oracle_sweep_height5():
    t0 = time.perf_counter()
    mismatches = 0
    checked = 0
    for b in range(3, 7):
        d = diagram(5, b)
        evaluator = CompiledTermSum(h_terms(b))
        for s in sign_sequences(d):
            checked += 1
            if evaluator.evaluate(s) != bracket_bruteforce(d.assign_signs(s)):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and checked == sum(4 ** (b - 1) for b in range(3, 7)) and elapsed < 120
    report(
        6,
        ok,
        f"h vs oracle (adjudicates Q index and P variant rule), "
        f"{checked} sequences, {mismatches} mismatches, {elapsed:.1f}s < 120s",
    )


def test_criterion_07_bumpered_sweeps():
    mismatches = 0
    checked = 0
    for n in range(3, 7):
        for bumpers, terms in ((2, b_terms(n)), (1, bt_terms(n))):
            d = diagram(5, n, bumpers=bumpers)
            evaluator = CompiledTermSum(terms)
            for s in sign_sequences(d):
                checked += 1
                if evaluator.evaluate(s) != bracket_bruteforce(d.assign_signs(s)):
                    mismatches += 1
    ok = mismatches == 0 and checked > 0
    report(7, ok, f"bumpered expansions vs oracle, {checked} sequences, {mismatches} mismatches")


def test_criterion_08_term_counts():
    ok_f = all(len(f_summands(b)) == padovan(b + 4) for b in range(4, 17))
    ok_h = all(len(h_skeletons(b)) == 2 ** (b - 4) for b in range(5, 17))
    report(8, ok_f and ok_h, "Padovan f counts (b=4..16) and 2^(b-4) skeleton counts (b=5..16)")


def test_criterion_09_writhe_recursions():
    mismatches = 0
    checked = 0
    for b in range(1, 13):
        if b % 3 == 0:
            continue
        d = diagram(3, b)
        for combo in itertools.product((1, -1), repeat=b - 1):
            checked += 1
            if writhe_recursive(3, b, combo) != d.assign_signs(combo).writhe():
                mismatches += 1
    rng = random.Random(2024)
    for b in range(1, 10):
        if b % 5 == 0:
            continue
        d = diagram(5, b)
        k = 2 * (b - 1)
        for _ in range(10_000):
            combo = tuple(rng.choice((1, -1)) for _ in range(k))
            checked += 1
            if writhe_recursive(5, b, combo) != d.assign_signs(combo).writhe():
                mismatches += 1
    report(9, mismatches == 0, f"writhe recursion vs direct, {checked} cases, {mismatches} mismatches")


def test_criterion_10_tiling_bijection():
    from billiardknots.tiling import (
        count_domino_tilings,
        enumerate_term_tilings,
        render_tilings,
        tiling_to_term,
    )
    from tests.test_tiling import TILES_RENDERED

    ok = True
    for b in range(4, 11):
        tilings = enumerate_term_tilings(b)
        if len(tilings) != padovan(b + 4):
            ok = False
        mapped = add_all(tiling_to_term(t) for t in tilings)
        if mapped.canonical() != f_terms(b).canonical():
            ok = False
        if b in TILES_RENDERED and render_tilings(b) != TILES_RENDERED[b]:
            ok = False
    # Each term tiling with m C-squares stands for 2^m domino tilings.
    for b in range(4, 13):
        terms = f_terms(b).canonical()
        if not len(set(terms)) == len(terms) == count_domino_tilings(b - 1):
            ok = False
    report(10, ok, "term tilings: counts, dictionary round trip, printed listings (b=4..10); "
                   "flat f terms distinct and counted by domino tilings (b=4..12)")


def test_criterion_11_performance():
    d = diagram(5, 10)
    signs = "".join("++--"[i % 4] for i in range(18))
    sd = d.assign_signs(signs)

    ts = h_terms(10)
    evaluator = CompiledTermSum(ts)
    fast = evaluator.evaluate(signs)
    t0 = time.perf_counter()
    slow = bracket_bruteforce(sd)
    oracle_s = time.perf_counter() - t0
    recursion_s = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        fast = evaluator.evaluate(signs)
        recursion_s = min(recursion_s, time.perf_counter() - t0)

    skeletons = len(h_skeletons(10))
    speedup = oracle_s / recursion_s
    ok = fast == slow and skeletons == 64 and d.crossing_count == 18 and speedup >= 100
    report(
        11,
        ok,
        f"18-crossing table: {skeletons} skeletons vs 2^18 = 262144 oracle states; "
        f"oracle {oracle_s:.2f}s / recursion {recursion_s * 1e3:.1f}ms = {speedup:.0f}x >= 100x",
    )
