import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import billiardknots
from billiardknots import cli, recursions
from billiardknots.billiard import diagram
from billiardknots.laurent import DELTA, LaurentPoly, coefficient_string
from billiardknots.oracle import bracket_all_signs, bracket_bruteforce, sign_sequences
from billiardknots.recursions import (
    _family_terms,
    b_terms,
    bt_terms,
    bumpered_summands,
    compositions,
    expand_block,
    f_summands,
    f_terms,
    h_skeletons,
    h_summands,
    h_terms,
    padovan,
    render_b,
    render_bt,
    render_f,
    render_h,
    writhe_recursive,
)
from billiardknots.terms import CompiledTermSum

# Closed-form tables, transcribed once; the renderers must reproduce them
# token for token.

F_RENDERED = {
    3: "(f2^±,A^±)+(f2^∓,A^∓)",
    4: "(f3,A^±)+(f2^±,f2^∓,A^∓)",
    5: "(f3,C)+(f2^±,f2^∓,A^∓,A^±)",
    6: "(f3,[C,A^±]+[A^±,f2^∓,A^∓])+(f2^±,f2^∓,A^∓,C)",
    7: "(f3,C,C)+(f3,A^±,f2^∓,A^∓,A^±)+(f2^±,f2^∓,A^∓,[C,A^±]+[A^±,f2^∓,A^∓])",
    8: "(f3,C,[C,A^±]+[A^±,f2^∓,A^∓])+(f3,A^±,f2^∓,A^∓,C)"
       "+(f2^±,f2^∓,A^∓,C,C)+(f2^±,f2^∓,A^∓,A^±,f2^∓,A^∓,A^±)",
    9: "(f3,C,C,C)+(f3,C,A^±,f2^∓,A^∓,A^±)+(f3,A^±,f2^∓,A^∓,[C,A^±]+[A^±,f2^∓,A^∓])"
       "+(f2^±,f2^∓,A^∓,C,[C,A^±]+[A^±,f2^∓,A^∓])+(f2^±,f2^∓,A^∓,A^±,f2^∓,A^∓,C)",
    10: "(f3,C,C,[C,A^±]+[A^±,f2^∓,A^∓])+(f3,C,A^±,f2^∓,A^∓,C)+(f3,A^±,f2^∓,A^∓,C,C)"
        "+(f3,A^±,f2^∓,A^∓,A^±,f2^∓,A^∓,A^±)+(f2^±,f2^∓,A^∓,C,C,C)"
        "+(f2^±,f2^∓,A^∓,C,A^±,f2^∓,A^∓,A^±)"
        "+(f2^±,f2^∓,A^∓,A^±,f2^∓,A^∓,[C,A^±]+[A^±,f2^∓,A^∓])",
}

H_RENDERED = {
    4: "(h3,P1)+(h2,P2)+(M,L)+(S,A^∓,A^±)",
    5: "([h3,P1]+[h2,P2]+[M,L]+[S,A^∓,A^±],P1)"
       "+(h3,P̃2)+(h2,P3)+(M,K,A^±)+(g2,N,A^±,A^∓)",
    6: "([h3,P1]+[h2,P2]+[M,L]+[S,A^∓,A^±],[P2]+[P1,P1])"
       "+([h3,P̃2]+[h2,P3]+[M,K,A^±]+[g2,N,A^±,A^∓],P1)"
       "+(h3,P̃3)+(h2,P4)+(M,K,L)+(S,Ñ,A^∓,A^±)",
}

B_RENDERED = {
    3: "(h2,A^±)+(M)",
    4: "(h3,_,A^±)+(h2,A^±,f2^∓,_,A^∓)+(M,f2^∓,_,A^∓)",
    5: "(h4,A^±)+(h3,L)+(h2,A^±,K)+(M,K)",
    6: "(h5,_,A^±)+(h4,A^±,f2^∓,_,A^∓)+(h3,L,f2^∓,_,A^∓)"
       "+(h2,A^±,K,f2^∓,_,A^∓)+(M,K,f2^∓,_,A^∓)",
    7: "(h6,A^±)+(h5,L)+(h4,A^±,K)+(h3,L,K)+(h2,A^±,K,K)+(M,K,K)",
    8: "(h7,_,A^±)+(h6,A^±,f2^∓,_,A^∓)+(h5,L,f2^∓,_,A^∓)+(h4,A^±,K,f2^∓,_,A^∓)"
       "+(h3,L,K,f2^∓,_,A^∓)+(h2,A^±,K,K,f2^∓,_,A^∓)+(M,K,K,f2^∓,_,A^∓)",
    9: "(h8,A^±)+(h7,L)+(h6,A^±,K)+(h5,L,K)+(h4,A^±,K,K)+(h3,L,K,K)"
       "+(h2,A^±,K,K,K)+(M,K,K,K)",
    10: "(h9,_,A^±)+(h8,A^±,f2^∓,_,A^∓)+(h7,L,f2^∓,_,A^∓)+(h6,A^±,K,f2^∓,_,A^∓)"
        "+(h5,L,K,f2^∓,_,A^∓)+(h4,A^±,K,K,f2^∓,_,A^∓)+(h3,L,K,K,f2^∓,_,A^∓)"
        "+(h2,A^±,K,K,K,f2^∓,_,A^∓)+(M,K,K,K,f2^∓,_,A^∓)",
}

BT_RENDERED = {
    3: "(h2,X)+(S)",
    4: "(h3,X)+(h2,R)+(g2,N)",
    5: "(h4,X)+(h3,R̃)+(h2,X,Ñ)+(S,Ñ)",
    6: "(h5,X)+(h4,R)+(h3,X,N)+(h2,R,N)+(g2,N,N)",
    7: "(h6,X)+(h5,R̃)+(h4,X,Ñ)+(h3,R̃,Ñ)+(h2,X,Ñ,Ñ)+(S,Ñ,Ñ)",
    8: "(h7,X)+(h6,R)+(h5,X,N)+(h4,R,N)+(h3,X,N,N)+(h2,R,N,N)+(g2,N,N,N)",
    9: "(h8,X)+(h7,R̃)+(h6,X,Ñ)+(h5,R̃,Ñ)+(h4,X,Ñ,Ñ)+(h3,R̃,Ñ,Ñ)"
       "+(h2,X,Ñ,Ñ,Ñ)+(S,Ñ,Ñ,Ñ)",
    10: "(h9,X)+(h8,R)+(h7,X,N)+(h6,R,N)+(h5,X,N,N)+(h4,R,N,N)+(h3,X,N,N,N)"
        "+(h2,R,N,N,N)+(g2,N,N,N,N)",
}


# -- f family ----------------------------------------------------------


def test_f_base_summands():
    assert f_summands(4) == (("S2", "V"), ("S1", "H"))


def test_f_rendered_forms():
    for b, want in F_RENDERED.items():
        assert render_f(b) == want, b


def test_f_counts_match_padovan():
    for b in range(4, 17):
        assert len(f_summands(b)) == padovan(b + 4), b


def test_padovan_recurrence_on_counts():
    for b in range(4, 14):
        assert len(f_summands(b + 3)) == len(f_summands(b)) + len(f_summands(b + 1))


def test_padovan_values():
    seq = [padovan(n) for n in range(9)]
    assert seq == [1, 0, 0, 1, 0, 1, 1, 1, 2]


def test_f_known_counts():
    assert len(f_summands(4)) == 2
    assert len(f_summands(6)) == 3
    assert len(f_summands(12)) == 16


def test_f_width_invariant():
    for b in range(2, 13):
        assert f_terms(b).width == b - 1


def test_f_evaluations():
    assert f_terms(3).evaluate("++") == DELTA
    assert f_terms(4).evaluate("+-+") == LaurentPoly({5: -1, -3: -1, -7: 1})


def test_f_oracle_equivalence_small():
    for b in range(1, 7):
        d = diagram(3, b)
        ts = f_terms(b)
        for s in sign_sequences(d):
            assert ts.evaluate(s) == bracket_bruteforce(d.assign_signs(s)), (b, s)


# -- h family ----------------------------------------------------------


def test_compositions():
    assert compositions(0) == ((),)
    assert compositions(3) == ((3,), (2, 1), (1, 2), (1, 1, 1))
    for n in range(1, 11):
        assert len(compositions(n)) == 2 ** (n - 1)


def test_h_skeleton_counts():
    assert len(h_skeletons(4)) == 1
    assert len(h_skeletons(5)) == 2
    for b in range(4, 17):
        assert len(h_skeletons(b)) == 2 ** (b - 4)


def test_h_width_invariant():
    for b in range(1, 9):
        assert h_terms(b).width == 2 * (b - 1)
    for sk in h_skeletons(8):
        assert 2 * sk.i + 2 * sum(sk.tail) == 2 * 7


def test_blocks_are_spelled_once(monkeypatch):
    # h10 and then bt10 (which shares h10's P/Q blocks and h<m> prefixes) read
    # every block through the one memo, so each is spelled at most once.
    calls = Counter()

    def counted(spell):
        def wrapped(*args, **kwargs):
            calls[spell.__name__, args, tuple(kwargs.items())] += 1
            return spell(*args, **kwargs)
        return wrapped

    expand_block.cache_clear()
    monkeypatch.setattr(recursions, "p_spelling", counted(recursions.p_spelling))
    monkeypatch.setattr(recursions, "q_spelling", counted(recursions.q_spelling))
    h_terms(10)
    bt_terms(10)
    assert calls and max(calls.values()) == 1
    assert {name for name, *_ in calls} == {"p_spelling", "q_spelling"}


#: P'_i, P~'_i and Q_i as the closed forms print them, keyed by (block, i)
#: at i = 2 and by (block, i % 2) for i >= 3, with odd i = 2j+3 and even
#: i = 2j+2.
PRINTED_PQ = {
    ("P", 2): "(K)+(A^±,L)+(X,A^∓,A^±)",
    ("P̃", 2): "(X,A^±,A^∓)+(L,A^±)+(K)",
    ("P", 1): "(R,N^j,A^±,A^∓)+(A^±,K^(j+1),A^±)",
    ("P", 0): "(X,Ñ^j,A^∓,A^±)+(A^±,K^j,L)",
    ("P̃", 1): "(L,K^j,L)+(R̃,Ñ^j,A^∓,A^±)",
    ("P̃", 0): "(L,K^j,A^±)+(X,N^j,A^±,A^∓)",
    ("Q", 1): "(M,K^j,L)+(S,Ñ^j,A^∓,A^±)",
    ("Q", 0): "(M,K^j,A^±)+(g2,N^j,A^±,A^∓)",
}


def _printed_pq(block, i):
    """The summands of PRINTED_PQ's formula for block i, repeats written out."""
    text = PRINTED_PQ[block, i] if i == 2 else PRINTED_PQ[block, i % 2]
    j = (i - 3) // 2 if i % 2 else (i - 2) // 2
    out = []
    for summand in text[1:-1].split(")+("):
        symbols = ()
        for token in summand.split(","):
            sym, _, power = token.partition("^")
            repeats = {"j": j, "(j+1)": j + 1}.get(power)
            symbols += (token,) if repeats is None else (sym,) * repeats
        out.append(symbols)
    return out


def test_pq_spellings_pinned():
    # The exhaustive sweeps reach i = 7 and the past-limit checks i = 8; the
    # widths are pinned further out, the printed formulas where they reach.
    for i in range(2, 61):
        spellings = {"P": recursions.p_spelling(i, False), "P̃": recursions.p_spelling(i, True)}
        if i >= 3:
            spellings["Q"] = recursions.q_spelling(i)
        for block, spelling in spellings.items():
            for summand in spelling:
                assert sum(expand_block(sym).width for sym in summand) == 2 * i, (block, i)
            if i <= 7:
                assert Counter(spelling) == Counter(_printed_pq(block, i)), (block, i)


def test_import_builds_no_block():
    script = "import billiardknots; print(billiardknots.expand_block.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(Path(billiardknots.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "0"


def test_h_rendered_forms():
    for b, want in H_RENDERED.items():
        assert render_h(b) == want, b


def test_h_table2_row():
    assert coefficient_string(h_terms(3).evaluate("++--")) == (1, -1, 1, -1, 1)


def test_terms_skeleton_list(capsys):
    assert cli.main(["--json", "terms", "--family", "h", "--n", "6"]) == 0
    entries = json.loads(capsys.readouterr().out)["skeleton_list"]
    assert len(entries) == 4
    assert entries[0]["i"] == 3 and entries[0]["composition"] == [2]
    assert entries[0]["head"] == ["P1", "P2", "Q3"]
    assert entries[0]["tail"] == ["P2"]
    assert entries[-1]["i"] == 5 and entries[-1]["composition"] == []


def test_h_oracle_equivalence_small():
    for b in range(1, 5):
        d = diagram(5, b)
        ts = h_terms(b)
        for s in sign_sequences(d):
            assert ts.evaluate(s) == bracket_bruteforce(d.assign_signs(s)), (b, s)


def _sweep_ok(d, ts) -> bool:
    evaluator = CompiledTermSum(ts)
    oracle = bracket_all_signs(d)
    return all(evaluator.evaluate(s) == want for s, want in oracle.items())


def _respelled(summands, symbol, spelling):
    """The term sum of ``summands`` with ``symbol`` spelled as ``spelling``:
    each summand naming it splits into one summand per spelling summand."""
    out = []
    for summand in summands:
        expanded = [()]
        for sym in summand:
            choices = spelling if sym == symbol else ((sym,),)
            expanded = [head + choice for head in expanded for choice in choices]
        out += expanded
    return _family_terms(out)


def _q4_with_k():
    """h(5) with the even Q4 closing on K where the resolved form has N."""
    return _respelled(h_summands(5), "Q4", (("M", "K", "A^±"), ("g2", "K", "A^±", "A^∓")))


def _p4_with_n():
    """h(6) with the even prime P4 carrying N where the resolved form has Ñ."""
    return _respelled(h_summands(6), "P4", (("X", "N", "A^∓", "A^±"), ("A^±", "K", "L")))


def _part_size_tail_rule():
    """h(6) with tail parts named by the part-size rule: a part c preceded
    by s slot pairs takes P' iff c + s is odd (the resolved rule uses i + s)."""
    out = []
    for sk in h_skeletons(6):
        tail, s = (), 0
        for c in sk.tail:
            tail += (f"P{c}" if (c + s) % 2 == 1 else f"P̃{c}",)
            s += c
        p_tilde, p_prime, q = sk.head_names()
        out += [("h3", p_tilde) + tail, ("h2", p_prime) + tail, (q,) + tail]
    return _family_terms(out)


def test_q_even_block_resolution():
    """The even-index Q block must carry N, and its index is j = (i-2)/2.

    The printed width-8 expansion shows a K there; evaluating both candidates
    against the exhaustive state sum rejects K at every one of the 256
    width-5 sign assignments it distinguishes.
    """
    d5 = diagram(5, 5)
    assert _sweep_ok(d5, h_terms(5))
    evaluator = CompiledTermSum(_q4_with_k())
    oracle = bracket_all_signs(d5)
    mismatches = sum(1 for s, want in oracle.items() if evaluator.evaluate(s) != want)
    assert mismatches == len(oracle)


def test_tail_parity_rule_resolution():
    """Tail parts take P' iff (head index + preceding slot pairs) is odd.

    The part-size variant of the rule (P' iff part size + preceding pairs is
    odd) fails the exhaustive width-6 sweep; the resolved rule passes it.
    """
    d6 = diagram(5, 6)
    assert _sweep_ok(d6, h_terms(6))
    assert not _sweep_ok(d6, _part_size_tail_rule())


def test_prime_even_block_flavor_resolution():
    """Even-index prime P blocks carry Ñ, not the N the tilde blocks use.

    Swapping N back in (the other reading of the closed form) breaks the
    width-6 sweep, where P4 first appears with a nonzero repeat count.
    """
    d6 = diagram(5, 6)
    assert not _sweep_ok(d6, _p4_with_n())
    assert _sweep_ok(d6, h_terms(6))


# -- past the sweep limit ----------------------------------------------

#: Tables one size past what the sweep reaches (15-16 crossings), with the
#: closed form that spells each; P'_i with j >= 2 first appears here.
PAST_SWEEP = {
    "h9": (diagram(5, 9), lambda: h_terms(9)),
    "b9": (diagram(5, 9, bumpers=2), lambda: b_terms(9)),
    "bt9": (diagram(5, 9, bumpers=1), lambda: bt_terms(9)),
    "f16": (diagram(3, 16), lambda: f_terms(16)),
}


def _past_sweep_signs(d, count=8, seed=9):
    """All-+, alternating, ++-- and seeded random vectors (no slot skipped)."""
    n = d.slot_count
    rng = random.Random(seed)
    fixed = ["+" * n, ("+-" * n)[:n], ("++--" * n)[:n]]
    return fixed + ["".join(rng.choice("+-") for _ in range(n)) for _ in range(count - 3)]


@pytest.fixture(scope="module")
def past_sweep_oracle():
    """bracket_bruteforce on every PAST_SWEEP table's vectors, run once."""
    return {
        name: [(s, bracket_bruteforce(d.assign_signs(s))) for s in _past_sweep_signs(d)]
        for name, (d, _) in PAST_SWEEP.items()
    }


def _past_sweep_mismatches(oracle, names):
    out = []
    for name in names:
        evaluator = CompiledTermSum(PAST_SWEEP[name][1]())
        out += [(name, s) for s, want in oracle[name] if evaluator.evaluate(s) != want]
    return out


def test_closed_forms_match_bruteforce_past_sweep_limit(past_sweep_oracle):
    assert all(len(set(v)) == 8 for v in past_sweep_oracle.values())
    assert _past_sweep_mismatches(past_sweep_oracle, PAST_SWEEP) == []


def _replace_last(summand, old, new):
    i = len(summand) - 1 - summand[::-1].index(old)
    return summand[:i] + (new,) + summand[i + 1:]


def _odd_prime_r_closing_on_n_tilde(spell):
    """P'_i, odd i = 2j+3 >= 7: the R summand's last N read as Ñ."""
    def respelled(i, tilde):
        out = spell(i, tilde)
        if tilde or i % 2 == 0 or i < 7:
            return out
        return (_replace_last(out[0], "N", "Ñ"),) + out[1:]
    return respelled


def _third_k_read_as_n(spell):
    """P'/P̃': in a summand with three or more K, the last K read as N."""
    def respelled(i, tilde):
        return tuple(_replace_last(s, "K", "N") if s.count("K") >= 3 else s
                     for s in spell(i, tilde))
    return respelled


@pytest.mark.parametrize("mutant", [_odd_prime_r_closing_on_n_tilde, _third_k_read_as_n])
def test_deep_p_templates_resolved_past_sweep_limit(mutant, monkeypatch, past_sweep_oracle):
    """P'_i for j >= 2 only enters tables past the sweep limit.

    Either respelling there passes every sweep-sized check; the bruteforce
    comparison at 15-16 crossings rejects both.
    """
    monkeypatch.setattr(recursions, "p_spelling", mutant(recursions.p_spelling))
    expand_block.cache_clear()
    try:
        assert _past_sweep_mismatches(past_sweep_oracle, ("h9", "b9", "bt9"))
    finally:
        monkeypatch.undo()
        expand_block.cache_clear()


# -- bumpered families -------------------------------------------------


def test_b_bt_base_cases():
    assert render_b(1) == "1"
    assert render_b(2) == "(_,f2^±)"
    assert render_bt(1) == "1"
    assert render_bt(2) == "(g2)"
    assert b_terms(2).evaluate("_+") == LaurentPoly.monomial(-3, -1)


def test_b_bt_rendered_forms():
    for n, want in B_RENDERED.items():
        assert render_b(n) == want, n
    for n, want in BT_RENDERED.items():
        assert render_bt(n) == want, n


def test_b_bt_widths_match_diagrams():
    for n in range(1, 9):
        db = diagram(5, n, bumpers=2)
        ts = b_terms(n)
        assert ts.width == db.slot_count, n
        assert ts.skip_positions == db.skip_positions, n
        dt = diagram(5, n, bumpers=1)
        tt = bt_terms(n)
        assert tt.width == dt.slot_count, n
        assert tt.skip_positions == dt.skip_positions, n


def test_b4_slot_layout():
    ts = b_terms(4)
    assert ts.width == 6
    assert ts.skip_positions == {4}
    assert len(bumpered_summands(4, 2)) == 3


def test_b_bt_oracle_equivalence_small():
    for n in range(1, 5):
        d = diagram(5, n, bumpers=2)
        ts = b_terms(n)
        for s in sign_sequences(d):
            assert ts.evaluate(s) == bracket_bruteforce(d.assign_signs(s)), ("b", n, s)
        d = diagram(5, n, bumpers=1)
        ts = bt_terms(n)
        for s in sign_sequences(d):
            assert ts.evaluate(s) == bracket_bruteforce(d.assign_signs(s)), ("bt", n, s)


# -- writhe recursions -------------------------------------------------


def test_writhe_recursive_trefoil():
    assert writhe_recursive(3, 4, "+-+") == 3


def test_writhe_recursive_matches_direct_height3():
    for b in range(1, 11):
        if b % 3 == 0:
            continue
        d = diagram(3, b)
        for combo in itertools.product((1, -1), repeat=b - 1):
            assert writhe_recursive(3, b, combo) == d.assign_signs(combo).writhe(), (b, combo)
    # A width far past the interpreter's recursion limit.
    rng = random.Random(3001)
    combo = tuple(rng.choice((1, -1)) for _ in range(3000))
    assert writhe_recursive(3, 3001, combo) == diagram(3, 3001).assign_signs(combo).writhe()


def test_writhe_recursive_matches_direct_height5():
    rng = random.Random(17)
    for b in range(1, 10):
        if b % 5 == 0:
            continue
        d = diagram(5, b)
        k = 2 * (b - 1)
        for _ in range(120):
            combo = tuple(rng.choice((1, -1)) for _ in range(k))
            assert writhe_recursive(5, b, combo) == d.assign_signs(combo).writhe(), (b, combo)
    combo = tuple(rng.choice((1, -1)) for _ in range(2 * 5001))
    assert writhe_recursive(5, 5002, combo) == diagram(5, 5002).assign_signs(combo).writhe()


def test_writhe_tables_are_traced_weights():
    # Every entry of the base and period tables is the weight of the crossing
    # of the traced T(a, b) whose sign it multiplies.
    tables = {3: (recursions._BASE3, recursions._PAT3, lambda m: m % 3),
              5: (recursions._BASE5, recursions._PAT5, lambda m: (m % 5, m % 2))}
    for a, (base_table, pat_table, key) in tables.items():
        half = (a - 1) // 2
        bases, keys = set(), set()
        for b in range(1, 41):
            if b % a == 0:
                continue
            base = (b - 1) % a + 1
            weights = tuple(c.weight for c in diagram(a, b).crossings)
            assert weights[: half * (base - 1)] == base_table[base], (a, b)
            bases.add(base)
            for m in range(base, b, a):
                new = weights[half * (m - 1) : half * (m - 1 + a)]
                assert new == pat_table[key(m)], (a, b, m)
                keys.add(key(m))
        assert (bases, keys) == (set(base_table), set(pat_table)), a


def test_writhe_recursive_rejects_link_widths():
    with pytest.raises(ValueError):
        writhe_recursive(3, 6, "+" * 5)
    with pytest.raises(ValueError):
        writhe_recursive(5, 10, "+" * 18)
    with pytest.raises(ValueError):
        writhe_recursive(4, 3, "+++")
    with pytest.raises(ValueError):
        writhe_recursive(3, 4, "+-")


def test_writhe_recursive_rejects_bad_signs():
    # Every sign is checked, not only those of the base width.
    for a, b, signs in [(3, 4, (1, 0, 1)), (3, 5, (1, 2, 1, -1)),
                        (5, 7, (1,) * 11 + (0,)), (5, 7, (1,) * 11 + (None,))]:
        with pytest.raises(ValueError):
            writhe_recursive(a, b, signs)
