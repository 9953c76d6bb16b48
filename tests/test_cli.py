import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import billiardknots
from billiardknots import cli, oracle, recursions
from billiardknots.billiard import diagram
from billiardknots.cli import EXPANSION_LIMIT, PD_LIMIT, main
from billiardknots.laurent import LaurentPoly, jones_normalize
from billiardknots.oracle import ORACLE_LIMIT, SWEEP_LIMIT, bracket_bruteforce
from billiardknots.recursions import b_terms, bt_terms, f_terms, h_terms

from .test_recursions import B_RENDERED, BT_RENDERED, F_RENDERED, H_RENDERED


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_bracket_oracle(capsys):
    code, out, _ = run(capsys, "bracket", "--a", "3", "--b", "4", "--signs", "+-+",
                       "--method", "oracle")
    assert code == 0
    assert out == "-A^5 - A^-3 + A^-7"


def test_bracket_methods_agree(capsys):
    for method in ("oracle", "recursion"):
        code, out, _ = run(capsys, "bracket", "--a", "5", "--b", "4",
                           "--signs", "++--+-", "--method", method)
        assert code == 0
        if method == "oracle":
            want = out
    assert out == want


def test_bracket_g2_route_matches_oracle(capsys):
    # T(4,2) has no family expansion; its closed form is the g2 block.
    for signs in ("++", "+-", "-+", "--"):
        brackets = []
        for method in ("recursion", "oracle"):
            code, out, _ = run(capsys, "--json", "bracket", "--a", "4", "--b", "2",
                               f"--signs={signs}", "--method", method)
            assert code == 0
            brackets.append(json.loads(out)["bracket"])
        assert brackets[0] == brackets[1], signs


def test_all_minus_signs_of_two_slot_tables(capsys):
    # argparse takes the value of "--signs=--" for its end-of-options marker;
    # it is still the all-minus string, on both routes of bracket and jones.
    for a, b in ((3, 3), (4, 2), (5, 2)):
        sd = diagram(a, b).assign_signs("--")
        want = bracket_bruteforce(sd)
        for method in ("recursion", "oracle"):
            code, out, _ = run(capsys, "--json", "bracket", "--a", str(a), "--b", str(b),
                               "--signs=--", "--method", method)
            assert code == 0
            assert json.loads(out)["bracket"] == want.json_pairs(), (a, b, method)
        code, out, _ = run(capsys, "--json", "jones", "--a", str(a), "--b", str(b),
                           "--signs=--")
        assert code == 0
        data = json.loads(out)
        assert data["signs"] == "--"
        assert data["jones"] == jones_normalize(want, sd.writhe()).json_pairs()
    code, out, err = run(capsys, "bracket", "--a", "3", "--b", "3", "--signs=")
    assert code == 2 and out == ""
    assert "0 signs for T(3,3)" in err


def test_bad_sign_string_exit_2_before_tracing(capsys):
    # Every table has at least b - 1 crossings, so a one-sign string is
    # refused before the table is traced or its closed form built.
    for argv in (("bracket", "--a", "5", "--b", "30", "--signs", "+"),
                 ("bracket", "--a", "3", "--b", "200000", "--signs", "+"),
                 ("bracket", "--a", "3", "--b", "3000000", "--signs", "+",
                  "--method", "oracle"),
                 ("jones", "--a", "4", "--b", "3000000", "--signs", "+")):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert f"at least {int(argv[4]) - 1} crossings" in err


def test_oracle_route_over_limit_exit_2(capsys):
    # A sign string of the right length still cannot send a table past the
    # oracle limit to the state sum.
    for argv in (("bracket", "--a", "5", "--b", "14", "--signs", "+" * 26,
                  "--method", "oracle"),
                 ("jones", "--a", "4", "--b", "30", "--signs", "+" * 44)):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert f"oracle limit {ORACLE_LIMIT}" in err


def test_bracket_bumpered_recursion(capsys):
    code, out, _ = run(capsys, "bracket", "--b", "4", "--bumpers", "1",
                       "--signs", "++--+-")
    code2, out2, _ = run(capsys, "bracket", "--b", "4", "--bumpers", "1",
                         "--signs", "++--+-", "--method", "oracle")
    assert code == code2 == 0
    assert out == out2


def test_jones(capsys):
    code, out, _ = run(capsys, "jones", "--a", "3", "--b", "4", "--signs", "+-+")
    assert code == 0
    assert out == "t + t^3 - t^4"


def test_jones_closed_form(capsys):
    # 20 crossings: the closed form answers fast where 2^20 states would not.
    start = time.perf_counter()
    code, _, _ = run(capsys, "jones", "--a", "5", "--b", "11",
                     "--signs", "++--++--++--++--++--")
    assert time.perf_counter() - start < 5
    assert code == 0
    # a=4, b=3 has no closed form and falls back to the state sum.
    for a, b, bumpers, signs in [(5, 4, 0, "++--+-"), (5, 4, 1, "+-+--+"),
                                 (5, 4, 2, "+-++_-"), (4, 3, 0, "+-+")]:
        code, out, _ = run(capsys, "--json", "jones", "--a", str(a), "--b", str(b),
                           "--bumpers", str(bumpers), "--signs", signs)
        assert code == 0
        data = json.loads(out)
        sd = diagram(a, b, bumpers=bumpers).assign_signs(signs)
        writhe = sd.writhe()
        assert data["writhe"] == writhe
        assert data["jones"] == jones_normalize(bracket_bruteforce(sd), writhe).json_pairs()


def test_json_output(capsys):
    code, out, _ = run(capsys, "--json", "bracket", "--a", "3", "--b", "4",
                       "--signs", "+-+")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["bracket"] == [[5, -1], [-3, -1], [-7, 1]]


def test_terms(capsys):
    code, out, _ = run(capsys, "terms", "--family", "bt", "--n", "4")
    assert code == 0
    assert out.splitlines()[0] == "(h3,X)+(h2,R)+(g2,N)"
    families = {"f": (F_RENDERED, f_terms), "h": (H_RENDERED, h_terms),
                "b": (B_RENDERED, b_terms), "bt": (BT_RENDERED, bt_terms)}
    for family, (rendered, terms) in families.items():
        for n, want in rendered.items():
            code, out, _ = run(capsys, "--json", "terms", "--family", family, "--n", str(n))
            assert code == 0
            data = json.loads(out)
            assert data["rendered"] == want, (family, n)
            assert data["flat_terms"] == len(terms(n)), (family, n)
            if (family, n) == ("h", 6):
                assert data["skeletons"] == 4
                assert data["skeleton_list"] == [
                    {"i": 3, "composition": [2], "head": ["P1", "P2", "Q3"], "tail": ["P2"]},
                    {"i": 3, "composition": [1, 1], "head": ["P1", "P2", "Q3"],
                     "tail": ["P1", "P1"]},
                    {"i": 4, "composition": [1], "head": ["P̃2", "P3", "Q4"], "tail": ["P1"]},
                    {"i": 5, "composition": [], "head": ["P̃3", "P4", "Q5"], "tail": []},
                ]


def test_pd(capsys):
    code, out, _ = run(capsys, "pd", "--a", "3", "--b", "4", "--signs", "+-+")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("PD[X[")
    assert lines[1].startswith("O1")


def test_pd_over_limit_exit_2(capsys, monkeypatch):
    # T(5,40000) is refused by its spec bound 2·39999 before tracing.
    start = time.perf_counter()
    code, out, err = run(capsys, "pd", "--a", "5", "--b", "40000")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert f"at least 79998 crossings, over the pd limit {PD_LIMIT}" in err
    # At a limit of 10, T(5,6) has exactly 10 crossings and is admitted;
    # T(5,7) and T(3,12) are refused by their spec bounds, 12 and 11.
    monkeypatch.setattr(cli, "PD_LIMIT", 10)
    assert run(capsys, "pd", "--a", "5", "--b", "6")[0] == 0
    for a, b, crossings in (("5", "7", "12"), ("3", "12", "at least 11")):
        code, out, err = run(capsys, "pd", "--a", a, "--b", b)
        assert code == 2 and out == ""
        assert f"{crossings} crossings, over the pd limit 10" in err


def test_min_crossings_bounds_traced_count():
    # The spec bound is exact at heights 3 and 5 and a bound at height 4,
    # over every bumper layout; T(4,b) with no planar closure is skipped.
    from billiardknots.billiard import BilliardDiagram, TableSpec

    checked = 0
    for a in (3, 4, 5):
        for b in range(1, 41):
            for bumpers in (0, 1, 2) if a == 5 else (0,):
                spec = TableSpec(a, b, bumpers)
                try:
                    k = BilliardDiagram(spec).crossing_count
                except ValueError:
                    assert a == 4
                    continue
                low = cli._min_crossings(spec)
                assert low == k if a != 4 else low <= k, spec.label()
                checked += 1
    assert checked == 40 + 35 + 3 * 40


def test_over_limit_refused_without_a_diagram(capsys, monkeypatch):
    # T(5,20001) passes the width check b - 1 <= PD_LIMIT but has 40,000
    # crossings; it and the oracle route's T(5,14) (26 crossings) are
    # refused from the spec, so no diagram is built.
    from billiardknots import billiard

    def no_trace(spec):
        raise AssertionError(f"{spec.label()} was traced")

    monkeypatch.setattr(billiard, "BilliardDiagram", no_trace)
    for argv, message in (
        (("pd", "--a", "5", "--b", "20001"), f"at least 40000 crossings, over the pd limit {PD_LIMIT}"),
        (("bracket", "--a", "5", "--b", "14", "--signs", "+" * 26, "--method", "oracle"),
         f"at least 26 crossings, over the oracle limit {ORACLE_LIMIT}"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == "" and message in err


def test_verify_ok(capsys):
    code, out, _ = run(capsys, "verify", "--family", "f", "--max-n", "6")
    assert code == 0
    assert "all match" in out


def test_verify_mismatch_exit_1(capsys, monkeypatch):
    # An oracle entry off by one is reported as the one mismatch, never as a pass.
    bracket_all_signs = oracle.bracket_all_signs

    def off_by_one(d):
        table = bracket_all_signs(d)
        if d.spec.b == 4:
            first = next(iter(table))
            table[first] = table[first] + 1
        return table

    monkeypatch.setattr(oracle, "bracket_all_signs", off_by_one)
    code, out, _ = run(capsys, "verify", "--family", "f", "--max-n", "5")
    assert code == 1
    assert out == "family f: 1 mismatches, first [(4, '+++')]"
    code, out, _ = run(capsys, "--json", "verify", "--family", "f", "--max-n", "5")
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False and data["mismatches"] == [[4, "+++"]]


def test_verify_slot_layout_mismatch_exit_1(capsys, monkeypatch):
    # A family one slot too wide for its table is a layout mismatch at every n.
    monkeypatch.setattr(recursions, "f_terms", lambda n: f_terms(n + 1))
    code, out, _ = run(capsys, "--json", "verify", "--family", "f", "--max-n", "3")
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False and data["checked"] == 0
    assert data["mismatches"] == [[n, "<slot layout>"] for n in (1, 2, 3)]


def test_verify_over_sweep_limit_exit_2(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "verify", "--family", "h", "--max-n", "9")
    assert time.perf_counter() - start < 5
    assert code == 2
    assert "16 crossings" in err and f"sweep limit {SWEEP_LIMIT}" in err


def test_bench_over_oracle_limit_exit_2(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "bench", "--b", "14")
    assert time.perf_counter() - start < 5
    assert code == 2
    assert "26 crossings" in err and f"oracle limit {ORACLE_LIMIT}" in err


def test_oversized_width_exit_2_before_tracing(capsys):
    # A table has at least b - 1 crossings, so these widths are refused
    # without building a 3,000,000-column diagram.
    for argv, limit in [(("verify", "--family", "f", "--max-n", "3000000"), "sweep"),
                        (("bench", "--a", "3", "--b", "3000000"), "oracle")]:
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert "at least 2999999 crossings" in err and f"{limit} limit" in err


def test_oversized_expansion_exit_2(capsys):
    # Both would hang or exhaust memory if built; the closed-form counts stop
    # them first.
    for argv in (("tilings", "--b", "60"), ("terms", "--family", "h", "--n", "22"),
                 ("terms", "--family", "bt", "--n", "14"),
                 ("terms", "--family", "f", "--n", str(10**9))):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert f"EXPANSION_LIMIT = {EXPANSION_LIMIT}" in err


def test_closed_form_routes_do_not_load_numpy():
    # No route loads numpy: with it blocked, any import of it would raise.
    # The import also loads none of dataclasses, inspect and json; a module
    # the interpreter's site had already loaded does not count.
    script = """
import sys
sys.modules["numpy"] = None
LEAN = ("dataclasses", "inspect", "json")
preloaded = set(sys.modules)
def numpy_loaded(step):
    print("@", step, sys.modules["numpy"] is not None)
import billiardknots
numpy_loaded("import")
print("% import loaded", [m for m in LEAN if m in sys.modules and m not in preloaded])
from billiardknots import cli
cli.main(["bracket", "--b", "6", "--signs", "++--++--++"])
numpy_loaded("bracket")
cli.main(["jones", "--b", "4", "--bumpers", "2", "--signs", "+-++_-"])
numpy_loaded("jones")
billiardknots.CompiledTermSum(billiardknots.h_terms(6)).evaluate("++--" * 2 + "+-")
numpy_loaded("CompiledTermSum")
cli.main(["bench", "--a", "3", "--b", "8"])
numpy_loaded("bench")
sd = billiardknots.diagram(3, 5).assign_signs("+-+-")
billiardknots.bracket_bruteforce(sd)
numpy_loaded("bracket_bruteforce")
billiardknots.bracket_all_signs(sd.diagram)
numpy_loaded("bracket_all_signs")
assert cli.main(["verify", "--family", "f", "--max-n", "8"]) == 0
numpy_loaded("verify")
"""
    src = str(Path(billiardknots.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    lines = proc.stdout.splitlines()
    assert [line for line in lines if line.startswith("% ")] == ["% import loaded []"]
    loaded = [line[2:] for line in lines if line.startswith("@ ")]
    assert loaded == ["import False", "bracket False", "jones False",
                      "CompiledTermSum False", "bench False",
                      "bracket_bruteforce False", "bracket_all_signs False",
                      "verify False"]


def test_non_planar_table_exit_2(capsys):
    code, _, err = run(capsys, "bracket", "--a", "4", "--b", "4", "--signs", "+-+-+",
                       "--method", "oracle")
    assert code == 2
    assert "T(4,4) has no planar closure" in err


def test_bumpered_height_other_than_5_exit_2(capsys):
    # The height is checked, not replaced: B_2(3,4) does not exist.
    code, out, err = run(capsys, "bracket", "--a", "3", "--b", "4", "--bumpers", "2",
                         "--signs", "++++_+")
    assert code == 2 and out == ""
    assert "only supported at a=5" in err


def test_table_rows(capsys):
    code, out, _ = run(capsys, "table", "--which", "2")
    assert code == 0
    assert "7 | 12a_0960 | (1,-5,13,-23,34,-42,45,-42,34,-23,13,-5,1)" in out


def test_tilings(capsys):
    code, out, _ = run(capsys, "tilings", "--b", "7")
    assert code == 0
    assert out.splitlines()[0] == "(S2,C,C)+(S2,V,H,V)+(S1,H,[C,V]+[V,H])"
    assert "bijection with the expansion: ok" in out


def test_tilings_count_mismatch_exit_1(capsys, monkeypatch):
    # An f recurrence that loses a summand no longer counts padovan(b + 4) tilings.
    f_summands = recursions.f_summands
    monkeypatch.setattr(recursions, "f_summands", lambda b: f_summands(b)[:-1])
    code, out, _ = run(capsys, "tilings", "--b", "7")
    assert code == 1
    assert out.endswith("bijection with the expansion: FAILED")
    code, out, _ = run(capsys, "--json", "tilings", "--b", "7")
    assert code == 1 and json.loads(out)["bijection_ok"] is False


def test_out_of_memory_exit_2(capsys, monkeypatch):
    # A build that runs out of memory is one error line and exit 2, not a traceback;
    # CPython 3.11 may raise the SystemError below instead of MemoryError.
    argv = ["bracket", "--a", "5", "--b", "16", "--signs=" + "+" * 30]

    def failing(error):
        def build(n):
            raise error
        return build

    lost = "<function SlotTerm.__new__> returned NULL without setting an exception"
    for error in (MemoryError(), SystemError(lost)):
        monkeypatch.setattr(recursions, "h_terms", failing(error))
        assert run(capsys, *argv) == (2, "", "error: out of memory"), error
    monkeypatch.setattr(recursions, "h_terms", failing(SystemError("another internal error")))
    with pytest.raises(SystemError):
        main(argv)


def test_library_key_error_propagates(monkeypatch):
    # Bad input raises ValueError; a KeyError from the library is a bug, so
    # main lets it through instead of exiting 2.
    def build(n):
        raise KeyError("P0")

    monkeypatch.setattr(recursions, "h_terms", build)
    with pytest.raises(KeyError):
        main(["bracket", "--a", "5", "--b", "4", "--signs=++++++"])


def test_bench_small(capsys):
    code, out, _ = run(capsys, "--json", "bench", "--a", "3", "--b", "6")
    assert code == 0
    data = json.loads(out)
    assert data["oracle_states"] == 32
    assert data["speedup"] > 0
    assert data["end_to_end_speedup"] == pytest.approx(
        data["oracle_seconds"] / (data["expansion_seconds"] + data["recursion_seconds"])
    )
    assert data["end_to_end_speedup"] < data["speedup"]


def test_bench_prints_a_speedup_below_one(capsys, monkeypatch):
    # A fake clock: expansion 0 s, evaluation 4 s, oracle 1 s.
    ticks = iter((0.0, 0.0, 0.0, 4.0, 4.0, 5.0))
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    code, out, _ = run(capsys, "bench", "--a", "3", "--b", "4")
    assert code == 0
    assert "end-to-end speedup (expansion + evaluation): 0.25x" in out
    assert out.endswith("warm speedup (evaluation only): 0.25x")


def test_bench_mismatch_exit_1(capsys, monkeypatch):
    # A closed form that disagrees with the oracle is reported, never timed.
    monkeypatch.setattr(oracle, "bracket_bruteforce", lambda sd: LaurentPoly.one())
    code, out, _ = run(capsys, "bench", "--a", "3", "--b", "6")
    assert code == 1
    assert out.startswith("verification mismatch: closed form") and "speedup" not in out
    assert out.endswith("oracle 1")
    code, out, _ = run(capsys, "--json", "bench", "--a", "3", "--b", "6")
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False and data["oracle_bracket"] == [[0, 1]]
    assert data["table"] == "T(3,6)"
    assert "speedup" not in data


def test_bench_without_closed_form_exit_2(capsys):
    # bench has no --method option, so it must not suggest one.
    code, out, err = run(capsys, "bench", "--a", "4", "--b", "3")
    assert code == 2 and out == ""
    assert "T(4,3)" in err and "closed-form" in err
    assert "--method" not in err


def test_bad_arguments_exit_2(capsys):
    code, _, err = run(capsys, "bracket", "--a", "7", "--b", "2", "--signs", "+")
    assert code == 2
    assert "error" in err
    with pytest.raises(SystemExit) as exc:
        main(["bracket", "--b", "2"])  # missing --signs
    assert exc.value.code == 2
    code, _, err = run(capsys, "bracket", "--a", "3", "--b", "4", "--signs", "++")
    assert code == 2
