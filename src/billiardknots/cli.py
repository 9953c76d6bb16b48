"""Command-line surface: compute, export, verify, benchmark, tabulate.

Each command imports the package modules it runs inside its own body, so a
call loads only those: ``pd`` loads the diagram layer alone, and a
closed-form ``bracket`` or ``jones`` never loads the oracle.

Exit codes: 0 success, 1 verification mismatch, 2 bad arguments or out of
memory.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from .billiard import BilliardDiagram, SignedDiagram, TableSpec
    from .laurent import LaurentPoly
    from .terms import TermSum

#: Alternating-sign families reproduced by the ``table`` subcommand; the
#: second table's b=5 entry has no reference row and is omitted.
TABLE1_ROWS = [(2, "U"), (4, "3_1"), (5, "4_1"), (7, "6_3"), (8, "7_7"), (10, "9_31"), (11, "10_45")]
TABLE2_ROWS = [(2, "U"), (3, "4_1"), (4, "6_2"), (6, "10_116"), (7, "12a_0960")]

#: family -> (table height, bumpers, expansion builder, renderer), the two
#: functions named in ``recursions`` so that the table loads nothing.
FAMILIES = {
    "f": (3, 0, "f_terms", "render_f"),
    "h": (5, 0, "h_terms", "render_h"),
    "b": (5, 2, "b_terms", "render_b"),
    "bt": (5, 1, "bt_terms", "render_bt"),
}


#: Size limit of ``terms`` and ``tilings``, checked before anything is built:
#: the f family's summand count padovan(n + 4), or the h family's skeleton
#: count 2^(n - 4) (for b and bt, that of their h<n-1> prefix).  The largest
#: build it admits, ``terms --family bt --n 13``, takes ~0.2 s and ~75 MB
#: peak RSS on a 2-vCPU VM.
EXPANSION_LIMIT = 256

#: Crossing limit of ``pd``.  The largest tables it admits, T(5,10001) and
#: T(3,20001) at 20,000 crossings, print their codes in ~1.1 s and ~70 MB on
#: a 2-vCPU VM; a table whose spec bound ``_min_crossings`` is over the
#: limit (T(5,b) past b = 10,001, T(3,b) past 20,001) is refused before it
#: is traced.
PD_LIMIT = 20_000


def _family(family: str) -> tuple[int, int, Callable[[int], TermSum], Callable[[int], str]]:
    """``FAMILIES[family]`` with its builder and renderer looked up in ``recursions``."""
    from . import recursions

    a, bumpers, terms, render = FAMILIES[family]
    return a, bumpers, getattr(recursions, terms), getattr(recursions, render)


def _check_expansion_size(family: str, n: int) -> None:
    from .recursions import padovan

    # Each count passes the limit long before n does, so clamping n keeps
    # the count itself cheap to compute for any n.
    m = min(n, EXPANSION_LIMIT)
    if family == "f":
        size, what = padovan(max(m + 4, 0)), "summands"
    else:
        size, what = 2 ** max(m - (4 if family == "h" else 5), 0), "skeletons"
    if size > EXPANSION_LIMIT:
        raise ValueError(
            f"the {family} expansion at n={n} has more than "
            f"EXPANSION_LIMIT = {EXPANSION_LIMIT} {what}"
        )


def _closed_form(spec: TableSpec) -> Callable[[], TermSum] | None:
    """The builder of the table's closed-form expansion; None if it has none."""
    for family, (a, bumpers, _, _) in FAMILIES.items():
        if (spec.a, spec.bumpers) == (a, bumpers):
            build = _family(family)[2]
            return lambda: build(spec.b)
    if (spec.a, spec.b) == (4, 2):
        from .recursions import expand_block

        return lambda: expand_block("g2")
    return None


def _min_crossings(spec: TableSpec) -> int:
    """A lower bound on the table's crossing count, read off its spec:
    ⌊(a - 1)/2⌋·(b - 1), one fewer with two bumpers.  It is exact at
    heights 3 and 5 (checked against the traced count in the tests)."""
    return max((spec.a - 1) // 2 * (spec.b - 1) - (spec.bumpers == 2), 0)


def _diagram_within(spec: TableSpec, limit: int, what: str) -> BilliardDiagram:
    """The diagram of ``spec``, refused when it has over ``limit`` crossings.

    A table whose ``_min_crossings`` bound is over the limit is refused
    before it is traced.
    """
    from .billiard import BilliardDiagram

    low = _min_crossings(spec)
    d = BilliardDiagram(spec) if low <= limit else None
    if d is None or d.crossing_count > limit:
        k = d.crossing_count if d else f"at least {low}"
        raise ValueError(f"{spec.label()} has {k} crossings, over the {what} limit {limit}")
    return d


def _emit(args, text: str, payload: dict) -> None:
    if args.json:
        payload["schema"] = 1
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _bracket_query(args, method: str | None) -> tuple[SignedDiagram, LaurentPoly]:
    """The signed diagram of a ``bracket``/``jones`` query and its bracket, from
    the oracle for ``method`` "oracle" or a table with no closed form
    ("recursion" requires one).  A table has at least b - 1 crossings, so a
    shorter sign string is refused before tracing; the oracle route refuses a
    table past ``ORACLE_LIMIT`` crossings, and the signs are assigned before
    any closed form is built."""
    from .billiard import BilliardDiagram, TableSpec

    spec = TableSpec(args.a, args.b, args.bumpers)
    if len(args.signs) < spec.b - 1:
        raise ValueError(f"{len(args.signs)} signs for {spec.label()}, which has "
                         f"at least {spec.b - 1} crossings")
    build = None if method == "oracle" else _closed_form(spec)
    if build is None and method == "recursion":
        raise ValueError("no closed-form expansion for this table; use --method oracle")
    if build is not None:
        sd = BilliardDiagram(spec).assign_signs(args.signs)
        return sd, build().evaluate(args.signs)
    from .oracle import ORACLE_LIMIT, bracket_bruteforce

    sd = _diagram_within(spec, ORACLE_LIMIT, "oracle").assign_signs(args.signs)
    return sd, bracket_bruteforce(sd)


def cmd_bracket(args) -> int:
    sd, value = _bracket_query(args, args.method)
    _emit(
        args,
        value.text(),
        {"table": sd.diagram.spec.label(), "signs": args.signs, "method": args.method,
         "bracket": value.json_pairs()},
    )
    return 0


def cmd_jones(args) -> int:
    from .laurent import jones_normalize

    sd, bracket = _bracket_query(args, None)
    writhe = sd.writhe()
    value = jones_normalize(bracket, writhe)
    _emit(
        args,
        value.text(),
        {"table": sd.diagram.spec.label(), "signs": args.signs, "writhe": writhe,
         "jones": value.json_pairs()},
    )
    return 0


def cmd_terms(args) -> int:
    from .recursions import bumpered_summands, f_summands, h_skeletons

    family, n = args.family, args.n
    _, bumpers, terms, render = _family(family)
    _check_expansion_size(family, n)
    ts = terms(n)
    rendered = render(n)
    counts = {"slot_width": ts.width, "flat_terms": len(ts)}
    if family == "f":
        counts["summands"] = len(f_summands(n))
    elif family == "h" and n >= 4:
        skeletons = h_skeletons(n)
        counts["skeletons"] = len(skeletons)
        counts["skeleton_list"] = [
            {"i": sk.i, "composition": list(sk.tail), "head": list(sk.head_names()),
             "tail": list(sk.tail_names())}
            for sk in skeletons
        ]
    elif bumpers:
        counts["summands"] = len(bumpered_summands(n, bumpers))
    text = rendered + "\n" + ", ".join(
        f"{k}={v}" for k, v in counts.items() if k != "skeleton_list"
    )
    _emit(args, text, {"family": family, "n": n, "rendered": rendered, **counts})
    return 0


def cmd_pd(args) -> int:
    from .billiard import TableSpec

    spec = TableSpec(args.a, args.b, args.bumpers)
    d = _diagram_within(spec, PD_LIMIT, "pd")
    signs = args.signs
    if signs is None:
        signs = "".join(
            "_" if i in d.skip_positions else "+" for i in range(d.slot_count)
        )
    sd = d.assign_signs(signs)
    text = f"{sd.pd_code()}\n{sd.gauss_code()}"
    _emit(
        args,
        text,
        {"table": spec.label(), "signs": signs, "pd": sd.pd_code(),
         "gauss": sd.gauss_code(), "diagram": json.loads(d.json_dump())},
    )
    return 0


def cmd_verify(args) -> int:
    from .billiard import TableSpec, diagram
    from .oracle import SWEEP_LIMIT, bracket_all_signs
    from .terms import CompiledTermSum

    family = args.family
    a, bumpers, terms, _ = _family(family)
    _diagram_within(TableSpec(a, args.max_n, bumpers), SWEEP_LIMIT, "sweep")
    mismatches = []
    checked = 0
    for n in range(1, args.max_n + 1):
        d = diagram(a, n, bumpers=bumpers)
        ts = terms(n)
        if ts.width != d.slot_count or ts.skip_positions != d.skip_positions:
            mismatches.append((n, "<slot layout>"))
            continue
        evaluator = CompiledTermSum(ts)
        oracle = bracket_all_signs(d)
        for s, want in oracle.items():
            checked += 1
            if evaluator.evaluate(s) != want:
                mismatches.append((n, s))
    ok = not mismatches
    text = (
        f"family {family}: {checked} sign sequences verified, all match"
        if ok
        else f"family {family}: {len(mismatches)} mismatches, first {mismatches[:5]}"
    )
    _emit(args, text, {"family": family, "max_n": args.max_n, "checked": checked,
                       "mismatches": [[n, s] for n, s in mismatches[:20]], "ok": ok})
    return 0 if ok else 1


def cmd_table(args) -> int:
    from .laurent import coefficient_string
    from .recursions import f_terms, h_terms

    table, pattern, build = (
        (TABLE1_ROWS, "+-", f_terms) if args.which == 1 else (TABLE2_ROWS, "++--", h_terms)
    )
    rows = []
    for b, name in table:
        ts = build(b)
        signs = "".join(pattern[i % len(pattern)] for i in range(ts.width))
        rows.append((b, name, signs, coefficient_string(ts.evaluate(signs))))
    lines = [
        f"{b} | {name} | ({','.join(str(c) for c in coeffs)})"
        for b, name, signs, coeffs in rows
    ]
    _emit(
        args,
        "\n".join(lines),
        {"which": args.which,
         "rows": [{"b": b, "knot": name, "signs": signs, "coefficients": list(c)}
                  for b, name, signs, c in rows]},
    )
    return 0


def cmd_bench(args) -> int:
    from .billiard import TableSpec
    from .oracle import ORACLE_LIMIT, bracket_bruteforce
    from .recursions import h_skeletons
    from .terms import CompiledTermSum

    spec = TableSpec(args.a, args.b, args.bumpers)
    d = _diagram_within(spec, ORACLE_LIMIT, "oracle")
    k = d.crossing_count
    signs = "".join(
        "_" if i in d.skip_positions else "++--"[i % 4] for i in range(d.slot_count)
    )
    sd = d.assign_signs(signs)

    build = _closed_form(spec)
    if build is None:
        raise ValueError(
            f"{spec.label()} has no closed-form expansion; bench times one against the oracle"
        )
    t0 = time.perf_counter()
    ts = build()
    evaluator = CompiledTermSum(ts)
    build_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    fast = evaluator.evaluate(signs)
    recursion_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    slow = bracket_bruteforce(sd)
    oracle_s = time.perf_counter() - t0

    if fast != slow:
        text = f"verification mismatch: closed form {fast.text()}, oracle {slow.text()}"
        _emit(args, text, {"table": spec.label(), "signs": signs, "ok": False,
                           "bracket": fast.json_pairs(), "oracle_bracket": slow.json_pairs()})
        return 1
    skeletons = len(h_skeletons(spec.b)) if spec.a == 5 and not spec.bumpers and spec.b >= 4 else None
    speedup = oracle_s / recursion_s if recursion_s > 0 else float("inf")
    end_to_end = oracle_s / (build_s + recursion_s)
    lines = [
        f"table {spec.label()} signs {signs}",
        f"oracle: 2^{k} = {1 << k} smoothing states in {oracle_s:.4f}s",
        f"recursion: {len(ts)} flat terms"
        + (f" from {skeletons} skeletons" if skeletons else "")
        + f" in {recursion_s:.6f}s (one-time expansion {build_s:.3f}s)",
        f"end-to-end speedup (expansion + evaluation): {end_to_end:.3g}x",
        f"warm speedup (evaluation only): {speedup:.3g}x",
    ]
    _emit(
        args,
        "\n".join(lines),
        {"table": spec.label(), "signs": signs, "oracle_states": 1 << k,
         "oracle_seconds": oracle_s, "recursion_terms": len(ts),
         "skeletons": skeletons, "recursion_seconds": recursion_s,
         "expansion_seconds": build_s, "speedup": speedup,
         "end_to_end_speedup": end_to_end,
         "bracket": fast.json_pairs()},
    )
    return 0


def cmd_tilings(args) -> int:
    from .recursions import padovan
    from .tiling import count_domino_tilings, enumerate_term_tilings, render_tilings

    b = args.b
    _check_expansion_size("f", b)
    tilings = enumerate_term_tilings(b)
    rendered = render_tilings(b)
    ok = len(tilings) == padovan(b + 4)
    text = (
        f"{rendered}\n{len(tilings)} term tilings of the 2x{b - 1} board "
        f"(all 2x{b - 1} domino tilings: {count_domino_tilings(b - 1)}); "
        f"bijection with the expansion: {'ok' if ok else 'FAILED'}"
    )
    _emit(
        args,
        text,
        {"b": b, "rendered": rendered, "tilings": [list(t) for t in tilings],
         "count": len(tilings), "domino_tilings": count_domino_tilings(b - 1),
         "bijection_ok": ok},
    )
    return 0 if ok else 1


class _SignsAction(argparse.Action):
    """Stores a sign string; argparse hands the "--" of ``--signs=--`` over as []."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, "--" if values == [] else values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="billiardknots",
        description="Kauffman bracket and Jones polynomials of billiard-table diagrams",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_table_args(p, signs_required=True):
        p.add_argument("--a", type=int, default=5, help="table height (3, 4 or 5)")
        p.add_argument("--b", type=int, required=True, help="table width")
        p.add_argument("--bumpers", type=int, default=0, choices=(0, 1, 2))
        if signs_required is not None:
            p.add_argument(
                "--signs", required=signs_required, action=_SignsAction,
                help="sign string over + - _ (one per slot, _ at skips)",
            )

    p = sub.add_parser("bracket", help="Kauffman bracket of one signed diagram")
    add_table_args(p)
    p.add_argument("--method", choices=("recursion", "oracle"), default="recursion")
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("jones", help="Jones polynomial of one signed diagram")
    add_table_args(p)
    p.set_defaults(func=cmd_jones)

    p = sub.add_parser("terms", help="render a closed-form expansion")
    p.add_argument("--family", choices=tuple(FAMILIES), required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_terms)

    p = sub.add_parser("pd", help="PD and Gauss codes of a diagram")
    add_table_args(p, signs_required=False)
    p.set_defaults(func=cmd_pd)

    p = sub.add_parser("verify", help="oracle sweep over all sign sequences")
    p.add_argument("--family", choices=tuple(FAMILIES), required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="reproduce the alternating-family tables")
    p.add_argument("--which", type=int, choices=(1, 2), required=True)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("bench", help="recursion vs oracle timing")
    add_table_args(p, signs_required=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("tilings", help="term tilings of the 2x(b-1) board")
    p.add_argument("--b", type=int, required=True)
    p.set_defaults(func=cmd_tilings)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        message = str(exc)
    except MemoryError:
        # Reported after the handler, once the failed build's frames are freed.
        message = "out of memory"
    except SystemError as exc:
        # CPython 3.11 reports a failed frame allocation this way.
        if "without setting an exception" not in str(exc):
            raise
        message = "out of memory"
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
