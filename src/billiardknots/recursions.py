"""Compressed bracket expansions for the diagram families.

Four families of closed-form term sums, evaluated against sign sequences:

* ``f_terms(b)``   - width b-1 sums for the height-3 tables, generated by a
  one-level rewriting on summand endings (replace a trailing A-factor by C,
  extend a trailing kink pair by an A-factor, branch a trailing C).
* ``h_terms(b)``   - width 2(b-1) sums for the height-5 tables, assembled
  from skeletons (i, composition of b-1-i): a fixed head of three block
  sums followed by one P-block per composition part.
* ``b_terms(n)``/``bt_terms(n)`` - the two- and one-bumper variants, with
  skipped slots aligned to the table's missing crossings.

Term counts obey closed formulas: the f-family count is a Padovan number
(offset four) and the h-family skeleton count is 2^(b-4); both are asserted
exhaustively in the tests.

P-block variant selection.  Each composition part expands to P'_c or P~'_c.
The resolved convention, validated against the printed width-4..6 tables and
the exhaustive oracle sweep: heads are always [h3, P~'_(i-2)] and
[h2, P'_(i-1)]; a tail part preceded by s slot-pairs inside the tail takes
P' exactly when i + s is odd.  ``h_skeletons`` records the choice per part
so it can be dumped for inspection.

Writhe recursions: extending a knot table by one period (three crossings at
height 3, ten at height 5) adds a signed pattern that depends only on the
old width's residue and parity; bases come from direct counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .billiard import diagram, writhe_direct
from .terms import (
    BLOCKS,
    EMPTY,
    SignSeq,
    TermSum,
    add_all,
    p_prime,
    p_tilde,
    parse_signs,
    product,
    q_block,
)

# ---------------------------------------------------------------------------
# Height 3: the f family.
# ---------------------------------------------------------------------------

# Summand tokens: S2 = leading f3 block, S1 = leading kink factor, V = A^±,
# H = the kink pair (f2^∓, A^∓), C = the two-summand block.  Each token
# spells out as the block symbols it stands for.
_F_TOKENS = {
    "S2": ("f3",),
    "S1": ("f2^±",),
    "V": ("A^±",),
    "H": ("f2^∓", "A^∓"),
    "C": ("C",),
}


def _f_symbols(summand: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(sym for tok in summand for sym in _F_TOKENS[tok])


def _f_step(summands: list[tuple[str, ...]]) -> list[tuple[str, ...]]:
    out: list[tuple[str, ...]] = []
    for s in summands:
        last = s[-1]
        if last == "V":
            out.append(s[:-1] + ("C",))
        elif last == "H":
            out.append(s + ("V",))
        elif last == "C":
            out.append(s[:-1] + ("C", "V"))
            out.append(s[:-1] + ("V", "H"))
        else:
            raise AssertionError(f"summand ends in head token {last}")
    return out


@lru_cache(maxsize=None)
def f_summands(b: int) -> tuple[tuple[str, ...], ...]:
    """Expanded summands of the width-(b-1) sum, as token tuples."""
    if b < 1:
        raise ValueError("b must be >= 1")
    if b == 1:
        return ((),)
    if b == 2:
        return (("S1",),)
    if b == 3:
        return (("S1", "V"), ("H",))
    summands = [("S2", "V"), ("S1", "H")]
    for _ in range(b - 4):
        summands = _f_step(summands)
    return tuple(summands)


def count_f_terms(b: int) -> int:
    """Number of expanded summands of the f family at width b-1."""
    return len(f_summands(b))


def padovan(n: int) -> int:
    """a(n) with a(n) = a(n-2) + a(n-3), a(0)=1, a(1)=a(2)=0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    a = [1, 0, 0]
    for i in range(3, n + 1):
        a.append(a[i - 2] + a[i - 3])
    return a[n]


@lru_cache(maxsize=None)
def f_terms(b: int) -> TermSum:
    """Flat term sum for the height-3 table of width b-1."""
    total = _family_terms(_f_symbols(s) for s in f_summands(b))
    assert total.width == b - 1
    return total


def render_f(
    b: int, spell: Callable[[tuple[str, ...]], tuple[str, ...]] = _f_symbols
) -> str:
    """The f sum in tuple notation, branch groups bracketed as printed.

    From b = 5 on, summands are grouped by their parent summand at width
    b-2; a parent that branches under the rewriting prints as its common
    prefix followed by the bracketed branches.  ``spell`` maps a token tuple
    to the symbols shown (block symbols by default, tile names as is).
    """
    if b <= 4:
        return _render_summands(tuple(spell(s) for s in f_summands(b)))

    def text(tokens: tuple[str, ...]) -> str:
        return ",".join(spell(tokens))

    parts = []
    for parent in f_summands(b - 1):
        children = _f_step([parent])
        if len(children) == 1:
            parts.append(f"({text(children[0])})")
        else:
            prefix = parent[:-1]
            branches = "+".join(f"[{text(c[len(prefix):])}]" for c in children)
            parts.append(f"({text(prefix)},{branches})")
    return "+".join(parts)


# ---------------------------------------------------------------------------
# Height 5: the h family.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def compositions(n: int) -> tuple[tuple[int, ...], ...]:
    """Ordered compositions of n, first part descending; n=0 gives (())."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return ((),)
    out = []
    for first in range(n, 0, -1):
        for rest in compositions(n - first):
            out.append((first,) + rest)
    return tuple(out)


def _tail_prime_resolved(i: int, s: int, c: int) -> bool:
    """P' exactly when head index plus preceding slot-pairs is odd."""
    return (i + s) % 2 == 1


@dataclass(frozen=True)
class HSkeleton:
    """One (i, composition) skeleton of the height-5 expansion."""

    b: int
    i: int
    tail: tuple[int, ...]
    tail_primes: tuple[bool, ...]

    def head_names(self) -> tuple[str, str, str]:
        return (_p_name(self.i - 2, tilde=True), _p_name(self.i - 1, tilde=False),
                f"Q{self.i}")

    def tail_names(self) -> tuple[str, ...]:
        return tuple(
            _p_name(c, tilde=not prime)
            for c, prime in zip(self.tail, self.tail_primes)
        )

    def as_dict(self) -> dict:
        return {
            "i": self.i,
            "composition": list(self.tail),
            "head": list(self.head_names()),
            "tail": list(self.tail_names()),
        }


def _p_name(c: int, tilde: bool) -> str:
    return f"P̃{c}" if tilde and c >= 2 else f"P{c}"


def h_skeletons(
    b: int, tail_prime: Callable[[int, int, int], bool] = _tail_prime_resolved
) -> tuple[HSkeleton, ...]:
    if b < 4:
        raise ValueError("skeletons exist for b >= 4")
    out = []
    for i in range(3, b):
        for comp in compositions(b - 1 - i):
            primes = []
            s = 0
            for c in comp:
                primes.append(tail_prime(i, s, c))
                s += c
            out.append(HSkeleton(b, i, comp, tuple(primes)))
    return tuple(out)


def count_h_skeletons(b: int) -> int:
    return len(h_skeletons(b))


def skeletons_json(b: int) -> list[dict]:
    return [sk.as_dict() for sk in h_skeletons(b)]


def _skeleton_sum(sk: HSkeleton, q_fn: Callable[[int], TermSum]) -> TermSum:
    head = add_all((
        product(BLOCKS["h3"], p_tilde(sk.i - 2)),
        product(BLOCKS["h2"], p_prime(sk.i - 1)),
        q_fn(sk.i),
    ))
    blocks = [head]
    for c, prime in zip(sk.tail, sk.tail_primes):
        blocks.append(p_prime(c) if prime else p_tilde(c))
    return product(*blocks)


def _h_terms_custom(
    b: int,
    tail_prime: Callable[[int, int, int], bool] = _tail_prime_resolved,
    q_fn: Callable[[int], TermSum] = q_block,
) -> TermSum:
    if b < 1:
        raise ValueError("b must be >= 1")
    if b == 1:
        return EMPTY
    if b == 2:
        return BLOCKS["h2"]
    if b == 3:
        return BLOCKS["h3"]
    total = add_all(_skeleton_sum(sk, q_fn) for sk in h_skeletons(b, tail_prime))
    assert total.width == 2 * (b - 1)
    return total


@lru_cache(maxsize=None)
def h_terms(b: int) -> TermSum:
    """Flat term sum for the height-5 table of width b-1."""
    return _h_terms_custom(b)


def _q_pieces(i: int) -> list[list[str]]:
    if i % 2 == 1:
        j = (i - 3) // 2
        return [["M"] + ["K"] * j + ["L"], ["S"] + ["Ñ"] * j + ["A^∓", "A^±"]]
    j = (i - 2) // 2
    return [["M"] + ["K"] * j + ["A^±"], ["g2"] + ["N"] * j + ["A^±", "A^∓"]]


def render_h(b: int) -> str:
    """The h sum in block notation, grouped by skeleton head as printed."""
    if b == 1:
        return "1"
    if b == 2:
        return "(A^±,A^±)+δ(A^±,A^∓)+δ(A^∓,A^±)+δ^2(A^∓,A^∓)"
    if b == 3:
        return "(h2,A^±,A^±)+(K)+(g2,A^±,A^∓)+(M,A^±)"
    groups = []
    for i in range(3, b):
        head = [
            f"h3,{_p_name(i - 2, tilde=True)}",
            f"h2,{_p_name(i - 1, tilde=False)}",
        ] + [",".join(piece) for piece in _q_pieces(i)]
        comps = compositions(b - 1 - i)
        if comps == ((),):
            groups.append("+".join(f"({piece})" for piece in head))
            continue
        tails = []
        for sk in h_skeletons(b):
            if sk.i != i:
                continue
            tails.append(",".join(sk.tail_names()))
        headstr = "+".join(f"[{piece}]" for piece in head)
        if len(tails) == 1:
            groups.append(f"({headstr},{tails[0]})")
        else:
            tailstr = "+".join(f"[{t}]" for t in tails)
            groups.append(f"({headstr},{tailstr})")
    return "+".join(groups)


# ---------------------------------------------------------------------------
# Bumpered families.
# ---------------------------------------------------------------------------

def _symbol_sum(tok: str) -> TermSum:
    """A summand symbol's term sum: a ``BLOCKS`` entry or ``h<m>``."""
    if tok in BLOCKS:
        return BLOCKS[tok]
    return h_terms(int(tok[1:]))


def b_summands(n: int) -> tuple[tuple[str, ...], ...]:
    """Symbolic summands of the two-bumper expansion of width n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return ((),)
    if n == 2:
        return (("_", "f2^±"),)
    out: list[tuple[str, ...]] = []
    if n % 2 == 1:
        for m in range(n - 1, 1, -1):
            d = n - 1 - m
            if d % 2 == 0:
                out.append((f"h{m}", "A^±") + ("K",) * (d // 2))
            else:
                out.append((f"h{m}", "L") + ("K",) * ((d - 1) // 2))
        out.append(("M",) + ("K",) * ((n - 3) // 2))
    else:
        out.append((f"h{n - 1}", "_", "A^±"))
        for m in range(n - 2, 1, -1):
            d = n - 2 - m
            if d % 2 == 0:
                out.append(
                    (f"h{m}", "A^±") + ("K",) * (d // 2) + ("f2^∓", "_", "A^∓")
                )
            else:
                out.append(
                    (f"h{m}", "L") + ("K",) * ((d - 1) // 2) + ("f2^∓", "_", "A^∓")
                )
        out.append(("M",) + ("K",) * ((n - 4) // 2) + ("f2^∓", "_", "A^∓"))
    return tuple(out)


def bt_summands(n: int) -> tuple[tuple[str, ...], ...]:
    """Symbolic summands of the one-bumper (2-tangle) expansion of width n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return ((),)
    if n == 2:
        return (("g2",),)
    out: list[tuple[str, ...]] = []
    if n % 2 == 1:
        for m in range(n - 1, 1, -1):
            d = n - 1 - m
            if d % 2 == 0:
                out.append((f"h{m}", "X") + ("Ñ",) * (d // 2))
            else:
                out.append((f"h{m}", "R̃") + ("Ñ",) * ((d - 1) // 2))
        out.append(("S",) + ("Ñ",) * ((n - 3) // 2))
    else:
        for m in range(n - 1, 1, -1):
            d = n - 1 - m
            if d % 2 == 0:
                out.append((f"h{m}", "X") + ("N",) * (d // 2))
            else:
                out.append((f"h{m}", "R") + ("N",) * ((d - 1) // 2))
        out.append(("g2",) + ("N",) * ((n - 2) // 2))
    return tuple(out)


def _family_terms(summands: Iterable[tuple[str, ...]]) -> TermSum:
    """Sum over summands, each the product of its symbols' term sums."""
    return add_all(product(*map(_symbol_sum, s)) for s in summands)


@lru_cache(maxsize=None)
def b_terms(n: int) -> TermSum:
    """Two-bumper expansion; width 2n-3 for odd n, 2n-2 (one skip) for even."""
    return _family_terms(b_summands(n))


@lru_cache(maxsize=None)
def bt_terms(n: int) -> TermSum:
    """One-bumper expansion; width 2(n-1), no skips."""
    return _family_terms(bt_summands(n))


def _render_summands(summands: Sequence[tuple[str, ...]]) -> str:
    if summands == ((),):
        return "1"
    return "+".join("(" + ",".join(s) + ")" for s in summands)


def render_b(n: int) -> str:
    return _render_summands(b_summands(n))


def render_bt(n: int) -> str:
    return _render_summands(bt_summands(n))


# ---------------------------------------------------------------------------
# Writhe recursions.
# ---------------------------------------------------------------------------

_PAT3 = {1: (1, -1, 1), 2: (1, 1, -1)}

_PAT5 = {
    (1, 0): (1, 1, -1, 1, -1, -1, -1, 1, 1, 1),
    (1, 1): (1, 1, 1, -1, -1, -1, 1, -1, 1, 1),
    (2, 0): (1, 1, 1, -1, -1, 1, 1, 1, -1, -1),
    (2, 1): (1, 1, -1, 1, 1, -1, 1, 1, -1, -1),
    (3, 0): (1, 1, -1, -1, 1, 1, 1, -1, -1, 1),
    (3, 1): (1, 1, -1, -1, 1, 1, -1, 1, 1, -1),
    (4, 0): (1, 1, 1, 1, 1, -1, -1, -1, 1, -1),
    (4, 1): (1, 1, 1, 1, -1, 1, -1, -1, -1, 1),
}


def writhe_recursive(a: int, b: int, signs: SignSeq | str) -> int:
    """Writhe of the signed knot table by period recursion.

    Only defined for the knot widths (b not divisible by a).  Widening the
    table by one period keeps the old crossings' contributions and adds a
    fixed sign pattern over the new crossings; the smallest width in each
    residue class is counted directly.
    """
    if isinstance(signs, str):
        signs = parse_signs(signs)
    if a == 3:
        if b % 3 == 0:
            raise ValueError("writhe recursion needs b not divisible by 3")
        if len(signs) != b - 1:
            raise ValueError("sign sequence length != b-1")
        if b <= 3:
            return writhe_direct(diagram(3, b).assign_signs(signs))
        base = b - 3
        head = writhe_recursive(3, base, signs[: base - 1])
        pat = _PAT3[base % 3]
        return head + sum(p * s for p, s in zip(pat, signs[base - 1 :]))
    if a == 5:
        if b % 5 == 0:
            raise ValueError("writhe recursion needs b not divisible by 5")
        if len(signs) != 2 * (b - 1):
            raise ValueError("sign sequence length != 2(b-1)")
        if b <= 5:
            return writhe_direct(diagram(5, b).assign_signs(signs))
        base = b - 5
        head = writhe_recursive(5, base, signs[: 2 * (base - 1)])
        pat = _PAT5[(base % 5, base % 2)]
        return head + sum(p * s for p, s in zip(pat, signs[2 * (base - 1) :]))
    raise ValueError("writhe recursion supports heights 3 and 5 only")
