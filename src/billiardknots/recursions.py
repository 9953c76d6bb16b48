"""Closed-form bracket expansions, spelled in one symbol alphabet.

Every closed form is a sum of summands, each a tuple of symbols: the units
``terms.UNITS``, the named blocks of ``BLOCK_SPELLINGS`` and the indexed
blocks ``P<i>`` (P'_i), ``P̃<i>`` (P~'_i), ``Q<i>`` and ``h<m>``, the strings
the renderers print.  Each block is spelled once, here; ``expand_block``
resolves any symbol to a flat term sum and memoises it, the one cache of
closed forms, and ``_family_terms`` multiplies out and sums a family's
summands.  Nothing is built at import.

* ``f_terms(b)``   - width b-1 sums for the height-3 tables, generated by a
  one-level rewriting on summand endings (replace a trailing A-factor by C,
  extend a trailing kink pair by an A-factor, branch a trailing C).
* ``h_terms(b)``   - width 2(b-1) sums for the height-5 tables, assembled
  from skeletons (i, composition of b-1-i): the three heads (h3, P̃<i-2>),
  (h2, P<i-1>) and (Q<i>), each followed by one P-block per composition part.
* ``b_terms(n)``/``bt_terms(n)`` - the two- and one-bumper variants, with
  skipped slots aligned to the table's missing crossings; both are spelled
  by ``bumpered_summands``, one rule over h<m> prefixes read from a table.

Term counts obey closed formulas: the f-family summand count
``len(f_summands(b))`` is ``padovan(b + 4)`` and the h-family skeleton count
``len(h_skeletons(b))`` is 2^(b-4); both are asserted in the tests.

P-block variant selection.  A P block is named by the column it starts
at: P~' at an even column, P' at an odd one (P~'_1 = P'_1).  The head P
blocks after h3 and h2 start at columns 2 and 1; a tail part preceded by s
slot pairs starts at column i + s.  The rule was validated against the
printed width-4..6 tables and the exhaustive oracle sweep; ``h_skeletons``
names the choice per part so it can be dumped for inspection.

Writhe recursions: extending a knot table by one period (three crossings at
height 3, ten at height 5) adds a signed pattern that depends only on the
old width's residue and parity; the base widths' crossing weights are
tabulated beside the patterns.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import groupby
from typing import Callable, Iterable, Sequence

from .signseq import SignSeq, check_signs
from .terms import UNITS, TermSum, add_all, product

Spelling = tuple[tuple[str, ...], ...]

# ---------------------------------------------------------------------------
# The symbol alphabet: named and indexed blocks, the resolver and the builder.
# ---------------------------------------------------------------------------

#: The named blocks, each spelled over the units and the blocks above it.
BLOCK_SPELLINGS: dict[str, Spelling] = {
    "C": (("A^±", "A^±"), ("f2^∓", "A^∓")),
    # 1 - A^(±4) on equal signs, else 0.
    "X": (("δ", "A^±", "A^±"), ("A^±", "A^∓"), ("A^∓", "A^±")),
    "K": (("f2^∓", "f2^∓", "A^∓", "A^∓"),),
    "L": (("f2^∓", "A^±", "A^∓"),),
    "M": (("f2^∓", "f2^±", "A^∓"),),
    "N": (("f2^∓", "A^∓", "A^∓", "A^∓"),),
    "Ñ": (("A^∓", "f2^∓", "A^∓", "A^∓"),),
    "R": (("f2^∓", "A^±", "A^∓", "A^∓"),),
    "R̃": (("A^±", "f2^∓", "A^∓", "A^∓"),),
    "S": (("f2^±", "f2^∓", "A^∓", "A^∓"),),
    # The two-slot denominator-closed 3xN-table base value.
    "g2": (("X",), ("δ", "A^∓", "A^∓")),
    "h2": (("A^±", "A^±"), ("δ", "A^±", "A^∓"), ("δ", "A^∓", "A^±"), ("δ", "δ", "A^∓", "A^∓")),
    "f3": (("f2^±", "A^±"), ("f2^∓", "A^∓")),
}


#: The two summands of P'_i (``P``), P~'_i (``P̃``) and Q_i, keyed by
#: (symbol, i % 2), each as (head, block repeated j = (i-2)//2 times, tail);
#: so P'_i at odd i = 2j+3 is (R,N^j,A^±,A^∓) + (A^±,K^(j+1),A^±).  Every
#: even-index prime block is consumed at an even recursion stage, where the
#: one-bumper pieces feeding it carry Ñ rather than N; the even Q block's
#: second piece carries N (not K), and j = (i-2)//2 is the unique index giving
#: width 2i.  The exhaustive oracle sweep (first decisive at width 2*5)
#: confirms each choice.
_PQ_ROWS = {
    ("P", 1): ((("R",), "N", ("A^±", "A^∓")), (("A^±", "K"), "K", ("A^±",))),
    ("P", 0): ((("X",), "Ñ", ("A^∓", "A^±")), (("A^±",), "K", ("L",))),
    ("P̃", 1): ((("L",), "K", ("L",)), (("R̃",), "Ñ", ("A^∓", "A^±"))),
    ("P̃", 0): ((("L",), "K", ("A^±",)), (("X",), "N", ("A^±", "A^∓"))),
    ("Q", 1): ((("M",), "K", ("L",)), (("S",), "Ñ", ("A^∓", "A^±"))),
    ("Q", 0): ((("M",), "K", ("A^±",)), (("g2",), "N", ("A^±", "A^∓"))),
}


def _pq_rows(symbol: str, i: int) -> Spelling:
    j = (i - 2) // 2
    (h1, r1, t1), (h2, r2, t2) = _PQ_ROWS[symbol, i % 2]
    return h1 + (r1,) * j + t1, h2 + (r2,) * j + t2


def p_spelling(i: int, tilde: bool) -> Spelling:
    """P'_i (or P~'_i when ``tilde``), width 2i, from the rows of ``_PQ_ROWS``.

    P'_1 = P~'_1 = (A^±,A^±); P'_2 and P~'_2 add a third summand, (K).
    """
    if i < 1:
        raise ValueError("P block index must be >= 1")
    if i == 1:
        return (("A^±", "A^±"),)
    rows = _pq_rows("P̃" if tilde else "P", i)
    return rows + (("K",),) if i == 2 else rows


def q_spelling(i: int) -> Spelling:
    """Q_i (i >= 3), width 2i, from the rows of ``_PQ_ROWS``."""
    if i < 3:
        raise ValueError("Q block index must be >= 3")
    return _pq_rows("Q", i)


_INDEXED = re.compile(r"(P̃|P|Q|head|h)([1-9][0-9]*)")


@lru_cache(maxsize=None)
def expand_block(symbol: str) -> TermSum:
    """Resolve one symbol of the alphabet to its flat term sum, built once.

    A unit of ``terms.UNITS``, a named block of ``BLOCK_SPELLINGS``, or an
    indexed block: ``P<i>``/``P̃<i>`` (i >= 1, P̃1 = P1), ``Q<i>`` (i >= 3),
    ``head<i>`` (i >= 3, the three heads of a height-5 skeleton, summed) or
    ``h<m>`` (m >= 1, the height-5 family).  Every family shares this memo.
    """
    if symbol in UNITS:
        return UNITS[symbol]
    if symbol in BLOCK_SPELLINGS:
        return _family_terms(BLOCK_SPELLINGS[symbol])
    match = _INDEXED.fullmatch(symbol)
    if match is None:
        raise ValueError(f"unknown block symbol {symbol!r}")
    name, i = match.group(1), int(match.group(2))
    if name == "h":
        total = _family_terms(_h_spelling(i))
        assert total.width == 2 * (i - 1)
        return total
    if name == "head":
        if i < 3:
            raise ValueError("head block index must be >= 3")
        return _family_terms(HSkeleton(i, ()).heads())
    spelling = q_spelling(i) if name == "Q" else p_spelling(i, tilde=name == "P̃")
    return _family_terms(spelling)


def _family_terms(summands: Iterable[tuple[str, ...]]) -> TermSum:
    """Sum over summands, each the product of its symbols' term sums."""
    return add_all(product(*map(expand_block, s)) for s in summands)


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


#: The rewriting, keyed by a summand's last token: each row replaces it.
_F_REWRITE = {"V": (("C",),), "H": (("H", "V"),), "C": (("C", "V"), ("V", "H"))}


def _f_step(summands: list[tuple[str, ...]]) -> list[tuple[str, ...]]:
    return [s[:-1] + row for s in summands for row in _F_REWRITE[s[-1]]]


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


def padovan(n: int) -> int:
    """a(n) with a(n) = a(n-2) + a(n-3), a(0)=1, a(1)=a(2)=0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    a = [1, 0, 0]
    for i in range(3, n + 1):
        a.append(a[i - 2] + a[i - 3])
    return a[n]


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


class HSkeleton:
    """One (i, composition) skeleton of the height-5 expansion."""

    __slots__ = ("i", "tail")

    def __init__(self, i: int, tail: tuple[int, ...]):
        self.i = i
        self.tail = tail

    def head_names(self) -> tuple[str, str, str]:
        return _p_name(self.i - 2, 2), _p_name(self.i - 1, 1), f"Q{self.i}"

    def heads(self) -> Spelling:
        """The three head summands, each followed by the tail."""
        p_tilde, p_prime, q = self.head_names()
        return (("h3", p_tilde), ("h2", p_prime), (q,))

    def tail_names(self) -> tuple[str, ...]:
        """A part preceded by s slot pairs starts at column i + s."""
        names, at = [], self.i
        for c in self.tail:
            names.append(_p_name(c, at))
            at += c
        return tuple(names)


def _p_name(c: int, at: int) -> str:
    """The P block of index c starting at column ``at``: P̃ at even columns."""
    return f"P̃{c}" if at % 2 == 0 and c > 1 else f"P{c}"


def h_skeletons(b: int) -> tuple[HSkeleton, ...]:
    if b < 4:
        raise ValueError("skeletons exist for b >= 4")
    return tuple(
        HSkeleton(i, comp) for i in range(3, b) for comp in compositions(b - 1 - i)
    )


#: h3 = (h2,A^±,A^±) + (K) + (g2,A^±,A^∓) + (M,A^±).
H3_SPELLING: Spelling = (("h2", "A^±", "A^±"), ("K",), ("g2", "A^±", "A^∓"), ("M", "A^±"))


def h_summands(b: int) -> Spelling:
    """Symbolic summands of the height-5 expansion of width 2(b-1).

    From b = 4 on, each skeleton contributes its three heads, each followed
    by the skeleton's tail names.
    """
    if b < 1:
        raise ValueError("b must be >= 1")
    if b == 1:
        return ((),)
    if b == 2:
        return (("h2",),)
    if b == 3:
        return H3_SPELLING
    out: list[tuple[str, ...]] = []
    for sk in h_skeletons(b):
        tail = sk.tail_names()
        out += [head + tail for head in sk.heads()]
    return tuple(out)


def _h_spelling(b: int) -> Spelling:
    """``h_summands(b)`` with each skeleton's three summands, which share
    its tail, as one: (head<i>,) + tail from b = 4 on.  Multiplied out, it
    gives the same terms in the same order."""
    if b < 4:
        return h_summands(b)
    return tuple((f"head{sk.i}",) + sk.tail_names() for sk in h_skeletons(b))


def h_terms(b: int) -> TermSum:
    """Flat term sum for the height-5 table of width b-1: the block h<b>."""
    if b < 1:
        raise ValueError("b must be >= 1")
    return expand_block(f"h{b}")


def render_h(b: int) -> str:
    """The h sum in block notation, grouped by skeleton head as printed."""
    if b == 2:
        return expand_block("h2").render()
    if b <= 3:
        return _render_summands(h_summands(b))
    groups = []
    for i, same_head in groupby(h_skeletons(b), key=lambda sk: sk.i):
        skeletons = list(same_head)
        p_tilde, p_prime, _ = skeletons[0].head_names()
        head = [f"h3,{p_tilde}", f"h2,{p_prime}"] + [",".join(s) for s in q_spelling(i)]
        tails = [",".join(sk.tail_names()) for sk in skeletons]
        if tails == [""]:
            groups.append("+".join(f"({piece})" for piece in head))
            continue
        headstr = "+".join(f"[{piece}]" for piece in head)
        tailstr = tails[0] if len(tails) == 1 else "+".join(f"[{t}]" for t in tails)
        groups.append(f"({headstr},{tailstr})")
    return "+".join(groups)


# ---------------------------------------------------------------------------
# Bumpered families.
# ---------------------------------------------------------------------------

#: One bumpered row per (bumpers, n % 2): the bridges after h<m> for even and
#: odd d, the repeated block, the closing head and the suffix.
_BUMPERED_ROWS = {
    (2, 1): (("A^±", "L"), "K", "M", ()),
    (2, 0): (("A^±", "L"), "K", "M", ("f2^∓", "_", "A^∓")),
    (1, 1): (("X", "R̃"), "Ñ", "S", ()),
    (1, 0): (("X", "R"), "N", "g2", ()),
}


def bumpered_summands(n: int, bumpers: int) -> Spelling:
    """Symbolic summands of the two- or one-bumper expansion of width n.

    With top = n-2 for two bumpers at even n (which first emit
    (h<n-1>, _, A^±)) and n-1 otherwise, each m = top..1 at d = top-m gives
    (h<m>, bridge[d % 2]), or the closing head alone at m = 1, followed by
    the repeated block d//2 times and the suffix.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    bridges, repeat, close, suffix = _BUMPERED_ROWS[bumpers, n % 2]
    if n == 1:
        return ((),)
    if (bumpers, n) == (2, 2):
        return (("_", "f2^±"),)
    out: list[tuple[str, ...]] = []
    top = n - 1
    if (bumpers, n % 2) == (2, 0):
        out.append((f"h{n - 1}", "_", "A^±"))
        top = n - 2
    for m in range(top, 0, -1):
        d = top - m
        head = (f"h{m}", bridges[d % 2]) if m > 1 else (close,)
        out.append(head + (repeat,) * (d // 2) + suffix)
    return tuple(out)


def b_terms(n: int) -> TermSum:
    """Two-bumper expansion; width 2n-3 for odd n, 2n-2 (one skip) for even."""
    return _family_terms(bumpered_summands(n, 2))


def bt_terms(n: int) -> TermSum:
    """One-bumper expansion; width 2(n-1), no skips."""
    return _family_terms(bumpered_summands(n, 1))


def _render_summands(summands: Sequence[tuple[str, ...]]) -> str:
    if summands == ((),):
        return "1"
    return "+".join("(" + ",".join(s) + ")" for s in summands)


def render_b(n: int) -> str:
    return _render_summands(bumpered_summands(n, 2))


def render_bt(n: int) -> str:
    return _render_summands(bumpered_summands(n, 1))


# ---------------------------------------------------------------------------
# Writhe recursions.
# ---------------------------------------------------------------------------

#: Writhe weights (contribution at sign '+') of the crossings of the base
#: tables T(3, w) and T(5, w), w the smallest width in b's residue class.
_BASE3 = {1: (), 2: (-1,)}
_BASE5 = {1: (), 2: (-1, -1), 3: (1, -1, -1, 1), 4: (-1, 1, -1, -1, -1, 1)}

#: The weights each period adds, keyed by the old width's residue (and parity).
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
    fixed weight pattern over the new crossings; the writhe is the sum of
    sign times weight over the smallest width in b's residue class, then
    over one pattern per period.  No diagram is traced.
    """
    if a not in (3, 5):
        raise ValueError("writhe recursion supports heights 3 and 5 only")
    if b % a == 0:
        raise ValueError(f"writhe recursion needs b not divisible by {a}")
    half = (a - 1) // 2  # slots per column
    signs = check_signs(signs, half * (b - 1), frozenset())
    base = (b - 1) % a + 1
    writhe = sum(w * s for w, s in zip((_BASE3 if a == 3 else _BASE5)[base], signs))
    for m in range(base, b, a):
        pat = _PAT3[m % 3] if a == 3 else _PAT5[m % 5, m % 2]
        writhe += sum(p * s for p, s in zip(pat, signs[half * (m - 1) : half * (m - 1 + a)]))
    return writhe
