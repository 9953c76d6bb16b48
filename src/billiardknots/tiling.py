"""Domino-tiling view of the height-3 expansion.

Summands of the width-(b-1) f sum correspond to tilings of a 2 x (b-1)
board: an A-factor is a vertical domino (V), the kink pair is two horizontal
dominoes (H), the branching block C is a 2 x 2 square, and the two leading
configurations are start tiles S2 (2 x 2) and S1 (vertical domino).  All
2 x n domino tilings are counted by Fibonacci numbers; the term tilings are
the sparser Padovan-counted subset reachable from the rewriting rules.

The tile names are the f recurrence's own summand tokens, so the term
tilings are the summands of ``recursions.f_summands`` read as tiles.
"""

from __future__ import annotations

from . import recursions
from .terms import TermSum


def count_domino_tilings(n: int) -> int:
    """Number of domino tilings of a 2 x n board: F(n) with F(0)=F(1)=1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    prev, cur = 1, 1
    for _ in range(n - 1):
        prev, cur = cur, prev + cur
    return cur if n else 1


def enumerate_term_tilings(b: int) -> tuple[tuple[str, ...], ...]:
    """Tile sequences of board length b-1 reachable from the rewriting."""
    if b < 4:
        raise ValueError("term tilings start at b = 4")
    return recursions.f_summands(b)


def tiling_to_term(t: tuple[str, ...]) -> TermSum:
    """The f summand a tile sequence stands for, as a flat term sum."""
    if not t or t[0] not in ("S1", "S2") or any(x in ("S1", "S2") for x in t[1:]):
        raise ValueError("a tiling carries exactly one start tile, first")
    return recursions._family_terms((recursions._f_symbols(t),))


def render_tilings(b: int) -> str:
    """Tile sequences with branch groups bracketed, e.g. (S2,C,[C,V]+[V,H])."""
    if b < 4:
        raise ValueError("term tilings start at b = 4")
    return recursions.render_f(b, spell=tuple)
