"""Executable tuple calculus for bracket expansions.

A bracket expansion for a family of diagrams with indeterminate crossing
signs is a sum of *slot terms*: each term is a power of δ times one factor
per crossing slot, and each factor is a function of that slot's sign alone
(a term's sign comes from its f2 factors).  Evaluating the sum against a
concrete sign sequence produces the exact Kauffman bracket of that signed
diagram.

Factor alphabet (s is the slot sign, +1 or -1):

==========  =====================  ====================
kind        value at s = +1        value at s = -1
==========  =====================  ====================
``APM``     A                      A^-1
``AMP``     A^-1                   A
``F2PM``    -A^-3                  -A^3
``F2MP``    -A^3                   -A^-3
``SKIP``    1 (slot must carry no crossing)
==========  =====================  ====================

``F2PM``/``F2MP`` are the two one-crossing kink values; ``SKIP`` occupies a
slot position that the diagram family leaves without a crossing, so sign
sequences for such families align positionally with the full slot grid.

``UNITS`` holds the symbols every block is spelled over, keyed as printed
in the closed-form tables: the single factors (A^±, A^∓, f2^±, f2^∓, _) and
δ.  Every block, named or indexed, is spelled over these units in
``recursions``, which resolves each spelling to a flat term sum; evaluation
never recurses.  ``add_all`` sums any number of term sums in one pass and
``product`` multiplies them out; both take the width and skip layout from
their parts, so only the public ``TermSum`` constructor checks terms one by
one.  A ``SlotTerm`` is a plain named tuple ``(delta, factors)``.

``TermSum.evaluate`` does no Python work per factor.  For a sign vector of
width w it builds one five-entry table per slot, mapping each factor to the
integer code m·e + n, where e is the factor's A-exponent at that slot's sign
(0 at a skip), n is 1 for an f2 factor and 0 otherwise, and m = w + 1.  A
term's code is one C-level ``sum(map(getitem, tables, factors))``: m times
its A-exponent plus its number of negative factors.  That number is at most
w < m, so ``divmod(code, m)`` recovers the exponent and the sign exactly at
any width and δ-power.  Terms are counted by (δ-power, code), each distinct
pair is decoded once, and each δ-power multiplies its coefficient map once.
``check_signs`` is the one check of a sign sequence against a slot grid; it
admits only +1, -1 and None, which the codes rely on.
"""

from __future__ import annotations

from collections import Counter
from enum import IntEnum
from operator import getitem
from typing import Iterable, NamedTuple

from .laurent import LaurentPoly, delta_power

Sign = int  # +1, -1, or None for a skipped slot
SignSeq = tuple  # tuple of Sign


class Factor(IntEnum):
    APM = 0  # A^(+s)
    AMP = 1  # A^(-s)
    F2PM = 2  # -A^(-3s)
    F2MP = 3  # -A^(+3s)
    SKIP = 4


# A-exponent contributed per unit of slot sign.
_WEIGHT = (1, -1, -3, 3, 0)
# Global -1 factors carried: 1 for an f2 factor.
_NEGATIVE = (0, 0, 1, 1, 0)

_FACTOR_TEXT = ("A^±", "A^∓", "f2^±", "f2^∓", "_")


def parse_signs(text: str) -> SignSeq:
    """Parse a sign string over '+', '-', '_' into (+1, -1, None) entries."""
    table = {"+": 1, "-": -1, "_": None}
    try:
        return tuple(table[ch] for ch in text)
    except KeyError as exc:
        raise ValueError(f"bad sign character {exc.args[0]!r} in {text!r}") from None


def signs_text(signs: SignSeq) -> str:
    return "".join("+" if s == 1 else "-" if s == -1 else "_" for s in signs)


def check_signs(signs: SignSeq | str, width: int, skips: frozenset[int]) -> SignSeq:
    """Parse ``signs`` if it is text, then check it against a slot grid of
    ``width`` slots whose skipped positions are exactly ``skips``."""
    if isinstance(signs, str):
        signs = parse_signs(signs)
    if len(signs) != width:
        raise ValueError(f"sign sequence length {len(signs)} != slot width {width}")
    for i, s in enumerate(signs):
        if s is not None and s != 1 and s != -1:
            raise ValueError(f"bad sign {s!r} at slot {i + 1}: must be +1, -1 or None")
        if (s is None) != (i in skips):
            raise ValueError(f"sign/skip mismatch at slot {i + 1}")
    return tuple(None if s is None else 1 if s == 1 else -1 for s in signs)


class SlotTerm(NamedTuple):
    """δ^delta times one factor per slot."""

    delta: int
    factors: tuple[Factor, ...]

    @property
    def width(self) -> int:
        return len(self.factors)

    def render(self) -> str:
        prefix = "δ" if self.delta == 1 else f"δ^{self.delta}" if self.delta else ""
        return f"{prefix}({','.join(_FACTOR_TEXT[f] for f in self.factors)})"


class TermSum:
    """A finite list of slot terms sharing one slot width.

    Terms are kept literally as constructed (no cross-term simplification),
    so printed forms diff cleanly against the closed-form tables.
    """

    __slots__ = ("terms", "width", "skip_positions")

    def __init__(self, terms: Iterable[SlotTerm], width: int | None = None):
        self.terms: tuple[SlotTerm, ...] = tuple(terms)
        if width is None:
            if not self.terms:
                raise ValueError("width required for an empty term sum")
            width = self.terms[0].width
        self.width = width
        skips: set[int] | None = None
        for t in self.terms:
            if not isinstance(t.delta, int) or t.delta < 0:
                raise ValueError(f"delta exponent must be an int >= 0, got {t.delta!r}")
            if t.width != self.width:
                raise ValueError(
                    f"inconsistent widths: {t.width} vs {self.width}"
                )
            positions = {i for i, f in enumerate(t.factors) if f is Factor.SKIP}
            if skips is None:
                skips = positions
            elif skips != positions:
                raise ValueError("terms disagree on skipped slot positions")
        self.skip_positions = frozenset(skips or ())

    @classmethod
    def _trusted(
        cls, terms: tuple[SlotTerm, ...], width: int, skips: frozenset[int]
    ) -> "TermSum":
        """A term sum whose terms are already known valid, with the width and
        skip layout they share; nothing is re-checked."""
        ts = cls.__new__(cls)
        ts.terms = terms
        ts.width = width
        ts.skip_positions = skips
        return ts

    def __len__(self) -> int:
        return len(self.terms)

    def evaluate(self, signs: SignSeq | str) -> LaurentPoly:
        signs = check_signs(signs, self.width, self.skip_positions)
        # Per slot, factor -> m·(A-exponent) + (1 for f2).  A term's count of
        # negative factors is at most the width, below m, so divmod of its
        # summed code gives its exponent and sign exactly at any width.
        m = self.width + 1
        tables = [
            tuple(w * (s or 0) * m + neg for w, neg in zip(_WEIGHT, _NEGATIVE))
            for s in signs
        ]
        counts = Counter((k, sum(map(getitem, tables, fs))) for k, fs in self.terms)
        by_delta: dict[int, dict[int, int]] = {}
        for (k, code), c in counts.items():
            exponent, negatives = divmod(code, m)
            acc = by_delta.setdefault(k, {})
            acc[exponent] = acc.get(exponent, 0) + (-c if negatives & 1 else c)
        total = LaurentPoly.zero()
        for k, acc in by_delta.items():
            total = total + LaurentPoly(acc) * delta_power(k)
        return total

    def canonical(self) -> tuple:
        """Order-free fingerprint: the multiset of (factors, delta) pairs."""
        return tuple(sorted((t.factors, t.delta) for t in self.terms))

    def render(self) -> str:
        return "+".join(t.render() for t in self.terms) if self.terms else "0"

    def __repr__(self) -> str:
        return f"TermSum(width={self.width}, terms={len(self.terms)})"


def add_all(parts: Iterable[TermSum]) -> TermSum:
    """Sum of term sums in one pass: joins every part's terms and checks once
    per part that the widths and skip layouts agree; the terms themselves
    are not re-walked."""
    terms: list[SlotTerm] = []
    width = skips = None
    for part in parts:
        if width is None:
            width = part.width
        elif part.width != width:
            raise ValueError("cannot add term sums of different widths")
        if part.terms:
            if skips is None:
                skips = part.skip_positions
            elif part.skip_positions != skips:
                raise ValueError("cannot add term sums with different skip layouts")
        terms.extend(part.terms)
    if width is None:
        raise ValueError("width required for an empty term sum")
    return TermSum._trusted(tuple(terms), width, skips or frozenset())


def product(*sums: TermSum) -> TermSum:
    """Juxtaposition of any number of term sums.  The width and skip layout
    come from the parts: each part's skips, shifted by its slot offset."""
    terms = EMPTY.terms
    width = 0
    skips: set[int] = set()
    for s in sums:
        terms = [
            SlotTerm(pd + qd, pf + qf) for pd, pf in terms for qd, qf in s.terms
        ]
        skips.update(width + i for i in s.skip_positions)
        width += s.width
    # An empty sum has no terms to carry skips, as in the TermSum constructor.
    return TermSum._trusted(tuple(terms), width, frozenset(skips) if terms else frozenset())


#: Width-0 multiplicative unit.
EMPTY = TermSum([SlotTerm(0, ())])

APM, AMP, F2PM, F2MP, SKIP = (TermSum([SlotTerm(0, (f,))]) for f in Factor)

#: The units every block is spelled over, keyed by printed symbol: the five
#: one-slot factor sums and ``δ``, the width-0 sum δ^1·().
UNITS: dict[str, TermSum] = dict(zip(_FACTOR_TEXT, (APM, AMP, F2PM, F2MP, SKIP)))
UNITS["δ"] = TermSum([SlotTerm(1, ())])


class CompiledTermSum:
    """Vectorized evaluator for a flat term sum.

    The per-slot factors contribute a signed A-exponent that is linear in
    the sign vector, so one matrix product evaluates all terms at once; each
    δ-power then multiplies the sum of its terms once.
    """

    def __init__(self, ts: TermSum):
        # numpy is imported by the code that uses it, here and in the oracle
        # sweep: loading it costs more than a whole closed-form bracket
        # query, which never needs it.
        import numpy as np

        self.width = ts.width
        self.skip_positions = ts.skip_positions
        n = len(ts.terms)
        self.weights = np.zeros((n, ts.width), dtype=np.int64)
        self.signs = np.zeros(n, dtype=np.int64)
        self.delta_pows = np.zeros(n, dtype=np.int64)
        for r, t in enumerate(ts.terms):
            sgn = 1
            for col, f in enumerate(t.factors):
                self.weights[r, col] = _WEIGHT[f]
                if _NEGATIVE[f]:
                    sgn = -sgn
            self.signs[r] = sgn
            self.delta_pows[r] = t.delta
        self.max_k = int(self.delta_pows.max(initial=0))

    def evaluate(self, signs: SignSeq | str) -> LaurentPoly:
        import numpy as np

        signs = check_signs(signs, self.width, self.skip_positions)
        vec = np.array([0 if s is None else s for s in signs], dtype=np.int64)
        exps = self.weights @ vec
        total = LaurentPoly.zero()
        for k in range(self.max_k + 1):
            mask = self.delta_pows == k
            if not mask.any():
                continue
            acc: dict[int, int] = {}
            for e, s in zip(exps[mask].tolist(), self.signs[mask].tolist()):
                v = acc.get(e, 0) + s
                if v:
                    acc[e] = v
                elif e in acc:
                    del acc[e]
            total = total + LaurentPoly(acc) * delta_power(k)
        return total
