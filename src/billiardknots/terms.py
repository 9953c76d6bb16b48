"""Executable tuple calculus for bracket expansions.

A bracket expansion for a family of diagrams with indeterminate crossing
signs is a sum of *slot terms*: each term is a power of δ times one factor
per crossing slot, and each factor is a function of that slot's sign alone
(a term's sign comes from its f2 factors).  A term is an int δ-power and
a ``bytes`` *row* holding one ``Factor`` code per slot, so its width is
``len(row)``.  A sum stores its terms column-major: one ``bytes`` column
of codes per slot and one machine-int array of δ-powers, so a term costs
width + 4 bytes.  Its ``deltas``, ``rows`` and ``terms`` (``(delta, row)``
pairs) are read-only tuple views, built on each read.  Evaluating the sum
against a concrete sign sequence produces the exact Kauffman bracket of
that signed diagram.

Factor alphabet (s is the slot sign, +1 or -1).  A factor's code is the
byte the evaluation kernel reads: its A-exponent at s = +1, plus 3, with
bit 3 set for an f2 factor (a global -1).

==========  ====  =====================  ====================
kind        code  value at s = +1        value at s = -1
==========  ====  =====================  ====================
``APM``     4     A                      A^-1
``AMP``     2     A^-1                   A
``F2PM``    8     -A^-3                  -A^3
``F2MP``    14    -A^3                   -A^-3
``SKIP``    3     1 (slot must carry no crossing)
==========  ====  =====================  ====================

``F2PM``/``F2MP`` are the two one-crossing kink values; ``SKIP`` occupies a
slot position that the diagram family leaves without a crossing, so sign
sequences for such families align positionally with the full slot grid.

``UNITS`` holds the symbols every block is spelled over, keyed as printed
in the closed-form tables: the single factors (A^±, A^∓, f2^±, f2^∓, _) and
δ.  Every block, named or indexed, is spelled over these units in
``recursions``, which resolves each spelling to a flat term sum; evaluation
never recurses.  ``add_all`` sums any number of term sums with one join
per column, and ``product`` multiplies any number out as an outer product
of columns, by repeating each code and tiling the result, so both cost a
few steps per slot rather than one object per term.  Both take the width
from their parts, so only the public ``TermSum`` constructor checks terms
one by one.  A sum's skip layout is read off its columns' first codes.

Evaluation has one kernel, ``CompiledTermSum``: it packs a sum's columns
into big ints with one fixed-width field per term, so a sign vector costs
one big-int addition per slot at sign -1 and one ``Counter`` over the
fields; ``TermSum.evaluate`` packs afresh on each call.  Sign sequences are
checked by ``signseq.check_signs``, which admits only +1, -1 and None, the
values the packed columns rely on.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from enum import IntEnum
from typing import Iterable

from .laurent import LaurentPoly, delta_power
from .signseq import SignSeq, check_signs


class Factor(IntEnum):
    """A slot factor, valued as the code the packed kernel reads."""

    APM = 4  # A^(+s)
    AMP = 2  # A^(-s)
    F2PM = 8  # -A^(-3s)
    F2MP = 14  # -A^(+3s)
    SKIP = 3


_FACTOR_CODES = bytes(Factor)

#: ``bytes.translate`` table giving a term's skip mask: 1 at ``SKIP``, else 0.
_SKIP_MASK = bytes(code == Factor.SKIP for code in range(256))
_SKIP_CODE = bytes((Factor.SKIP,))

_FACTOR_TEXT = dict(zip(Factor, ("A^±", "A^∓", "f2^±", "f2^∓", "_")))


def _render_term(delta: int, codes: bytes) -> str:
    prefix = "δ" if delta == 1 else f"δ^{delta}" if delta else ""
    return f"{prefix}({','.join(_FACTOR_TEXT[f] for f in codes)})"


#: Array type code of the δ column, one machine int per term.
_DELTA = "I"
_DELTA_MAX = (1 << 8 * array(_DELTA).itemsize) - 1


def _delta_column(raw: bytes) -> array:
    """The δ column whose machine-int fields are ``raw``, copied once so
    that it keeps no spare capacity."""
    return array(_DELTA, raw) * 1


def _repeat(items, r: int):
    """``items``, a ``bytes`` or a δ array, with each item repeated r times,
    in min(len(items), r) slice assignments."""
    if r == 1:
        return items
    is_bytes = type(items) is bytes
    src = bytearray(items) if is_bytes else items
    out = src * r
    if len(src) <= r:
        for i in range(len(src)):
            out[i * r:(i + 1) * r] = src[i:i + 1] * r
    else:
        for k in range(r):
            out[k::r] = src
    return bytes(out) if is_bytes else out


class TermSum:
    """A finite sum of slot terms sharing one slot width, kept column-major:
    ``_columns`` holds one ``bytes`` per slot with that slot's factor code
    for each term, and ``_deltas`` the δ-powers as one machine-int array.

    ``deltas``, ``rows`` (one ``bytes`` of codes per term) and ``terms``
    (``(delta, row)`` pairs) are read-only tuple views, built on each read.
    Terms are kept literally as constructed (no cross-term simplification),
    so printed forms diff cleanly against the closed-form tables.
    """

    __slots__ = ("_columns", "_deltas", "width")

    def __init__(self, terms: Iterable[tuple[int, Iterable[Factor]]], width: int | None = None):
        pairs = [(d, bytes(f)) for d, f in terms]
        if width is None:
            if not pairs:
                raise ValueError("width required for an empty term sum")
            width = len(pairs[0][1])
        self.width = width
        mask = None
        for delta, row in pairs:
            if not isinstance(delta, int) or delta < 0:
                raise ValueError(f"delta exponent must be an int >= 0, got {delta!r}")
            if delta > _DELTA_MAX:
                raise ValueError(f"delta exponent {delta} overflows the δ column")
            if len(row) != width:
                raise ValueError(f"inconsistent widths: {len(row)} vs {width}")
            if row.translate(None, _FACTOR_CODES):
                raise ValueError("factor codes must be Factor values")
            if mask is None:
                mask = row.translate(_SKIP_MASK)
            elif row.translate(_SKIP_MASK) != mask:
                raise ValueError("terms disagree on skipped slot positions")
        self._deltas = array(_DELTA, [d for d, _ in pairs])
        codes = b"".join(row for _, row in pairs)
        self._columns = tuple(codes[i::width] for i in range(width))

    @classmethod
    def _trusted(cls, columns: tuple[bytes, ...], deltas: array, width: int) -> "TermSum":
        """A term sum of columns already known valid; nothing is re-checked."""
        ts = cls.__new__(cls)
        ts._columns, ts._deltas, ts.width = columns, deltas, width
        return ts

    @property
    def deltas(self) -> tuple[int, ...]:
        """The δ-powers, in term order; built on each read."""
        return tuple(self._deltas)

    @property
    def rows(self) -> tuple[bytes, ...]:
        """One ``bytes`` of factor codes per term, in order; built on each read."""
        w = self.width
        if not w:
            return (b"",) * len(self)
        flat = bytearray(len(self) * w)
        for i, column in enumerate(self._columns):
            flat[i::w] = column
        flat = bytes(flat)
        return tuple(flat[t:t + w] for t in range(0, len(flat), w))

    @property
    def terms(self) -> tuple[tuple[int, bytes], ...]:
        """The terms as ``(delta, row)`` pairs, in order; built on each read."""
        return tuple(zip(self.deltas, self.rows))

    @property
    def skip_positions(self) -> frozenset[int]:
        """The slots every term skips, read off the first term."""
        return frozenset(i for i, c in enumerate(self._columns) if c[:1] == _SKIP_CODE)

    def __len__(self) -> int:
        return len(self._deltas)

    def evaluate(self, signs: SignSeq | str) -> LaurentPoly:
        return CompiledTermSum(self).evaluate(signs)

    def canonical(self) -> tuple:
        """Order-free fingerprint: the multiset of (row, delta) pairs."""
        return tuple(sorted(zip(self.rows, self.deltas)))

    def render(self) -> str:
        return "+".join(map(_render_term, self.deltas, self.rows)) if len(self) else "0"

    def __repr__(self) -> str:
        return f"TermSum(width={self.width}, terms={len(self)})"


def add_all(parts: Iterable[TermSum]) -> TermSum:
    """Sum of term sums in one pass: one join per column.  A part's column
    is all skips or has none, so the parts' skip layouts agree exactly when
    every joined column is too; the terms themselves are not re-walked."""
    parts = list(parts)
    if not parts:
        raise ValueError("width required for an empty term sum")
    if len(parts) == 1:
        return parts[0]
    width = parts[0].width
    for part in parts:
        if part.width != width:
            raise ValueError("cannot add term sums of different widths")
    deltas = _delta_column(b"".join([part._deltas for part in parts]))
    columns = tuple(map(b"".join, zip(*[part._columns for part in parts])))
    for c in columns:
        if c.count(Factor.SKIP) not in (0, len(deltas)):
            raise ValueError("cannot add term sums with different skip layouts")
    return TermSum._trusted(columns, deltas, width)


def product(*sums: TermSum) -> TermSum:
    """Juxtaposition of any number of term sums; the width is the sum of the
    parts' widths.  Terms come in lexicographic order of the parts' term
    indices, the last part varying fastest.

    An outer product by byte repetition: part j's columns repeat each code
    once per term of the later parts, then tile once per term of the
    earlier ones, and the δ columns add as packed ints.  Raises
    ``ValueError`` if a δ-power would overflow the δ column.
    """
    if len(sums) == 1:
        return sums[0]
    n, width = 1, 0
    for s in sums:
        n *= len(s._deltas)
        width += s.width
    if not n:
        return TermSum._trusted((b"",) * width, array(_DELTA), width)
    columns: list[bytes] = []
    spread, shift, top, tile = [], 0, 0, 1
    for s in sums:
        m = len(s._deltas)
        if m == 1:
            columns += [c * n for c in s._columns] if n > 1 else s._columns
            shift += s._deltas[0]
            continue
        r = n // (tile * m)
        if r > 1:
            block, size = _repeat(b"".join(s._columns), r), m * r
            columns += [block[i:i + size] * tile for i in range(0, len(block), size)]
        else:
            columns += [c * tile for c in s._columns]
        most = max(s._deltas)
        if most:
            top += most
            spread.append(_repeat(s._deltas, r) * tile)
        tile *= m
    if shift + top > _DELTA_MAX:
        raise ValueError(f"δ-power {shift + top} of the product overflows the δ column")
    if shift or not spread:
        spread.append(array(_DELTA, [shift]) * n)
    if len(spread) == 1:
        deltas = spread[0]
    else:
        total = sum(int.from_bytes(d, sys.byteorder) for d in spread)
        deltas = _delta_column(total.to_bytes(n * spread[0].itemsize, sys.byteorder))
    return TermSum._trusted(tuple(columns), deltas, width)


#: Width-0 multiplicative unit.
EMPTY = TermSum([(0, ())])

APM, AMP, F2PM, F2MP, SKIP = (TermSum([(0, (f,))]) for f in Factor)

#: The units every block is spelled over, keyed by printed symbol: the five
#: one-slot factor sums and ``δ``, the width-0 sum δ^1·().
UNITS: dict[str, TermSum] = dict(zip(_FACTOR_TEXT.values(), (APM, AMP, F2PM, F2MP, SKIP)))
UNITS["δ"] = TermSum([(1, ())])


class CompiledTermSum:
    """A term sum packed once, for evaluation at any number of sign vectors.

    Term j owns field j of a few big ints: one ``_FIELD`` array item (4
    bytes), in native byte order, packed straight from the sum's columns:
    slot i's code column is spread into the fields as it is stored.  Its
    packed *column* holds, per term, the low three bits of the ``Factor``
    code: the A-exponent at sign +1 plus 3 (0 to 6; 3 at a skip); at sign
    -1 the slot gives ``SIX - column`` (``SIX``: 6 in every field).  At
    width w and r = 6w + 1, a term's *code* is then (2k + p)·r + e + 3w for
    δ-power k, f2 count p mod 2 and A-exponent e.  The base is the all-(+1)
    code; each slot at sign -1 adds ``SIX - 2·column`` to it.

    Exact: every code is below (2·max k + 2)·r, so no field carries while
    that is at most 2^32 (2 to the field's bits); past it the constructor
    raises ``ValueError``.  Partial sums may borrow across fields, but every
    field of the total is in range, so each code unpacks exactly.
    """

    _FIELD = "I"

    def __init__(self, ts: TermSum):
        self.width = w = ts.width
        self.skip_positions = ts.skip_positions
        self._r = r = 6 * w + 1
        size = array(self._FIELD).itemsize
        n = len(ts)
        self._bytes = n * size
        max_k = max(ts._deltas, default=0)
        if (2 * max_k + 2) * r > 1 << 8 * size:
            raise ValueError(f"width {w} at δ-power {max_k} overflows {8 * size}-bit fields")
        ones = int.from_bytes(array(self._FIELD, (1,)) * n, sys.byteorder)
        self._six, sevens = 6 * ones, 7 * ones
        buf = bytearray(self._bytes)
        low = 0 if sys.byteorder == "little" else size - 1
        self._columns, f2_bits = [], 0
        for column in ts._columns:
            buf[low::size] = column
            packed = int.from_bytes(buf, sys.byteorder)
            self._columns.append(packed & sevens)
            f2_bits ^= packed
        delta_fields = int.from_bytes(array(self._FIELD, ts._deltas), sys.byteorder)
        self._base = (2 * delta_fields + (f2_bits >> 3 & ones)) * r + sum(self._columns)

    def evaluate(self, signs: SignSeq | str) -> LaurentPoly:
        signs = check_signs(signs, self.width, self.skip_positions)
        minus = [c for s, c in zip(signs, self._columns) if s == -1]
        total = self._base + len(minus) * self._six - 2 * sum(minus)
        fields = array(self._FIELD, total.to_bytes(self._bytes, sys.byteorder))
        r, shift = self._r, 3 * self.width
        by_delta: dict[int, dict[int, int]] = {}
        for code, c in Counter(fields).items():
            key, e = divmod(code, r)  # key = 2k + p
            acc = by_delta.setdefault(key >> 1, {})
            acc[e - shift] = acc.get(e - shift, 0) + (-c if key & 1 else c)
        return sum((LaurentPoly(acc) * delta_power(k) for k, acc in by_delta.items()),
                   LaurentPoly.zero())
