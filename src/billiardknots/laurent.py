"""Exact Laurent polynomial arithmetic in the bracket variable A.

Bracket values live in Z[A, A^-1].  Coefficients are Python integers, so
every operation is exact at any magnitude (no overflow, no floats).  The
Jones normalization substitutes A = t^(-1/4), so a Jones polynomial is a
Laurent polynomial in t^(1/4): :class:`QuarterPoly`, a :class:`LaurentPoly`
whose exponent n stands for t^(n/4) and which only renders differently.
The two types never compare equal.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Iterable, Iterator, Mapping


def _render(monomials: Iterable[tuple[str, int]]) -> str:
    """Join (variable text, nonzero coefficient) pairs like ``-A^5 - 2A + 3``;
    an empty variable text is the constant term."""
    parts: list[str] = []
    for var, c in monomials:
        mag = abs(c)
        body = var if var and mag == 1 else f"{mag}{var}"
        if parts:
            parts.append(f" {'-' if c < 0 else '+'} {body}")
        else:
            parts.append(body if c > 0 else f"-{body}")
    return "".join(parts) or "0"


class LaurentPoly:
    """Integer Laurent polynomial, stored as a map exponent -> nonzero coefficient.

    The zero polynomial is the empty map.  Instances are value-like: no method
    mutates ``terms`` after construction, so they are safe to share and reuse.
    Exponents and coefficients must be plain ints (bools refused); arithmetic
    accepts only polynomials and ints.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        self.terms: dict[int, int] = {}
        for e, c in (terms or {}).items():
            if type(e) is not int or type(c) is not int:
                raise ValueError(f"Laurent terms must map int to int, got {e!r}: {c!r}")
            if c:
                self.terms[e] = c

    @classmethod
    def _raw(cls, terms: dict[int, int]) -> "LaurentPoly":
        p = cls.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._raw({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._raw({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> "LaurentPoly":
        return cls._raw({exponent: coefficient} if coefficient else {})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.terms == ({0: other} if other else {})
        if type(other) is type(self):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = self.monomial(0, other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        return self._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return self._raw({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = self.monomial(0, other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            if not other:
                return self.zero()
            return self._raw({e: c * other for e, c in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                v = out.get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                elif e in out:
                    del out[e]
        return self._raw(out)

    __rmul__ = __mul__

    def mirror(self) -> "LaurentPoly":
        """Substitute A -> A^-1 (the mirror image of a bracket value)."""
        return self._raw({-e: c for e, c in self.terms.items()})

    def exponents(self) -> list[int]:
        return sorted(self.terms, reverse=True)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self.terms.items(), reverse=True))

    def text(self) -> str:
        """Render like ``-A^5 - A^-3 + A^-7``, highest exponent first."""
        return _render(("" if e == 0 else "A" if e == 1 else f"A^{e}", c) for e, c in self)

    def json_pairs(self) -> list[list[int]]:
        """[[exponent, coefficient], ...] sorted descending by exponent."""
        return [[e, self.terms[e]] for e in self.exponents()]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.text()})"


#: delta = -A^2 - A^-2, the value of a disjoint unknot under stabilization.
DELTA = LaurentPoly({2: -1, -2: -1})


@lru_cache(maxsize=None)
def delta_power(k: int) -> LaurentPoly:
    """(-A^2 - A^-2)^k, exact and memoised.  An odd power is the one below it
    times δ and an even one the square of its half, so the recursion stays
    within 2·log2(k) calls."""
    if k < 0:
        raise ValueError("delta_power needs k >= 0")
    if k < 2:
        return DELTA if k else LaurentPoly.one()
    if k & 1:
        return delta_power(k - 1) * DELTA
    half = delta_power(k >> 1)
    return half * half


class QuarterPoly(LaurentPoly):
    """Laurent polynomial in t^(1/4): the exponent n stands for t^(n/4).

    Knot diagrams normalize to integer t-exponents; links may genuinely need
    halves.
    """

    __slots__ = ()

    def is_integral(self) -> bool:
        """True when every t-exponent is a whole integer."""
        return all(n % 4 == 0 for n in self.terms)

    def text(self) -> str:
        """Render like ``t + t^3 - t^4`` (ascending exponents, fractions reduced)."""

        def power(n: int) -> str:
            if n % 4:
                d = 4 // gcd(n, 4)
                return f"t^({n * d // 4}/{d})"
            return "" if n == 0 else "t" if n == 4 else f"t^{n // 4}"

        return _render((power(n), self.terms[n]) for n in sorted(self.terms))

    def json_pairs(self) -> list[list[int]]:
        """[[numerator-of-quarter-exponent, coefficient], ...] ascending."""
        return [[n, self.terms[n]] for n in sorted(self.terms)]


def jones_normalize(bracket: LaurentPoly, writhe: int) -> QuarterPoly:
    """Jones polynomial from a bracket value and the diagram writhe.

    Multiplies by (-A^-3)^writhe, then substitutes A = t^(-1/4): the
    A-exponent e becomes the t-exponent -e/4.
    """
    sign = -1 if writhe & 1 else 1
    normalized = bracket * LaurentPoly.monomial(-3 * writhe, sign)
    return QuarterPoly._raw({-e: c for e, c in normalized.terms.items()})


def coefficient_string(p: LaurentPoly) -> tuple[int, ...]:
    """Coefficients read from highest to lowest exponent over the support lattice.

    The lattice stride is the gcd of the gaps between consecutive exponents,
    so interior zeros on that lattice are included.  A one-term polynomial has
    no gaps and yields a single coefficient.
    """
    if not p.terms:
        raise ValueError("empty polynomial")
    exps = p.exponents()
    if len(exps) == 1:
        return (p.terms[exps[0]],)
    stride = 0
    for hi, lo in zip(exps, exps[1:]):
        stride = gcd(stride, hi - lo)
    return tuple(p.terms.get(e, 0) for e in range(exps[0], exps[-1] - 1, -stride))
