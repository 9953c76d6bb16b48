"""Crossing-sign sequences: parsing and the one check against a slot grid.

A sign sequence holds one entry per crossing slot: +1 or -1 for the slot's
crossing sign, None at a slot the diagram family leaves without a crossing.
As text it is a string over '+', '-' and '_'.  ``check_signs`` is the one
check of a sign sequence against a slot grid; it admits only +1, -1 and
None, which the packed evaluation kernel relies on.  The diagram layer and
the term calculus both import this module, and nothing else of the package
is loaded with it.
"""

from __future__ import annotations

Sign = int  # +1, -1, or None for a skipped slot
SignSeq = tuple  # tuple of Sign


def parse_signs(text: str) -> SignSeq:
    """Parse a sign string over '+', '-', '_' into (+1, -1, None) entries."""
    table = {"+": 1, "-": -1, "_": None}
    try:
        return tuple(table[ch] for ch in text)
    except KeyError as exc:
        raise ValueError(f"bad sign character {exc.args[0]!r} in {text!r}") from None


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
