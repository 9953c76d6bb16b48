"""Ground-truth Kauffman bracket by exhaustive smoothing.

The state sum runs over all 2^k smoothing choices.  Each state contributes
A^(#A - #B) * delta^(loops - 1), the loop count coming from a union-find over
the diagram's arcs plus its free loops (closed strands through no crossing);
the unknot normalizes to 1.  A diagram with no crossing is the one state of
its free loops, so both routes count it as they count the rest.

At a crossing whose over strand has slope +1, the A-smoothing joins the
(SE,NE) and (NW,SW) port pairs; with the slope -1 strand on top the two
smoothings swap.  Which strand is on top is set by the crossing's sign
('+' puts the NE-sloped strand over), so the pairing applied at crossing c
in state sigma depends only on sign(c) xor sigma(c).  ``bracket_all_signs``
exploits that: with pi = sigma xor eps, the bracket of sign vector eps is
sum_pi delta^(L(pi) - 1) * prod_c A^(+1 if pi_c == eps_c else -1), run as a
transfer matrix over frontier matchings (Kauffman's state model, 1987): one
pass over the crossings finds the states, a second carries per state one
int with a row of packed coefficients per sign prefix.  ``bracket_bruteforce``
stays deliberately plain - a walk of the smoothing tree over one union-find -
since it is the oracle the fast paths are judged against.
"""

from __future__ import annotations

from itertools import product as iproduct
from struct import Struct
from typing import Iterator, Optional, Sequence

from .billiard import NE, NW, SE, SW, BilliardDiagram, SignedDiagram
from .laurent import LaurentPoly, delta_power

#: Port pairs for the two smoothings: index 0 when the NE-sloped strand is
#: over and the state picks A (or the NW-sloped strand is over and the state
#: picks B); index 1 otherwise.
_PAIRING_V = ((SE, NE), (NW, SW))
_PAIRING_H = ((NE, NW), (SW, SE))

#: Crossing-count limit of ``bracket_bruteforce``: its smoothing tree has
#: 2^k leaves.
ORACLE_LIMIT = 24

#: Crossing-count limit of ``bracket_all_signs``: per frontier state, it holds
#: one int of 2^k rows, one per sign assignment.
SWEEP_LIMIT = 14

#: Width of one packed coefficient field of ``bracket_all_signs``.  The
#: packed ints are exact whatever the fields hold mid-sweep (shifts and sums
#: are plain integer arithmetic), so only the final brackets must fit: over
#: every table the sweep accepts, the largest |coefficient| is 118 (T(5,8)),
#: and the tests check this width against 64-bit fields on each of them.
_FIELD_BITS = 16


def _arc_pairings(d: BilliardDiagram) -> list[tuple[tuple[int, int], ...]]:
    """Per crossing, the two smoothing pairings as arc-id pairs."""
    table = []
    for c in d.crossings:
        v = tuple((c.arcs[p], c.arcs[q]) for p, q in _PAIRING_V)
        h = tuple((c.arcs[p], c.arcs[q]) for p, q in _PAIRING_H)
        table.append((v, h))
    return table


def bracket_bruteforce(
    sd: SignedDiagram, order: Optional[Sequence[int]] = None
) -> LaurentPoly:
    """Kauffman bracket by summing all 2^k smoothing states.

    A depth-first walk of the smoothing tree over one union-find: crossings
    are smoothed in ``order`` (the result provably does not depend on it;
    exposed so tests can check), A first, and merges are undone on the way
    back up.
    """
    d = sd.diagram
    k = d.crossing_count
    if k > ORACLE_LIMIT:
        raise ValueError(f"crossing count {k} exceeds the oracle limit {ORACLE_LIMIT}")

    pairings = _arc_pairings(d)
    seq = list(order) if order is not None else list(range(k))
    if sorted(seq) != list(range(k)):
        raise ValueError("order must be a permutation of the crossings")
    # Per step, A's then B's arc pairs; a '-' crossing swaps them (_PAIRING_V).
    steps = [pairings[c][:: sd.crossing_signs[c]] for c in seq]
    parent = list(range(d.arc_count))
    tally: dict[tuple[int, int], int] = {}

    def walk(depth: int, exp: int, loops: int) -> None:
        if depth == k:
            tally[exp, loops] = tally.get((exp, loops), 0) + 1
            return
        for pairs, e in zip(steps[depth], (exp + 1, exp - 1)):
            merged = []
            for x, y in pairs:
                while parent[x] != x:
                    x = parent[x]
                while parent[y] != y:
                    y = parent[y]
                if x != y:
                    parent[x] = y
                    merged.append(x)
            walk(depth + 1, e, loops - len(merged))
            for x in merged:
                parent[x] = x

    walk(0, 0, d.arc_count + d.free_loops)
    total = LaurentPoly.zero()
    for (exp, loops), count in tally.items():
        total = total + LaurentPoly.monomial(exp, count) * delta_power(loops - 1)
    return total


def sign_sequences(d: BilliardDiagram) -> Iterator[str]:
    """All sign strings for the diagram's slots, skips fixed, '+' first."""
    skips = d.skip_positions
    choices = ("_" if i in skips else "+-" for i in range(d.slot_count))
    return map("".join, iproduct(*choices))


def _moves(d: BilliardDiagram) -> tuple[list[dict], int]:
    """Pass 1 of the sweep, crossing k-1 down to 0: per crossing, each frontier
    state's (successor, loops closed) under the V and the H pairing of
    ``_arc_pairings``; and the most loops any pairing vector closes.  A state
    matches up the frontier arcs (those with exactly one end contracted) that
    the contracted strands join, as each frontier arc's partner in arc order.
    """
    steps, front = [], ()
    most = {(): 0}  # per state, the most loops any prefix reaching it closed
    for pairings in reversed(_arc_pairings(d)):
        ends = [x for pair in pairings[0] for x in pair]
        after = sorted(set(front) ^ {x for x in ends if ends.count(x) == 1})
        moves, reach = {}, {}
        for st, m in most.items():
            moves[st] = succ = []
            for pairs in pairings:
                mate, loops = dict(zip(front, st)), 0
                for x, y in pairs:
                    # An arc not yet in the matching is its own other end.
                    a, b = mate.pop(x, x), mate.pop(y, y)
                    if a == y:
                        loops += 1
                    else:
                        mate[a], mate[b] = b, a
                t = tuple(map(mate.__getitem__, after))
                if reach.get(t, -1) < m + loops:
                    reach[t] = m + loops
                succ.append((t, loops))
        steps.append(moves)
        front, most = after, reach
    return steps, most[()]


def bracket_all_signs(d: BilliardDiagram) -> dict[str, LaurentPoly]:
    """Brute-force bracket for every sign assignment of the diagram, keyed and
    ordered as ``sign_sequences``, one shared polynomial per distinct bracket.
    Pass 2 of the sweep carries each frontier state of ``_moves`` as one int
    of packed rows, one per sign prefix.
    """
    k = d.crossing_count
    if k > SWEEP_LIMIT:
        raise ValueError(f"crossing count {k} exceeds the sweep limit {SWEEP_LIMIT}")
    steps, most = _moves(d)
    # A row is A^-k times a polynomial in A^2, field j holding the
    # coefficient of A^(2(j - lo) - k).  An A-smoothing shifts a row up one
    # field and each delta spreads it one field each way; no row carries
    # more than lo deltas, so none runs off its n fields.
    lo = d.free_loops + most - 1
    n = 2 * lo + k + 1
    bits = _FIELD_BITS

    def spread(row: int, deltas: int) -> int:
        for _ in range(deltas):
            row = -(row >> bits) - (row << bits)
        return row

    # The last join closes the last loop and carries no delta, so nothing
    # divides by delta; with no join, the seed is the free loops' delta^(L-1).
    rows = {(): spread(1 << (bits * lo), d.free_loops - (not k))}
    for i, moves in enumerate(steps):
        shift, last = (n * bits) << i, i == k - 1
        # Per successor, the rows entering it under V and under H.  The sign
        # doubles the rows, '-' on top; V's '+' half and H's '-' half take A.
        acc: dict[tuple, list[int]] = {}
        for st, ((tv, nv), (th, nh)) in moves.items():
            row = rows[st]
            acc.setdefault(tv, [0, 0])[0] += spread(row, nv - last)
            acc.setdefault(th, [0, 0])[1] += spread(row, nh - last)
        rows = {t: ((v + (h << shift)) << bits) + h + (v << shift) for t, (v, h) in acc.items()}
    # Biasing every field by 2^(bits - 1) makes it a plain digit; flipping
    # the digit's top bit then leaves the field in two's complement.
    size = n * bits // 8
    bias = int.from_bytes((bytes(bits // 8 - 1) + b"\x80") * (n << k), "little")
    blob = ((rows[()] + bias) ^ bias).to_bytes(size << k, "little")
    keys = [blob[i : i + size] for i in range(0, len(blob), size)]
    fields = Struct(f"<{n}{'bhiq'[bits.bit_length() - 4]}").unpack
    exps = range(-2 * lo - k, n, 2)
    poly = {key: LaurentPoly._raw({e: c for e, c in zip(exps, fields(key)) if c})
            for key in dict.fromkeys(keys)}
    return dict(zip(sign_sequences(d), map(poly.__getitem__, keys)))
