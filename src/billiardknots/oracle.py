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
sum_pi delta^(L(pi) - 1) * prod_c A^(+1 if pi_c == eps_c else -1), i.e. the
2^k loop-count table L pushed through one 2x2 kernel [[A, A^-1], [A^-1, A]]
per crossing - a butterfly over the sign group, like a Walsh-Hadamard
transform.  L itself is built by the same per-crossing doubling, as whole
arrays of arc labels rather than one union-find per state.
``bracket_bruteforce`` stays deliberately plain - a walk of the smoothing
tree over one union-find, no numpy - since it is the oracle the fast paths
are judged against.
"""

from __future__ import annotations

from itertools import islice, product as iproduct
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np

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

#: Crossing-count limit of ``bracket_all_signs``: the sweep holds a 2^k loop
#: table and serves 2^k sign assignments from it.
SWEEP_LIMIT = 14


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


def _loops_table(d: BilliardDiagram) -> np.ndarray:
    """Loop count for every pairing vector pi over the crossings.

    One doubling pass per crossing: each row of ``lab`` labels every arc with
    a representative arc of its loop so far (the representative labels
    itself).  Crossing c applies each of its two pairings to every row, one
    relabelling per merged pair, and stacks the halves, so bit c of the row
    index picks crossing c's pairing.
    """
    import numpy as np  # imported where used: the closed forms never need it

    arcs = np.arange(d.arc_count)
    lab = arcs[None, :]
    for pairing in _arc_pairings(d):
        halves = []
        for pairs in pairing:
            half = lab
            for x, y in pairs:
                half = np.where(half == half[:, y, None], half[:, x, None], half)
            halves.append(half)
        lab = np.concatenate(halves)
    return (lab == arcs).sum(axis=1)


def bracket_all_signs(d: BilliardDiagram) -> dict[str, LaurentPoly]:
    """Brute-force bracket for every sign assignment of the diagram.

    k doubling passes over arc-label arrays fill the loop table
    (``_loops_table``); k butterfly passes over it (one per crossing) then
    give every sign assignment's bracket at once, keyed and ordered as
    ``sign_sequences``, with one shared polynomial per distinct bracket.
    The tests cross-check this against ``bracket_bruteforce`` runs and the
    loop table against a plain union-find.
    """
    import numpy as np  # imported where used: the closed forms never need it

    k = d.crossing_count
    if k > SWEEP_LIMIT:
        raise ValueError(f"crossing count {k} exceeds the sweep limit {SWEEP_LIMIT}")
    loops = _loops_table(d) + d.free_loops
    max_loops = int(loops.max())
    # After p passes, column j holds the coefficient of A^(2j - 2(max L - 1) - p)
    # (delta powers have even exponents), so the next pass multiplies by A^+1
    # with a one-column shift and by A^-1 with none; after all k passes
    # column j is A^(2j - off).  int64 is exact: every entry is at most
    # 2^k * 2^(max L - 1) = 2^(k + max L - 1) in magnitude.
    off = k + 2 * (max_loops - 1)
    seed = np.zeros((max_loops, off + 1), dtype=np.int64)
    for n in range(max_loops):
        for e, c in delta_power(n).terms.items():
            seed[n, e // 2 + max_loops - 1] = c
    coef = seed[loops - 1]
    for c in range(k):
        # Symmetric kernel: each half is the other plus itself shifted.
        pair = coef.reshape(-1, 2, 1 << c, off + 1)
        out = pair[:, ::-1].copy()
        out[..., 1:] += pair[..., :-1]
        coef = out.reshape(coef.shape)
    # Row index has crossing c at bit c; sign_sequences varies crossing 0
    # slowest, so reverse the bit axes.
    coef = coef.reshape((2,) * k + (off + 1,))
    coef = coef.transpose(tuple(reversed(range(k))) + (k,)).reshape(1 << k, off + 1)
    # Few rows are distinct: key each row by its bytes and build one
    # polynomial per distinct row, shared by every sign vector that has it.
    keys = coef.view(np.dtype((np.void, coef.strides[0]))).ravel().tolist()
    distinct = dict.fromkeys(keys)
    rows = np.frombuffer(b"".join(distinct), dtype=np.int64).reshape(-1, off + 1)
    # Strip zeros in numpy; nonzero() walks row-major, so each row's
    # exponents come out ascending.
    r, cols = np.nonzero(rows)
    exps = iter((2 * cols - off).tolist())
    vals = iter(rows[r, cols].tolist())
    counts = np.count_nonzero(rows, axis=1).tolist()
    poly = {
        key: LaurentPoly._raw(dict(zip(islice(exps, n), islice(vals, n))))
        for key, n in zip(distinct, counts)
    }
    return dict(zip(sign_sequences(d), map(poly.__getitem__, keys)))
