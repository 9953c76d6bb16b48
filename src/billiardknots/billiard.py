"""Combinatorial billiard-table diagrams.

A height-a, width-b table is the rectangle [0,b] x [0,a].  The diagram is
the union of all unit diagonal steps whose endpoints (x, y) satisfy
x + y even; equivalently, every unit square contributes the one diagonal
lying on that even lattice.  Maximal paths through this step set under the
billiard dynamics (straight through 4-valent vertices, reflect at 2-valent
wall vertices, stop at 1-valent corner pockets) are the strands.  Crossings
are exactly the 4-valent vertices: interior integer points with x == y
(mod 2), giving (a-1)(b-1)/2 crossings when gcd(a,b) = 1.

Canonical crossing order is bottom-to-top within each column, columns left
to right, i.e. sorted by (x, y).

Bumpered tables remove one or two unit squares from the last column, from
the top exactly when (two bumpers) == (b odd) and from the bottom otherwise:
this parity rule lands the notch's interior corner on the odd lattice, away
from every crossing.

Crossing signs: a sign sequence assigns '+' or '-' to each crossing slot.
The global convention, calibrated once, is that '+' puts the NE-sloped
strand on top.  Under it the alternating 3-crossing table +-+ is the
right-handed trefoil with bracket -A^5 - A^-3 + A^-7 and writhe 3.

Closures add no crossings.  Open strands of rectangular and two-bumper
tables each close onto themselves (the long-knot closure at infinity).
One-bumper tables are 2-tangles; their four strand ends are paired by
position: for odd b, (0,0) with (b-1,0) and (b,1) with (b,a); for even b,
(0,0) with (b-1,a) and (b,0) with (b,a-1).  Each closure arc runs outside
the table, so it is a chord between two pockets on the boundary, and the
closure avoids every crossing exactly when no two chords interleave.  A table
whose chords interleave (T(4,b) with b = 4 mod 8: the two open strands' ends
alternate around the boundary) is rejected with ValueError.

Each component is traced in one oriented walk.  Open components start at
the lowest pocket not yet reached and chain strands through the closure,
each strand walked from the pocket its closure arc arrives at; closed
strands then start at their lowest vertex, leaving in the larger direction.
That walk is the single orientation of the diagram: the writhe, the PD and
Gauss codes and the arc ids all follow it.  Arcs are numbered along the
oriented components, so a component's pass j leaves on arc offset + j and
that arc enters its pass j + 1.
"""

from __future__ import annotations

from typing import Optional

from .signseq import SignSeq, check_signs

Vertex = tuple[int, int]
Dir = tuple[int, int]

# Ports in counterclockwise geometric order around a crossing.
NE, NW, SW, SE = 0, 1, 2, 3
_PORT_OF_DIR: dict[Dir, int] = {(1, 1): NE, (-1, 1): NW, (-1, -1): SW, (1, -1): SE}
_PORT_NAMES = ("NE", "NW", "SW", "SE")


def _slope(d: Dir) -> int:
    return 1 if d[0] == d[1] else -1


class TableSpec:
    """Size and bumper layout of a billiard table.

    ``bumpers`` counts squares removed from the last column; the parity rule
    (see module docstring) derives the ``side`` they are removed from.
    A spec is validated when built, immutable, and equal (and hash equal) to
    every spec with the same ``(a, b, bumpers)``.
    """

    __slots__ = ("a", "b", "bumpers")

    def __init__(self, a: int, b: int, bumpers: int = 0):
        for name, value in (("a", a), ("b", b), ("bumpers", bumpers)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"table {name} must be an int, got {value!r}")
        if a not in (3, 4, 5):
            raise ValueError(f"unsupported table height a={a}")
        if b < 1:
            raise ValueError("table width b must be >= 1")
        if bumpers not in (0, 1, 2):
            raise ValueError("bumpers must be 0, 1 or 2")
        if bumpers and a != 5:
            raise ValueError("bumpered tables are only supported at a=5")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "bumpers", bumpers)

    def __setattr__(self, name, value):
        raise AttributeError(f"TableSpec is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"TableSpec is immutable: cannot delete {name!r}")

    def _key(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.bumpers)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"TableSpec(a={self.a}, b={self.b}, bumpers={self.bumpers})"

    @property
    def side(self) -> Optional[str]:
        """The end of the last column the bumpers take, "top" or "bottom",
        by the parity rule; None without bumpers."""
        if not self.bumpers:
            return None
        return "top" if (self.bumpers == 2) == (self.b % 2 == 1) else "bottom"

    def removed_squares(self) -> set[tuple[int, int]]:
        if not self.bumpers:
            return set()
        col = self.b - 1
        if self.side == "top":
            return {(col, self.a - 1 - t) for t in range(self.bumpers)}
        return {(col, t) for t in range(self.bumpers)}

    def label(self) -> str:
        if not self.bumpers:
            return f"T({self.a},{self.b})"
        mark = "^" if self.side == "top" else "_"
        return f"B{mark}{self.bumpers}(5,{self.b})"


class Crossing:
    """One 4-valent vertex: grid position, incident arcs, and strand data."""

    __slots__ = ("index", "x", "y", "arcs", "dir_plus", "dir_minus", "weight")

    def __init__(self, index: int, x: int, y: int):
        self.index = index
        self.x = x
        self.y = y
        self.arcs = [-1, -1, -1, -1]
        # Direction of the slope +1 and slope -1 passes along their components.
        self.dir_plus = (1, 1)
        self.dir_minus = (1, -1)
        # Writhe contribution at sign '+' (slope +1 pass over): the sign of
        # dir_plus x dir_minus, set once the walk has oriented both passes.
        self.weight = -1


class BilliardDiagram:
    """Immutable combinatorial diagram of a rectangular or bumpered table."""

    def __init__(self, spec: TableSpec):
        self.spec = spec
        self._trace()
        # Each closure arc is a chord between two pockets.  Placed
        # counterclockwise from (0, 0) (a notch's corner sits between the
        # bottom or top edge and the right edge), the chords nest exactly
        # when matching their ends with a stack empties it.
        a, b = spec.a, spec.b

        def place(p: Vertex) -> int:
            x, y = p
            return x if y == 0 else 2 * b + a - x if y == a else b + y

        ends = sorted((place(p), i) for i, chord in enumerate(self._closures) for p in chord)
        stack: list[int] = []
        for _, i in ends:
            if stack and stack[-1] == i:
                stack.pop()
            else:
                stack.append(i)
        if stack:
            raise ValueError(
                f"{spec.label()} has no planar closure: its strand ends "
                "interleave on the boundary"
            )

    # -- construction -------------------------------------------------

    def _trace(self) -> None:
        a, b = self.spec.a, self.spec.b
        removed = self.spec.removed_squares()

        nbrs: dict[Vertex, list[Vertex]] = {}
        for i in range(b):
            for j in range(a):
                if (i, j) in removed:
                    continue
                if (i + j) % 2 == 0:
                    v, w = (i, j), (i + 1, j + 1)
                else:
                    v, w = (i, j + 1), (i + 1, j)
                nbrs.setdefault(v, []).append(w)
                nbrs.setdefault(w, []).append(v)
        for v, ns in nbrs.items():
            if len(ns) not in (1, 2, 4):
                raise AssertionError(f"vertex {v} has degree {len(ns)}")

        # A step is a unit diagonal, keyed by its endpoints in sorted order.
        steps = {(v, w) for v, ns in nbrs.items() for w in ns if v < w}
        used: set[tuple[Vertex, Vertex]] = set()

        def walk(v: Vertex, d: Dir) -> tuple[Optional[Vertex], list[tuple[Vertex, Dir]]]:
            """Follow the strand leaving v in direction d to a pocket (returned)
            or back onto its first step (None), listing its crossing passes."""
            passes: list[tuple[Vertex, Dir]] = []
            while True:
                w = (v[0] + d[0], v[1] + d[1])
                step = (v, w) if v < w else (w, v)
                if step in used:
                    return None, passes
                used.add(step)
                ns = nbrs[w]
                if len(ns) == 4:
                    passes.append((w, d))
                elif len(ns) == 2:
                    u = ns[0] if ns[1] == v else ns[1]
                    d = (u[0] - w[0], u[1] - w[1])
                else:
                    return w, passes
                v = w

        # Open components: strands chained pocket to pocket through the
        # closure, each entered at the pocket the previous closure arc reaches.
        pockets = sorted(v for v, ns in nbrs.items() if len(ns) == 1)
        partner = self._tangle_partners(pockets)
        comps: list[list[tuple[Vertex, Dir]]] = []
        closures: list[tuple[Vertex, Vertex]] = []
        for p in pockets:
            if any(p in pair for pair in closures):
                continue
            passes: list[tuple[Vertex, Dir]] = []
            q = p
            while True:
                (u,) = nbrs[q]
                end, seg = walk(q, (u[0] - q[0], u[1] - q[1]))
                passes.extend(seg)
                r = partner.get(end, q)
                closures.append((end, r) if end < r else (r, end))
                if r == p:
                    break
                q = r
            comps.append(passes)
        # Closed strands, each from its lowest vertex in the larger direction.
        while len(used) < len(steps):
            v0 = min(steps - used)[0]
            d0 = max(
                (w[0] - v0[0], w[1] - v0[1])
                for w in nbrs[v0]
                if ((v0, w) if v0 < w else (w, v0)) not in used
            )
            comps.append(walk(v0, d0)[1])
        self._closures = sorted(closures)

        # Crossings, canonically ordered.
        cross_pos = sorted(v for v, ns in nbrs.items() if len(ns) == 4)
        self.crossings = [Crossing(i, x, y) for i, (x, y) in enumerate(cross_pos)]
        self._index_of = {pos: i for i, pos in enumerate(cross_pos)}

        # Arcs numbered along the oriented components: pass j's out-port
        # starts arc offset + j, which ends at pass j+1's in-port.
        self._components = [comp for comp in comps if comp]
        self.free_loops = len(comps) - len(self._components)
        offset = 0
        for comp in self._components:
            m = len(comp)
            for j, (pos, d) in enumerate(comp):
                c = self.crossings[self._index_of[pos]]
                if _slope(d) == 1:
                    c.dir_plus = d
                else:
                    c.dir_minus = d
                c.arcs[_PORT_OF_DIR[(-d[0], -d[1])]] = offset + (j - 1) % m
                c.arcs[_PORT_OF_DIR[d]] = offset + j
            offset += m
        self.arc_count = offset
        for c in self.crossings:
            if -1 in c.arcs:
                raise AssertionError("unwired crossing port")
            (px, py), (mx, my) = c.dir_plus, c.dir_minus
            c.weight = 1 if px * my - py * mx > 0 else -1

        # Slot grid of the full rectangle; interior missing crossings become
        # skips, trailing ones are dropped.
        slots = [(x, y) for x in range(1, b) for y in range(1, a) if (x + y) % 2 == 0]
        while slots and slots[-1] not in self._index_of:
            slots.pop()
        self.slots = slots
        self.skip_positions = frozenset(
            i for i, pos in enumerate(slots) if pos not in self._index_of
        )
        if len(slots) - len(self.skip_positions) != len(self.crossings):
            raise AssertionError("crossing off the slot grid")

    def _tangle_partners(self, pockets: list[Vertex]) -> dict[Vertex, Vertex]:
        """Closure partner of each pocket of a one-bumper 2-tangle; empty
        when every open strand closes onto itself."""
        if self.spec.bumpers != 1 or len(pockets) != 4:
            return {}
        a, b = self.spec.a, self.spec.b
        if b % 2 == 1:
            pairs = [((0, 0), (b - 1, 0)), ((b, 1), (b, a))]
        else:
            pairs = [((0, 0), (b - 1, a)), ((b, 0), (b, a - 1))]
        partner = {}
        for u, v in pairs:
            if u not in pockets or v not in pockets:
                raise AssertionError(f"unexpected tangle ends {pockets}")
            partner[u], partner[v] = v, u
        return partner

    # -- public surface ------------------------------------------------

    @property
    def slot_count(self) -> int:
        return len(self.slots)

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    def component_count(self) -> int:
        return len(self._components) + self.free_loops

    def assign_signs(self, signs: SignSeq | str) -> "SignedDiagram":
        return SignedDiagram(self, signs)

    def json_dump(self) -> str:
        import json  # imported where used: nothing else in the package needs it

        data = {
            "schema": 2,
            "table": self.spec.label(),
            "a": self.spec.a,
            "b": self.spec.b,
            "bumpers": self.spec.bumpers,
            "side": self.spec.side,
            "slots": [
                {"index": i + 1, "x": x, "y": y, "skipped": i in self.skip_positions}
                for i, (x, y) in enumerate(self.slots)
            ],
            "crossings": [
                {
                    "index": c.index + 1,
                    "x": c.x,
                    "y": c.y,
                    "arcs": {name: c.arcs[p] for p, name in enumerate(_PORT_NAMES)},
                }
                for c in self.crossings
            ],
            "components": [
                [[list(pos), list(d)] for pos, d in comp] for comp in self._components
            ],
            "free_loops": self.free_loops,
            "closures": [[list(p), list(q)] for p, q in self._closures],
        }
        return json.dumps(data, sort_keys=True)


class SignedDiagram:
    """A diagram with one over/under resolution per crossing slot."""

    def __init__(self, diagram: BilliardDiagram, signs: SignSeq | str):
        self.diagram = diagram
        self.signs = check_signs(signs, diagram.slot_count, diagram.skip_positions)
        # Per crossing index (not slot), the sign.
        self.crossing_signs = tuple(s for s in self.signs if s is not None)

    def crossing_sign(self, index: int) -> int:
        """Writhe contribution of crossing ``index`` under the component orientation."""
        return self.crossing_signs[index] * self.diagram.crossings[index].weight

    def writhe(self) -> int:
        return sum(s * c.weight for s, c in zip(self.crossing_signs, self.diagram.crossings))

    def pd_code(self) -> str:
        """Planar-diagram code: per crossing, arcs counterclockwise from the
        incoming under-strand.  Crossing-free components appear as ``U``."""
        d = self.diagram
        body = []
        for c, s in zip(d.crossings, self.crossing_signs):
            under = c.dir_minus if s == 1 else c.dir_plus
            in_port = _PORT_OF_DIR[(-under[0], -under[1])]
            labels = (c.arcs[(in_port + k) % 4] + 1 for k in range(4))
            body.append("X[{},{},{},{}]".format(*labels))
        body.extend(["U"] * d.free_loops)
        return "PD[" + ", ".join(body) + "]"

    def gauss_code(self) -> str:
        """Extended Gauss code per component: O/U + crossing number + sign."""
        d = self.diagram
        parts = []
        for comp in d._components:
            toks = []
            for pos, dirn in comp:
                ci = d._index_of[pos]
                over = (self.crossing_signs[ci] == 1) == (_slope(dirn) == 1)
                sign = "+" if self.crossing_sign(ci) > 0 else "-"
                toks.append(f"{'O' if over else 'U'}{ci + 1}{sign}")
            parts.append(" ".join(toks))
        parts.extend(["U"] * d.free_loops)
        return "; ".join(parts)


def diagram(a: int, b: int, bumpers: int = 0) -> BilliardDiagram:
    """Convenience builder for ``BilliardDiagram(TableSpec(a, b, bumpers))``."""
    return BilliardDiagram(TableSpec(a, b, bumpers))
