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

Bumpered tables remove one or two unit squares from the last column; the
side is forced by a parity rule so that the notch's interior corner lands on
the odd lattice, away from every crossing.

Crossing signs: a sign sequence assigns '+' or '-' to each crossing slot.
The global convention, calibrated once, is that '+' puts the NE-sloped
strand on top.  Under it the alternating 3-crossing table +-+ is the
right-handed trefoil with bracket -A^5 - A^-3 + A^-7 and writhe 3.

Closures add no crossings.  Open strands of rectangular and two-bumper
tables each close onto themselves (the long-knot closure at infinity).
One-bumper tables are 2-tangles; their four strand ends are paired by
position: for odd b, (0,0) with (b-1,0) and (b,1) with (b,a); for even b,
(0,0) with (b-1,a) and (b,0) with (b,a-1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .terms import SignSeq, parse_signs, signs_text

Vertex = tuple[int, int]
Dir = tuple[int, int]

# Ports in counterclockwise geometric order around a crossing.
NE, NW, SW, SE = 0, 1, 2, 3
_PORT_OF_DIR: dict[Dir, int] = {(1, 1): NE, (-1, 1): NW, (-1, -1): SW, (1, -1): SE}
_PORT_NAMES = ("NE", "NW", "SW", "SE")


def _slope(d: Dir) -> int:
    return 1 if d[0] == d[1] else -1


@dataclass(frozen=True)
class TableSpec:
    """Size and bumper layout of a billiard table.

    ``bumpers`` counts squares removed from the last column, ``side`` says
    from which end.  The side must satisfy the parity rule (see module
    docstring); :meth:`bumpered` picks it automatically.
    """

    a: int
    b: int
    bumpers: int = 0
    side: Optional[str] = None

    def __post_init__(self):
        if self.a not in (3, 4, 5):
            raise ValueError(f"unsupported table height a={self.a}")
        if self.b < 1:
            raise ValueError("table width b must be >= 1")
        if self.bumpers not in (0, 1, 2):
            raise ValueError("bumpers must be 0, 1 or 2")
        if self.bumpers:
            if self.a != 5:
                raise ValueError("bumpered tables are only supported at a=5")
            if self.side not in ("top", "bottom"):
                raise ValueError("bumpered tables need side='top' or 'bottom'")
            if self.side != _required_side(self.bumpers, self.b):
                raise ValueError(
                    "bumper side violates the parity rule: a crossing would "
                    "sit at the notch's interior corner"
                )
        elif self.side is not None:
            raise ValueError("side is only meaningful with bumpers")

    @classmethod
    def rect(cls, a: int, b: int) -> "TableSpec":
        return cls(a, b)

    @classmethod
    def bumpered(cls, b: int, bumpers: int) -> "TableSpec":
        """The B1/B2 table of width b with the side chosen by the parity rule."""
        return cls(5, b, bumpers, _required_side(bumpers, b))

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


def _required_side(bumpers: int, b: int) -> str:
    if bumpers == 2:
        return "top" if b % 2 == 1 else "bottom"
    return "bottom" if b % 2 == 1 else "top"


@dataclass
class Crossing:
    """One 4-valent vertex: grid position, incident arcs, and strand data."""

    index: int
    x: int
    y: int
    arcs: list[int] = field(default_factory=lambda: [-1, -1, -1, -1])
    # Traversal direction of the slope +1 and slope -1 passages.
    dir_plus: Dir = (1, 1)
    dir_minus: Dir = (1, -1)

    @property
    def position(self) -> Vertex:
        return (self.x, self.y)


@dataclass
class Slot:
    """A position of the full-table crossing grid; skipped when the bumper
    removes the crossing there but later slots survive."""

    x: int
    y: int
    real: bool
    crossing: int = -1  # index into the crossings list when real


class BilliardDiagram:
    """Immutable combinatorial diagram of a rectangular or bumpered table."""

    def __init__(self, spec: TableSpec):
        self.spec = spec
        self._trace()

    # -- construction -------------------------------------------------

    def _trace(self) -> None:
        a, b = self.spec.a, self.spec.b
        removed = self.spec.removed_squares()

        steps: set[tuple[Vertex, Vertex]] = set()
        incidence: dict[Vertex, list[tuple[Vertex, Vertex]]] = {}
        for i in range(b):
            for j in range(a):
                if (i, j) in removed:
                    continue
                if (i + j) % 2 == 0:
                    v, w = (i, j), (i + 1, j + 1)
                else:
                    v, w = (i, j + 1), (i + 1, j)
                steps.add((v, w))
                incidence.setdefault(v, []).append((v, w))
                incidence.setdefault(w, []).append((v, w))

        for v, inc in incidence.items():
            if len(inc) not in (1, 2, 4):
                raise AssertionError(f"vertex {v} has degree {len(inc)}")

        used: set[tuple[Vertex, Vertex]] = set()

        def walk(v0: Vertex, d0: Dir) -> dict:
            passes: list[tuple[Vertex, Dir]] = []
            v, d = v0, d0
            first: Optional[tuple[Vertex, Vertex]] = None
            while True:
                w = (v[0] + d[0], v[1] + d[1])
                step = (v, w) if (v, w) in steps else (w, v)
                if step == first:
                    return {"open": False, "start": v0, "passes": passes}
                if first is None:
                    first = step
                used.add(step)
                inc = incidence[w]
                if len(inc) == 4:
                    passes.append((w, d))
                    v = w
                elif len(inc) == 2:
                    other = inc[1] if inc[0] == step else inc[0]
                    u = other[1] if other[0] == w else other[0]
                    d = (u[0] - w[0], u[1] - w[1])
                    v = w
                else:
                    return {"open": True, "start": v0, "end": w, "passes": passes}

        trajectories: list[dict] = []
        pockets = sorted(v for v, inc in incidence.items() if len(inc) == 1)
        for p in pockets:
            (v, w) = incidence[p][0]
            if (v, w) in used:
                continue
            other = w if v == p else v
            trajectories.append(walk(p, (other[0] - p[0], other[1] - p[1])))
        while len(used) < len(steps):
            v0 = min(v for s in steps - used for v in s)
            dirs = sorted(
                (
                    (w[0] - v0[0], w[1] - v0[1])
                    for s in incidence[v0]
                    if s not in used
                    for w in s
                    if w != v0
                ),
                reverse=True,
            )
            trajectories.append(walk(v0, dirs[0]))
        self._trajectories = trajectories

        # Crossings, canonically ordered.
        cross_pos = sorted(v for v, inc in incidence.items() if len(inc) == 4)
        self.crossings = [Crossing(i, x, y) for i, (x, y) in enumerate(cross_pos)]
        index_of = {c.position: c.index for c in self.crossings}
        for t in trajectories:
            for pos, d in t["passes"]:
                c = self.crossings[index_of[pos]]
                if _slope(d) == 1:
                    c.dir_plus = d
                else:
                    c.dir_minus = d

        # Slot grid of the full rectangle; interior missing crossings become
        # skips, trailing ones are dropped.
        grid = sorted(
            (x, y)
            for x in range(1, b)
            for y in range(1, a)
            if (x + y) % 2 == 0
        )
        slots = [Slot(x, y, (x, y) in index_of, index_of.get((x, y), -1)) for x, y in grid]
        while slots and not slots[-1].real:
            slots.pop()
        self.slots = slots
        self.skip_positions = frozenset(i for i, s in enumerate(slots) if not s.real)
        if sum(s.real for s in slots) != len(self.crossings):
            raise AssertionError("crossing off the slot grid")

        self._assemble_arcs()

    def _closure_bonds(self) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        """Pairs of (trajectory, side) terminals joined by closure arcs."""
        open_ids = [i for i, t in enumerate(self._trajectories) if t["open"]]
        if self.spec.bumpers == 1 and len(open_ids) == 2:
            a, b = self.spec.a, self.spec.b
            if b % 2 == 1:
                pairs = [{(0, 0), (b - 1, 0)}, {(b, 1), (b, a)}]
            else:
                pairs = [{(0, 0), (b - 1, a)}, {(b, 0), (b, a - 1)}]
            ends = {}
            for i in open_ids:
                t = self._trajectories[i]
                ends[t["start"]] = (i, 0)
                ends[t["end"]] = (i, 1)
            bonds = []
            for pair in pairs:
                if not pair <= set(ends):
                    raise AssertionError(f"unexpected tangle ends {sorted(ends)}")
                u, v = sorted(pair)
                bonds.append((ends[u], ends[v]))
            return bonds
        return [((i, 0), (i, 1)) for i in open_ids]

    def _assemble_arcs(self) -> None:
        index_of = {c.position: c.index for c in self.crossings}
        subarcs: list[list] = []  # endpoints: ("P", crossing, port) or ("T", traj, side)
        terminal_at: dict[tuple[int, int], tuple[int, int]] = {}

        def port_end(pos: Vertex, d: Dir, incoming: bool):
            p = _PORT_OF_DIR[(-d[0], -d[1])] if incoming else _PORT_OF_DIR[d]
            return ("P", index_of[pos], p)

        free_loops = 0
        for ti, t in enumerate(self._trajectories):
            passes = t["passes"]
            if not passes:
                if t["open"]:
                    terminal_at[(ti, 0)] = (len(subarcs), 0)
                    terminal_at[(ti, 1)] = (len(subarcs), 1)
                    subarcs.append([("T", ti, 0), ("T", ti, 1)])
                else:
                    free_loops += 1
                continue
            points = []
            if t["open"]:
                points.append(("T", ti, 0))
            for pos, d in passes:
                points.append(port_end(pos, d, incoming=True))
                points.append(port_end(pos, d, incoming=False))
            if t["open"]:
                points.append(("T", ti, 1))
                chain = list(zip(points[0::2], points[1::2]))
            else:
                outs = points[1::2]
                ins = points[0::2]
                chain = list(zip(outs, ins[1:] + ins[:1]))
            for end_a, end_b in chain:
                for side, end in ((0, end_a), (1, end_b)):
                    if end[0] == "T":
                        terminal_at[(end[1], end[2])] = (len(subarcs), side)
                subarcs.append([end_a, end_b])

        self._closures = self._closure_bonds()
        bonds: dict[tuple[int, int], tuple[int, int]] = {}
        for t1, t2 in self._closures:
            bonds[t1] = t2
            bonds[t2] = t1

        # Stitch sub-arcs through terminal bonds into final arcs.
        arc_of_port: dict[tuple[int, int], int] = {}
        arcs: list[tuple] = []
        visited: set[tuple[int, int]] = set()  # (subarc, side) consumed
        for si, sa in enumerate(subarcs):
            for side in (0, 1):
                if (si, side) in visited or sa[side][0] != "P":
                    continue
                start = sa[side]
                cur, cside = si, side
                while True:
                    visited.add((cur, cside))
                    far = 1 - cside
                    visited.add((cur, far))
                    end = subarcs[cur][far]
                    if end[0] == "P":
                        break
                    partner = bonds[(end[1], end[2])]
                    cur, cside = terminal_at[partner]
                arc_id = len(arcs)
                arcs.append((start, end))
                arc_of_port[(start[1], start[2])] = arc_id
                arc_of_port[(end[1], end[2])] = arc_id
        # Terminal-only cycles left unvisited are crossing-free closed curves.
        seen_cycles = set()
        for si, sa in enumerate(subarcs):
            if (si, 0) in visited or sa[0][0] == "P" or si in seen_cycles:
                continue
            cur = si
            while cur not in seen_cycles:
                seen_cycles.add(cur)
                end = subarcs[cur][1]
                partner = bonds[(end[1], end[2])]
                cur = terminal_at[partner][0]
            free_loops += 1

        self.arc_count = len(arcs)
        self.free_loops = free_loops
        for (cross, port), arc in arc_of_port.items():
            self.crossings[cross].arcs[port] = arc
        if any(arc < 0 for c in self.crossings for arc in c.arcs):
            raise AssertionError("unwired crossing port")
        self._components = self._component_passes(bonds)

    def _component_passes(self, bonds) -> list[list[tuple[Vertex, Dir]]]:
        """Cyclic passage lists per closed component with at least one
        crossing, oriented by traversal of the lowest constituent strand."""
        comps: list[list[tuple[Vertex, Dir]]] = []
        done: set[int] = set()
        for ti, t in enumerate(self._trajectories):
            if ti in done:
                continue
            done.add(ti)
            if not t["open"]:
                if t["passes"]:
                    comps.append(list(t["passes"]))
                continue
            passes: list[tuple[Vertex, Dir]] = list(t["passes"])
            nxt, side = bonds[(ti, 1)]
            while nxt != ti:
                done.add(nxt)
                seq = self._trajectories[nxt]["passes"]
                if side == 0:
                    passes.extend(seq)
                    nxt, side = bonds[(nxt, 1)]
                else:
                    passes.extend((pos, (-d[0], -d[1])) for pos, d in reversed(seq))
                    nxt, side = bonds[(nxt, 0)]
            if passes:
                comps.append(passes)
        return comps

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

    def euler_check(self) -> bool:
        """Verify V - E + F = 1 + C for the 4-valent map (planarity witness)."""
        if not self.crossings:
            return True
        arc_ends: dict[int, list[tuple[int, int]]] = {}
        for c in self.crossings:
            for port, arc in enumerate(c.arcs):
                arc_ends.setdefault(arc, []).append((c.index, port))
        half = {(arc, i) for arc in arc_ends for i in range(len(arc_ends[arc]))}
        faces = 0
        pending = set(half)
        while pending:
            start = pending.pop()
            cur = start
            while True:
                arc, i = cur
                cross, port = arc_ends[arc][i]
                q = (port + 1) % 4
                arc2 = self.crossings[cross].arcs[q]
                ends = arc_ends[arc2]
                j = 0 if ends[0] == (cross, q) else 1
                cur = (arc2, 1 - j)
                if cur == start:
                    break
                pending.discard(cur)
            faces += 1
        # Connected components of the crossing graph.
        adj: dict[int, set[int]] = {c.index: set() for c in self.crossings}
        for arc, ends in arc_ends.items():
            (c1, _), (c2, _) = ends
            adj[c1].add(c2)
            adj[c2].add(c1)
        comps = 0
        todo = set(adj)
        while todo:
            comps += 1
            stack = [todo.pop()]
            while stack:
                for n in adj[stack.pop()]:
                    if n in todo:
                        todo.remove(n)
                        stack.append(n)
        v, e = len(self.crossings), len(arc_ends)
        return v - e + faces == 1 + comps

    def json_dump(self) -> str:
        data = {
            "schema": 1,
            "table": self.spec.label(),
            "a": self.spec.a,
            "b": self.spec.b,
            "bumpers": self.spec.bumpers,
            "side": self.spec.side,
            "slots": [
                {"index": i + 1, "x": s.x, "y": s.y, "skipped": not s.real}
                for i, s in enumerate(self.slots)
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
            "closures": [list(map(list, bond)) for bond in self._closures],
        }
        return json.dumps(data, sort_keys=True)


class SignedDiagram:
    """A diagram with one over/under resolution per crossing slot."""

    def __init__(self, diagram: BilliardDiagram, signs: SignSeq | str):
        if isinstance(signs, str):
            signs = parse_signs(signs)
        if len(signs) != diagram.slot_count:
            raise ValueError(
                f"sign sequence length {len(signs)} != slot count {diagram.slot_count}"
            )
        for i, s in enumerate(signs):
            if (s is None) != (i in diagram.skip_positions):
                raise ValueError(f"sign/skip mismatch at slot {i + 1}")
        self.diagram = diagram
        self.signs = tuple(signs)
        # Per crossing index (not slot), the sign.
        self.crossing_signs = tuple(
            s for s in signs if s is not None
        )

    def signs_text(self) -> str:
        return signs_text(self.signs)

    def crossing_sign(self, index: int) -> int:
        """Writhe contribution of crossing ``index`` under trajectory orientation."""
        c = self.diagram.crossings[index]
        if self.crossing_signs[index] == 1:
            over, under = c.dir_plus, c.dir_minus
        else:
            over, under = c.dir_minus, c.dir_plus
        return 1 if over[0] * under[1] - over[1] * under[0] > 0 else -1

    def writhe(self) -> int:
        return sum(self.crossing_sign(i) for i in range(len(self.diagram.crossings)))

    def is_over(self, index: int, slope: int) -> bool:
        """Whether the strand of the given slope is the over strand."""
        return (self.crossing_signs[index] == 1) == (slope == 1)

    def _arc_labels(self) -> tuple[dict[tuple[int, int], int], list[list[tuple]]]:
        """Label arcs 1..2k along each component's orientation."""
        d = self.diagram
        index_of = {c.position: c.index for c in d.crossings}
        labels: dict[tuple[int, int], int] = {}
        comps = []
        offset = 0
        for comp in d._components:
            entries = []
            m = len(comp)
            for j, (pos, dirn) in enumerate(comp):
                ci = index_of[pos]
                out_port = _PORT_OF_DIR[dirn]
                arc = d.crossings[ci].arcs[out_port]
                labels[(ci, out_port)] = offset + j + 1
                in_port = _PORT_OF_DIR[(-dirn[0], -dirn[1])]
                entries.append((ci, dirn, in_port, out_port, arc))
            comps.append(entries)
            offset += m
        # Incoming ports share the label of the arc that leaves the previous
        # crossing; resolve via the shared arc ids.
        arc_label: dict[int, int] = {}
        for comp in comps:
            for ci, dirn, in_port, out_port, arc in comp:
                arc_label[self.diagram.crossings[ci].arcs[out_port]] = labels[
                    (ci, out_port)
                ]
        return arc_label, comps

    def pd_code(self) -> str:
        """Planar-diagram code: per crossing, arcs counterclockwise from the
        incoming under-strand.  Crossing-free components appear as ``U``."""
        d = self.diagram
        arc_label, comps = self._arc_labels()
        tuples = [None] * len(d.crossings)
        for comp in comps:
            for ci, dirn, in_port, out_port, arc in comp:
                under_here = not self.is_over(ci, _slope(dirn))
                if under_here:
                    ports = [(in_port + k) % 4 for k in range(4)]
                    tuples[ci] = "X[{},{},{},{}]".format(
                        *(arc_label[d.crossings[ci].arcs[p]] for p in ports)
                    )
        body = [t for t in tuples if t]
        body.extend(["U"] * d.free_loops)
        return "PD[" + ", ".join(body) + "]"

    def gauss_code(self) -> str:
        """Extended Gauss code per component: O/U + crossing number + sign."""
        d = self.diagram
        index_of = {c.position: c.index for c in d.crossings}
        parts = []
        for comp in d._components:
            toks = []
            for pos, dirn in comp:
                ci = index_of[pos]
                over = self.is_over(ci, _slope(dirn))
                sign = "+" if self.crossing_sign(ci) > 0 else "-"
                toks.append(f"{'O' if over else 'U'}{ci + 1}{sign}")
            parts.append(" ".join(toks) if toks else "U")
        parts.extend(["U"] * d.free_loops)
        return "; ".join(parts)


def diagram(a: int, b: int, bumpers: int = 0) -> BilliardDiagram:
    """Convenience builder; picks the bumper side automatically."""
    spec = TableSpec.rect(a, b) if not bumpers else TableSpec.bumpered(b, bumpers)
    return BilliardDiagram(spec)


def writhe_direct(sd: SignedDiagram) -> int:
    """Sum of oriented crossing signs under the trajectory orientation."""
    return sd.writhe()
