"""The benchmark workloads: inputs drawn from a seed, set-up, one op, checks.

Every call into the package goes through ``tracer.call(stem, fn, *args)``,
where ``stem`` names the layer (package module) and the call, e.g.
``"recursions.build"``.  Untraced runs pass a tracer whose ``call`` only
calls ``fn``, so both runs execute the same code.

Only names the CLI ``bracket``/``jones`` routes rely on are used: ``diagram``,
the family functions, ``.evaluate``, ``assign_signs``/``writhe``,
``jones_normalize``, ``bracket_all_signs`` and ``bracket_bruteforce``
(plus ``component_count`` and ``json_pairs`` inside the checks).
"""

from __future__ import annotations

import random
from typing import NamedTuple

import billiardknots as bk


def family_fn(table):
    """Closed-form family function for a table, as ``cli._recursion_terms`` picks it."""
    a, _, bumpers = table
    if bumpers == 2:
        return bk.b_terms
    if bumpers == 1:
        return bk.bt_terms
    return bk.f_terms if a == 3 else bk.h_terms


def label(table) -> str:
    a, b, bumpers = table
    return f"B{bumpers}(5,{b})" if bumpers else f"T({a},{b})"


def random_signs(rng: random.Random, slot_count: int, skips) -> str:
    return "".join("_" if i in skips else rng.choice("+-") for i in range(slot_count))


def flat_terms(expansion) -> int:
    """Materialised term count of an expansion; 0 when it has no length."""
    try:
        return len(expansion)
    except TypeError:
        return 0


def v_at_one(jones) -> int:
    """The Jones polynomial at t = 1: the sum of its coefficients."""
    return sum(c for _, c in jones.json_pairs())


def writhe_of(d, signs: str) -> int:
    return d.assign_signs(signs).writhe()


class BracketOp(NamedTuple):
    """Result of one bracket + Jones query."""

    diagram: object
    signs: str
    bracket: object
    writhe: int
    jones: object


class Workload:
    """A closed loop with one client.

    Ops come in rounds: ``round()`` returns one ``(table, signs)`` input per
    table of the workload, in a seeded order, so every table is equally
    represented whatever the seed.  Inputs come from ``rng``, check samples
    from ``check_rng``.
    """

    clears_caches = False
    label = staticmethod(label)

    def __init__(self, seed: int, tracer):
        self.tr = tracer
        self.rng = random.Random(seed)
        self.check_rng = random.Random(seed ^ 0x5EED)


class _Bracket(Workload):
    """Shared check of cold- and warm-bracket ops."""

    #: One op in this many is also compared with ``bracket_bruteforce``.
    brute_every = 1

    def __init__(self, seed: int, tracer):
        super().__init__(seed, tracer)
        self.checked = 0
        self.brute_offset = self.check_rng.randrange(self.brute_every)

    def _finish(self, d, signs, bracket) -> BracketOp:
        tr = self.tr
        w = tr.call("billiard.sign", writhe_of, d, signs)
        jones = tr.call("laurent.jones", bk.jones_normalize, bracket, w)
        if tr.enabled:
            tr.count("laurent.bracket_terms", len(bracket.json_pairs()))
        return BracketOp(d, signs, bracket, w, jones)

    def check(self, res: BracketOp) -> str | None:
        d = res.diagram
        want = (-2) ** (d.component_count() - 1)
        if v_at_one(res.jones) != want:
            return f"V(1) = {v_at_one(res.jones)} != {want} at {res.signs}"
        self.checked += 1
        if self.checked % self.brute_every == self.brute_offset:
            sd = d.assign_signs(res.signs)
            oracle = self.tr.call("oracle.sweep", bk.bracket_bruteforce, sd)
            if self.tr.enabled:
                self.tr.count("oracle.states", 1 << d.crossing_count)
                self.tr.count("oracle.assignments", 1)
            if oracle != res.bracket:
                return f"bracket differs from bracket_bruteforce at {res.signs}"
        return None

    @staticmethod
    def corrupt(res: BracketOp) -> BracketOp:
        bracket = res.bracket + 1
        return res._replace(bracket=bracket, jones=bk.jones_normalize(bracket, res.writhe))


class ColdBracket(_Bracket):
    """One (table, signs) query from scratch, as one CLI ``bracket`` + ``jones`` call.

    Every package memo cache is cleared before each op, so the family
    expansion is rebuilt every time.
    """

    name = "cold-bracket"
    clears_caches = True
    brute_every = 24
    #: k = 7-14; a round costs ~0.6 s, so a 20 s run times each table ~30 times.
    TABLES = (
        [(3, b, 0) for b in range(10, 15, 2)]
        + [(5, b, 0) for b in range(5, 9)]
        + [(5, n, 2) for n in range(5, 9)]
        + [(5, n, 1) for n in range(5, 9)]
    )

    def setup(self) -> None:
        # Slot layouts only, so that sign strings can be drawn outside the
        # timed op; the op builds its own diagram.
        self.layout = {}
        for t in self.TABLES:
            d = bk.diagram(t[0], t[1], bumpers=t[2])
            self.layout[t] = (d.slot_count, d.skip_positions)

    def round(self):
        order = list(self.TABLES)
        self.rng.shuffle(order)
        return [(t, random_signs(self.rng, *self.layout[t])) for t in order]

    def op(self, inp) -> BracketOp:
        table, signs = inp
        a, b, bumpers = table
        tr = self.tr
        d = tr.call("billiard.diagram", bk.diagram, a, b, bumpers)
        expansion = tr.call("recursions.build", family_fn(table), b)
        if tr.enabled:
            tr.count("billiard.crossings", d.crossing_count)
            tr.count("recursions.flat_terms", flat_terms(expansion))
        bracket = tr.call("terms.eval", expansion.evaluate, signs)
        return self._finish(d, signs, bracket)


class WarmBracket(_Bracket):
    """Bracket + Jones of one random sign assignment on a table whose
    diagram and expansion were built in set-up (every assignment at once)."""

    name = "warm-bracket"
    brute_every = 100
    TABLES = [(3, 16, 0), (5, 8, 0), (5, 8, 2), (5, 8, 1)]

    def setup(self) -> None:
        tr = self.tr
        self.built = {}
        for t in self.TABLES:
            d = tr.call("billiard.diagram", bk.diagram, t[0], t[1], t[2])
            expansion = tr.call("recursions.build", family_fn(t), t[1])
            if tr.enabled:
                tr.count("billiard.crossings", d.crossing_count)
                tr.count("recursions.flat_terms", flat_terms(expansion))
            self.built[t] = (d, expansion)

    def round(self):
        order = list(self.TABLES)
        self.rng.shuffle(order)
        out = []
        for t in order:
            d = self.built[t][0]
            out.append((t, random_signs(self.rng, d.slot_count, d.skip_positions)))
        return out

    def op(self, inp) -> BracketOp:
        table, signs = inp
        d, expansion = self.built[table]
        bracket = self.tr.call("terms.eval", expansion.evaluate, signs)
        return self._finish(d, signs, bracket)


class OracleSweep(Workload):
    """``bracket_all_signs`` over one table: the oracle half of ``verify``."""

    name = "oracle-sweep"
    #: Entries per op compared with the closed-form expansion.
    SAMPLE = 3
    #: k = 7-9; a round costs ~0.3 s, so a 20 s run times each table ~60 times.
    TABLES = [(3, 8, 0), (3, 9, 0), (3, 10, 0),
              (5, 5, 0), (5, 5, 1), (5, 5, 2), (5, 6, 2)]

    def setup(self) -> None:
        tr = self.tr
        self.expansions = {}
        self.diagrams = {}
        for t in self.TABLES:
            d = tr.call("billiard.diagram", bk.diagram, t[0], t[1], t[2])
            if tr.enabled:
                tr.count("billiard.crossings", d.crossing_count)
            self.diagrams[t] = d

    def round(self):
        order = list(self.TABLES)
        self.rng.shuffle(order)
        return [(t, None) for t in order]

    def op(self, inp):
        table = inp[0]
        d = self.diagrams[table]
        out = self.tr.call("oracle.sweep", bk.bracket_all_signs, d)
        if self.tr.enabled:
            self.tr.count("oracle.states", 1 << d.crossing_count)
            self.tr.count("oracle.assignments", len(out))
        return table, out

    def check(self, res) -> str | None:
        table, out = res
        d = self.diagrams[table]
        tr = self.tr
        if len(out) != 1 << d.crossing_count:
            return f"{label(table)}: {len(out)} entries, want 2^{d.crossing_count}"
        if table not in self.expansions:
            expansion = tr.call("recursions.build", family_fn(table), table[1])
            if tr.enabled:
                tr.count("recursions.flat_terms", flat_terms(expansion))
            self.expansions[table] = expansion
        expansion = self.expansions[table]
        want_v1 = (-2) ** (d.component_count() - 1)
        keys = list(out)
        for signs in self.check_rng.sample(keys, self.SAMPLE):
            if tr.call("terms.eval", expansion.evaluate, signs) != out[signs]:
                return f"{label(table)}: oracle differs from the expansion at {signs}"
            w = tr.call("billiard.sign", writhe_of, d, signs)
            jones = tr.call("laurent.jones", bk.jones_normalize, out[signs], w)
            if tr.enabled:
                tr.count("laurent.bracket_terms", len(out[signs].json_pairs()))
            if v_at_one(jones) != want_v1:
                return f"{label(table)}: V(1) = {v_at_one(jones)} != {want_v1} at {signs}"
        return None

    @staticmethod
    def corrupt(res):
        table, out = res
        return table, {s: v + 1 for s, v in out.items()}


WORKLOADS = {w.name: w for w in (ColdBracket, WarmBracket, OracleSweep)}
