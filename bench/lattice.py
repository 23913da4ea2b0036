"""Seeded honeycomb dimers on the torus, and oracles for their answers.

The m x n honeycomb has black vertices b(i, j), white vertices w(i, j) and
three edges per black vertex:

    A(i, j): b(i, j) - w(i, j)
    B(i, j): b(i, j) - w(i + 1, j)
    C(i, j): b(i, j) - w(i, j + 1)      (indices mod m and n)

Every vertex lists its edges in the type order A, B, C, which is the lift
of ``data/hexagonal.dimer`` (one vertex pair, three edges, one hexagon) to
an m x n covering.  So the torus has 2mn vertices, 3mn edges and mn
hexagonal faces.

The seed changes only labels: the name prefixes of vertices and edges and
the cyclic start of every rotation.  Every answer is therefore the same for
every seed once names are mapped back through ``Lattice.canonical``.

Names are numbered row-major and the file declares everything in name
order, so that every seed asks the program for the same work.  The program
sorts by name: white vertices in the matching search, faces (rows of the
consistency LP) by their least dart.  Declaration order sets the LP's
columns, and Bland's rule makes the pivot count depend on that order.
Shuffled names and declarations gave the 5x5 LP 89-126 pivots instead of
62, took 7x7 from about 5 s to 14-33 s, and doubled the 5x5 matching
search on some seeds.  The cyclic starts change neither: the LP rows are
edge sets and the matching search is exhaustive.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache


class Lattice:
    """One relabelled honeycomb torus; canonical names are like 'A:i,j'."""

    def __init__(self, m, n, seed):
        self.m, self.n = m, n
        rng = random.Random(f"honeycomb-{m}x{n}-{seed}")
        blacks = [f"b:{i},{j}" for i in range(m) for j in range(n)]
        whites = [f"w:{i},{j}" for i in range(m) for j in range(n)]
        edges = {}  # canonical edge -> (black, white)
        for i in range(m):
            for j in range(n):
                b = f"b:{i},{j}"
                edges[f"A:{i},{j}"] = (b, f"w:{i},{j}")
                edges[f"B:{i},{j}"] = (b, f"w:{(i + 1) % m},{j}")
                edges[f"C:{i},{j}"] = (b, f"w:{i},{(j + 1) % n}")
        rotation = {}
        for i in range(m):
            for j in range(n):
                rotation[f"b:{i},{j}"] = [f"A:{i},{j}", f"B:{i},{j}",
                                          f"C:{i},{j}"]
                rotation[f"w:{i},{j}"] = [f"A:{i},{j}",
                                          f"B:{(i - 1) % m},{j}",
                                          f"C:{i},{(j - 1) % n}"]
        # hexagon (i, j), traced by hand with the program's convention
        # next(u -> v via e) = (v -> w via succ_v(e)), from A(i, j)
        faces = []
        for i in range(m):
            for j in range(n):
                up, right = (i - 1) % m, (j + 1) % n
                faces.append([f"A:{i},{j}", f"B:{up},{j}", f"C:{up},{j}",
                              f"A:{up},{right}", f"B:{up},{right}",
                              f"C:{i},{j}"])
        self.canon_edges = edges
        self.canon_rotation = rotation
        self.canon_faces = faces

        prefix = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz")
                         for _ in range(3))
        self.vertices = blacks + whites
        self.vname = {v: f"{prefix}v{k:04d}"
                      for k, v in enumerate(self.vertices)}
        self.ename = {e: f"{prefix}e{k:04d}" for k, e in enumerate(edges)}
        self.canonical = {v: k for k, v in self.ename.items()}
        self.canonical.update({v: k for k, v in self.vname.items()})
        self.starts = {v: rng.randrange(3) for v in rotation}

    def text(self):
        """The dimer in the ``.dimer`` file format."""
        lines = [f"# {self.m}x{self.n} honeycomb torus", "[vertices]"]
        for v in self.vertices:
            lines.append(f"{self.vname[v]} {'black' if v[0] == 'b' else 'white'}")
        lines.append("[edges]")
        for e, (b, w) in self.canon_edges.items():
            lines.append(f"{self.ename[e]} {self.vname[b]} {self.vname[w]}")
        lines.append("[rotation]")
        for v in self.vertices:
            rot = self.canon_rotation[v]
            k = self.starts[v]
            rot = rot[k:] + rot[:k]
            lines.append(f"{self.vname[v]}: "
                         + " ".join(self.ename[e] for e in rot))
        return "\n".join(lines) + "\n"

    # -- oracles --------------------------------------------------------

    def check_validate(self, report):
        """`dimer validate` must find chi = 0 and mn hexagons."""
        want = {"V": 2 * self.m * self.n, "E": 3 * self.m * self.n,
                "F": self.m * self.n, "chi": 0,
                "face_sizes": [6] * (self.m * self.n)}
        got = {k: report.get(k) for k in want}
        return None if got == want else f"validate gave {got}, want {want}"

    def check_charge(self, answer):
        """Feasible with margin 2/3; every charge checked by substitution
        into the vertex sums (= 2) and the hexagon sums of 1 - R (= 2)."""
        if answer.get("feasible") is not True:
            return "consistency: not feasible"
        if Fraction(answer.get("margin", "0")) != Fraction(2, 3):
            return f"consistency: margin {answer.get('margin')} != 2/3"
        raw = answer.get("rcharge", {})
        if set(raw) != set(self.ename.values()):
            return "consistency: charge keys are not the edge set"
        charge = {self.canonical[e]: Fraction(c) for e, c in raw.items()}
        if min(charge.values()) <= 0:
            return "consistency: non-positive charge"
        for v, rot in self.canon_rotation.items():
            if sum(charge[e] for e in rot) != 2:
                return f"consistency: vertex sum at {v} != 2"
        for face in self.canon_faces:
            if sum(1 - charge[e] for e in face) != 2:
                return f"consistency: face sum at {face[0]} != 2"
        return None

    def check_matchings(self, answer):
        """Every listed matching is perfect, none repeats, and the count
        equals an independent dynamic-programming count."""
        ms = answer.get("matchings", [])
        if answer.get("truncated") is not False or answer.get("count") != \
                len(ms):
            return "matchings: truncated or miscounted"
        nverts = 2 * self.m * self.n
        seen = set()
        for mt in ms:
            covered = set()
            for e in mt:
                covered.update(self.canon_edges[self.canonical[e]])
            if len(mt) != nverts // 2 or len(covered) != nverts:
                return "matchings: a listed matching is not perfect"
            seen.add(frozenset(mt))
        if len(seen) != len(ms):
            return "matchings: repeated matching"
        want = self.matching_count()
        if len(ms) != want:
            return f"matchings: count {len(ms)} != {want}"
        return None

    def matching_count(self):
        """Perfect matchings counted by a DP over whites, independent of
        the backtracking enumeration in the program."""
        whites = sorted({w for _, w in self.canon_edges.values()},
                        key=lambda w: tuple(map(int, w[2:].split(","))))
        options = {w: [] for w in whites}
        for b, w in self.canon_edges.values():
            options[w].append(b)
        # a black leaves the state once no later white can take it; with
        # as many whites as blacks, matching every white covers every black
        last_use = {}
        for k, w in enumerate(whites):
            for b in options[w]:
                last_use[b] = k

        @lru_cache(maxsize=None)
        def count(k, used):
            if k == len(whites):
                return 1
            total = 0
            for b in options[whites[k]]:
                if b in used:
                    continue
                nxt = frozenset(x for x in used | {b} if last_use[x] > k)
                total += count(k + 1, nxt)
            return total

        return count(0, frozenset())
