"""Dimension-vector shadows: Cartan and Coxeter matrices, knitting the
translation component of a hereditary algebra, and checking that the
degree-shift step iterates to the translation on the labeled orbit.

Only the action on dimension vectors and labels is represented; no
derived functor is ever computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotHereditary, NotUnimodular
from .linalg import mat_det, mat_inv, mat_mul, mat_vec
from .quiver import Quiver
from .rewriting import RewriteContext


def cartan_matrix(Q: Quiver):
    """C[i][j] = number of paths j -> i in the acyclic quiver Q (columns
    are dimension vectors of the indecomposable projectives)."""
    if not Q.is_acyclic():
        raise NotHereditary("Cartan matrix needs an acyclic quiver")
    n = len(Q.vertices)
    vidx = {v: i for i, v in enumerate(Q.vertices)}
    counts = [[0] * n for _ in range(n)]
    # path counts by dynamic programming along a topological order
    for j, v in enumerate(Q.vertices):
        # count paths from v to every vertex
        reach = {v: 1}
        frontier = {v: 1}
        while frontier:
            nxt = {}
            for src, mult in frontier.items():
                for ai in Q.arrows_by_source[src]:
                    t = Q.arrows[ai].target
                    nxt[t] = nxt.get(t, 0) + mult
            for t, m in nxt.items():
                reach[t] = reach.get(t, 0) + m
            frontier = nxt
        for t, m in reach.items():
            counts[vidx[t]][j] = m
    return counts


def coxeter_step(C):
    """(Phi, Phi_inverse) with Phi = -C^T C^{-1}, exact over the integers."""
    det = mat_det(C)
    if det not in (1, -1):
        raise NotUnimodular(f"Cartan determinant {det}")
    Cinv = mat_inv(C)
    Ct = [list(col) for col in zip(*C)]
    Phi = [[-x for x in row] for row in mat_mul(Ct, Cinv)]
    Phi_inv = mat_inv(Phi)
    Phi = [[int(x) for x in row] for row in Phi]
    Phi_inv = [[int(x) for x in row] for row in Phi_inv]
    return Phi, Phi_inv


@dataclass
class KnitNode:
    step: int
    vertex: object
    dimvec: tuple
    label: str


@dataclass
class KnitComponent:
    nodes: dict          # (step, vertex) -> KnitNode
    arrows: list         # ((step, v), (step', v')) pairs
    meshes: list         # (end_low, middles, end_high) node keys
    closed: bool         # True when the component closed up (finite type)

    def to_dot(self):
        lines = ["digraph knit {"]
        for (k, v), node in sorted(self.nodes.items(), key=lambda kv: str(kv)):
            lines.append(
                f'  "{k}:{v}" [label="{node.label}\\n{node.dimvec}"];')
        for a, b in self.arrows:
            lines.append(f'  "{a[0]}:{a[1]}" -> "{b[0]}:{b[1]}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def knit_component(Q: Quiver, steps, labels=None):
    """Knit the translation component of the hereditary algebra kQ.

    Nodes (k, i) carry the dimension vector of the k-th inverse translate
    of the i-th projective; arrows follow the quiver inside a step and
    cross to the next step backwards along the quiver.  Knitting stops
    early when a dimension vector leaves the positive cone (finite type).
    """
    if not Q.is_acyclic():
        raise NotHereditary("knitting needs an acyclic quiver")
    C = cartan_matrix(Q)
    _, Phi_inv = coxeter_step(C)
    n = len(Q.vertices)
    vidx = {v: i for i, v in enumerate(Q.vertices)}
    nodes, meshes = {}, []
    current = {v: tuple(C[i][vidx[v]] for i in range(n))
               for v in Q.vertices}
    closed = False
    for k in range(steps + 1):
        for v, d in current.items():
            label = labels(k, v) if labels else f"tau^-{k}P_{v}"
            nodes[(k, v)] = KnitNode(k, v, d, label)
        if k == steps or closed:
            break
        nxt = {}
        for v, d in current.items():
            vec = mat_vec(Phi_inv, [Fraction(x) for x in d])
            w = tuple(int(x) for x in vec)
            # a vector leaving the positive cone means the translate
            # vanished: the component closes up (finite type)
            if min(w) >= 0 and max(w) > 0:
                nxt[v] = w
            else:
                closed = True
        for v in Q.vertices:
            middles = [(k, Q.arrows[ai].source)
                       for ai in Q.arrows_by_target[v]]
            middles += [(k + 1, Q.arrows[ai].target)
                        for ai in Q.arrows_by_source[v]]
            meshes.append(((k, v), tuple(middles), (k + 1, v)))
        current = nxt
        if not current:
            break
    arrows = []
    for (k, v) in nodes:
        for ai in Q.arrows_by_target[v]:
            src = (k, v)
            tgt = (k, Q.arrows[ai].source)
            if tgt in nodes:
                arrows.append((src, tgt))
        for ai in Q.arrows_by_source[v]:
            tgt = (k + 1, Q.arrows[ai].target)
            if tgt in nodes:
                arrows.append(((k, v), tgt))
    meshes = [m for m in meshes
              if m[0] in nodes and m[2] in nodes
              and all(mid in nodes for mid in m[1])]
    return KnitComponent(nodes, arrows, meshes, closed)


def mesh_additive(component: KnitComponent):
    """Every mesh satisfies end + end = sum of middles on dim vectors."""
    for low, mids, high in component.meshes:
        if high not in component.nodes:
            continue
        lo = component.nodes[low].dimvec
        hi = component.nodes[high].dimvec
        total = [0] * len(lo)
        for m in mids:
            if m not in component.nodes:
                return False
            for i, x in enumerate(component.nodes[m].dimvec):
                total[i] += x
        if tuple(a + b for a, b in zip(lo, hi)) != tuple(total):
            return False
    return True


# ---------------------------------------------------------------------------
# the labeled orbit and the root verification
# ---------------------------------------------------------------------------

@dataclass
class OrbitLabel:
    i: int
    j: int

    def __str__(self):
        shift = f"[{self.j}]" if self.j else ""
        twist = f"(-{self.i})" if self.i >= 0 else f"({-self.i})"
        return f"R{twist}{shift}"


class DimVecOrbit:
    """Labels (i, j) with the one-step map i -> i+1 and the translation
    i -> i+a; the dimension vector of label (i, j) ignores j and is read
    off from the graded pieces of the presentation."""

    def __init__(self, pres, a, cap=None):
        self.pres = pres
        self.a = a
        if cap is None:
            cap = 2 * (a + 2)
        self.rc = RewriteContext(pres, cap)
        self._cache = {}

    def step(self, label: OrbitLabel) -> OrbitLabel:
        return OrbitLabel(label.i + 1, label.j)

    def translate(self, label: OrbitLabel) -> OrbitLabel:
        return OrbitLabel(label.i + self.a, label.j)

    def dimvec(self, label: OrbitLabel):
        """Entry at slot l is dim Hom(R(l), R(-i)) = dim R_{-(i+l)}; the
        shift [j] acts trivially on dimension-vector shadows."""
        i = label.i
        if i not in self._cache:
            vec = []
            for l in range(self.a):
                w = -(i + l)
                if w > 0:
                    vec.append(0)
                else:
                    if -w > self.rc.cap:
                        self.rc = RewriteContext(self.pres,
                                                 max(-w + 2, self.rc.cap))
                    vec.append(sum(self.rc.counts(w).values()))
            self._cache[i] = tuple(vec)
        return self._cache[i]


@dataclass
class RootReport:
    steps: int
    label_ok: bool
    dimvec_ok: bool
    failures: list
    orbit: DimVecOrbit   # with the vectors of the labels checked cached

    @property
    def passed(self):
        return self.label_ok and self.dimvec_ok


def verify_root(pres, a, steps, cap=None):
    """Check that iterating the one-step shift a times equals the
    translation, on labels and on dimension vectors.

    Label level: a applications of step send (i, j) to (i+a, j), which is
    the translation by construction; asserted anyway.  Dimension-vector
    level: the vector attached to (i+a, j) must equal the inverse Coxeter
    matrix applied to the one at (i, j), where the vectors are computed
    independently from the graded piece dimensions.
    """
    from .slice_algebras import build_A
    from .findim import gabriel_quiver

    orbit = DimVecOrbit(pres, a, cap=cap)
    A = build_A(pres, a, cap=max(2 * (a + 2), (cap or 0)))
    gq = gabriel_quiver(A)
    C = cartan_matrix(gq)
    _, Phi_inv = coxeter_step(C)

    label_ok = True
    for j in (0, 1):
        lab = OrbitLabel(0, j)
        stepped = lab
        for _ in range(a):
            stepped = orbit.step(stepped)
        if (stepped.i, stepped.j) != (orbit.translate(lab).i,
                                      orbit.translate(lab).j):
            label_ok = False

    failures = []
    for k in range(steps):
        lab = OrbitLabel(k, 0)
        v1 = orbit.dimvec(OrbitLabel(k + a, 0))
        v0 = orbit.dimvec(lab)
        pred = tuple(int(x) for x in
                     mat_vec(Phi_inv, [Fraction(t) for t in v0]))
        if pred != v1:
            failures.append((k, v0, pred, v1))
    return RootReport(steps, label_ok, not failures, failures, orbit)

