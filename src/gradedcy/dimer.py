"""Dimer models on the two-torus.

A dimer model is a finite bipartite graph with a rotation system (cyclic
order of incident edges at every vertex).  Faces are traced from the
rotation system; the model is valid when the graph is bipartite and the
Euler characteristic V - E + F vanishes.

Orientation conventions (fixed once, verified against the worked corpus):
face tracing follows next(u -> v via e) = (v -> w via succ_v(e)); the dual
arrow of an edge runs from the face containing its black-to-white dart to
the face containing its white-to-black dart; white cycles of the potential
traverse the rotation order backwards, black cycles forwards.

`write_matchings_json` writes the `dimer matchings` answer to a text
stream in blocks of `_BLOCK` matchings, byte for byte the text that
`json.dumps(..., indent=2, sort_keys=True)` and `print` gave.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice
from json.encoder import encode_basestring_ascii

from .errors import Inhomogeneous, NotBipartite, NotTorus, ParseError
from .quiver import Arrow, CYData, GradedQuiverPresentation, NCPoly, \
    PathAlgebraContext, Quiver, _once, _sections
from .simplex import _check, solve_lp


DimerEdge = namedtuple("DimerEdge", "name black white")


class DimerModel:
    def __init__(self, colors, edges, rotation):
        """colors: vertex -> 'black'|'white'; edges: list of DimerEdge;
        rotation: vertex -> cyclic list of edge names incident to it."""
        self.colors = dict(colors)
        self.edges = list(edges)
        self.edge_index = {e.name: i for i, e in enumerate(self.edges)}
        if len(self.edge_index) != len(self.edges):
            raise ValueError("duplicate edge names")
        for e in self.edges:
            if self.colors.get(e.black) != "black" or \
                    self.colors.get(e.white) != "white":
                raise NotBipartite(
                    f"edge {e.name} must join a black vertex to a white one")
        self.rotation = {v: list(r) for v, r in rotation.items()}
        incident = {v: [] for v in self.colors}
        for e in self.edges:
            incident[e.black].append(e.name)
            incident[e.white].append(e.name)
        for v in self.colors:
            incident[v].sort()
            listed = sorted(self.rotation.get(v, []))
            if incident[v] != listed:
                raise ValueError(
                    f"rotation at {v} lists {listed}, incident {incident[v]}")

    def ends(self, edge_name):
        e = self.edges[self.edge_index[edge_name]]
        return e.black, e.white

    def other(self, edge_name, v):
        b, w = self.ends(edge_name)
        if v == b:
            return w
        if v == w:
            return b
        raise ValueError(f"vertex {v} is not an end of edge {edge_name}")

    # -- face tracing -----------------------------------------------------

    def faces(self):
        """Orbits of darts under next(u->v, e) = (v->w, succ_v(e)).

        Returns a list of faces, each a list of darts (edge, frm, to).
        """
        darts = []
        for e in self.edges:
            darts.append((e.name, e.black, e.white))
            darts.append((e.name, e.white, e.black))
        succ = {}
        for v, rot in self.rotation.items():
            n = len(rot)
            for i, e in enumerate(rot):
                succ[(v, e)] = rot[(i + 1) % n]
        used = set()
        faces = []
        for start in sorted(darts):
            if start in used:
                continue
            face = []
            d = start
            while True:
                face.append(d)
                used.add(d)
                e, frm, to = d
                e2 = succ[(to, e)]
                d = (e2, to, self.other(e2, to))
                if d == start:
                    break
            faces.append(face)
        return faces

    def validate(self):
        """Face list plus the Euler characteristic report; NotTorus if
        V - E + F is nonzero."""
        faces = self.faces()
        V, E, F = len(self.colors), len(self.edges), len(faces)
        chi = V - E + F
        report = {"V": V, "E": E, "F": F, "chi": chi,
                  "face_sizes": sorted(len(f) for f in faces)}
        if chi != 0:
            raise NotTorus(f"Euler characteristic {chi} != 0: {report}")
        return faces, report


class QuiverWithPotential(namedtuple("QuiverWithPotential",
                                    "quiver potential")):
    """A quiver and its potential, a list of (sign, tuple of arrow names,
    dimer vertex)."""

    __slots__ = ()


def dual_qp(dimer: DimerModel) -> QuiverWithPotential:
    """Dual quiver with potential; one arrow per edge, one cycle per dimer
    vertex, white cycles minus black cycles."""
    faces, _ = dimer.validate()
    face_of_dart = {}
    for fi, face in enumerate(faces):
        for d in face:
            face_of_dart[d] = fi
    vertices = [f"f{i+1}" for i in range(len(faces))]
    arrows = []
    for e in dimer.edges:
        src = face_of_dart[(e.name, e.black, e.white)]
        tgt = face_of_dart[(e.name, e.white, e.black)]
        arrows.append(Arrow(e.name, f"f{src+1}", f"f{tgt+1}", 0))
    quiver = Quiver(vertices, arrows)

    potential = []
    for v, rot in dimer.rotation.items():
        order = list(reversed(rot)) if dimer.colors[v] == "white" else \
            list(rot)
        # rotate so the cycle is a composable arrow word
        cyc = tuple(order)
        sign = 1 if dimer.colors[v] == "white" else -1
        potential.append((sign, cyc, v))
    qp = QuiverWithPotential(quiver, potential)
    _check_potential(qp)
    return qp


def _check_potential(qp: QuiverWithPotential):
    """Cycles must compose and each arrow must lie in exactly one white and
    one black cycle."""
    quiver = qp.quiver
    seen = {a.name: {1: 0, -1: 0} for a in quiver.arrows}
    for sign, cyc, v in qp.potential:
        for i, name in enumerate(cyc):
            nxt = cyc[(i + 1) % len(cyc)]
            if quiver.arrow(name).target != quiver.arrow(nxt).source:
                raise ValueError(
                    f"potential cycle at {v} does not compose: "
                    f"{name} then {nxt}")
            seen[name][sign] += 1
    for name, counts in seen.items():
        if counts[1] != 1 or counts[-1] != 1:
            raise ValueError(
                f"arrow {name} lies in {counts[1]} white and {counts[-1]} "
                "black cycles")


# ---------------------------------------------------------------------------
# consistency via exact LP
# ---------------------------------------------------------------------------

# rcharge: edge -> Fraction, all > 0, or None; margin: the maximized
# minimum of the charges, or None; certificate: a Farkas vector or the
# optimal dual bound, or None
Consistency = namedtuple("Consistency", "feasible rcharge margin certificate")


def consistency_check(dimer: DimerModel) -> Consistency:
    """Maximize t subject to R(e) >= t, vertex sums 2, and face sums of
    (1 - R) equal to 2, exactly over the rationals.

    Substituting R(e) = t + s(e) with s >= 0 and t free (t = tp - tm)
    puts the problem in standard form.  Feasible means optimum t > 0; the
    returned charge satisfies both constraint families exactly.
    """
    faces, _ = dimer.validate()
    eidx = dimer.edge_index
    nE = len(eidx)
    # variables: s_e (nE), tp, tm
    rows, rhs = [], []
    for v, rot in dimer.rotation.items():
        row = [0] * (nE + 2)
        for e in rot:
            row[eidx[e]] += 1
        row[nE], row[nE + 1] = len(rot), -len(rot)
        rows.append(row)
        rhs.append(2)
    for face in faces:
        row = [0] * (nE + 2)
        sides = len(face)
        for (e, _, _) in face:
            row[eidx[e]] += 1
        row[nE], row[nE + 1] = sides, -sides
        rows.append(row)
        rhs.append(sides - 2)
    c = [0] * nE + [1, -1]
    res = solve_lp(rows, rhs, c)
    if res.status == "infeasible":
        return Consistency(False, None, None, res.farkas)
    _check(res.status == "optimal", f"consistency LP status {res.status}")
    t = res.x[nE] - res.x[nE + 1]
    charge = {e: t + res.x[i] for e, i in eidx.items()}
    if t <= 0:
        return Consistency(False, None, t, res.dual)
    _verify_charge(dimer, faces, charge)
    return Consistency(True, charge, t, None)


def _verify_charge(dimer, faces, charge):
    for v, rot in dimer.rotation.items():
        _check(sum(charge[e] for e in rot) == 2, f"R-charge vertex sum at {v}")
    for face in faces:
        _check(sum(1 - charge[e] for e, _, _ in face) == 2,
               f"R-charge face sum at {face[0][0]}")


# ---------------------------------------------------------------------------
# perfect matchings
# ---------------------------------------------------------------------------

def perfect_matchings(dimer: DimerModel, limit=10 ** 6):
    """Perfect matchings by backtracking over white vertices.

    Returns (matchings, truncated); each matching is a sorted tuple of
    edge names, and the list is sorted.  `truncated` is true exactly when
    the dimer has more than `limit` perfect matchings; the list then holds
    the first `limit` found, with whites taken in sorted order and each
    white's edges in rotation order.
    """
    whites = sorted(v for v, c in dimer.colors.items() if c == "white")
    blacks = sorted(v for v, c in dimer.colors.items() if c == "black")
    if len(whites) != len(blacks):
        return [], False
    bit = {b: 1 << k for k, b in enumerate(blacks)}
    adjacency = [[(e, bit[dimer.ends(e)[0]])
                  for e in dimer.rotation.get(w, ())] for w in whites]
    ms = list(islice(_matchings(adjacency, set()), limit + 1))
    return sorted(ms[:limit]), len(ms) > limit


def _matchings(adjacency, dead):
    """Yield the matchings that cover every white, in search order.

    adjacency[i] lists (edge, black bit) for white i; the search matches
    white 0, 1, ... in turn, tries each white's pairs in list order and
    carries the used blacks as one int.  Whether whites i.. can still be
    matched depends only on `used & reach[i]`, the used blacks adjacent
    to one of them.  A state (i, used & reach[i]) whose subtree yielded
    nothing is added to `dead`, and the search never enters it again.
    Only a finished subtree is recorded: when the caller stops iterating,
    the generators on the current path are closed before their loops end.
    """
    n = len(adjacency)
    reach = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        reach[i] = reach[i + 1]
        for _, b in adjacency[i]:
            reach[i] |= b
    chosen = []

    def search(i, used):
        if i == n:
            yield tuple(sorted(chosen))
            return
        key = (i, used & reach[i])
        if key in dead:
            return
        found = False
        for e, b in adjacency[i]:
            if not used & b:
                chosen.append(e)
                for m in search(i + 1, used | b):
                    found = True
                    yield m
                chosen.pop()
        if not found:
            dead.add(key)

    return search(0, 0)


class DegreeFunction(namedtuple("DegreeFunction", "degrees level")):
    """Edge name -> int degrees whose sum at every vertex is the constant
    `level` l."""

    __slots__ = ()

    @property
    def a_invariant(self):
        return -self.level


def grading_from_matchings(dimer: DimerModel, matchings, coefficients) \
        -> DegreeFunction:
    """d(e) = sum_k c_k [e in P_k]; the vertex sums all equal sum(c_k)."""
    if len(matchings) != len(coefficients):
        raise ValueError("one coefficient per matching")
    deg = {e.name: 0 for e in dimer.edges}
    for P, c in zip(matchings, coefficients):
        for e in P:
            deg[e] += c
    level = sum(coefficients)
    for v, rot in dimer.rotation.items():
        s = sum(deg[e] for e in rot)
        if s != level:
            raise Inhomogeneous(
                f"vertex sum at {v} is {s}, expected {level}; "
                "inputs are not matchings of this dimer")
    return DegreeFunction(deg, level)


# ---------------------------------------------------------------------------
# graded Jacobian presentation and its free bimodule resolution
# ---------------------------------------------------------------------------

def _derivative(qp, name):
    """Yield (sign, word) for each occurrence of the arrow `name` in a
    cycle of the potential: the cycle's sign and the rest of the cycle,
    read cyclically from just after that occurrence."""
    for sign, cyc, _ in qp.potential:
        for pos, nm in enumerate(cyc):
            if nm == name:
                yield sign, cyc[pos + 1:] + cyc[:pos]


def jacobian_presentation(qp: QuiverWithPotential, deg: DegreeFunction) \
        -> GradedQuiverPresentation:
    """Quotient of the dual quiver by the cyclic derivatives of the
    potential, graded by the degree function."""
    base = qp.quiver
    graded = Quiver(base.vertices,
                    [Arrow(a.name, a.source, a.target,
                           deg.degrees[a.name]) for a in base.arrows])
    ctx = PathAlgebraContext(graded)
    rels = []
    for a in graded.arrows:
        poly = NCPoly()
        for sign, word in _derivative(qp, a.name):
            path = ctx.path_from_names(word) if word else ctx.lazy(a.target)
            poly = poly + NCPoly.monomial(path, sign)
        if poly:
            rels.append(poly)
    return GradedQuiverPresentation(
        graded, rels, cy=CYData(3, deg.a_invariant), name="jacobian")


def cy3_complex(qp: QuiverWithPotential, deg: DegreeFunction,
                pres: GradedQuiverPresentation = None) -> BimoduleComplex:
    """Four-term free bimodule complex of the graded Jacobian algebra.

    Summand generator degrees: 0 (position 0), d(a) (position 1),
    l - d(a) (position 2), l (position 3); differentials split paths at
    occurrences of arrows, with white cycles entering positively.
    """
    from .complexes import BimoduleComplex, FreeSummand

    if pres is None:
        pres = jacobian_presentation(qp, deg)
    ctx = pres.ctx
    quiver = pres.quiver
    l = deg.level
    lazy = ctx.lazy

    terms = []
    # position 0: one summand per quiver vertex, generator degree 0
    terms.append([FreeSummand(v, v, 0, f"P0[{v}]") for v in quiver.vertices])
    # position 1: per arrow a, generator from s(a) to t(a), degree d(a)
    terms.append([FreeSummand(a.source, a.target, deg.degrees[a.name],
                              f"P1[{a.name}]") for a in quiver.arrows])
    # position 2: per arrow a, generator from t(a) to s(a), degree l - d(a)
    terms.append([FreeSummand(a.target, a.source, l - deg.degrees[a.name],
                              f"P2[{a.name}]") for a in quiver.arrows])
    # position 3: per vertex, degree l
    terms.append([FreeSummand(v, v, l, f"P3[{v}]") for v in quiver.vertices])

    vidx = {v: i for i, v in enumerate(quiver.vertices)}

    # d1: P1 -> P0: g_a -> a g_{t(a)}  -  g_{s(a)} a
    # d3: P3 -> P2: g''_i -> sum_{s(a)=i} a g'_a  -  sum_{t(a)=i} g'_a a
    d1, d3 = {}, {}
    for j, a in enumerate(quiver.arrows):
        ap, s, t = ctx.arrow_path(a.name), vidx[a.source], vidx[a.target]
        d1.setdefault((t, j), []).append((1, ap, lazy(a.target)))
        d1.setdefault((s, j), []).append((-1, lazy(a.source), ap))
        d3.setdefault((j, s), []).append((1, ap, lazy(a.source)))
        d3.setdefault((j, t), []).append((-1, lazy(a.target), ap))

    # d2: P2 -> P1: g'_a -> sum over cycles through a of the splittings
    d2 = {}
    for j, a in enumerate(quiver.arrows):
        for sign, word in _derivative(qp, a.name):
            for k, mid in enumerate(word):
                left, right = word[:k], word[k + 1:]
                lpath = ctx.path_from_names(left) if left else lazy(a.target)
                rpath = ctx.path_from_names(right) if right else lazy(a.source)
                d2.setdefault((quiver.arrow_index[mid], j), []).append(
                    (sign, lpath, rpath))

    return BimoduleComplex(pres, terms, [d1, d2, d3], name="cy3")


# ---------------------------------------------------------------------------
# dimer file format and emitters
# ---------------------------------------------------------------------------

def parse_dimer(text, filename="<string>") -> DimerModel:
    """Sections: [vertices] (id color), [edges] (id black-end white-end),
    [rotation] (vertex: cyclic edge list).  '#' starts a comment."""
    colors, edges, rotation = {}, [], {}
    lines = {}      # edge or rotation entry -> its line
    for section, line, lineno in _sections(
            text, filename, ("vertices", "edges", "rotation")):
        bits = line.split()
        if section == "vertices":
            if len(bits) != 2 or bits[1] not in ("black", "white"):
                raise ParseError("vertex line must be: id black|white",
                                 filename, lineno)
            if bits[0] in colors:
                raise ParseError(f"duplicate vertex {bits[0]}", filename,
                                 lineno)
            colors[bits[0]] = bits[1]
        elif section == "edges":
            if len(bits) != 3:
                raise ParseError("edge line must be: id black-end white-end",
                                 filename, lineno)
            for v in bits[1:]:
                if v not in colors:
                    raise ParseError(f"unknown vertex {v}", filename, lineno)
            if colors[bits[1]] != "black" or colors[bits[2]] != "white":
                raise ParseError(
                    f"edge {bits[0]} must run black to white", filename,
                    lineno)
            _once(lines, ("edge", bits[0]), f"[edges] gives edge {bits[0]}",
                  filename, lineno)
            edges.append(DimerEdge(*bits))
        else:
            if ":" not in line:
                raise ParseError("rotation line must be: vertex: edges...",
                                 filename, lineno)
            v, rest = line.split(":", 1)
            v = v.strip()
            if v not in colors:
                raise ParseError(f"unknown vertex {v}", filename, lineno)
            _once(lines, v, f"[rotation] gives vertex {v}", filename, lineno)
            rotation[v] = rest.split()
    if not colors:
        raise ParseError("no [vertices] section", filename, None)
    try:
        return DimerModel(colors, edges, rotation)
    except (ValueError, NotBipartite) as e:
        raise ParseError(str(e), filename, None)


def load_dimer(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_dimer(fh.read(), filename=str(path))


# matchings per write: with unbuffered stdout (`python -u`) every write
# is a system call
_BLOCK = 512


def write_matchings_json(out, matchings, truncated=False):
    """Write {"count", "matchings", "truncated"} to the text stream `out`
    as `print(json.dumps(..., indent=2, sort_keys=True))` did, in at most
    ceil(len(matchings) / _BLOCK) + 2 writes."""
    out.write(f'{{\n  "count": {len(matchings)},\n  "matchings": [')
    for start in range(0, len(matchings), _BLOCK):
        items = ",".join(map(_matching_json, matchings[start:start + _BLOCK]))
        out.write(("," if start else "") + items)
    close = "\n  ]" if matchings else "]"
    flag = "true" if truncated else "false"
    out.write(f'{close},\n  "truncated": {flag}\n}}\n')


def _matching_json(m):
    """One matching as an item of the indented "matchings" list, its edge
    names encoded by json's ASCII string encoder."""
    if not m:
        return "\n    []"
    names = ",\n      ".join(map(encode_basestring_ascii, m))
    return f"\n    [\n      {names}\n    ]"


def rcharge_json(consistency: Consistency):
    import json
    data = {"feasible": consistency.feasible}
    if consistency.rcharge is not None:
        data["rcharge"] = {e: str(c) for e, c in
                           sorted(consistency.rcharge.items())}
    if consistency.certificate is not None:
        data["certificate"] = [str(c) for c in consistency.certificate]
    if consistency.margin is not None:
        data["margin"] = str(consistency.margin)
    return json.dumps(data, indent=2, sort_keys=True)


def degree_function_json(deg: DegreeFunction):
    import json
    return json.dumps({"degrees": dict(sorted(deg.degrees.items())),
                       "level": deg.level,
                       "a_invariant": deg.a_invariant},
                      indent=2, sort_keys=True)
