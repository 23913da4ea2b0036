import inspect
import io
import itertools
import math
import random
import textwrap
from fractions import Fraction

import pytest

from gradedcy import dimer as dimer_module
from gradedcy.dimer import (DimerEdge, DimerModel, consistency_check,
                            cy3_complex, dual_qp, grading_from_matchings,
                            jacobian_presentation, load_dimer,
                            parse_dimer, perfect_matchings)
from gradedcy.errors import (NonStabilizing, NotBipartite, NotTorus,
                             ParseError)
from gradedcy.rewriting import RewriteContext, dimension_table
from gradedcy.simplex import LPResult

from helpers import (DATA, brute_force_graded_dimension, faces_by_min,
                     honeycomb_torus, matchings_by_backtracking,
                     matchings_by_subsets, matchings_json,
                     rotation_error_by_scan, solve_lp_by_fractions)


def hexagonal():
    return load_dimer(DATA / "hexagonal.dimer")


def four_face():
    return load_dimer(DATA / "four_face.dimer")


def test_validate_hexagonal():
    faces, report = hexagonal().validate()
    assert report == {"V": 2, "E": 3, "F": 1, "chi": 0, "face_sizes": [6]}


def test_validate_four_face():
    faces, report = four_face().validate()
    assert (report["V"], report["E"], report["F"]) == (6, 10, 4)
    assert report["chi"] == 0
    assert report["face_sizes"] == [4, 4, 6, 6]


def test_not_torus():
    with pytest.raises(NotTorus):
        load_dimer(DATA / "theta.dimer").validate()


def test_not_bipartite():
    with pytest.raises(ParseError):
        parse_dimer("""
[vertices]
a black
b black
[edges]
e a b
[rotation]
a: e
b: e
""")


def test_dual_qp_hexagonal():
    qp = dual_qp(hexagonal())
    assert len(qp.quiver.vertices) == 1
    assert len(qp.quiver.arrows) == 3
    assert all(a.source == a.target for a in qp.quiver.arrows)
    # potential: one white and one black cycle using all three loops
    signs = sorted(s for s, _, _ in qp.potential)
    assert signs == [-1, 1]
    for _, cyc, _ in qp.potential:
        assert sorted(cyc) == ["e1", "e2", "e3"]


def test_dual_qp_four_face_matches_display():
    """Arrow multiset per ordered vertex pair matches the displayed
    four-vertex quiver (up to a face relabeling)."""
    qp = dual_qp(four_face())
    mult = {}
    for a in qp.quiver.arrows:
        mult[(a.source, a.target)] = mult.get((a.source, a.target), 0) + 1
    expected = {("2", "1"): 3, ("1", "3"): 1, ("3", "2"): 2,
                ("1", "4"): 2, ("4", "3"): 1, ("4", "2"): 1}
    verts = list(qp.quiver.vertices)
    assert len(verts) == 4
    found = None
    for perm in itertools.permutations(["1", "2", "3", "4"]):
        relabel = dict(zip(verts, perm))
        trial = {(relabel[s], relabel[t]): m for (s, t), m in mult.items()}
        if trial == expected:
            found = relabel
            break
    assert found is not None, mult
    # the arrow/edge bijection
    assert len(qp.quiver.arrows) == len(four_face().edges)


def test_consistency_hexagonal():
    res = consistency_check(hexagonal())
    assert res.feasible
    assert res.margin == Fraction(2, 3)
    assert all(c == Fraction(2, 3) for c in res.rcharge.values())


def test_consistency_four_face():
    res = consistency_check(four_face())
    assert res.feasible and res.margin > 0
    # substitution check, exact
    dimer = four_face()
    for v, rot in dimer.rotation.items():
        assert sum(res.rcharge[e] for e in rot) == 2
    for face in dimer.faces():
        assert sum(1 - res.rcharge[e] for (e, _, _) in face) == 2


def test_consistency_infeasible_with_certificate():
    dimer = load_dimer(DATA / "pendant.dimer")
    dimer.validate()
    res = consistency_check(dimer)
    assert not res.feasible
    assert res.certificate is not None
    # verify the Farkas certificate exactly: y.A >= 0 and y.b < 0 over the
    # constraint system in solver order (vertices then faces)
    rows, rhs = [], []
    edges = [e.name for e in dimer.edges]
    eidx = {e: i for i, e in enumerate(edges)}
    for v, rot in dimer.rotation.items():
        row = [Fraction(0)] * (len(edges) + 2)
        for e in rot:
            row[eidx[e]] += 1
        row[len(edges)] = Fraction(len(rot))
        row[len(edges) + 1] = -Fraction(len(rot))
        rows.append(row)
        rhs.append(Fraction(2))
    for face in dimer.faces():
        row = [Fraction(0)] * (len(edges) + 2)
        for (e, _, _) in face:
            row[eidx[e]] += 1
        row[len(edges)] = Fraction(len(face))
        row[len(edges) + 1] = -Fraction(len(face))
        rows.append(row)
        rhs.append(Fraction(len(face) - 2))
    y = res.certificate
    ya = [sum(y[i] * rows[i][j] for i in range(len(rows)))
          for j in range(len(rows[0]))]
    yb = sum(y[i] * rhs[i] for i in range(len(rhs)))
    assert all(v >= 0 for v in ya) and yb < 0


def test_matchings_hexagonal():
    ms, truncated = perfect_matchings(hexagonal())
    assert ms == [("e1",), ("e2",), ("e3",)]
    assert not truncated


def test_matchings_against_subset_oracle():
    for dimer in (hexagonal(), four_face()):
        ms, _ = perfect_matchings(dimer)
        assert ms == matchings_by_subsets(dimer)


def test_matchings_unbalanced_colors_empty():
    dimer = parse_dimer("""
[vertices]
b black
w1 white
w2 white
[edges]
e1 b w1
e2 b w2
[rotation]
b: e1 e2
w1: e1
w2: e2
""")
    ms, _ = perfect_matchings(dimer)
    assert ms == []
    # an isolated vertex may have no rotation line at all
    dimer = parse_dimer("""
[vertices]
b1 black
b2 black
w1 white
w2 white
[edges]
e1 b1 w1
[rotation]
b1: e1
w1: e1
""")
    assert perfect_matchings(dimer) == ([], False)


def test_other_rejects_a_foreign_vertex():
    dimer = hexagonal()
    assert dimer.other("e1", "b") == "w"
    assert dimer.other("e1", "w") == "b"
    with pytest.raises(ValueError, match="nonexistent.*e1"):
        dimer.other("e1", "nonexistent")


def _random_bipartite(rng):
    """A small bipartite graph with a random rotation at every vertex:
    multi-edges, sometimes unbalanced colours, isolated vertices."""
    nb = rng.randint(0, 5)
    nw = nb if rng.random() < 0.85 else rng.randint(0, 5)
    blacks = [f"b{k}" for k in rng.sample(range(10), nb)]
    whites = [f"w{k}" for k in rng.sample(range(10), nw)]
    edges = []
    if blacks and whites:
        for k in range(rng.randint(0, 5 * max(nb, nw))):
            edges.append(DimerEdge(f"e{k}", rng.choice(blacks),
                                   rng.choice(whites)))
    rotation = {v: [] for v in blacks + whites}
    for e in edges:
        rotation[e.black].append(e.name)
        rotation[e.white].append(e.name)
    for rot in rotation.values():
        rng.shuffle(rot)
    colors = {v: "black" for v in blacks}
    colors.update({v: "white" for v in whites})
    return DimerModel(colors, edges, rotation)


def _search_faults(dimer):
    """Where perfect_matchings and the dead-state search it runs disagree
    with the backtracking and edge-subset oracles on `dimer`."""
    faults = []
    want, _ = matchings_by_backtracking(dimer)
    if perfect_matchings(dimer) != (want, False):
        faults.append("full search")
    if len(dimer.edges) <= 14 and want != matchings_by_subsets(dimer):
        faults.append("edge subsets")
    for limit in range(1, len(want) + 2):
        first, _ = matchings_by_backtracking(dimer, limit)
        if perfect_matchings(dimer, limit) != (first, len(want) > limit):
            faults.append(f"limit {limit}")
    # A dead set left by a search stopped after k matchings holds only
    # finished states, each keyed by the blacks later whites can use.
    whites = sorted(v for v, c in dimer.colors.items() if c == "white")
    blacks = sorted(v for v, c in dimer.colors.items() if c == "black")
    if len(whites) != len(blacks):
        return faults
    bit = {b: 1 << k for k, b in enumerate(blacks)}
    adjacency = [[(e, bit[dimer.ends(e)[0]]) for e in dimer.rotation[w]]
                 for w in whites]
    reach = [sum(bit[b] for b in {dimer.ends(e)[0] for w in whites[i:]
                                  for e in dimer.rotation[w]})
             for i in range(len(whites))]
    for k in range(len(want) + 1):
        dead = set()
        search = dimer_module._matchings(adjacency, dead)
        list(itertools.islice(search, k))
        search.close()
        if sorted(dimer_module._matchings(adjacency, dead)) != want:
            faults.append(f"dead set after {k} matchings")
        if any(m & ~reach[i] for i, m in dead):
            faults.append("dead key outside reach")
    return faults


def _random_graphs():
    rng = random.Random(20261018)
    return [_random_bipartite(rng) for _ in range(300)]


def test_matchings_differential_against_oracles():
    graphs = _random_graphs()
    # enough of the sample has many matchings and dead branches to matter
    assert sum(1 for d in graphs if len(perfect_matchings(d)[0]) > 5) > 50
    for dimer in graphs:
        assert _search_faults(dimer) == [], dimer.rotation


@pytest.mark.parametrize("edits", [
    # sound, but states that differ only in blacks no later white can
    # use get separate keys, so the cache misses
    [("key = (i, used & reach[i])", "key = (i, used)")],
    # forgets the blacks only white i can use
    [("key = (i, used & reach[i])", "key = (i, used & reach[i + 1])")],
    # records a state before its subtree has been searched to the end
    [("found = False", "found = False\n        dead.add(key)"),
     ("if not found:\n            dead.add(key)",
      "if found:\n            dead.discard(key)")],
])
def test_matchings_differential_catches_mutants(monkeypatch, edits):
    source = textwrap.dedent(inspect.getsource(dimer_module._matchings))
    for old, new in edits:
        assert source.count(old) == 1
        source = source.replace(old, new)
    namespace = {}
    exec(source, namespace)
    monkeypatch.setattr(dimer_module, "_matchings", namespace["_matchings"])
    assert any(_search_faults(dimer) for dimer in _random_graphs())


SHIPPED = ("digon", "four_face", "hexagonal", "pendant", "theta")

# edge-name pieces the writer must escape exactly as json.dumps does:
# quote, backslash, non-ASCII (an astral character becomes a surrogate
# pair) and control characters; parse_dimer takes any non-space token
NAME_PIECES = ["e1", "A0_0", '"', "\\", "\u00e9", "\u4e2d", "\U0001f600",
               "\x00", "\x01", "\x1b", "\x7f", "\t", "\n", "\u2028"]


def _writer_cases():
    """Seeded (matchings, truncated) pairs: no matchings, empty
    matchings, and list lengths on both sides of every block boundary."""
    rng = random.Random(90210)
    block = dimer_module._BLOCK
    cases = [([], False), ([], True), ([()], False), ([(), ()], True)]
    for n in (1, 2, 7, block - 1, block, block + 1, 2 * block + 1):
        for truncated in (False, True):
            ms = [tuple("".join(rng.choices(NAME_PIECES,
                                            k=rng.randint(1, 3)))
                        for _ in range(rng.choice((0, 1, 2, 5, 24))))
                  for _ in range(n)]
            cases.append((ms, truncated))
    return cases


def _writer_faults():
    """Cases where the writer's text differs from print(json.dumps(...))."""
    faults = []
    for ms, truncated in _writer_cases():
        out = io.StringIO()
        dimer_module.write_matchings_json(out, ms, truncated)
        if out.getvalue() != matchings_json(ms, truncated) + "\n":
            faults.append((len(ms), truncated))
    return faults


def test_matchings_writer_matches_json_dumps():
    assert _writer_faults() == []


@pytest.mark.parametrize("name, edits", [
    # the matchings list is never closed
    ("write_matchings_json", [(r'close = "\n  ]" if', r'close = "" if')]),
    # every edge name after a matching's first is indented one space short
    ("_matching_json", [(r'",\n      ".join', r'",\n     ".join')]),
    # "truncated" written before "matchings"
    ("write_matchings_json", [
        (r'"count": {len(matchings)},\n  "matchings": [',
         r'"count": {len(matchings)},\n  "truncated": '
         r'{"true" if truncated else "false"},\n  "matchings": ['),
        (r'{close},\n  "truncated": {flag}\n}}\n', r'{close}\n}}\n')]),
])
def test_matchings_writer_oracle_catches_mutants(monkeypatch, name, edits):
    source = textwrap.dedent(inspect.getsource(getattr(dimer_module, name)))
    for old, new in edits:
        assert source.count(old) == 1
        source = source.replace(old, new)
    namespace = dict(vars(dimer_module))
    exec(source, namespace)
    monkeypatch.setattr(dimer_module, name, namespace[name])
    assert _writer_faults()


def test_matchings_writer_writes_in_blocks():
    """At most ceil(n / block) + 3 writes to any text stream, which may be
    a StringIO standing in for sys.stdout: no buffer or file descriptor."""

    class Counting(io.StringIO):
        writes = 0

        def write(self, text):
            self.writes += 1
            return super().write(text)

    block = dimer_module._BLOCK
    for ms, truncated in _writer_cases():
        out = Counting()
        dimer_module.write_matchings_json(out, ms, truncated)
        assert out.getvalue() == matchings_json(ms, truncated) + "\n"
        assert out.writes <= math.ceil(len(ms) / block) + 3


def test_faces_match_the_least_unused_dart_oracle():
    dimers = [load_dimer(DATA / f"{name}.dimer") for name in SHIPPED]
    dimers += [honeycomb_torus(m, m) for m in (3, 6, 12)]
    dimers += _random_graphs()
    for dimer in dimers:
        assert dimer.faces() == faces_by_min(dimer)


def test_wrong_rotation_keeps_its_message():
    colors = {"b1": "black", "w1": "white", "b2": "black", "w2": "white"}
    edges = [DimerEdge("e1", "b1", "w1"), DimerEdge("e2", "b2", "w1"),
             DimerEdge("e3", "b2", "w2")]
    rotation = {"b1": ["e1"], "w1": ["e2", "e1"], "b2": ["e3"],
                "w2": ["e3", "e2"]}
    with pytest.raises(ValueError) as err:
        DimerModel(colors, edges, rotation)
    assert str(err.value) == \
        "rotation at b2 lists ['e3'], incident ['e2', 'e3']"
    # seeded corruptions: the first failing vertex and its message are
    # the ones the scan over every edge finds
    rng = random.Random(4711)
    tried = 0
    for dimer in _random_graphs():
        if not dimer.edges:
            continue
        rotation = {v: list(r) for v, r in dimer.rotation.items()}
        v = rng.choice(sorted(rotation))
        kind = rng.randrange(4)
        if kind == 0 and rotation[v]:
            rotation[v].pop(rng.randrange(len(rotation[v])))
        elif kind == 1:
            rotation[v].append(rng.choice(dimer.edges).name)
        elif kind == 2:
            del rotation[v]
        else:
            rotation[v].append("stray")
        want = rotation_error_by_scan(dimer.colors, dimer.edges, rotation)
        if want is None:
            DimerModel(dimer.colors, dimer.edges, rotation)
            continue
        tried += 1
        with pytest.raises(ValueError) as err:
            DimerModel(dimer.colors, dimer.edges, rotation)
        assert str(err.value) == want
    assert tried > 100


def test_gradings_of_four_face():
    dimer = four_face()
    ms, _ = perfect_matchings(dimer)
    m1 = ("d1", "d2", "om")
    m2 = ("d1", "d2", "h2")
    assert m1 in ms and m2 in ms
    g1 = grading_from_matchings(dimer, [m1], [-1])
    assert g1.a_invariant == 1
    g2 = grading_from_matchings(dimer, [m1, m2], [-1, -1])
    assert g2.a_invariant == 2
    qp = dual_qp(dimer)
    for g in (g1, g2):
        pres = jacobian_presentation(qp, g)
        for r in pres.relations:
            assert r.is_homogeneous(pres.ctx)
        # degree of each relation is level - degree of the arrow
        for a, r in zip(qp.quiver.arrows, pres.relations):
            some = next(iter(r.terms))
            assert pres.ctx.degree(some) == g.level - g.degrees[a.name]
    g0 = grading_from_matchings(dimer, [], [])
    assert g0.level == 0


def test_hexagonal_jacobian_is_polynomial_ring():
    qp = dual_qp(hexagonal())
    ms, _ = perfect_matchings(hexagonal())
    deg = grading_from_matchings(hexagonal(), ms, [-1] * 3)
    assert deg.a_invariant == 3
    pres = jacobian_presentation(qp, deg)
    # three commutator relations
    assert len(pres.relations) == 3
    for r in pres.relations:
        assert sorted(r.terms.values()) == [Fraction(-1), Fraction(1)]
    rc = RewriteContext(pres, 8)
    assert [rc.basis(-w).dim() for w in range(4)] == [1, 3, 6, 10]
    for w in range(0, -5, -1):
        assert brute_force_graded_dimension(pres, w, 6) == \
            sum(len(rc.rs.normal_paths(v, 6, degree=w))
                for v in pres.quiver.vertices)


def test_cy3_complexes_square_to_zero():
    for dimer, gradings in ((hexagonal(), "all"), (four_face(), "both")):
        qp = dual_qp(dimer)
        ms, _ = perfect_matchings(dimer)
        if gradings == "all":
            degs = [grading_from_matchings(dimer, ms, [-1] * len(ms))]
        else:
            degs = [grading_from_matchings(dimer, [("d1", "d2", "om")], [-1]),
                    grading_from_matchings(
                        dimer, [("d1", "d2", "om"), ("d1", "d2", "h2")],
                        [-1, -1])]
        for deg in degs:
            cpx = cy3_complex(qp, deg)
            assert cpx.check_complex(6)
            assert [len(t) for t in cpx.terms] == \
                [len(qp.quiver.vertices), len(qp.quiver.arrows),
                 len(qp.quiver.arrows), len(qp.quiver.vertices)]
            # generator degrees 0 / d(a) / level - d(a) / level
            assert {s.degree for s in cpx.terms[0]} == {0}
            assert {s.degree for s in cpx.terms[3]} == {deg.level}
            for s, a in zip(cpx.terms[1], qp.quiver.arrows):
                assert s.degree == deg.degrees[a.name]
            for s, a in zip(cpx.terms[2], qp.quiver.arrows):
                assert s.degree == deg.level - deg.degrees[a.name]


def test_zero_grading_non_stabilizing():
    dimer = four_face()
    qp = dual_qp(dimer)
    g0 = grading_from_matchings(dimer, [], [])
    pres = jacobian_presentation(qp, g0)
    with pytest.raises(NonStabilizing):
        RewriteContext(pres, 6).basis(0)
    with pytest.raises(NonStabilizing,
                       match="degree 0 .* --cap 6 .* heuristic"):
        dimension_table(pres, [0], 6)


def test_four_face_slice_algebra_quivers():
    """The degree-zero part under the single-matching grading is the
    four-vertex algebra from the display, and the layer on top adds the
    triple wrapping arrow."""
    from gradedcy.findim import arrow_multiplicities, gabriel_quiver
    from gradedcy.linalg import SparseEliminator
    from gradedcy.quiver import NCPoly
    from gradedcy.slice_algebras import build_A

    dimer = four_face()
    qp = dual_qp(dimer)
    g1 = grading_from_matchings(dimer, [("d1", "d2", "om")], [-1])
    pres = jacobian_presentation(qp, g1)
    rc = RewriteContext(pres, 12)
    assert rc.basis(0).dim() == 20
    A = build_A(pres, 1, cap=12)
    assert A.dim == 20
    mult = arrow_multiplicities(gabriel_quiver(A))
    by_count = sorted(mult.values())
    assert by_count == [1, 1, 1, 2, 2]
    # top of the degree -1 layer: three classes, all on one vertex pair
    ctx = pres.ctx
    nf0 = [p for v in pres.quiver.vertices
           for p in rc.rs.normal_paths(v, 12, degree=0)]
    nf1 = [p for v in pres.quiver.vertices
           for p in rc.rs.normal_paths(v, 12, degree=-1)]
    idx = {p: i for i, p in enumerate(nf1)}
    el = SparseEliminator()
    for a in nf0:
        if a.is_lazy:
            continue
        for u in nf1:
            for (f, g) in ((a, u), (u, a)):
                comp = ctx.compose(f, g)
                if comp is None:
                    continue
                nf = rc.rs.reduce(NCPoly.monomial(comp))
                vec = {idx[m]: c for m, c in nf.terms.items()}
                if vec:
                    el.add(vec)
    top = [p for p in nf1 if idx[p] not in el.pivots]
    assert len(nf1) - el.rank == 3
    assert len({(p.source, ctx.target(p)) for p in top}) == 1


def test_matchings_truncation_flag():
    ms, truncated = perfect_matchings(hexagonal(), limit=2)
    assert truncated and ms == [("e1",), ("e2",)]
    for limit in (3, 4):
        ms, truncated = perfect_matchings(hexagonal(), limit=limit)
        assert not truncated and len(ms) == 3


def test_potential_cycle_lengths_equal_valence():
    for dimer in (hexagonal(), four_face()):
        qp = dual_qp(dimer)
        lengths = {v: len(cyc) for _, cyc, v in qp.potential}
        for v, rot in dimer.rotation.items():
            assert lengths[v] == len(rot)


def test_cy3_complexes_are_resolutions():
    """Beyond squaring to zero: the one-sided probe certifies exactness of
    the augmented four-term complexes in a window."""
    from gradedcy.duality import exactness_probe

    qp = dual_qp(hexagonal())
    ms, _ = perfect_matchings(hexagonal())
    deg = grading_from_matchings(hexagonal(), ms, [-1] * 3)
    pres = jacobian_presentation(qp, deg)
    assert exactness_probe(cy3_complex(qp, deg, pres), (0, -5),
                           RewriteContext(pres, 8)) == {}

    di = four_face()
    qp = dual_qp(di)
    for matchings, coeffs, window in (
            ([("d1", "d2", "om")], [-1], (0, -2)),
            ([("d1", "d2", "om"), ("d1", "d2", "h2")], [-1, -1], (0, -3))):
        g = grading_from_matchings(di, matchings, coeffs)
        p = jacobian_presentation(qp, g)
        assert exactness_probe(cy3_complex(qp, g, p), window,
                               RewriteContext(p, 12)) == {}


def test_hexagonal_duality_via_dimer_resolution():
    """The dimer-derived resolution feeds the duality verdict: identity
    twist at shift [6] passes (odd a-invariant), the sign twist fails."""
    from gradedcy.duality import check_twisted_cy, identity_twist, sign_twist

    qp = dual_qp(hexagonal())
    ms, _ = perfect_matchings(hexagonal())
    deg = grading_from_matchings(hexagonal(), ms, [-1] * 3)
    pres = jacobian_presentation(qp, deg)
    cpx = cy3_complex(qp, deg, pres)
    assert check_twisted_cy(pres, cpx, identity_twist(6),
                            window=(0, -5)).passed
    assert not check_twisted_cy(pres, cpx, sign_twist(pres, 6),
                                window=(0, -4)).passed


def test_consistency_margin_zero_with_dual_bound():
    """A digon face forces two charges to sum to zero: the equalities are
    feasible but the maximized margin is exactly zero, and the returned
    dual vector certifies the bound."""
    dimer = load_dimer(DATA / "digon.dimer")
    faces, rep = dimer.validate()
    assert 2 in rep["face_sizes"]
    res = consistency_check(dimer)
    assert not res.feasible
    assert res.margin == 0
    y = res.certificate
    assert y is not None
    # rebuild the solver's constraint system and verify weak duality:
    # y.A >= c componentwise and y.b = 0 bound the maximum margin by zero
    edges = [e.name for e in dimer.edges]
    eidx = {e: i for i, e in enumerate(edges)}
    nE = len(edges)
    rows, rhs = [], []
    for v, rot in dimer.rotation.items():
        row = [Fraction(0)] * (nE + 2)
        for e in rot:
            row[eidx[e]] += 1
        row[nE], row[nE + 1] = Fraction(len(rot)), -Fraction(len(rot))
        rows.append(row)
        rhs.append(Fraction(2))
    for face in faces:
        row = [Fraction(0)] * (nE + 2)
        for (e, _, _) in face:
            row[eidx[e]] += 1
        row[nE], row[nE + 1] = Fraction(len(face)), -Fraction(len(face))
        rows.append(row)
        rhs.append(Fraction(len(face) - 2))
    c = [Fraction(0)] * nE + [Fraction(1), Fraction(-1)]
    ya = [sum(y[i] * rows[i][j] for i in range(len(rows)))
          for j in range(nE + 2)]
    assert all(v >= cj for v, cj in zip(ya, c))
    assert sum(y[i] * rhs[i] for i in range(len(rhs))) == 0


def _consistency_outcome(dimer):
    try:
        return consistency_check(dimer)
    except NotTorus:
        return NotTorus


@pytest.mark.parametrize("name", ["digon", "four_face", "hexagonal",
                                  "pendant", "theta", "3x3", "4x4",
                                  "6x6"])
def test_consistency_matches_fraction_oracle(monkeypatch, name):
    """consistency_check gives the same charges, margin and certificate
    with the integer simplex as with the Fraction-tableau oracle, on every
    shipped dimer and on honeycomb tori."""
    if name[0].isdigit():
        m, n = map(int, name.split("x"))
        dimer = honeycomb_torus(m, n)
    else:
        dimer = load_dimer(DATA / f"{name}.dimer")
    got = _consistency_outcome(dimer)
    monkeypatch.setattr(dimer_module, "solve_lp", solve_lp_by_fractions)
    assert got == _consistency_outcome(dimer)


def test_consistency_on_bench_scale_honeycomb():
    """The 6 x 6 honeycomb torus (108 LP rows, 110 columns) is consistent
    with margin 2/3, every charge 2/3."""
    res = consistency_check(honeycomb_torus(6, 6))
    assert res.feasible and res.margin == Fraction(2, 3)
    assert len(res.rcharge) == 108
    assert set(res.rcharge.values()) == {Fraction(2, 3)}


def test_consistency_raises_on_a_corrupted_lp_answer(monkeypatch):
    """The exact substitution checks are explicit raises, not asserts: a
    solution that breaks the vertex sums, or a status that is neither
    optimal nor infeasible, stops consistency_check."""
    solve = dimer_module.solve_lp

    def corrupted(A, b, c):
        res = solve(A, b, c)
        res.x[0] += 1
        return res

    monkeypatch.setattr(dimer_module, "solve_lp", corrupted)
    with pytest.raises(RuntimeError, match="R-charge vertex sum"):
        consistency_check(hexagonal())
    monkeypatch.setattr(dimer_module, "solve_lp",
                        lambda A, b, c: LPResult("unbounded", None, None,
                                                 None, None))
    with pytest.raises(RuntimeError, match="status unbounded"):
        consistency_check(hexagonal())


def test_four_face_second_grading_slice_quiver():
    """At the two-matching grading the slice algebra doubles the quiver:
    eight vertices, the six degree-zero arrows per layer, and the two
    degree -1 arrows crossing layers; the extension layer adds the four
    downward idempotent arrows plus the doubled wrap."""
    from gradedcy.findim import arrow_multiplicities, gabriel_quiver
    from gradedcy.linalg import SparseEliminator
    from gradedcy.slice_algebras import build_A, build_U

    di = four_face()
    qp = dual_qp(di)
    g2 = grading_from_matchings(di, [("d1", "d2", "om"),
                                     ("d1", "d2", "h2")], [-1, -1])
    p2 = jacobian_presentation(qp, g2)
    rc = RewriteContext(p2, 12)
    assert [rc.basis(-w).dim() for w in range(3)] == [12, 40, 96]
    A2 = build_A(p2, 2, cap=12)
    assert A2.dim == 64 and len(A2.idempotents) == 8
    mult = arrow_multiplicities(gabriel_quiver(A2))
    assert sum(mult.values()) == 14
    # two identical within-layer patterns and two crossing arrows
    within0 = {k: v for k, v in mult.items()
               if k[0] in ("v0", "v1", "v2", "v3")
               and k[1] in ("v0", "v1", "v2", "v3")}
    within1 = {(s, t): v for (s, t), v in mult.items()
               if s in ("v4", "v5", "v6", "v7")
               and t in ("v4", "v5", "v6", "v7")}
    assert sorted(within0.values()) == sorted(within1.values()) \
        == [1, 1, 2, 2]
    crossing = {k: v for k, v in mult.items()
                if (k not in within0) and k not in within1}
    assert sorted(crossing.values()) == [1, 1]

    U2 = build_U(p2, 2, cap=12)
    assert U2.dim == 188
    idem = set(A2.idempotents)
    el = SparseEliminator()
    for j in (i for i in range(A2.dim) if i not in idem):
        jv = {j: Fraction(1)}
        for u in range(U2.dim):
            uv = {u: Fraction(1)}
            for v in (U2.act_left(jv, uv), U2.act_right(uv, jv)):
                if v:
                    el.add(v)
    rem = sorted(U2.labels[i] for i in range(U2.dim) if i not in el.pivots)
    assert rem == ["(0=>1)d1", "(0=>1)d2", "(1=>0)e_f1", "(1=>0)e_f2",
                   "(1=>0)e_f3", "(1=>0)e_f4"]


def test_four_face_second_grading_full_extension_quiver():
    from gradedcy.findim import arrow_multiplicities, gabriel_quiver
    from gradedcy.slice_algebras import build_A, build_B, build_U

    di = four_face()
    qp = dual_qp(di)
    g2 = grading_from_matchings(di, [("d1", "d2", "om"),
                                     ("d1", "d2", "h2")], [-1, -1])
    p2 = jacobian_presentation(qp, g2)
    A2 = build_A(p2, 2, cap=12)
    U2 = build_U(p2, 2, cap=12)
    B2 = build_B(A2, U2)
    assert B2.dim == 252
    mult = arrow_multiplicities(gabriel_quiver(B2))
    # the displayed extension quiver: the fourteen layer arrows plus the
    # four downward idempotents and the doubled wrap
    assert sum(mult.values()) == 20
