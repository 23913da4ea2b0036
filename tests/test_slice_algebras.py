import inspect
import textwrap
from fractions import Fraction

import pytest

from gradedcy import preprojective, rewriting, slice_algebras
from gradedcy.dimer import (dual_qp, grading_from_matchings,
                            jacobian_presentation, load_dimer)
from gradedcy.errors import (NonStabilizing, NotSurjective, PositiveDegree,
                             WindowViolation)
from gradedcy.findim import gabriel_quiver, radical
from gradedcy.normalwords import RewriteContext
from gradedcy.preprojective import (block_arrow_images,
                                    block_trivial_extension, ext_bimodule,
                                    path_algebra)
from gradedcy.quiver import (Arrow, GradedQuiverPresentation, Quiver,
                             arrow_multiplicities, load_presentation,
                             parse_presentation)
from gradedcy.slice_algebras import (build_A, build_AUB, build_tilde,
                                     build_U, cluster_hom_shadow,
                                     multiply_grading,
                                     relations_from_structure)

from helpers import (DATA, act_left, act_right, build_A_by_reduction,
                     build_tilde_by_scan, build_U_by_reduction,
                     check_associative, check_bimodule, check_unit,
                     direct_sum_decomposition_by_idempotents,
                     ext_bimodule_by_reduction, linear_quiver, load,
                     path_algebra_by_composition, radical_powers,
                     relations_from_structure_by_solving, structure_json)


def test_dimensions_corpus():
    expected = {
        "k_x.pres": (1, (1, 1, 2)),
        "k_xy.pres": (2, (4, 8, 12)),
        "k_xyz.pres": (3, (15, 33, 48)),
        "skew_2.pres": (2, (4, 8, 12)),
        "k_xy_23.pres": (5, (11, 14, 25)),
    }
    for name, (a, dims) in expected.items():
        A, U, B = build_AUB(load(name), a)
        assert (A.dim, U.dim, B.dim) == dims, name
    assert build_U(load("k_xy.pres"), 2).dim == 8


def test_algebra_axioms_exhaustively():
    for name, a in (("k_x.pres", 1), ("k_xy.pres", 2), ("skew_2.pres", 2)):
        A, U, B = build_AUB(load(name), a)
        check_associative(A)
        check_unit(A)
        check_associative(B)
        check_unit(B)
        check_bimodule(U)


def test_gabriel_quiver_of_A():
    A = build_A(load("k_xy.pres"), 2)
    assert arrow_multiplicities(gabriel_quiver(A)) == {("v0", "v1"): 2}
    # weights (2, 3): five vertices with arrows l -> l+2 and l -> l+3
    A5 = build_A(load("k_xy_23.pres"), 5)
    mult = arrow_multiplicities(gabriel_quiver(A5))
    assert mult == {("v0", "v2"): 1, ("v1", "v3"): 1, ("v2", "v4"): 1,
                    ("v0", "v3"): 1, ("v1", "v4"): 1}


def test_gabriel_quiver_of_B():
    _, _, B = build_AUB(load("k_xy.pres"), 2)
    assert arrow_multiplicities(gabriel_quiver(B)) == \
        {("v0", "v1"): 2, ("v1", "v0"): 1}
    _, _, B1 = build_AUB(load("k_x.pres"), 1)
    assert arrow_multiplicities(gabriel_quiver(B1)) == {("v0", "v0"): 1}
    _, _, B3 = build_AUB(load("k_xyz.pres"), 3)
    assert arrow_multiplicities(gabriel_quiver(B3)) == \
        {("v0", "v1"): 3, ("v1", "v2"): 3, ("v1", "v0"): 1, ("v2", "v1"): 1}


def test_positive_degree_rejected():
    pres = parse_presentation("[vertices]\nP\n[arrows]\nx P P 1\n")
    with pytest.raises(PositiveDegree):
        build_A(pres, 2)


def test_U_part_squares_to_zero():
    A, U, B = build_AUB(load("k_xy.pres"), 2)
    n = A.dim
    for i in range(U.dim):
        for j in range(U.dim):
            assert B.product({n + i: Fraction(1)}, {n + j: Fraction(1)}) \
                == {}


def test_radical_block_decomposition():
    for name, a in (("k_x.pres", 1), ("k_xy.pres", 2), ("k_xyz.pres", 3),
                    ("skew_2.pres", 2)):
        A, U, B = build_AUB(load(name), a)
        rad_b = radical_powers(B)
        rad_a = radical_powers(A)
        assert (radical(B), radical(A)) == (rad_b.basis, rad_a.basis)
        # J_B = J_A + U elementwise: the non-idempotent part of B's basis
        # is exactly A's non-idempotent part plus all of U
        assert len(rad_b.basis) == len(rad_a.basis) + U.dim
        # J_B/J_B^2 block formula: dims per slot pair equal the A-part
        # plus the U-top part
        j2b = rad_b.powers[1].rank if len(rad_b.powers) > 1 else 0
        j2a = rad_a.powers[1].rank if len(rad_a.powers) > 1 else 0
        top_b = len(rad_b.basis) - j2b
        top_a = len(rad_a.basis) - j2a
        # U-top: U / (J_A U + U J_A)
        from gradedcy.linalg import SparseEliminator
        el = SparseEliminator()
        for j in rad_a.basis:
            for u in range(U.dim):
                v = act_left(U, {j: Fraction(1)}, {u: Fraction(1)})
                if v:
                    el.add(v)
                v = act_right(U, {u: Fraction(1)}, {j: Fraction(1)})
                if v:
                    el.add(v)
        u_top = U.dim - el.rank
        assert top_b == top_a + u_top, name


def test_multiply_grading():
    pres = load("k_x.pres")
    tripled = multiply_grading(pres, 3)
    rc = RewriteContext(tripled, 8)
    assert rc.basis(-3).dim() == 1
    assert rc.basis(-1).dim() == 0
    assert tripled.cy.a_invariant == 3
    same = multiply_grading(pres, 1)
    assert [a.degree for a in same.quiver.arrows] == \
        [a.degree for a in pres.quiver.arrows]
    assert multiply_grading(load("k_xy.pres"), 4).cy.a_invariant == 8


def test_build_tilde_identity_and_nakayama():
    A, U, B = build_AUB(load("k_x.pres"), 1)
    At, Ut, Bt = build_tilde(A, U, 1)
    assert (At.dim, Ut.dim, Bt.dim) == (A.dim, U.dim, B.dim)
    assert At.mult == A.mult
    for n in (2, 3, 5):
        At, Ut, Bt = build_tilde(A, U, n)
        check_associative(Bt)
        assert Bt.dim == 2 * n
        assert radical_powers(Bt).loewy_length == 2
        mult = arrow_multiplicities(gabriel_quiver(Bt))
        # one cyclic arrow per block step
        assert sorted(mult.values()) == [1] * n


def test_build_tilde_two_layer_quiver():
    # skew two-variable data at n = 2: two generator rows, downward
    # idempotent arrows, one wrapping arrow
    A, U, B = build_AUB(load("skew_2.pres"), 2)
    At, Ut, Bt = build_tilde(A, U, 2)
    assert (At.dim, Ut.dim, Bt.dim) == (8, 12, 20)
    mult = arrow_multiplicities(gabriel_quiver(Bt))
    # vertices: (block, slot): v0=(0,0) v1=(0,1) v2=(1,0) v3=(1,1)
    assert mult == {("v0", "v1"): 2, ("v2", "v3"): 2,   # generator rows
                    ("v2", "v0"): 1, ("v3", "v1"): 1,   # downward arrows
                    ("v1", "v2"): 1}                    # the wrap arrow


def test_cluster_hom_shadow():
    for m in (2, 3, 4):
        pres = load(f"skew_{m}.pres")
        assert cluster_hom_shadow(pres, 0) == 1
        assert cluster_hom_shadow(pres, -1) == m
        with pytest.raises(WindowViolation):
            cluster_hom_shadow(pres, 1)
        with pytest.raises(WindowViolation):
            cluster_hom_shadow(pres, -3)
    assert cluster_hom_shadow(load("k_x.pres"), 0) == 1


def test_relations_from_structure_dual_numbers():
    from gradedcy.quiver import Arrow, Quiver
    _, _, B1 = build_AUB(load("k_x.pres"), 1)
    guess = Quiver(["0"], [Arrow("t", "0", "0", 0)])
    # the single radical basis element is the loop image
    img = {"t": {radical(B1)[0]: Fraction(1)}}
    rels = relations_from_structure(B1, guess, img, cap=4)
    ctx_paths = [sorted(len(p) for p in r.terms) for r in rels]
    assert ctx_paths == [[2]]  # a single relation: the loop squared


def test_relations_from_structure_recovers_trivial_extension_ideal():
    from gradedcy.quiver import Arrow, GradedQuiverPresentation, Quiver
    from gradedcy.slice_algebras import reduce_mod

    A, U, B = build_AUB(load("k_xy.pres"), 2)
    labels = {l: i for i, l in enumerate(B.labels)}
    guess = Quiver(["0", "1"], [Arrow("x", "0", "1", -1),
                                Arrow("y", "0", "1", -1),
                                Arrow("u", "1", "0", 0)])
    images = {
        "x": {labels["a:(0->1)x"]: Fraction(1)},
        "y": {labels["a:(0->1)y"]: Fraction(1)},
        "u": {labels["u:(1=>0)e_P"]: Fraction(1)},
    }
    found = relations_from_structure(B, guess, images, cap=6)
    ctx = GradedQuiverPresentation(guess, []).ctx
    expected = [
        ctx_poly(ctx, [("x", "u", "y")], [("y", "u", "x")]),
        ctx_poly(ctx, [("u", "x", "u")], []),
        ctx_poly(ctx, [("u", "y", "u")], []),
    ]
    # mutual reduction to zero at cap 6
    assert all(not r for r in reduce_mod(found, expected, guess, 6))
    assert all(not r for r in reduce_mod(expected, found, guess, 6))


def ctx_poly(ctx, plus, minus):
    from gradedcy.quiver import NCPoly
    terms = {}
    for names in plus:
        terms[ctx.path_from_names(list(names))] = Fraction(1)
    for names in minus:
        terms[ctx.path_from_names(list(names))] = Fraction(-1)
    return NCPoly(terms)


def test_slot_decomposition():
    A, U, B = build_AUB(load("k_xy.pres"), 2)
    slots = direct_sum_decomposition_by_idempotents(B)
    assert len(slots) == B.dim


def test_tilde_matches_multiplied_grading():
    """The n-fold block algebra agrees with the construction applied to
    the grading multiplied by n (quiver and dimension)."""
    pres = load("k_x.pres")
    A, U, _ = build_AUB(pres, 1)
    for n in (2, 3):
        _, _, Bt = build_tilde(A, U, n)
        scaled = multiply_grading(pres, n)
        A2, U2, B2 = build_AUB(scaled, n)
        assert (A2.dim, U2.dim, B2.dim) == (Bt.dim // 2, Bt.dim // 2, Bt.dim)
        assert sorted(arrow_multiplicities(gabriel_quiver(B2)).values()) \
            == sorted(arrow_multiplicities(gabriel_quiver(Bt)).values())


def test_relations_from_structure_not_surjective():
    from gradedcy.errors import NotSurjective
    from gradedcy.quiver import Arrow, Quiver

    A, U, B = build_AUB(load("k_xy.pres"), 2)
    labels = {l: i for i, l in enumerate(B.labels)}
    guess = Quiver(["0", "1"], [Arrow("x", "0", "1", -1)])
    images = {"x": {labels["a:(0->1)x"]: Fraction(1)}}
    with pytest.raises(NotSurjective):
        relations_from_structure(B, guess, images, cap=6)


def test_structure_constants_json():
    import json
    A, _, _ = build_AUB(load("k_x.pres"), 1)
    data = json.loads(structure_json(A))
    assert data["dim"] == 1 and data["idempotents"] == ["(0->0)e_P"]


def test_tilde_matches_multiplied_grading_two_variables():
    pres = load("k_xy.pres")
    A, U, _ = build_AUB(pres, 2)
    _, _, Bt = build_tilde(A, U, 2)
    scaled = multiply_grading(pres, 2)
    A2, U2, B2 = build_AUB(scaled, 4)
    assert (A2.dim, U2.dim) == (2 * A.dim, A.dim + U.dim) == (8, 12)
    assert B2.dim == Bt.dim == 20
    assert sorted(arrow_multiplicities(gabriel_quiver(B2)).values()) == \
        sorted(arrow_multiplicities(gabriel_quiver(Bt)).values())


def test_skew_four_variables():
    from gradedcy.findim import is_iwanaga_gorenstein
    A, U, B = build_AUB(load("skew_4.pres"), 2)
    assert (A.dim, U.dim, B.dim) == (6, 24, 30)
    assert arrow_multiplicities(gabriel_quiver(B)) == \
        {("v0", "v1"): 4, ("v1", "v0"): 1}
    assert is_iwanaga_gorenstein(B, 1, 3).holds


def test_relations_from_structure_minimal_count():
    from gradedcy.quiver import Arrow, Quiver
    A, U, B = build_AUB(load("k_xy.pres"), 2)
    labels = {l: i for i, l in enumerate(B.labels)}
    guess = Quiver(["0", "1"], [Arrow("x", "0", "1", -1),
                                Arrow("y", "0", "1", -1),
                                Arrow("u", "1", "0", 0)])
    images = {"x": {labels["a:(0->1)x"]: Fraction(1)},
              "y": {labels["a:(0->1)y"]: Fraction(1)},
              "u": {labels["u:(1=>0)e_P"]: Fraction(1)}}
    found = relations_from_structure(B, guess, images, cap=6)
    assert len(found) == 3
    assert sorted(len(next(iter(r.terms))) for r in found) == [3, 3, 3]


def test_weighted_slice_algebra_axioms():
    A, U, B = build_AUB(load("k_xy_23.pres"), 5)
    check_associative(B)
    check_unit(B)
    check_bimodule(U)


def test_deep_window_duality():
    from gradedcy.duality import (builtin_resolution, check_twisted_cy,
                                  sign_twist)
    pres = load("k_xy.pres")
    v = check_twisted_cy(pres, builtin_resolution(pres),
                         sign_twist(pres, 4), window=(0, -10), cap=12)
    assert v.passed
    assert all(exp == got for _, exp, got, _ in v.dim_rows)


# ---------------------------------------------------------------------------
# structure constants through the arrow maps versus reduction from scratch
# ---------------------------------------------------------------------------

CORPUS = ["k_x", "k_xy", "k_xy_23", "k_xyz", "skew_2", "skew_3", "skew_4"]
FOUR_FACE_GRADINGS = {
    "four_face one": [("d1", "d2", "om")],
    "four_face two": [("d1", "d2", "om"), ("d1", "d2", "h2")]}
QUIVERS = ["a2", "kronecker", "three_vertex"]


def _algebra_faults(A, want):
    return [f for f in ("labels", "mult", "idempotents")
            if getattr(A, f) != getattr(want, f)]


def _bimodule_faults(U, want):
    return [f for f in ("labels", "left", "right")
            if getattr(U, f) != getattr(want, f)]


def _slice_faults(pres, a, cap=None):
    """Fields of A and U where build_A / build_U differ from the oracle
    that reduces every product of two basis paths from scratch; A is
    checked as built alone and as U's algebra, read off U's context."""
    A, want_A = build_A(pres, a, cap), build_A_by_reduction(pres, a, cap)
    U = build_U(pres, a, cap)
    want_U = build_U_by_reduction(pres, a, cap, A=want_A)
    return _algebra_faults(A, want_A) + _algebra_faults(U.algebra, want_A) \
        + _bimodule_faults(U, want_U)


def _layer_faults(Q):
    """Fields where ext_bimodule and the n = 1..3 block algebras differ
    from the ones built on the oracle's first preprojective layer."""
    want_U = ext_bimodule_by_reduction(Q)
    faults = _bimodule_faults(ext_bimodule(Q), want_U)
    for n in (1, 2, 3):
        want = build_tilde(path_algebra(Q), want_U, n)[2]
        faults += [f"n={n} {f}" for f in
                   _algebra_faults(block_trivial_extension(Q, n), want)]
    return faults


@pytest.mark.parametrize("name", QUIVERS + ["A9"])
def test_path_algebra_matches_the_compose_table(name):
    """kQ read off the degree-0 listing of the preprojective presentation
    equals the compose table over every pair of paths, once the two bases
    are matched by label: the same labels, idempotents and structure
    constants."""
    Q = linear_quiver(9) if name == "A9" else \
        load_presentation(DATA / f"{name}.quiver").quiver
    A, want = path_algebra(Q), path_algebra_by_composition(Q)
    assert sorted(A.labels) == sorted(set(want.labels))
    to = [A.labels.index(label) for label in want.labels]
    assert A.idempotents == [to[e] for e in want.idempotents]
    assert A.mult == {(to[i], to[j]): {to[k]: c for k, c in v.items()}
                      for (i, j), v in want.mult.items()}


def test_layer_past_eight_vertices_matches_the_reduction_oracle():
    """The first layer of the linear quiver A9 has words of 17 arrows, past
    the cap of 8 that ext_bimodule used to fix; read off a context whose
    cap Q sets, it equals the oracle's at cap 17, field by field."""
    Q = linear_quiver(9)
    U = ext_bimodule(Q)
    assert _algebra_faults(U.algebra, path_algebra(Q)) == []
    assert _bimodule_faults(U, ext_bimodule_by_reduction(Q, cap=17)) == []


def _four_face(name):
    dimer = load_dimer(DATA / "four_face.dimer")
    matchings = FOUR_FACE_GRADINGS[name]
    return jacobian_presentation(dual_qp(dimer), grading_from_matchings(
        dimer, matchings, [-1] * len(matchings)))


@pytest.mark.parametrize("name,a", [(c, a) for c in CORPUS
                                    for a in (1, 2, 3, 4)]
                         + [("k_xy_23", 5)]
                         + [(name, 1) for name in FOUR_FACE_GRADINGS]
                         + [(q, None) for q in QUIVERS])
def test_products_match_the_reduction_oracle(name, a):
    """Labels, structure constants, idempotents and U's actions
    read off the arrow maps equal those of reducing every product of two
    basis paths: the corpus at a = 1..4 (k_xy_23, with two arrow degrees,
    also at a = 5), the four_face Jacobian algebra under both gradings at
    cap 12 (degree-0 arrows, so one degree has words of many lengths),
    and the first preprojective layer with the block algebras built on it
    for three quivers."""
    if a is None:
        Q = load_presentation(DATA / f"{name}.quiver").quiver
        assert _layer_faults(Q) == []
    elif name in FOUR_FACE_GRADINGS:
        assert _slice_faults(_four_face(name), a, cap=12) == []
    else:
        assert _slice_faults(load(f"{name}.pres"), a) == []


def test_products_oracle_catches_an_index_mutant(monkeypatch):
    """An off-by-one in the base offset of _products (the element number
    of a product's position) is caught in the slice algebras and in kQ,
    which the preprojective layer multiplies with _products too: the
    algebra's own check refuses an idempotent before any comparison."""
    _mutant(monkeypatch, slice_algebras._products,
            "{b + k: c", "{b + k - 1: c")
    with pytest.raises(ValueError, match="is not idempotent"):
        _slice_faults(load("skew_3.pres"), 2)
    with pytest.raises(ValueError, match="is not idempotent"):
        _layer_faults(load_presentation(DATA / "kronecker.quiver").quiver)


# ---------------------------------------------------------------------------
# one completion, block algebras in one pass, relations off one eliminator
# ---------------------------------------------------------------------------

def test_one_completion_serves_A_and_U(monkeypatch):
    """build_AUB completes the rewriting system once at U's cap and once
    at cap + 2 for the stability probe; A and U used to complete their
    own contexts (caps 6, 8, 8, 10)."""
    caps, complete = [], rewriting.truncated_rewriting

    def counting(pres, cap):
        caps.append(cap)
        return complete(pres, cap)

    monkeypatch.setattr(rewriting, "truncated_rewriting", counting)
    build_AUB(load("skew_3.pres"), 2)
    assert caps == [8, 10]


def test_stability_is_checked_before_any_listing(monkeypatch):
    """build_AUB checks every degree 0..-a for stability before it lists
    any of them: k_xy at cap 2 does not stabilize at degree -3, and no
    listing has been built when that is refused."""
    listed, listing = [], RewriteContext.listing

    def spy(self, degree):
        listed.append(degree)
        return listing(self, degree)

    monkeypatch.setattr(RewriteContext, "listing", spy)
    with pytest.raises(NonStabilizing, match="degree -3 "):
        build_AUB(load("k_xy.pres"), 3, cap=2)
    assert listed == []


def _fields(x):
    return {k: v for k, v in vars(x).items() if k != "algebra"}


def _tilde_faults(A, U, n):
    """Fields where build_tilde differs from the scanning oracle, for A~,
    U~ and B~."""
    got = slice_algebras.build_tilde(A, U, n)
    want = build_tilde_by_scan(A, U, n)
    return [(name, f) for name, g, w in zip(("A~", "U~", "B~"), got, want)
            for f in _fields(w) if _fields(g)[f] != _fields(w)[f]]


@pytest.mark.parametrize("name,a", [(c, a) for c in CORPUS
                                    for a in (1, 2, 3)])
def test_block_algebras_match_the_scanning_oracle(name, a):
    """Every field of A~, U~ and B~ at n = 1..4 equals the oracle's, which
    scans every (block, A element, U~ element) triple."""
    A, U, _ = build_AUB(load(f"{name}.pres"), a)
    for n in (1, 2, 3, 4):
        assert _tilde_faults(A, U, n) == [], n


def _mutant(monkeypatch, function, old, new):
    """Replace the slice_algebras `function`, in that module and where the
    preprojective layer imports it, by its source with one edit."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1
    namespace = dict(vars(slice_algebras))
    exec(source.replace(old, new), namespace)
    for module in (slice_algebras, preprojective):
        if hasattr(module, function.__name__):
            monkeypatch.setattr(module, function.__name__,
                                namespace[function.__name__])


def test_block_oracle_catches_a_corner_mutant(monkeypatch):
    """U's right action written into block 0 instead of the corner."""
    _mutant(monkeypatch, slice_algebras.build_tilde,
            "right[corner + u, corner + i]", "right[corner + u, i]")
    A, U, _ = build_AUB(load("skew_3.pres"), 2)
    assert ("U~", "right") in _tilde_faults(A, U, 2)


def _three_arrows(B):
    labels = {l: i for i, l in enumerate(B.labels)}
    guess = Quiver(["0", "1"], [Arrow("x", "0", "1", -1),
                                Arrow("y", "0", "1", -1),
                                Arrow("u", "1", "0", 0)])
    return guess, {"x": {labels["a:(0->1)x"]: Fraction(1)},
                   "y": {labels["a:(0->1)y"]: Fraction(1)},
                   "u": {labels["u:(1=>0)e_P"]: Fraction(1)}}


def _reconstruction(case):
    """(algebra, guess, arrow images, cap, vertex idempotents) of each
    input that the reconstruction tests use."""
    if case == "dual numbers":
        B = build_AUB(load("k_x.pres"), 1)[2]
        return (B, Quiver(["0"], [Arrow("t", "0", "0", 0)]),
                {"t": {radical(B)[0]: Fraction(1)}}, 4, None)
    if case.startswith("k_xy"):
        B = build_AUB(load("k_xy.pres"), 2)[2]
        guess, images = _three_arrows(B)
        if case == "k_xy one arrow":
            guess = Quiver(["0", "1"], [guess.arrow("x")])
            images = {"x": images["x"]}
        return B, guess, images, 6, None
    name, n = case.split()
    Q = load_presentation(DATA / f"{name}.quiver").quiver
    B = block_trivial_extension(Q, int(n))
    lq, images, videm = block_arrow_images(Q, int(n), B)
    return B, lq, images, 6, videm


def _relations(function, case):
    B, guess, images, cap, videm = _reconstruction(case)
    ctx = GradedQuiverPresentation(guess, []).ctx
    try:
        found = function(B, guess, images, cap, vertex_idempotents=videm)
    except NotSurjective as e:
        return str(e)
    return [(r.format(ctx), list(r.terms.items())) for r in found]


RECONSTRUCTIONS = ["dual numbers", "k_xy three arrows", "k_xy one arrow"] \
    + [f"{q} {n}" for q in ("kronecker", "three_vertex") for n in (1, 2)]


@pytest.mark.parametrize("case", RECONSTRUCTIONS)
def test_relations_match_the_solving_oracle(case):
    """The relations read off the tags equal, formatted and term by term,
    those of the dense solve for each dependent word, on every input of
    the reconstruction tests (k_xy with one arrow is not surjective)."""
    assert _relations(relations_from_structure, case) \
        == _relations(relations_from_structure_by_solving, case)


def test_relations_oracle_catches_a_tag_mutant(monkeypatch):
    """A tag read one index off names the wrong words."""
    _mutant(monkeypatch, slice_algebras.relations_from_structure,
            "tried[m - alg.dim]", "tried[m - alg.dim - 1]")
    assert _relations(slice_algebras.relations_from_structure,
                      "k_xy three arrows") \
        != _relations(relations_from_structure_by_solving,
                      "k_xy three arrows")
