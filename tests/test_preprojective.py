from fractions import Fraction

import pytest

from gradedcy.errors import Cyclic
from gradedcy.fdalgebra import FDAlgebra
from gradedcy.linalg import SparseEliminator
from gradedcy.preprojective import (block_arrow_images,
                                    block_trivial_extension, double_quiver,
                                    ext_bimodule, layered_presentation,
                                    path_algebra,
                                    preprojective_presentation, star_name)
from gradedcy.quiver import Arrow, NCPoly, Quiver
from gradedcy.normalwords import RewriteContext
from gradedcy.rewriting import length_table
from gradedcy.slice_algebras import reduce_mod, relations_from_structure

from helpers import (act_left, act_right, brute_force_graded_dimension,
                     check_bimodule)

KRONECKER = Quiver(["0", "1"], [Arrow("x", "0", "1", 0),
                                Arrow("y", "0", "1", 0)])
THREE = Quiver(["1", "2", "3"], [Arrow("a", "1", "2", 0),
                                 Arrow("b", "1", "2", 0),
                                 Arrow("c", "2", "3", 0)])
A2 = Quiver(["0", "1"], [Arrow("a", "0", "1", 0)])


def test_cyclic_rejected():
    loop = Quiver(["0"], [Arrow("x", "0", "0", 0)])
    with pytest.raises(Cyclic):
        preprojective_presentation(loop)
    for build in (path_algebra, ext_bimodule,
                  lambda Q: block_trivial_extension(Q, 2)):
        with pytest.raises(Cyclic, match="^path algebra is infinite "
                           "dimensional for cyclic Q$"):
            build(loop)


def test_single_vertex_no_arrows():
    point = Quiver(["0"], [])
    pres = preprojective_presentation(point)
    assert not pres.relations
    rc = RewriteContext(pres, 4)
    assert rc.basis(0).dim() == 1 and rc.basis(-1).dim() == 0


def test_a2_layers():
    pres = preprojective_presentation(A2)
    rc = RewriteContext(pres, 8)
    assert [rc.basis(-k).dim() for k in range(4)] == [3, 1, 0, 0]
    U = ext_bimodule(A2)
    assert U.dim == 1


def test_kronecker_layer_and_coxeter_crosscheck():
    from gradedcy.arshadow import cartan_matrix, coxeter_step
    from gradedcy.linalg import mat_vec

    U = ext_bimodule(KRONECKER)
    check_bimodule(U)
    assert U.dim == 12
    # the layer dimension equals the total of the inverse Coxeter matrix
    # applied to the projective dimension vectors
    C = cartan_matrix(KRONECKER)
    _, Phi_inv = coxeter_step(C)
    total = 0
    n = len(KRONECKER.vertices)
    for j in range(n):
        col = [Fraction(C[i][j]) for i in range(n)]
        total += sum(int(x) for x in mat_vec(Phi_inv, col))
    assert total == U.dim
    # and the brute-force ideal-slice quotient agrees
    pres = preprojective_presentation(KRONECKER)
    assert brute_force_graded_dimension(pres, -1, 8) == 12


def test_mesh_relation_vanishes_on_layer():
    # sum over arrows of (a . u(a*) - u(a*) . a) is zero for the chosen
    # basis lifts (the normal forms of the starred arrows themselves)
    for Q in (KRONECKER, THREE):
        A = path_algebra(Q)
        U = ext_bimodule(Q)
        total = {}
        from helpers import vec_add
        label_pos = {l: i for i, l in enumerate(U.labels)}
        apos = {l: i for i, l in enumerate(A.labels)}
        for a in Q.arrows:
            star = {label_pos[star_name(a.name)]: Fraction(1)}
            avec = {apos[a.name]: Fraction(1)}
            total = vec_add(total, act_left(U, avec, star))
            total = vec_add(total, act_right(U, star, avec), -1)
        assert total == {}, Q


def test_layer_top_is_starred_arrows():
    for Q in (KRONECKER, THREE, A2):
        A = path_algebra(Q)
        U = ext_bimodule(Q)
        rad_basis = [i for i in range(A.dim)
                     if i not in set(A.idempotents)]
        el = SparseEliminator()
        for j in rad_basis:
            for u in range(U.dim):
                for v in (act_left(U, {j: Fraction(1)}, {u: Fraction(1)}),
                          act_right(U, {u: Fraction(1)}, {j: Fraction(1)})):
                    if v:
                        el.add(v)
        assert U.dim - el.rank == len(Q.arrows)


def test_double_quiver_shape():
    dq = double_quiver(THREE)
    assert len(dq.arrows) == 6
    stars = [a for a in dq.arrows if a.name.endswith("_s")]
    assert all(a.degree == -1 for a in stars)
    plain = {a.name: a for a in THREE.arrows}
    for s in stars:
        base = plain[s.name[:-2]]
        assert (s.source, s.target) == (base.target, base.source)


def test_layered_arrow_counts():
    # n = 3: 3 layer copies per arrow, 2 downward arrows per vertex, one
    # wrap arrow per base arrow
    for Q in (KRONECKER, THREE):
        pres = layered_presentation(Q, 3)
        expected = len(Q.arrows) * 3 + len(Q.vertices) * 2 + len(Q.arrows)
        assert len(pres.quiver.arrows) == expected


@pytest.mark.parametrize("Q,qname", [(KRONECKER, "kronecker"),
                                     (THREE, "three")])
@pytest.mark.parametrize("n", [1, 2])
def test_layered_matches_blocks(Q, qname, n):
    """Identical per-vertex-pair dimension tables up to length 6, and the
    two relation sets generate the same ideal (mutual reduction)."""
    pres = layered_presentation(Q, n)
    lt = length_table(pres, 6)
    table = {pair: sum(counts) for pair, counts in lt.items()}

    B = block_trivial_extension(Q, n)
    lq, images, videm = block_arrow_images(Q, n, B)
    # per-vertex-pair dimensions of B via the idempotents
    bidem = {v: B.basis_vec(B.idempotents[k]) for v, k in videm.items()}
    btable = {}
    for v1 in lq.vertices:
        for v2 in lq.vertices:
            count = 0
            for i in range(B.dim):
                w = B.product(bidem[v1], B.product(B.basis_vec(i),
                                                   bidem[v2]))
                if w == {i: Fraction(1)}:
                    count += 1
            if count:
                btable[(v1, v2)] = count
    assert table == btable

    found = relations_from_structure(B, lq, images, cap=6,
                                     vertex_idempotents=videm)
    stated = pres.relations
    assert all(not r for r in reduce_mod(found, stated, lq, 6))
    assert all(not r for r in reduce_mod(stated, found, lq, 6))


def test_relations_ignore_an_explicit_zero_in_an_arrow_image():
    """An arrow image with an explicit zero entry is the same element of
    B, so it gives the same relations as the image without the entry."""
    B = block_trivial_extension(A2, 1)
    lq, images, videm = block_arrow_images(A2, 1, B)
    name, vec = next(iter(images.items()))
    other = next(i for i in range(B.dim) if i not in vec)
    padded = {**images, name: {**vec, other: 0}}
    plain, found = [[r.terms for r in relations_from_structure(
        B, lq, imgs, cap=6, vertex_idempotents=videm)]
        for imgs in (images, padded)]
    assert plain and found == plain


def test_block_dimensions():
    assert block_trivial_extension(KRONECKER, 1).dim == 16
    assert block_trivial_extension(KRONECKER, 2).dim == 24
    assert block_trivial_extension(THREE, 1).dim == 31
    assert block_trivial_extension(THREE, 2).dim == 47
