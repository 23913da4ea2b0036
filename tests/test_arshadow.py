import pytest

from gradedcy.arshadow import (DimVecOrbit, OrbitLabel, cartan_matrix,
                               coxeter_step, knit_component, mesh_additive,
                               verify_root)
from gradedcy.errors import NotHereditary, NotUnimodular
from gradedcy.findim import gabriel_quiver
from gradedcy.quiver import Arrow, Quiver
from gradedcy.slice_algebras import build_A

from helpers import load

KRONECKER = Quiver(["0", "1"], [Arrow("x", "0", "1", 0),
                                Arrow("y", "0", "1", 0)])
A2 = Quiver(["0", "1"], [Arrow("a", "0", "1", 0)])


def test_cartan_matrices():
    assert cartan_matrix(A2) == [[1, 0], [1, 1]]
    assert cartan_matrix(KRONECKER) == [[1, 0], [2, 1]]
    discrete = Quiver(["0", "1", "2"], [])
    assert cartan_matrix(discrete) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_cartan_rejects_cycles():
    loop = Quiver(["0"], [Arrow("x", "0", "0", 0)])
    with pytest.raises(NotHereditary):
        cartan_matrix(loop)


def test_coxeter_inverse():
    C = cartan_matrix(KRONECKER)
    Phi, Phi_inv = coxeter_step(C)
    n = len(C)
    prod = [[sum(Phi[i][k] * Phi_inv[k][j] for k in range(n))
             for j in range(n)] for i in range(n)]
    assert prod == [[1, 0], [0, 1]]
    with pytest.raises(NotUnimodular):
        coxeter_step([[2, 0], [0, 1]])
    # not square: refused before the unimodularity check could pass it
    with pytest.raises(ValueError, match="not a square matrix: 2 rows of "
                       "length 3"):
        coxeter_step([[1, 0, 5], [0, 1, 0]])


def test_kronecker_preprojective_band():
    comp = knit_component(KRONECKER, 6)
    assert not comp.closed
    assert mesh_additive(comp)
    # classical (n, n+1) band
    assert comp.nodes[(0, "1")].dimvec == (0, 1)
    assert comp.nodes[(0, "0")].dimvec == (1, 2)
    assert comp.nodes[(1, "1")].dimvec == (2, 3)
    assert comp.nodes[(1, "0")].dimvec == (3, 4)
    assert comp.nodes[(2, "1")].dimvec == (4, 5)


def test_a2_closes_up():
    comp = knit_component(A2, 6)
    assert comp.closed
    # the component of A2 has three vertices in total
    assert len(comp.nodes) <= 4
    assert mesh_additive(comp)


def test_weighted_knit_mesh_additivity():
    A5 = Quiver(["0", "1", "2", "3", "4"],
                [Arrow("x0", "0", "2", 0), Arrow("x1", "1", "3", 0),
                 Arrow("x2", "2", "4", 0), Arrow("y0", "0", "3", 0),
                 Arrow("y1", "1", "4", 0)])
    comp = knit_component(A5, 8)
    assert not comp.closed
    assert mesh_additive(comp)


def orbit_cartan(pres, a):
    """A's Cartan matrix as verify_root reads it: column i is the vector
    of R(i), since dim e_i A e_l = dim R_{i-l}."""
    orbit = DimVecOrbit(pres, a)
    return [list(row) for row in
            zip(*(orbit.dimvec(OrbitLabel(-i, 0)) for i in range(a)))]


def path_cartan(pres, a):
    """The paths of A's Gabriel quiver, counted as cartan_matrix counts
    them; A's Cartan matrix only when A is hereditary."""
    return cartan_matrix(gabriel_quiver(build_A(pres, a)))


def test_orbit_dimvecs_match_projectives():
    """Labels 0 .. a-1 carry exactly the projective dimension vectors of
    the slice algebra, read from the graded pieces: on the 2-CY corpus,
    where A is hereditary, they are the path counts of its quiver."""
    for name, a in (("k_xy.pres", 2), ("k_xy_23.pres", 5),
                    ("skew_2.pres", 2), ("skew_3.pres", 2),
                    ("skew_4.pres", 2)):
        pres = load(name)
        assert orbit_cartan(pres, a) == path_cartan(pres, a), name


def test_orbit_cartan_matrix_is_not_the_path_count_when_a_has_relations():
    """The Beilinson algebra of P^2 (k[x,y,z], a = 3) has three arrows
    between neighbouring vertices and their commutation relations: the
    paths 0 -> 2 number 9, but dim R_{-2} = 6."""
    pres = load("k_xyz.pres")
    assert orbit_cartan(pres, 3) == [[1, 0, 0], [3, 1, 0], [6, 3, 1]]
    assert path_cartan(pres, 3) == [[1, 0, 0], [3, 1, 0], [9, 3, 1]]


def test_label_level_root():
    pres = load("k_xy.pres")
    orbit = DimVecOrbit(pres, 2)
    lab = OrbitLabel(3, 1)
    stepped = lab
    for _ in range(2):
        stepped = orbit.step(stepped)
    t = orbit.translate(lab)
    assert (stepped.i, stepped.j) == (t.i, t.j)
    assert str(OrbitLabel(1, 0)) == "R(-1)"
    assert str(OrbitLabel(-1, 2)) == "R(1)[2]"


def test_verify_root_kronecker():
    report = verify_root(load("k_xy.pres"), 2, 20, cap=30)
    assert report.passed


def test_verify_root_weighted():
    report = verify_root(load("k_xy_23.pres"), 5, 20, cap=30)
    assert report.passed


def test_verify_root_default_cap_completes_once(monkeypatch):
    """Without a cap, verify_root counts to steps + 2a + 4 as the CLI
    does: one completion and its probe.  Starting at 2 (a + 2) and
    recompleting past each deeper degree built 12 systems, at caps 10,
    12, 13, 15, ..., 27, on k[x,y,z] with a = 3 over 20 steps, and so
    did a cap of 10.  A cap below the deepest degree the steps read,
    steps + 2a - 2 = 24, is now raised to it: one completion and its
    probe, and the same report and vectors as the default cap.  A direct
    DimVecOrbit caller past its cap completes once more per vector."""
    from gradedcy import rewriting

    caps, complete = [], rewriting.truncated_rewriting

    def counting(pres, cap):
        caps.append(cap)
        return complete(pres, cap)

    monkeypatch.setattr(rewriting, "truncated_rewriting", counting)
    report = verify_root(load("k_xyz.pres"), 3, 20)
    assert report.passed
    assert caps == [30, 32]
    caps.clear()
    low = verify_root(load("k_xyz.pres"), 3, 20, cap=10)
    assert caps == [24, 26]
    assert low[:4] == report[:4]
    assert [low.orbit.dimvec(OrbitLabel(i, 0)) for i in range(23)] == \
        [report.orbit.dimvec(OrbitLabel(i, 0)) for i in range(23)]
    assert caps == [24, 26]
    # a direct caller reading past the cap: the vector at 10 reads degrees
    # -10..-14, and the cap is raised once, to 16 (its probe at 18), where
    # it regrew at -10 and again at -13 (caps 4, 12, 14, 15, 17)
    caps.clear()
    orbit = DimVecOrbit(load("k_xy_23.pres"), 5, cap=4)
    assert orbit.dimvec(OrbitLabel(10, 0)) == (2, 2, 3, 2, 3)
    assert caps == [4, 16, 18]


def test_kronecker_band_is_shift_orbit():
    """Moving one place along the band is the one-step shift: the orbit
    dimension vectors walk through the knitted component."""
    pres = load("k_xy.pres")
    orbit = DimVecOrbit(pres, 2)
    comp = knit_component(KRONECKER, 10)
    # R(-i) for even i sits at (i/2, slot 0), for odd i at ((i-1)/2+1, slot 1)
    for i in range(0, 8):
        vec = orbit.dimvec(OrbitLabel(i, 0))
        if i % 2 == 0:
            assert comp.nodes[(i // 2, "0")].dimvec == vec
        else:
            assert comp.nodes[(i // 2 + 1, "1")].dimvec == vec
