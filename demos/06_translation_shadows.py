"""Dimension-vector shadows of the translation and Gorenstein bounds.

The inverse Coxeter matrix acts on dimension vectors the way the inverse
translation acts on modules; knitting iterates it through the mesh
recursion; and the labeled orbit of twists walks one node per step, so
that a steps equal one full translation.  The trivial extensions built
from the same data have two-sided injective dimension bounded by the
declared dimension, which is checked by explicit resolutions.
"""

from pathlib import Path

from gradedcy import (DimVecOrbit, OrbitLabel, build_AUB, cartan_matrix,
                      coxeter_step, injective_dimension,
                      is_iwanaga_gorenstein, knit_component,
                      load_presentation, mesh_additive, verify_root)
from gradedcy.quiver import Arrow, Quiver

DATA = Path(__file__).resolve().parent.parent / "data"

KRONECKER = Quiver(["0", "1"], [Arrow("x", "0", "1", 0),
                                Arrow("y", "0", "1", 0)])
C = cartan_matrix(KRONECKER)
Phi, Phi_inv = coxeter_step(C)
print("Cartan:", C, " inverse Coxeter:", Phi_inv)

comp = knit_component(KRONECKER, 6)
print("knitted band:", [comp.nodes[(k, v)].dimvec
                        for k in range(4) for v in ("1", "0")])
print("mesh additive:", mesh_additive(comp))

pres = load_presentation(DATA / "k_xy.pres")
orbit = DimVecOrbit(pres, 2)
print("orbit dimension vectors:",
      [orbit.dimvec(OrbitLabel(i, 0)) for i in range(6)])
print("twenty-step root check (a = 2):",
      verify_root(pres, 2, 20, cap=30).passed)

weighted = load_presentation(DATA / "k_xy_23.pres")
print("twenty-step root check (a = 5):",
      verify_root(weighted, 5, 20, cap=32).passed)

beilinson = load_presentation(DATA / "k_xyz.pres")
print("twenty-step root check (a = 3, 3-CY, A with relations):",
      verify_root(beilinson, 3, 20, cap=30).passed)

for name, a, d in (("k_x.pres", 1, 1), ("k_xy.pres", 2, 1),
                   ("k_xyz.pres", 3, 2)):
    p = load_presentation(DATA / name)
    A, U, B = build_AUB(p, a)
    rep = is_iwanaga_gorenstein(B, d, d + 2)
    print(f"{name}: extension algebra dim {B.dim}, injective dimensions "
          f"{rep.inj_dim_left}/{rep.inj_dim_right}, bound d = {d}: "
          f"{'holds' if rep.holds else 'fails'}")
print("hereditary comparison: the two-arrow path algebra has injective "
      "dimension",
      injective_dimension(build_AUB(pres, 2)[0], "left", 3))
