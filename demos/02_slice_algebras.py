"""Slice matrix algebras and trivial extensions.

From a negatively graded presentation and a positive integer a, the
package assembles the lower triangular a x a algebra over the graded
pieces, the companion bimodule shifted one step further, and their
trivial extension, all with exact structure constants.
"""

from pathlib import Path

from gradedcy import (build_AUB, build_tilde, cluster_hom_shadow,
                      gabriel_quiver, load_presentation)
from gradedcy.quiver import arrow_multiplicities

DATA = Path(__file__).resolve().parent.parent / "data"

# Two variables in degree -1 at a = 2: the two-arrow quiver with a wrap
# arrow back once the extension layer is added.
pres = load_presentation(DATA / "k_xy.pres")
A, U, B = build_AUB(pres, 2)
print("dims:", A.dim, U.dim, B.dim)
print("quiver of A:", arrow_multiplicities(gabriel_quiver(A)))
print("quiver of B:", arrow_multiplicities(gabriel_quiver(B)))
print("relations seen on B basis: x.u.y equals y.u.x, u.x.u = u.y.u = 0")

# Three variables at a = 3: a string of triple arrows with wraps.
p3 = load_presentation(DATA / "k_xyz.pres")
A3, U3, B3 = build_AUB(p3, 3)
print("three variables:", A3.dim, U3.dim, B3.dim,
      arrow_multiplicities(gabriel_quiver(B3)))

# The n-fold block construction: n diagonal copies with a cyclic layer.
# For the one-variable input this yields the cyclic self-injective algebra
# on n vertices with square-zero layer.
p1 = load_presentation(DATA / "k_x.pres")
A1, U1, B1 = build_AUB(p1, 1)
for n in (1, 2, 4):
    At, Ut, Bt = build_tilde(A1, U1, n)
    print(f"n = {n}: block algebra dim {Bt.dim}, quiver",
          arrow_multiplicities(gabriel_quiver(Bt)))

# Shifted endomorphism dimensions read off the graded pieces, valid in the
# window fixed by the declared Calabi-Yau data.
for m in (2, 3, 4):
    skew = load_presentation(DATA / f"skew_{m}.pres")
    print(f"m = {m}: index 0 ->", cluster_hom_shadow(skew, 0),
          " index -1 ->", cluster_hom_shadow(skew, -1))
