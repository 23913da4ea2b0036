"""Preprojective layers of acyclic quivers and the layered block algebras.

The double quiver carries a mesh relation per vertex; grading the starred
arrows by -1 makes the degree -k piece the k-th layer.  The bimodule of
first-layer classes trivially extends the path algebra, and the n-fold
block version admits an explicit quiver presentation whose correctness is
verified here by dimension tables and mutual relation reduction.
"""

from gradedcy import (block_trivial_extension, ext_bimodule,
                      layered_presentation, path_algebra,
                      preprojective_presentation)
from gradedcy.preprojective import block_arrow_images
from gradedcy.quiver import Arrow, Quiver
from gradedcy.normalwords import RewriteContext
from gradedcy.rewriting import length_table
from gradedcy.slice_algebras import reduce_mod, relations_from_structure

KRONECKER = Quiver(["0", "1"], [Arrow("x", "0", "1", 0),
                                Arrow("y", "0", "1", 0)])
THREE = Quiver(["1", "2", "3"], [Arrow("a", "1", "2", 0),
                                 Arrow("b", "1", "2", 0),
                                 Arrow("c", "2", "3", 0)])

pp = preprojective_presentation(KRONECKER)
rc = RewriteContext(pp, 8)
print("two-arrow quiver, layer dimensions:",
      [rc.basis(-k).dim() for k in range(4)])

U = ext_bimodule(KRONECKER)
print("first layer as a bimodule: dim", U.dim)

for Q, name in ((KRONECKER, "two-arrow"), (THREE, "three-vertex")):
    for n in (1, 2):
        pres = layered_presentation(Q, n)
        total = sum(sum(c) for c in length_table(pres, 6).values())
        B = block_trivial_extension(Q, n)
        print(f"{name}, n = {n}: presented dim {total}, block dim {B.dim}")
        lq, images, videm = block_arrow_images(Q, n, B)
        found = relations_from_structure(B, lq, images, cap=6,
                                         vertex_idempotents=videm)
        residue = reduce_mod(found, pres.relations, lq, 6)
        print(f"  reconstructed relations reduce to zero: "
              f"{all(not r for r in residue)}")
