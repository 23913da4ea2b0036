"""Dimer models on the torus, end to end.

Validation traces faces from the rotation system and checks the Euler
count; the dual quiver carries a potential with one cycle per dimer
vertex; consistency is an exact rational feasibility problem; integer
combinations of perfect matchings grade the quotient by the potential
derivatives; and the associated four-term free bimodule complex composes
to zero.
"""

from pathlib import Path

from gradedcy import (build_A, consistency_check, cy3_complex, dual_qp,
                      gabriel_quiver, grading_from_matchings,
                      jacobian_presentation, load_dimer, perfect_matchings)
from gradedcy.quiver import arrow_multiplicities
from gradedcy.normalwords import RewriteContext

DATA = Path(__file__).resolve().parent.parent / "data"

hexd = load_dimer(DATA / "hexagonal.dimer")
faces, report = hexd.validate()
print("one-face dimer:", report)
qp = dual_qp(hexd)
print("dual quiver: 1 vertex,", len(qp.quiver.arrows), "loops; potential",
      [(s, c) for s, c, _ in qp.potential])
cons = consistency_check(hexd)
print("consistency margin:", cons.margin, "charge:", cons.rcharge)
ms, _ = perfect_matchings(hexd)
deg = grading_from_matchings(hexd, ms, [-1] * len(ms))
pres = jacobian_presentation(qp, deg)
rc = RewriteContext(pres, 8)
print("quotient dims (the three-variable polynomial ring):",
      [rc.basis(-w).dim() for w in range(4)])
cy3_complex(qp, deg).check_complex(6)
print("four-term complex composes to zero")
print()

di = load_dimer(DATA / "four_face.dimer")
faces, report = di.validate()
print("four-face dimer:", report)
qp = dual_qp(di)
mult = {}
for a in qp.quiver.arrows:
    mult[(a.source, a.target)] = mult.get((a.source, a.target), 0) + 1
print("dual quiver arrows per vertex pair:", dict(sorted(mult.items())))
ms, _ = perfect_matchings(di)
print(len(ms), "perfect matchings")
g1 = grading_from_matchings(di, [("d1", "d2", "om")], [-1])
print("single-matching grading: a-invariant", g1.a_invariant)
p1 = jacobian_presentation(qp, g1)
A = build_A(p1, 1, cap=12)
print("degree-zero part: dim", A.dim, "quiver",
      arrow_multiplicities(gabriel_quiver(A)))
g2 = grading_from_matchings(di, [("d1", "d2", "om"), ("d1", "d2", "h2")],
                            [-1, -1])
print("two-matching grading: a-invariant", g2.a_invariant)
for g in (g1, g2):
    cy3_complex(qp, g).check_complex(6)
print("both graded complexes compose to zero")
