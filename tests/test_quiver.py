import random
from fractions import Fraction

import pytest

from gradedcy.dimer import parse_dimer
from gradedcy.errors import Inhomogeneous, ParseError
from gradedcy.quiver import (Arrow, GradedQuiverPresentation, NCPoly, Path,
                             PathAlgebraContext, Quiver, parse_presentation)

from helpers import is_homogeneous, load


def test_compose_identity_and_zero():
    pres = load("k_xy.pres")
    ctx = pres.ctx
    x = ctx.arrow_path("x")
    lazy = ctx.lazy("P")
    assert ctx.compose(lazy, x) == x
    assert ctx.compose(x, lazy) == x
    # non-composable on a two-vertex quiver
    q = Quiver(["0", "1"], [Arrow("x", "0", "1", -1)])
    from gradedcy.quiver import GradedQuiverPresentation
    ctx2 = GradedQuiverPresentation(q, []).ctx
    xx = ctx2.arrow_path("x")
    assert ctx2.compose(xx, xx) is None


def test_free_algebra_paths_distinct():
    pres = parse_presentation(
        "[vertices]\nP\n[arrows]\nx P P -1\ny P P -1\n")
    ctx = pres.ctx
    xy = ctx.path_from_names(["x", "y"])
    yx = ctx.path_from_names(["y", "x"])
    assert xy != yx
    assert ctx.degree(xy) == ctx.degree(yx) == -2


def test_parser_rejects_inhomogeneous_with_offending_term():
    text = """
[vertices]
P
[arrows]
x P P -1
y P P -2
[relations]
x - y
"""
    with pytest.raises(ParseError) as err:
        parse_presentation(text, filename="bad.pres")
    assert "not homogeneous" in str(err.value)
    assert "y" in str(err.value) or "x" in str(err.value)


def test_parser_rejects_noncomposable_and_unknown():
    base = "[vertices]\n0\n1\n[arrows]\nx 0 1 -1\n[relations]\n"
    with pytest.raises(ParseError):
        parse_presentation(base + "x*x\n")
    with pytest.raises(ParseError):
        parse_presentation(base + "z\n")


def test_parser_line_numbers():
    text = "[vertices]\nP\n[arrows]\nx P P oops\n"
    with pytest.raises(ParseError) as err:
        parse_presentation(text, filename="f.pres")
    assert err.value.line == 4
    assert "f.pres" in str(err.value)


def test_twist_and_cy_sections():
    pres = load("skew_2.pres")
    assert pres.twist is not None
    assert pres.twist["x1"] == -1
    assert pres.cy.dimension == 2 and pres.cy.a_invariant == 2


def test_scale_degrees():
    pres = load("k_xy.pres")
    doubled = pres.scale_degrees(3)
    assert all(a.degree == -3 for a in doubled.quiver.arrows)
    assert doubled.cy.a_invariant == 6


def test_dot_emitter():
    pres = load("k_xy.pres")
    dot = pres.quiver.to_dot()
    assert dot.startswith("digraph") and '"P" -> "P"' in dot


def test_ncpoly_homogeneous_flag():
    pres = load("k_xy.pres")
    ctx = pres.ctx
    xy = ctx.path_from_names(["x", "y"])
    x = ctx.arrow_path("x")
    assert is_homogeneous(NCPoly({xy: 1}), ctx)
    assert not is_homogeneous(NCPoly({xy: 1, x: 1}), ctx)


def test_lazy_paths_are_ordered_by_vertex():
    """The monomial order is total: lazy paths at two vertices, which used
    to share one key and fall back to insertion order, are ordered by
    their vertex ids, so the leading term, the text and the term an
    inhomogeneity error names do not depend on the order the terms were
    added."""
    q = Quiver(["Q", "P"], [Arrow("x", "Q", "P", -1)])
    ctx = PathAlgebraContext(q)
    eq, ep, x = ctx.lazy("Q"), ctx.lazy("P"), ctx.arrow_path("x")
    coeff = {eq: 2, ep: 3, x: 4}
    for terms in ([eq, ep], [ep, eq], [x, ep, eq], [eq, ep, x]):
        r = NCPoly({p: coeff[p] for p in terms})
        assert r.leading(ctx) == (x if x in terms else eq)
        assert r.format(ctx) == ("4*x + 2*e_Q + 3*e_P" if x in terms
                                 else "2*e_Q + 3*e_P")
        lazy = NCPoly({p: 1 for p in terms if p.is_lazy})
        with pytest.raises(Inhomogeneous, match="offending term e_Q$"):
            GradedQuiverPresentation(q, [lazy])


def test_one_homogeneity_rule_on_random_relations():
    """On a two-vertex quiver with arrows of degrees -1 and -2, 200 seeded
    random relations: `is_homogeneous` holds exactly when all terms share
    source, target and degree (computed here from the arrows), exactly
    then GradedQuiverPresentation accepts the relation, and a refused
    relation names the first term in monomial order that is not parallel
    to the least one."""
    arrows = [("a", "1", "1", -1), ("b", "1", "2", -1), ("c", "2", "1", -2),
              ("d", "2", "2", -1), ("e", "1", "2", -2)]
    q = Quiver(["1", "2"], [Arrow(*a) for a in arrows])
    ctx = PathAlgebraContext(q)
    paths = [Path(v, ()) for v in q.vertices]
    for path in paths:      # every path of length <= 3, lazy ones included
        if len(path) < 3:
            end = q.arrows[path.arrows[-1]].target if path.arrows \
                else path.source
            paths += [Path(path.source, path.arrows + (i,))
                      for i in q.arrows_by_source[end]]

    def signature(p):
        names = [arrows[i] for i in p.arrows]
        return (p.source, names[-1][2] if names else p.source,
                sum(n[3] for n in names))

    rng = random.Random(17)
    kinds = set()
    for _ in range(200):
        terms = rng.sample(paths, rng.randint(1, 4))
        r = NCPoly({p: rng.choice([-2, -1, 1, Fraction(1, 3)])
                    for p in terms})
        least = min(terms, key=lambda p: (len(p), p.arrows))
        odd = sorted((p for p in terms if signature(p) != signature(least)),
                     key=lambda p: (len(p), p.arrows))
        equal_degrees = len({signature(p)[2] for p in terms}) == 1
        kinds.add((bool(odd), equal_degrees))
        assert is_homogeneous(r, ctx) == (not odd)
        if not odd:
            assert GradedQuiverPresentation(q, [r]).relations == [r]
            continue
        with pytest.raises(Inhomogeneous) as err:
            GradedQuiverPresentation(q, [r])
        assert str(err.value).endswith(
            f"offending term {ctx.format_path(odd[0])}")
    # the sample has every kind, among them relations whose terms share a
    # degree but not their ends, which a rule of degrees alone would pass
    assert kinds == {(False, True), (True, True), (True, False)}


def _vertices_section(suffix):
    """One vertex in the syntax of .pres or .dimer."""
    return "P" if suffix == "pres" else "b black"


@pytest.mark.parametrize("text,error", [
    ("[VERTICES]\n{v}\n", None),
    ("[vertices]  # one vertex\n{v}  # it\n# done\n", None),
    ("[vertices]\n{v}\n[ Faces ]  # no such section\n",
     (3, "unknown section [faces]")),
    ("# a file\n{v}\n[vertices]\n",
     (2, "content before any section header")),
], ids=["upper-case header", "trailing comment", "unknown section",
        "content before a header"])
def test_pres_and_dimer_share_one_section_reader(text, error):
    """.pres and .dimer files are read by the same rules: headers in any
    case, '#' comments to the end of the line, an unknown section and
    content before the first header refused with the same message and
    line."""
    outcomes = []
    for suffix, parse in (("pres", parse_presentation),
                          ("dimer", parse_dimer)):
        try:
            parse(text.format(v=_vertices_section(suffix)), filename="f")
            outcomes.append(None)
        except ParseError as e:
            outcomes.append((e.line, str(e)))
    want = None if error is None else \
        (error[0], f"f:{error[0]}: {error[1]}")
    assert outcomes == [want, want]


def test_rational_coefficients_in_relations():
    pres = parse_presentation("""
[vertices]
P
[arrows]
x P P -1
y P P -1
[relations]
1/2*x*y - 1/2*y*x
""")
    rel = pres.relations[0]
    from fractions import Fraction
    assert sorted(rel.terms.values()) == [Fraction(-1, 2), Fraction(1, 2)]


def test_ncpoly_stores_fractions():
    """Coefficients are stored as Fractions, an exact one as it is, and
    zeros are dropped."""
    p, q = Path("P", ()), Path("P", (0,))
    half = Fraction(1, 2)
    poly = NCPoly({p: 2, q: half, Path("P", (1,)): Fraction(0)})
    assert poly.terms == {p: 2, q: half}
    assert type(poly.terms[p]) is Fraction and poly.terms[q] is half
