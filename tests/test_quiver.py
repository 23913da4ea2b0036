from fractions import Fraction

import pytest

from gradedcy.errors import ParseError
from gradedcy.quiver import (Arrow, NCPoly, Path, Quiver, parse_presentation)

from helpers import load


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
    assert pres.twist.scalar("x1") == -1
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
    assert NCPoly({xy: 1}).is_homogeneous(ctx)
    assert not NCPoly({xy: 1, x: 1}).is_homogeneous(ctx)


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
