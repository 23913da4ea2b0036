"""Quivers, paths, noncommutative polynomials, and graded presentations.

Composition convention (used everywhere in this package): paths compose
left to right, so the product ``p * q`` means "first p, then q" and is
nonzero exactly when ``p.target == q.source``.  Relation files are written
in this convention.  The monomial order is length-lex, with arrows
compared in declaration order: declaring the arrows in another order
picks another monomial order.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

from .errors import Inhomogeneous, ParseError


class Arrow(namedtuple("Arrow", "name source target degree")):
    """A named arrow source -> target of an integer degree."""

    __slots__ = ()


class Quiver:
    def __init__(self, vertices, arrows):
        self.vertices = list(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        vset = set(self.vertices)
        self.arrows = []
        for a in arrows:
            if not isinstance(a, Arrow):
                a = Arrow(*a)
            if a.source not in vset or a.target not in vset:
                raise ValueError(f"arrow {a.name} references unknown vertex")
            self.arrows.append(a)
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow names")
        self.arrow_index = {a.name: i for i, a in enumerate(self.arrows)}
        self.arrows_by_source = {v: [] for v in self.vertices}
        self.arrows_by_target = {v: [] for v in self.vertices}
        for i, a in enumerate(self.arrows):
            self.arrows_by_source[a.source].append(i)
            self.arrows_by_target[a.target].append(i)

    def arrow(self, name):
        return self.arrows[self.arrow_index[name]]

    def is_acyclic(self):
        # Kahn's algorithm on the underlying digraph.
        indeg = {v: 0 for v in self.vertices}
        for a in self.arrows:
            indeg[a.target] += 1
        queue = [v for v in self.vertices if indeg[v] == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for i in self.arrows_by_source[v]:
                w = self.arrows[i].target
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        return seen == len(self.vertices)

    def to_dot(self, name="Q"):
        lines = [f"digraph {name} {{"]
        for v in self.vertices:
            lines.append(f'  "{v}";')
        for a in self.arrows:
            lines.append(f'  "{a.source}" -> "{a.target}" [label="{a.name}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return (f"Quiver({len(self.vertices)} vertices, "
                f"{len(self.arrows)} arrows)")


def arrow_multiplicities(quiver):
    """(source, target) -> number of arrows, in order of first
    appearance."""
    out = {}
    for a in quiver.arrows:
        key = (a.source, a.target)
        out[key] = out.get(key, 0) + 1
    return out


class Path:
    """A composable arrow sequence, or the lazy path at a vertex.

    Stored as the source vertex plus a tuple of arrow indices into the
    owning quiver.  Degree is the sum of the arrow degrees.  Paths with
    equal fields are equal and hash alike.
    """

    __slots__ = ("source", "arrows")

    def __init__(self, source, arrows=()):
        self.source = source
        self.arrows = arrows

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.source, self.arrows) == (other.source, other.arrows)

    def __hash__(self):
        return hash((self.source, self.arrows))

    def __repr__(self):
        return f"Path(source={self.source!r}, arrows={self.arrows!r})"

    @property
    def is_lazy(self):
        return not self.arrows

    def __len__(self):
        return len(self.arrows)


class PathAlgebraContext:
    """Path arithmetic bound to one quiver (target/degree lookups, order)."""

    def __init__(self, quiver: Quiver):
        self.quiver = quiver

    def lazy(self, vertex):
        return Path(vertex, ())

    def arrow_path(self, name):
        i = self.quiver.arrow_index[name]
        return Path(self.quiver.arrows[i].source, (i,))

    def path_from_names(self, names):
        p = None
        for n in names:
            q = self.arrow_path(n)
            p = q if p is None else self.compose(p, q)
            if p is None:
                raise ValueError(f"arrows {names} do not compose")
        return p

    def target(self, p: Path):
        if p.is_lazy:
            return p.source
        return self.quiver.arrows[p.arrows[-1]].target

    def degree(self, p: Path):
        return sum(self.quiver.arrows[i].degree for i in p.arrows)

    def compose(self, p: Path, q: Path):
        """First p, then q; None is the distinguished zero."""
        if self.target(p) != q.source:
            return None
        return Path(p.source, p.arrows + q.arrows)

    def key(self, p: Path):
        """Length-lex sort key, arrows compared by their indices; larger
        key = larger monomial.  Lazy paths are ordered by their vertex
        ids."""
        return (len(p.arrows), p.arrows or (p.source,))

    def format_path(self, p: Path):
        if p.is_lazy:
            return f"e_{p.source}"
        return "*".join(self.quiver.arrows[i].name for i in p.arrows)


def as_exact(c):
    """c as an int when it is an integer, else unchanged (a Fraction): the
    one normaliser of exact coefficients, which are ints where integral
    and Fractions only where a division or a parsed p/q makes one."""
    return c.numerator if c.denominator == 1 else c


def _add_into(out, terms, c):
    """out += c * (sum of x * k over the (k, x) in terms), for a sparse
    dict out, dropping the entries that cancel; returns out.  The one
    accumulator of the package's sparse vectors (see linalg)."""
    for k, x in terms:
        y = out.get(k, 0) + c * x
        if y:
            out[k] = y
        else:
            out.pop(k, None)
    return out


class NCPoly:
    """Finite Q-linear sum of paths; zeros dropped, the rest as_exact."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for p, c in terms.items():
                if type(c) is not Fraction:
                    c = Fraction(c)
                if c:
                    self.terms[p] = as_exact(c)

    @classmethod
    def monomial(cls, path, coeff=1):
        return cls({path: coeff})

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        return NCPoly(_add_into(dict(self.terms), other.terms.items(), 1))

    def __sub__(self, other):
        return NCPoly(_add_into(dict(self.terms), other.terms.items(), -1))

    def leading(self, ctx: PathAlgebraContext):
        return max(self.terms, key=ctx.key)

    def format(self, ctx):
        if not self.terms:
            return "0"
        bits = []
        for p in sorted(self.terms, key=ctx.key, reverse=True):
            c = self.terms[p]
            s = ctx.format_path(p)
            if c == 1:
                bits.append(f"+ {s}")
            elif c == -1:
                bits.append(f"- {s}")
            elif c > 0:
                bits.append(f"+ {c}*{s}")
            else:
                bits.append(f"- {-c}*{s}")
        text = " ".join(bits)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _offending_term(r, ctx):
    """The first term of r, in monomial order, whose (source, target,
    degree) differs from the least term's, formatted; None when r is
    homogeneous.  The one homogeneity rule of the package."""
    paths = sorted(r.terms, key=ctx.key)
    sigs = [(p.source, ctx.target(p), ctx.degree(p)) for p in paths]
    for p, sig in zip(paths, sigs):
        if sig != sigs[0]:
            return ctx.format_path(p)


# dimension is the "d+1" of a (d+1)-Calabi-Yau presentation
CYData = namedtuple("CYData", "dimension a_invariant")


class GradedQuiverPresentation:
    """A quiver with integer arrow degrees and homogeneous relations;
    `twist` is the [twist] section, arrow name -> nonzero Fraction (a
    diagonal graded automorphism, 1 on arrows it does not name), or None."""

    def __init__(self, quiver, relations, twist=None, cy=None, name=""):
        self.quiver = quiver
        self.ctx = PathAlgebraContext(quiver)
        self.name = name
        self.relations = []
        for r in relations:
            if not r:
                continue
            bad = _offending_term(r, self.ctx)
            if bad:
                raise Inhomogeneous(
                    f"relation {r.format(self.ctx)} is not homogeneous; "
                    f"offending term {bad}")
            self.relations.append(r)
        if twist is not None:
            for nm, c in twist.items():
                if nm not in quiver.arrow_index:
                    raise ValueError(f"twist names unknown arrow {nm}")
                if not Fraction(c):
                    raise ValueError(f"twist scalar for {nm} is zero")
        self.twist = twist
        self.cy = cy

    @property
    def max_relation_length(self):
        return max((len(p) for r in self.relations for p in r.terms),
                   default=0)

    def is_negatively_graded(self):
        return all(a.degree <= 0 for a in self.quiver.arrows)

    def scale_degrees(self, n):
        """Same quiver and relations with every arrow degree multiplied
        by n; declared a-invariant scales along."""
        if n < 1:
            raise ValueError("grading multiplier must be >= 1")
        q = Quiver(self.quiver.vertices,
                   [Arrow(a.name, a.source, a.target, n * a.degree)
                    for a in self.quiver.arrows])
        rels = [NCPoly({Path(p.source, p.arrows): c for p, c in r.terms.items()})
                for r in self.relations]
        cy = None
        if self.cy is not None:
            cy = CYData(self.cy.dimension, n * self.cy.a_invariant)
        return GradedQuiverPresentation(
            q, rels, twist=self.twist, cy=cy,
            name=f"{self.name}^x{n}" if self.name else "")


# ---------------------------------------------------------------------------
# presentation file format
# ---------------------------------------------------------------------------

def _signed_terms(text):
    """Yield (sign, term) for each term of a sum term (('+'|'-') term)*,
    the term stripped of its sign and of blanks."""
    for piece in re.split(r"(?=[+-])", text):
        piece = piece.strip()
        if piece[:1] in ("+", "-"):
            yield (-1 if piece[0] == "-" else 1), piece[1:].strip()
        elif piece:
            yield 1, piece


def _product(term, ctx, filename, lineno, lazy=None):
    """(scalar, path) of a term [scalar '*']* name ('*' name)*: the
    scalars multiplied, the arrow names composed left to right.  A term
    without arrow names is the lazy path at vertex `lazy`, refused when
    `lazy` is None.  The one term grammar of the .pres and .cpx files."""
    factors = [f.strip() for f in term.split("*") if f.strip()]
    scalar, names = Fraction(1), []
    for f in factors:
        if re.fullmatch(r"\d+(/\d+)?", f):
            if names:
                raise ParseError(f"scalar {f} must precede arrow names",
                                 filename, lineno)
            try:
                scalar *= Fraction(f)
            except ZeroDivisionError:
                raise ParseError(f"coefficient {f} divides by zero",
                                 filename, lineno)
        elif f not in ctx.quiver.arrow_index:
            raise ParseError(f"unknown arrow {f!r}", filename, lineno)
        else:
            names.append(f)
    if not names:
        if lazy is not None:
            return scalar, ctx.lazy(lazy)
        raise ParseError("term without arrows" if factors
                         else "empty term in relation", filename, lineno)
    try:
        return scalar, ctx.path_from_names(names)
    except ValueError:
        raise ParseError(
            f"term {'*'.join(names)} is not a composable path "
            "(composition is left to right)", filename, lineno)


def _parse_relation(text, ctx, filename, lineno):
    """A sum of terms (see _product), each with at least one arrow."""
    poly = NCPoly()
    for sign, term in _signed_terms(text):
        scalar, path = _product(term, ctx, filename, lineno)
        poly = poly + NCPoly.monomial(path, sign * scalar)
    return poly


def _sections(text, filename, names):
    """Yield (section, line, lineno) for the content lines of a .pres or
    .dimer file: '#' starts a comment, a [name] header is read in lower
    case and must be one of `names`, and content before any header is
    refused."""
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in names:
                raise ParseError(f"unknown section [{section}]", filename,
                                 lineno)
        elif section is None:
            raise ParseError("content before any section header", filename,
                             lineno)
        else:
            yield section, line, lineno


def _once(lines, key, what, filename, lineno):
    """Record the line of an entry that a file may give only once; a
    second one is a ParseError naming both lines."""
    if key in lines:
        raise ParseError(f"{what} again, first on line {lines[key]}",
                         filename, lineno)
    lines[key] = lineno


def parse_presentation(text, filename="<string>"):
    """Parse the quiver presentation file format.

    Sections: [vertices], [arrows] (name from to degree), [relations],
    optional [twist] (arrow scalar) and [cy] (dimension a_invariant).
    '#' starts a comment.  Non-homogeneous relations are rejected with the
    offending term named.
    """
    vertices, arrows, rel_lines, twist_scalars = [], [], [], {}
    lines = {}      # arrow, twist or cy entry -> its line
    cy = None
    for section, line, lineno in _sections(
            text, filename, ("vertices", "arrows", "relations", "twist",
                             "cy")):
        bits = line.split()
        if section == "vertices":
            for v in bits:
                if v in vertices:
                    raise ParseError(f"vertex {v} declared twice", filename,
                                     lineno)
                vertices.append(v)
        elif section == "arrows":
            if len(bits) != 4:
                raise ParseError(
                    "arrow line must be: name source target degree",
                    filename, lineno)
            name, src, tgt, deg = bits
            try:
                deg = int(deg)
            except ValueError:
                raise ParseError(f"bad degree {deg!r}", filename, lineno)
            if ("arrow", name) in lines:
                raise ParseError(f"arrow {name} declared twice", filename,
                                 lineno)
            lines["arrow", name] = lineno
            arrows.append(Arrow(name, src, tgt, deg))
        elif section == "relations":
            rel_lines.append((line, lineno))
        elif section == "twist":
            if len(bits) != 2:
                raise ParseError("twist line must be: arrow scalar",
                                 filename, lineno)
            try:
                scalar = Fraction(bits[1])
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad twist scalar {bits[1]!r}", filename,
                                 lineno)
            if not scalar:
                raise ParseError(f"twist scalar for {bits[0]} is zero",
                                 filename, lineno)
            _once(lines, ("twist", bits[0]), f"[twist] gives arrow {bits[0]}",
                  filename, lineno)
            twist_scalars[bits[0]] = scalar
        else:
            if len(bits) != 2:
                raise ParseError("cy line must be: dimension a_invariant",
                                 filename, lineno)
            try:
                cy = CYData(int(bits[0]), int(bits[1]))
            except ValueError:
                raise ParseError("cy values must be integers", filename,
                                 lineno)
            _once(lines, "cy", "[cy] gives the CY data", filename, lineno)
    if not vertices:
        raise ParseError("no [vertices] section", filename, None)
    for a in arrows:
        for v in (a.source, a.target):
            if v not in vertices:
                raise ParseError(f"arrow {a.name} names unknown vertex {v}",
                                 filename, lines["arrow", a.name])
    for name in twist_scalars:
        if ("arrow", name) not in lines:
            raise ParseError(f"twist names unknown arrow {name}", filename,
                             lines["twist", name])
    quiver = Quiver(vertices, arrows)
    ctx = PathAlgebraContext(quiver)
    relations = []
    for line, lineno in rel_lines:
        r = _parse_relation(line, ctx, filename, lineno)
        bad = _offending_term(r, ctx)
        if bad:
            raise ParseError(
                f"relation is not homogeneous; offending term {bad}",
                filename, lineno)
        relations.append(r)
    return GradedQuiverPresentation(quiver, relations,
                                    twist=twist_scalars or None, cy=cy,
                                    name=filename)


def load_presentation(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_presentation(fh.read(), filename=str(path))
