"""Quivers, paths, noncommutative polynomials, and graded presentations.

Composition convention (used everywhere in this package): paths compose
left to right, so the product ``p * q`` means "first p, then q" and is
nonzero exactly when ``p.target == q.source``.  Relation files are written
in this convention.  The monomial order is length-lex with a user
suppliable arrow order (default: declaration order).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import Inhomogeneous, ParseError


@dataclass(frozen=True)
class Arrow:
    name: str
    source: object
    target: object
    degree: int


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


@dataclass(frozen=True)
class Path:
    """A composable arrow sequence, or the lazy path at a vertex.

    Stored as the source vertex plus a tuple of arrow indices into the
    owning quiver.  Degree is the sum of the arrow degrees.
    """

    source: object
    arrows: tuple = ()

    @property
    def is_lazy(self):
        return not self.arrows

    def __len__(self):
        return len(self.arrows)


class PathAlgebraContext:
    """Path arithmetic bound to one quiver (target/degree lookups, order)."""

    def __init__(self, quiver: Quiver, arrow_order=None):
        self.quiver = quiver
        if arrow_order is None:
            order = list(range(len(quiver.arrows)))
        else:
            order = [quiver.arrow_index[n] for n in arrow_order]
            if sorted(order) != list(range(len(quiver.arrows))):
                raise ValueError("arrow_order must list every arrow once")
        self.order_key = {idx: pos for pos, idx in enumerate(order)}

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
        """Length-lex sort key; larger key = larger monomial."""
        return (len(p.arrows), tuple(self.order_key[i] for i in p.arrows))

    def format_path(self, p: Path):
        if p.is_lazy:
            return f"e_{p.source}"
        return "*".join(self.quiver.arrows[i].name for i in p.arrows)


class NCPoly:
    """Finite Q-linear combination of paths; zero coefficients dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for p, c in terms.items():
                if type(c) is not Fraction:
                    c = Fraction(c)
                if c:
                    self.terms[p] = c

    @classmethod
    def monomial(cls, path, coeff=1):
        return cls({path: Fraction(coeff)})

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for p, c in other.terms.items():
            s = out.get(p, 0) + c
            if s:
                out[p] = s
            else:
                out.pop(p, None)
        return NCPoly(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return NCPoly({p: c * x for p, x in self.terms.items()})

    def leading(self, ctx: PathAlgebraContext):
        return max(self.terms, key=ctx.key)

    def is_homogeneous(self, ctx: PathAlgebraContext):
        """Terms parallel (same source and target) and of equal degree."""
        it = iter(self.terms)
        try:
            first = next(it)
        except StopIteration:
            return True
        sig = (first.source, ctx.target(first), ctx.degree(first))
        return all(
            (p.source, ctx.target(p), ctx.degree(p)) == sig for p in it
        )

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


@dataclass
class TwistData:
    """Diagonal graded automorphism: each arrow scales by a nonzero scalar."""

    scalars: dict  # arrow name -> Fraction

    def scalar(self, name):
        return self.scalars.get(name, Fraction(1))


@dataclass
class CYData:
    dimension: int  # the "d+1" of a (d+1)-Calabi-Yau presentation
    a_invariant: int


class GradedQuiverPresentation:
    """A quiver with integer arrow degrees and homogeneous relations."""

    def __init__(self, quiver, relations, twist=None, cy=None,
                 arrow_order=None, name=""):
        self.quiver = quiver
        self.ctx = PathAlgebraContext(quiver, arrow_order)
        self.name = name
        self.relations = []
        for r in relations:
            if not r:
                continue
            if not r.is_homogeneous(self.ctx):
                bad = self._offending_term(r)
                raise Inhomogeneous(
                    f"relation {r.format(self.ctx)} is not homogeneous; "
                    f"offending term {bad}")
            self.relations.append(r)
        if twist is not None:
            for nm, c in twist.scalars.items():
                if nm not in quiver.arrow_index:
                    raise ValueError(f"twist names unknown arrow {nm}")
                if not Fraction(c):
                    raise ValueError(f"twist scalar for {nm} is zero")
        self.twist = twist
        self.cy = cy

    def _offending_term(self, r):
        ctx = self.ctx
        paths = sorted(r.terms, key=ctx.key)
        sig = (paths[0].source, ctx.target(paths[0]), ctx.degree(paths[0]))
        for p in paths[1:]:
            if (p.source, ctx.target(p), ctx.degree(p)) != sig:
                return ctx.format_path(p)
        return ctx.format_path(paths[0])

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

_TERM_RE = re.compile(r"^\s*([+-])?\s*(?:(\d+(?:/\d+)?)\s*\*?\s*)?([A-Za-z0-9_*\s]+?)\s*$")


def _parse_relation(text, ctx, filename, lineno):
    """Grammar: term (('+'|'-') term)*; term: [coeff '*'] name ('*' name)*."""
    text = text.strip()
    pieces = re.split(r"(?=[+-])", text)
    poly = NCPoly()
    for piece in pieces:
        piece = piece.strip()
        if not piece:
            continue
        sign = 1
        if piece[0] in "+-":
            sign = -1 if piece[0] == "-" else 1
            piece = piece[1:].strip()
        factors = [f.strip() for f in piece.split("*") if f.strip()]
        if not factors:
            raise ParseError("empty term in relation", filename, lineno)
        coeff = Fraction(sign)
        names = []
        for j, f in enumerate(factors):
            if re.fullmatch(r"\d+(/\d+)?", f):
                if names:
                    raise ParseError(
                        f"scalar {f} must precede arrow names", filename,
                        lineno)
                try:
                    coeff *= Fraction(f)
                except ZeroDivisionError:
                    raise ParseError(f"coefficient {f} divides by zero",
                                     filename, lineno)
            else:
                if f not in ctx.quiver.arrow_index:
                    raise ParseError(f"unknown arrow {f!r}", filename, lineno)
                names.append(f)
        if not names:
            raise ParseError("term without arrows", filename, lineno)
        try:
            path = ctx.path_from_names(names)
        except ValueError:
            raise ParseError(
                f"term {'*'.join(names)} is not a composable path "
                "(composition is left to right)", filename, lineno)
        poly = poly + NCPoly.monomial(path, coeff)
    return poly


def parse_presentation(text, filename="<string>"):
    """Parse the quiver presentation file format.

    Sections: [vertices], [arrows] (name from to degree), [relations],
    optional [twist] (arrow scalar) and [cy] (dimension a_invariant).
    '#' starts a comment.  Non-homogeneous relations are rejected with the
    offending term named.
    """
    vertices, arrows, rel_lines, twist_scalars = [], [], [], {}
    lines = {}      # arrow or twist entry -> its line
    cy = None
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("vertices", "arrows", "relations", "twist",
                               "cy"):
                raise ParseError(f"unknown section [{section}]", filename,
                                 lineno)
            continue
        if section == "vertices":
            for v in line.split():
                if v in vertices:
                    raise ParseError(f"vertex {v} declared twice", filename,
                                     lineno)
                vertices.append(v)
        elif section == "arrows":
            bits = line.split()
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
            bits = line.split()
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
            lines["twist", bits[0]] = lineno
            twist_scalars[bits[0]] = scalar
        elif section == "cy":
            bits = line.split()
            if len(bits) != 2:
                raise ParseError("cy line must be: dimension a_invariant",
                                 filename, lineno)
            try:
                cy = CYData(int(bits[0]), int(bits[1]))
            except ValueError:
                raise ParseError("cy values must be integers", filename,
                                 lineno)
        else:
            raise ParseError("content before any section header", filename,
                             lineno)
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
        if not r.is_homogeneous(ctx):
            pres_probe = GradedQuiverPresentation(quiver, [])
            bad = pres_probe._offending_term(r)
            raise ParseError(
                f"relation is not homogeneous; offending term {bad}",
                filename, lineno)
        relations.append(r)
    twist = TwistData(twist_scalars) if twist_scalars else None
    try:
        return GradedQuiverPresentation(quiver, relations, twist=twist,
                                        cy=cy, name=filename)
    except Inhomogeneous as e:
        raise ParseError(str(e), filename, None)


def load_presentation(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_presentation(fh.read(), filename=str(path))
