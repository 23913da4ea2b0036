"""Finite complexes of free graded bimodules over a quotient path algebra.

A term is a finite direct sum of rank-one free bimodules R g R; the
summand records the generator's vertex pair and internal degree.  A
differential entry from source summand s to target summand t is a list of
(coefficient, left path, right path) triples meaning
g_s -> sum c * lpath . g_t . rpath.

Terms are listed so that diffs[k] maps terms[k+1] into terms[k]; the
cohomological position of terms[k] is positions[k] and drops by one along
the list (so a projective resolution lists P_0 first with positions
0, -1, -2, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotComplex
from .quiver import NCPoly
from .rewriting import RewriteContext


@dataclass(frozen=True)
class FreeSummand:
    left_vertex: object
    right_vertex: object
    degree: int          # internal degree of the generator
    label: str = ""


class BimoduleComplex:
    def __init__(self, pres, terms, diffs, name="", kind="graded",
                 positions=None):
        self.pres = pres
        self.terms = [list(t) for t in terms]
        self.diffs = [dict(d) for d in diffs]
        if len(self.diffs) != max(len(self.terms) - 1, 0):
            raise ValueError("need one differential per consecutive pair")
        self.name = name
        self.kind = kind  # 'graded' | 'dg-right' | 'dg-left'
        if positions is None:
            positions = [-k for k in range(len(self.terms))]
        self.positions = list(positions)

    def __repr__(self):
        ranks = "/".join(str(len(t)) for t in self.terms)
        return f"BimoduleComplex({self.name or 'unnamed'}, ranks {ranks})"

    # -- composition check -------------------------------------------------

    def check_complex(self, cap):
        """Consecutive differentials compose to zero modulo the relation
        ideal, verified by reduction at the given cap."""
        rc = RewriteContext(self.pres, cap)
        ctx = self.pres.ctx
        for k in range(len(self.diffs) - 1):
            outer = self.diffs[k]       # terms[k+1] -> terms[k]
            inner = self.diffs[k + 1]   # terms[k+2] -> terms[k+1]
            nsrc = len(self.terms[k + 2])
            ntgt = len(self.terms[k])
            for src in range(nsrc):
                for tgt in range(ntgt):
                    # composite entries as reduced (left, right) path pairs
                    pairs = {}
                    for mid in range(len(self.terms[k + 1])):
                        e1 = inner.get((mid, src))
                        e2 = outer.get((tgt, mid))
                        if not e1 or not e2:
                            continue
                        for c1, u1, v1 in e1:
                            for c2, u2, v2 in e2:
                                lp = ctx.compose(u1, u2)
                                rp = ctx.compose(v2, v1)
                                if lp is None or rp is None:
                                    continue
                                lnf = rc.normal_form(NCPoly.monomial(lp))
                                rnf = rc.normal_form(NCPoly.monomial(rp))
                                for pl, cl in lnf.terms.items():
                                    for pr, cr in rnf.terms.items():
                                        key = (pl, pr)
                                        val = pairs.get(key, 0) \
                                            + c1 * c2 * cl * cr
                                        if val:
                                            pairs[key] = val
                                        else:
                                            pairs.pop(key, None)
                    if pairs:
                        raise NotComplex(
                            f"{self.name}: d o d nonzero from summand "
                            f"{self.terms[k+2][src].label} to "
                            f"{self.terms[k][tgt].label}")
        return True

    # -- slice bases ---------------------------------------------------------

    def slice_basis(self, rc: RewriteContext, k, w):
        """Basis of the internal-degree-w slice of terms[k].

        Elements are (summand index, left path, right path); the vertex
        constraints depend on the complex kind.
        """
        out = []
        for si, s in enumerate(self.terms[k]):
            rest = w - s.degree
            if rest > 0:
                continue
            # |p| + |q| = rest, both factors in nonpositive degrees
            for wp in range(0, rest - 1, -1):
                wq = rest - wp
                lefts = self._side_paths(rc, wp, s, "left")
                rights = self._side_paths(rc, wq, s, "right")
                for p in lefts:
                    for q in rights:
                        out.append((si, p, q))
        return out

    def _side_paths(self, rc, wdeg, summand, side):
        basis = rc.basis(wdeg)
        out = []
        for (a, b), plist in sorted(basis.by_pair.items(),
                                    key=lambda kv: str(kv[0])):
            for p in plist:
                if self.kind in ("graded", "dg-right"):
                    # left path ends at left_vertex; right starts at right_vertex
                    if side == "left" and b == summand.left_vertex:
                        out.append(p)
                    elif side == "right" and a == summand.right_vertex:
                        out.append(p)
                else:  # dg-left: left path starts at lv, right ends at rv
                    if side == "left" and a == summand.left_vertex:
                        out.append(p)
                    elif side == "right" and b == summand.right_vertex:
                        out.append(p)
        return out


# ---------------------------------------------------------------------------
# complex file format
# ---------------------------------------------------------------------------

def parse_complex(text, pres, filename="<string>") -> BimoduleComplex:
    """Terms as summand lines "left-vertex right-vertex degree"; maps as
    lines "target-index source-index expression", entries written as sums
    of [coeff*] lpath # rpath with '1' for a lazy path."""
    from .errors import ParseError
    from fractions import Fraction
    import re

    ctx = pres.ctx
    terms, maps = [], {}
    section = None
    term_idx = map_idx = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        # '#' is the tensor separator, so comments are whole-line (';')
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        m = re.fullmatch(r"\[term (\d+)\]", line)
        if m:
            section, term_idx = "term", int(m.group(1))
            while len(terms) <= term_idx:
                terms.append([])
            continue
        m = re.fullmatch(r"\[map (\d+)\]", line)
        if m:
            section, map_idx = "map", int(m.group(1))
            maps.setdefault(map_idx, {})
            continue
        if line.startswith("["):
            raise ParseError(f"unknown section {line}", filename, lineno)
        if section == "term":
            bits = line.split()
            if len(bits) != 3:
                raise ParseError(
                    "summand line must be: left-vertex right-vertex degree",
                    filename, lineno)
            lv, rv, deg = bits
            for v in (lv, rv):
                if v not in pres.quiver.vertices:
                    raise ParseError(f"unknown vertex {v}", filename, lineno)
            terms[term_idx].append(
                FreeSummand(lv, rv, int(deg),
                            f"T{term_idx}[{len(terms[term_idx])}]"))
        elif section == "map":
            bits = line.split(None, 2)
            if len(bits) != 3:
                raise ParseError("map line must be: tgt src expression",
                                 filename, lineno)
            tgt, src, expr = int(bits[0]), int(bits[1]), bits[2]
            entries = _parse_bitensor(expr, ctx, pres, map_idx, tgt, src,
                                      terms, filename, lineno)
            maps[map_idx][(tgt, src)] = entries
        else:
            raise ParseError("content before any section header", filename,
                             lineno)
    # map index m describes terms[m] -> terms[m-1]
    diffs = [maps.get(k + 1, {}) for k in range(len(terms) - 1)]
    return BimoduleComplex(pres, terms, diffs, name=filename)


def _parse_bitensor(expr, ctx, pres, map_idx, tgt, src, terms, filename,
                    lineno):
    from .errors import ParseError
    from fractions import Fraction
    import re

    out = []
    for piece in re.split(r"(?=[+-])", expr):
        piece = piece.strip()
        if not piece:
            continue
        sign = 1
        if piece[0] in "+-":
            sign = -1 if piece[0] == "-" else 1
            piece = piece[1:].strip()
        if "#" not in piece:
            raise ParseError("entry term needs lpath # rpath", filename,
                             lineno)
        left, right = piece.split("#", 1)
        coeff = Fraction(sign)
        lbits = [b.strip() for b in left.split("*") if b.strip()]
        if lbits and re.fullmatch(r"\d+(/\d+)?", lbits[0]):
            coeff *= Fraction(lbits[0])
            lbits = lbits[1:]
        try:
            tgt_s = terms[map_idx - 1][tgt]
            src_s = terms[map_idx][src]
        except IndexError:
            raise ParseError("map indices out of range", filename, lineno)
        lpath = _parse_side(lbits, ctx, tgt_s.left_vertex, filename, lineno,
                            lazy_at="target")
        rbits = [b.strip() for b in right.split("*") if b.strip()]
        rpath = _parse_side(rbits, ctx, tgt_s.right_vertex, filename, lineno,
                            lazy_at="target")
        out.append((coeff, lpath, rpath))
    return out


def _parse_side(bits, ctx, lazy_vertex, filename, lineno, lazy_at):
    from .errors import ParseError

    if bits == ["1"] or not bits:
        return ctx.lazy(lazy_vertex)
    try:
        return ctx.path_from_names(bits)
    except (KeyError, ValueError) as e:
        raise ParseError(f"bad path {'*'.join(bits)}: {e}", filename, lineno)
