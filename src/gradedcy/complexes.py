"""Finite complexes of free graded bimodules over a quotient path algebra.

A term is a finite direct sum of rank-one free bimodules R g R; the
summand records the generator's vertex pair and internal degree.  A
differential entry from source summand s to target summand t is a list of
(coefficient, left path, right path) triples meaning
g_s -> sum c * lpath . g_t . rpath; construction checks that every entry
keeps degrees, |lpath| + |rpath| = deg g_s - deg g_t, and meets the
summands' vertices: lpath runs from the left vertex of s to that of t and
rpath from the right vertex of t to that of s (for a dg-left complex,
lpath from t's left vertex to s's and rpath from s's right vertex to t's).

Terms are listed so that diffs[k] maps terms[k+1] into terms[k]; the
cohomological position of terms[k] is positions[k] and drops by one along
the list (so a projective resolution lists P_0 first with positions
0, -1, -2, ...).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .errors import CapTooSmall, Inhomogeneous, NotComplex, ParseError
from .rewriting import RewriteContext, _add_into, as_exact


@dataclass(frozen=True)
class FreeSummand:
    left_vertex: object
    right_vertex: object
    degree: int          # internal degree of the generator
    label: str = ""


def _degree_fault(ctx, terms, diffs, kind):
    """The first entry (c, u, v) of a diffs[k] from summand s of
    terms[k+1] to summand t of terms[k] whose paths do not meet the
    summands' vertices (see the module docstring) or with |u| + |v| !=
    |s| - |t|, as ((k, index of t, index of s), message), or None: the
    vertex and degree rules of a complex, which dualizing and transporting
    keep."""
    for k, dk in enumerate(diffs):
        for (ti, si), entries in dk.items():
            s, t = terms[k + 1][si], terms[k][ti]
            sl, sr, tl, tr = (s.left_vertex, s.right_vertex, t.left_vertex,
                              t.right_vertex)
            want = (tl, sl, sr, tr) if kind == "dg-left" else (sl, tl, tr, sr)
            for _, u, v in entries:
                ends = (u.source, ctx.target(u), v.source, ctx.target(v))
                if ends != want:
                    return (k, ti, si), (
                        f"entry {ctx.format_path(u)}#{ctx.format_path(v)} "
                        f"from {s.label} ({sl}, {sr}) to {t.label} ({tl}, "
                        f"{tr}) has u from {ends[0]} to {ends[1]} and v from "
                        f"{ends[2]} to {ends[3]}, not u from {want[0]} to "
                        f"{want[1]} and v from {want[2]} to {want[3]}")
                got = ctx.degree(u) + ctx.degree(v)
                if got != s.degree - t.degree:
                    return (k, ti, si), (
                        f"entry {ctx.format_path(u)}#{ctx.format_path(v)} "
                        f"from {s.label} (degree {s.degree}) to {t.label} "
                        f"(degree {t.degree}) has |u| + |v| = {got}, not the "
                        f"source degree minus the target degree, "
                        f"{s.degree - t.degree}")
    return None


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
        fault = _degree_fault(pres.ctx, self.terms, self.diffs, kind)
        if fault is not None:
            raise Inhomogeneous(fault[1])

    def __repr__(self):
        ranks = "/".join(str(len(t)) for t in self.terms)
        return f"BimoduleComplex({self.name or 'unnamed'}, ranks {ranks})"

    # -- slices and the entry evaluator ----------------------------------

    def slots(self, rc: RewriteContext, k, w, lazy_left=False):
        """Numbering of the internal-degree-w slice of terms[k].

        Returns a dict (summand index, |p|, position of p in
        rc.listing(|p|)) -> q slots, where q slots maps each position of
        rc.listing(|q|) to the number of the element p (x) q, or to None
        for a word of another vertex pair; and the number of elements.
        Graded and dg-right summands take p ending at the left vertex and
        q starting at the right one, dg-left summands p starting at the
        left vertex and q ending at the right one.  With `lazy_left`, p is
        only the lazy word at the left vertex: the slice of the one-sided
        generator complex, where the left tensor factor is killed.  The q
        words of one p are whole vertex-pair blocks of the listing.
        """
        dg_left, out, n = self.kind == "dg-left", {}, 0

        def blocks(degree, vertex, at_end):
            pos = 0
            for (a, b), words in rc.basis(degree).by_pair.items():
                if (b if at_end else a) == vertex:
                    yield pos, words
                pos += len(words)

        for si, s in enumerate(self.terms[k]):
            rest = w - s.degree
            for pdeg in range(0, rest - 1, -1)[:1 if lazy_left else None]:
                qdeg = rest - pdeg
                ps = [rc.listing(0)[1][s.left_vertex, ()]] if lazy_left \
                    else [pos + i for pos, words in
                          blocks(pdeg, s.left_vertex, not dg_left)
                          for i in range(len(words))]
                for ip in ps:
                    slots = [None] * len(rc.listing(qdeg)[0])
                    for pos, words in blocks(qdeg, s.right_vertex, dg_left):
                        slots[pos:pos + len(words)] = range(n, n + len(words))
                        n += len(words)
                    out[si, pdeg, ip] = slots
        return out, n

    def slice_basis(self, rc: RewriteContext, k, w):
        """Basis of the internal-degree-w slice of terms[k]: (summand
        index, left path, right path), in the order of slots()."""
        slots, n = self.slots(rc, k, w)
        out = [None] * n
        for (si, pdeg, ip), qslots in slots.items():
            p = rc.listing(pdeg)[0][ip]
            words = rc.listing(w - self.terms[k][si].degree - pdeg)[0]
            for iq, g in enumerate(qslots):
                if g is not None:
                    out[g] = (si, p, words[iq])
        return out

    def entry_plan(self, rc: RewriteContext, k, si, pdeg, ip, qdeg, target):
        """How diffs[k] acts on the elements p (x) q of summand si of
        terms[k+1] with p at position ip of rc.listing(pdeg) and |q| =
        qdeg: a list of (target((ti, |p'|, position of p')), c, rows, row),
        one for each term c * (ti, p', q') of the image, where q' is row(i)
        for q at position i of rc.listing(qdeg) (an index or a sparse dict
        over rc.listing(qdeg + |v|)); rows is the arrow map that caches
        row when v is one arrow, else None.  Terms whose target(...) is
        None are left out.

        The sign rule, for an entry (c, u, v) from summand s to summand t:
        p (x) q goes to (-1)^e c p.u (x) v.q, or to (-1)^e c u.p (x) q.v
        for dg-left, with e = 0 (graded), |p|(|u| + |v|) (dg-right) or
        (|p| + |q|)(|s| + |t| + |u|) (dg-left), where |s| and |t| are the
        generator degrees.
        """
        dg_left, ctx, plan = self.kind == "dg-left", self.pres.ctx, []
        s = self.terms[k + 1][si]
        for ti, t in enumerate(self.terms[k]):
            for c, u, v in self.diffs[k].get((ti, si), ()):
                udeg = ctx.degree(u)
                e = 0 if self.kind == "graded" else \
                    (pdeg + qdeg) * (s.degree + t.degree + udeg) if dg_left \
                    else pdeg * (udeg + ctx.degree(v))
                for jp, cp in rc.times(ip, pdeg, u, dg_left).items():
                    key = target((ti, pdeg + udeg, jp))
                    if key is None:
                        continue
                    if len(v) == 1:
                        rows = rc.arrow_map(qdeg, v.arrows[0], not dg_left)
                        row = partial(rc.arrow_row, qdeg, v.arrows[0],
                                      left=not dg_left)
                    else:
                        rows, row = None, partial(rc.times, degree=qdeg,
                                                  path=v, left=not dg_left)
                    plan.append((key, as_exact(-c * cp if e % 2 else c * cp),
                                 rows, row))
        return plan

    def images(self, rc: RewriteContext, k, w, src, tgt):
        """The image under diffs[k] of each element of the slice src =
        slots(rc, k + 1, w, ...), in slot order, as a sparse dict over the
        slots of tgt = slots(rc, k, w, ...); terms outside tgt are
        dropped.  One slot look-up per term of a product."""
        for (si, pdeg, ip), qslots in src.items():
            plan = self.entry_plan(rc, k, si, pdeg, ip,
                                   w - self.terms[k + 1][si].degree - pdeg,
                                   tgt.get)
            for i, g in enumerate(qslots):
                if g is None:
                    continue
                vec = {}
                for tslots, c, rows, row in plan:
                    img = row(i) if rows is None else rows[i]
                    if img is None:
                        img = row(i)
                    for j, cm in ((img, 1),) if type(img) is int \
                            else img.items():
                        t = tslots[j]
                        if t is None:
                            continue
                        val = vec.get(t, 0) + c * cm
                        if val:
                            vec[t] = val
                        else:
                            vec.pop(t, None)
                yield vec

    def check_complex(self, cap):
        """d_k o d_(k+1) = 0 for every k: the image of each lazy generator
        is 0, evaluated by entry_plan, so with the Koszul signs of the
        complex's kind.  `cap` is the rewriting cap, or the RewriteContext
        to multiply in.  Raises CapTooSmall when a product of two entries'
        paths could be longer than the cap, since words beyond it are not
        listed, and NotComplex naming the summands of a nonzero image."""
        rc = cap if isinstance(cap, RewriteContext) else \
            RewriteContext(self.pres, cap)
        lazy = rc.listing(0)[1]
        for k in range(len(self.diffs) - 1):
            for mid, m in enumerate(self.terms[k + 1]):
                into = [e for (ti, _), es in self.diffs[k + 1].items()
                        if ti == mid for e in es]
                out = [e for (_, si), es in self.diffs[k].items()
                       if si == mid for e in es]
                longest = max((len(e[side]) + len(f[side]) for e in into
                               for f in out for side in (1, 2)), default=0)
                if longest > rc.cap:
                    raise CapTooSmall(
                        f"{self.name}: d o d through summand {m.label} "
                        f"multiplies paths to length {longest}, beyond "
                        f"--cap {rc.cap}; raise --cap to at least {longest}")
            for si, s in enumerate(self.terms[k + 2]):
                vec = {(si, 0, lazy[s.left_vertex, ()],
                        lazy[s.right_vertex, ()]): 1}
                for j in (k + 1, k):
                    image = {}
                    for (ti, pdeg, ip, iq), c0 in vec.items():
                        qdeg = s.degree - self.terms[j + 1][ti].degree - pdeg
                        for key, c, _, row in self.entry_plan(
                                rc, j, ti, pdeg, ip, qdeg, lambda key: key):
                            img = row(iq)
                            _add_into(image, {key + (jq,): cq for jq, cq in (
                                ((img, 1),) if type(img) is int
                                else img.items())}, c0 * c)
                    vec = image
                if vec:
                    raise NotComplex(
                        f"{self.name}: d o d nonzero from summand {s.label} "
                        f"to {self.terms[k][min(vec)[0]].label}")
        return True


# ---------------------------------------------------------------------------
# complex file format
# ---------------------------------------------------------------------------

def parse_complex(text, pres, filename="<string>") -> BimoduleComplex:
    """Terms as summand lines "left-vertex right-vertex degree"; maps as
    lines "target-index source-index expression", entries written as sums
    of [coeff*] lpath # rpath with '1' for a lazy path.  [map m] maps
    [term m] into [term m-1], so m runs from 1 to the last term, and names
    each target-source pair on one line only."""
    ctx = pres.ctx
    terms, maps = [], {}
    lines = {}      # (m, target, source) -> line of the entry
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
            if map_idx == 0:
                raise ParseError("[map 0] names no map: [map m] maps "
                                 "[term m] into [term m-1], m >= 1",
                                 filename, lineno)
            maps.setdefault(map_idx, (lineno, {}))
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
            if not re.fullmatch(r"-?\d+", deg):
                raise ParseError(f"degree must be an integer, got {deg}",
                                 filename, lineno)
            terms[term_idx].append(
                FreeSummand(lv, rv, int(deg),
                            f"T{term_idx}[{len(terms[term_idx])}]"))
        elif section == "map":
            bits = line.split(None, 2)
            if len(bits) != 3:
                raise ParseError("map line must be: tgt src expression",
                                 filename, lineno)
            for b in bits[:2]:
                if not re.fullmatch(r"\d+", b):
                    raise ParseError(
                        f"summand index must be a non-negative integer, "
                        f"got {b}", filename, lineno)
            tgt, src = int(bits[0]), int(bits[1])
            if map_idx >= len(terms) or tgt >= len(terms[map_idx - 1]) \
                    or src >= len(terms[map_idx]):
                raise ParseError("map indices out of range", filename,
                                 lineno)
            if (map_idx, tgt, src) in lines:
                raise ParseError(
                    f"[map {map_idx}] gives entry {tgt} {src} again, first "
                    f"on line {lines[map_idx, tgt, src]}; write its terms "
                    f"as one sum", filename, lineno)
            lines[map_idx, tgt, src] = lineno
            maps[map_idx][1][(tgt, src)] = _parse_bitensor(
                bits[2], ctx, terms[map_idx - 1][tgt], filename, lineno)
        else:
            raise ParseError("content before any section header", filename,
                             lineno)
    for m, (lineno, _) in maps.items():
        if m >= len(terms):
            raise ParseError(f"[map {m}] is past the last term "
                             f"[term {len(terms) - 1}]", filename, lineno)
    diffs = [maps.get(k + 1, (None, {}))[1] for k in range(len(terms) - 1)]
    try:
        return BimoduleComplex(pres, terms, diffs, name=filename)
    except Inhomogeneous:
        (k, ti, si), message = _degree_fault(ctx, terms, diffs, "graded")
        raise ParseError(message, filename, lines[k + 1, ti, si])


def _parse_bitensor(expr, ctx, tgt_s, filename, lineno):
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
            try:
                coeff *= Fraction(lbits[0])
            except ZeroDivisionError:
                raise ParseError(f"coefficient {lbits[0]} divides by zero",
                                 filename, lineno)
            lbits = lbits[1:]
        lpath = _parse_side(lbits, ctx, tgt_s.left_vertex, filename, lineno)
        rbits = [b.strip() for b in right.split("*") if b.strip()]
        rpath = _parse_side(rbits, ctx, tgt_s.right_vertex, filename, lineno)
        out.append((coeff, lpath, rpath))
    return out


def _parse_side(bits, ctx, lazy_vertex, filename, lineno):
    if bits == ["1"] or not bits:
        return ctx.lazy(lazy_vertex)
    try:
        return ctx.path_from_names(bits)
    except (KeyError, ValueError) as e:
        raise ParseError(f"bad path {'*'.join(bits)}: {e}", filename, lineno)
