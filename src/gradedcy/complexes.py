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
from array import array
from collections import namedtuple

from .errors import CapTooSmall, Inhomogeneous, NotComplex, ParseError
from .normalwords import RewriteContext
from .quiver import _add_into, _once, _product, _signed_terms, as_exact


class FreeSummand(namedtuple("FreeSummand",
                             "left_vertex right_vertex degree label",
                             defaults=("",))):
    """A rank-one free summand R g R: the generator's vertex pair, its
    internal degree and a label."""

    __slots__ = ()


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
        rc.listing(|p|)) -> (base, local), and the number of elements.
        Element p (x) q is base + local[position of q in rc.listing(|q|)]:
        the q words of one p are whole vertex-pair blocks, so one int
        array, shared by all keys with the same |q| and vertex, numbers
        that vertex's words in listing order (-1 for the rest), or is
        range(len(listing)) where they are the whole listing, as on one
        vertex.  p runs over the words that such a map at |p| numbers;
        keys without q words are left out.  Listings are checked for
        stability as in rc.basis.  Graded and dg-right summands take p
        ending at the left vertex and q starting at the right one, dg-left
        summands p starting at the left vertex and q ending at the right
        one.  With `lazy_left`, p is the lazy word at the left vertex: the
        slice of the one-sided generator complex (left factor killed)."""
        dg_left, out, n, maps = self.kind == "dg-left", {}, 0, {}

        def local(degree, vertex, at_end):
            key = degree, vertex, at_end
            if key not in maps:
                rc.counts(degree)
                got, j = array("i", [-1]) * len(rc.listing(degree)), 0
                for (a, b), pos, block in rc.listing(degree).blocks:
                    if (b if at_end else a) == vertex:
                        size = len(block[1])
                        got[pos:pos + size] = array("i", range(j, j + size))
                        j += size
                maps[key] = (got if j < len(got) else range(j)), j
            return maps[key]

        for si, s in enumerate(self.terms[k]):
            rest = w - s.degree
            for pdeg in range(0, rest - 1, -1)[:1 if lazy_left else None]:
                ps = [rc.position(s.left_vertex)] if lazy_left else [
                    i for i, g in enumerate(
                        local(pdeg, s.left_vertex, not dg_left)[0]) if g >= 0]
                qs, size = local(rest - pdeg, s.right_vertex, dg_left)
                for ip in ps if size else ():
                    out[si, pdeg, ip] = n, qs
                    n += size
        return out, n

    def slice_basis(self, rc: RewriteContext, k, w):
        """Basis of the internal-degree-w slice of terms[k]: (summand
        index, left path, right path), in the order of slots()."""
        slots, n = self.slots(rc, k, w)
        out = [None] * n
        for (si, pdeg, ip), (base, local) in slots.items():
            p, qdeg = rc.word(pdeg, ip), w - self.terms[k][si].degree - pdeg
            for iq, g in enumerate(local):
                if g >= 0:
                    out[base + g] = (si, p, rc.word(qdeg, iq))
        return out

    def entry_plan(self, rc: RewriteContext, k, si, pdeg, ip, qdeg, target):
        """How diffs[k] acts on the elements p (x) q of summand si of
        terms[k+1] with p at position ip of rc.listing(pdeg) and |q| =
        qdeg: a list of (target((ti, |p'|, position of p')), c, rows, row),
        one for each term c * (ti, p', q') of the image, where q' is row(i),
        the (position, coefficient) terms of a vector over
        rc.listing(qdeg + |v|), for q at position i of rc.listing(qdeg);
        rows is the arrow map (below 0 for a row that only row gives) when
        v is one arrow, else None.  Terms whose target(...) is None are
        left out.

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
                    # lambdas, not partials: a keyword argument takes
                    # functools.partial off its fast call path
                    if len(v) == 1:
                        rows = rc.arrow_map(qdeg, v.arrows[0], not dg_left)
                        row = lambda i, x=v.arrows[0]: rc.arrow_row(
                            qdeg, x, i, not dg_left)
                    else:
                        rows, row = None, lambda i, v=v: rc.times(
                            i, qdeg, v, not dg_left).items()
                    plan.append((key, as_exact(-c * cp if e % 2 else c * cp),
                                 rows, row))
        return plan

    def _plans(self, rc: RewriteContext, k, w, src, target):
        """For each key of the slice src = slots(rc, k + 1, w, ...), in
        element order: its entry_plan under diffs[k] with `target`, and an
        iterator over the positions of its q words (not a list: a deep
        listing would keep an int object per word)."""
        for (si, pdeg, ip), (_, local) in src.items():
            yield self.entry_plan(
                rc, k, si, pdeg, ip, w - self.terms[k + 1][si].degree - pdeg,
                target), (i for i, g in enumerate(local) if g >= 0)

    def images(self, rc: RewriteContext, k, w, src, tgt):
        """The image under diffs[k] of each element of the slice src =
        slots(rc, k + 1, w, ...), in element order, as a sparse dict over
        the elements of tgt = slots(rc, k, w, ...); terms outside tgt are
        dropped.  One look-up in a local map per term of a product."""
        for plan, cols in self._plans(rc, k, w, src, tgt.get):
            for i in cols:
                yield _image(plan, i)

    def leads(self, rc: RewriteContext, k, w, src, tgt, misses, lead):
        """Mark in the bytearray `lead` the least element of each nonzero
        image of images(rc, k, w, src, tgt), and return it; with `misses`
        false leave unmarked an image whose least element needs a miss
        product (a row that is not a listed normal word) or a product by a
        path of several arrows, which is then not computed.  A rank reads
        only the set of marks: lead.count(1).

        No image is built.  The keys of tgt own disjoint runs of elements
        that start at their bases, and a product's terms have distinct
        positions and nonzero coefficients.  So in a plan whose keys are
        distinct, once its entries with c = 0 are dropped and the rest
        sorted by base, no two terms meet: the least element is the least
        one of the first entry that has one, for a hit its base plus its
        one position's local number.  A plan with a repeated key takes
        its least elements off its images."""
        for plan, cols in self._plans(rc, k, w, src, tgt.get):
            plan = sorted((e for e in plan if e[1]), key=lambda e: e[0][0])
            distinct = len({e[0][0] for e in plan}) == len(plan)
            if not distinct:
                for i in cols:
                    if vec := _image(plan, i):
                        lead[min(vec)] = 1
                continue
            for i in cols:
                for (base, local), _, rows, row in plan:
                    if rows is not None and (img := rows[i]) >= 0:
                        if (t := local[img]) >= 0:
                            lead[base + t] = 1
                            break
                        continue
                    if not misses:
                        break
                    t = min((local[j] for j, _ in row(i) if local[j] >= 0),
                            default=-1)
                    if t >= 0:
                        lead[base + t] = 1
                        break
        return lead

    def check_complex(self, cap):
        """d_k o d_(k+1) = 0 for every k: the image of each lazy generator
        is 0, evaluated by entry_plan, so with the Koszul signs of the
        complex's kind.  `cap` is the rewriting cap, or the RewriteContext
        to multiply in.  Raises CapTooSmall when a product of two entries'
        paths could be longer than the cap, since words beyond it are not
        listed, and NotComplex naming the summands of a nonzero image."""
        rc = cap if isinstance(cap, RewriteContext) else \
            RewriteContext(self.pres, cap)
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
                vec = {(si, 0, rc.position(s.left_vertex),
                        rc.position(s.right_vertex)): 1}
                for j in (k + 1, k):
                    image = {}
                    for (ti, pdeg, ip, iq), c0 in vec.items():
                        qdeg = s.degree - self.terms[j + 1][ti].degree - pdeg
                        for key, c, _, row in self.entry_plan(
                                rc, j, ti, pdeg, ip, qdeg, lambda key: key):
                            _add_into(image, ((key + (jq,), cq)
                                              for jq, cq in row(iq)), c0 * c)
                    vec = image
                if vec:
                    raise NotComplex(
                        f"{self.name}: d o d nonzero from summand {s.label} "
                        f"to {self.terms[k][min(vec)[0]].label}")
        return True


def _image(plan, i):
    """The image of the q word at position i under an entry plan whose
    targets are (base, local) values of slots(), as a sparse dict over
    the elements; terms that local does not number are dropped."""
    vec = {}
    for (base, local), c, _, row in plan:
        _add_into(vec, ((base + local[j], cm) for j, cm in row(i)
                        if local[j] >= 0), c)
    return vec


# ---------------------------------------------------------------------------
# complex file format
# ---------------------------------------------------------------------------

def parse_complex(text, pres, filename="<string>") -> BimoduleComplex:
    """Terms as summand lines "left-vertex right-vertex degree"; maps as
    lines "target-index source-index expression", entries written as sums
    of lpath # rpath, each side a relation term (quiver._product) or,
    without arrow names, the lazy path ('1').  [map m] maps [term m]
    into [term m-1], so m runs from 1 to the last term, and names each
    target-source pair on one line only."""
    ctx = pres.ctx
    terms, maps = [], {}
    lines = {}      # (m, target, source) -> line of the entry
    section = None
    term_idx = map_idx = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        # not quiver._sections: '#' is the tensor sign, ';' starts comments
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
            _once(lines, (map_idx, tgt, src),
                  f"[map {map_idx}] gives entry {tgt} {src}", filename, lineno)
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
    """The (coefficient, lpath, rpath) triples of an entry: a side
    without arrow names is the lazy path at the target summand's vertex
    on that side."""
    out = []
    for sign, term in _signed_terms(expr):
        if "#" not in term:
            raise ParseError("entry term needs lpath # rpath", filename,
                             lineno)
        left, right = term.split("#", 1)
        ls, lpath = _product(left, ctx, filename, lineno, tgt_s.left_vertex)
        rs, rpath = _product(right, ctx, filename, lineno,
                             tgt_s.right_vertex)
        out.append((sign * ls * rs, lpath, rpath))
    return out
