"""Sign calculus for viewing graded bimodule resolutions over the graded
enveloping algebra with its Koszul signs, dualizing them, and checking
(sign-)twisted duality window by window.

Conventions (fixed once; the worked two-variable example pins them down):

* transport to the enveloping side multiplies each differential entry
  u (x) v by (-1)^(l_t |u|), l_t the target shift;
* the dual complex stores, as its displayed entries, the images of the
  dual generators: the transported entry re-signed by (-1)^((l_s+l_t) l_t);
* evaluating an entry on an element p (x) q multiplies by
  (-1)^(|p|(|u|+|v|)) on a transported complex and by
  (-1)^((|p|+|q|)(l_s+l_t+|u|)) on a dual one, which composes paths as
  u.p and q.v; BimoduleComplex.entry_plan is the one place this rule is
  written, for slice matrices, one-sided complexes and d o d alike;
* the bimodule actions on a dual term of shift l at cohomological
  position k are
      x . (p (x) q) = (-1)^((l+k)|x| + |x||p|)  (p then x) (x) q
      (p (x) q) . x = (-1)^(|q||x|)             p (x) (x then q).

Cohomology is computed bidegree-wise as exact linear algebra on the
graded slices, numbered by positions in the context's listings
(BimoduleComplex.slots).  For wide windows the dimensions are certified
through the one-sided reductions (free-module generator complexes: the
same evaluation with the left factor lazy), which stay small.  The
exactness probe, the verdict's first step, checks that its input squares
to zero: the ranks read off leading indices (_homology_dims) are exact
only on a complex.

Each rank is read in up to three stages, hit columns first: the least
indices of the images whose least index needs no miss product (a
product that is not a listed normal word), read straight off the arrow
maps and marked in one bytearray per map (BimoduleComplex.leads), whose
marks are counted; then those of every image, miss products computed
only for the images whose least index needs one; then elimination.
Images with distinct least indices, and so any subset of them, are
independent, so each stage's count bounds the rank from below, and a
later stage runs only for a map that the bounds so far leave loose at
both ends.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .complexes import BimoduleComplex, FreeSummand
from .errors import CapTooSmall, NotFree, WindowTooSmall
from .linalg import SparseEliminator
from .normalwords import RewriteContext
from .quiver import _add_into


# ---------------------------------------------------------------------------
# twists
# ---------------------------------------------------------------------------

class TwistSpec(namedtuple("TwistSpec", "scalars shift")):
    """A diagonal automorphism (`scalars`: arrow name -> exact number,
    1 where absent) and the claimed total shift (the CY dimension of the
    dual)."""

    __slots__ = ()

    def scalar(self, name):
        return self.scalars.get(name, 1)


def identity_twist(shift):
    return TwistSpec({}, shift)


def sign_twist(pres, shift):
    """x -> (-1)^{|x|} x on arrows."""
    return TwistSpec({a.name: (-1) ** (a.degree % 2)
                      for a in pres.quiver.arrows}, shift)


# ---------------------------------------------------------------------------
# built-in resolutions
# ---------------------------------------------------------------------------

def koszul_complex(pres) -> BimoduleComplex:
    """Free bimodule resolution of a commutative polynomial presentation
    (single vertex, pairwise commutator relations)."""
    quiver = pres.quiver
    if len(quiver.vertices) != 1:
        raise NotFree("built-in resolution needs a single vertex")
    v = quiver.vertices[0]
    ctx = pres.ctx
    names = [a.name for a in quiver.arrows]
    degs = {a.name: a.degree for a in quiver.arrows}
    n = len(names)
    terms = []
    for k in range(n + 1):
        layer = []
        for T in itertools.combinations(range(n), k):
            d = sum(degs[names[i]] for i in T)
            label = "g[" + ",".join(names[i] for i in T) + "]"
            layer.append(FreeSummand(v, v, d, label))
        terms.append(layer)
    index = []
    for k in range(n + 1):
        index.append({T: i for i, T in
                      enumerate(itertools.combinations(range(n), k))})
    diffs = []
    for k in range(n):
        dk = {}
        for T, si in index[k + 1].items():
            for j, var in enumerate(T):
                rest = tuple(x for x in T if x != var)
                ti = index[k][rest]
                ap = ctx.arrow_path(names[var])
                sign = (-1) ** j
                dk.setdefault((ti, si), []).extend([
                    (sign, ap, ctx.lazy(v)),
                    (-sign, ctx.lazy(v), ap),
                ])
        diffs.append(dk)
    return BimoduleComplex(pres, terms, diffs, name="koszul")


def skew_complex(pres) -> BimoduleComplex:
    """Three-term resolution for the single-relation algebra with relation
    sum of squares of the arrows."""
    quiver = pres.quiver
    if len(quiver.vertices) != 1:
        raise NotFree("built-in resolution needs a single vertex")
    v = quiver.vertices[0]
    ctx = pres.ctx
    names = [a.name for a in quiver.arrows]
    terms = [
        [FreeSummand(v, v, 0, "g[]")],
        [FreeSummand(v, v, -1, f"g[{nm}]") for nm in names],
        [FreeSummand(v, v, -2, "g[rel]")],
    ]
    d1 = {}
    for i, nm in enumerate(names):
        ap = ctx.arrow_path(nm)
        d1[(0, i)] = [(1, ap, ctx.lazy(v)), (-1, ctx.lazy(v), ap)]
    d2 = {}
    for i, nm in enumerate(names):
        ap = ctx.arrow_path(nm)
        d2[(i, 0)] = [(1, ap, ctx.lazy(v)), (1, ctx.lazy(v), ap)]
    return BimoduleComplex(pres, terms, [d1, d2], name="skew")


def builtin_resolution(pres) -> BimoduleComplex:
    """Choose between the polynomial and sum-of-squares resolutions by the
    shape of the relation set."""
    ctx = pres.ctx
    arrows = pres.quiver.arrows
    rels = pres.relations
    if len(pres.quiver.vertices) == 1:
        # commutators?
        def is_commutator(r):
            if len(r.terms) != 2:
                return False
            (p1, c1), (p2, c2) = sorted(
                r.terms.items(), key=lambda kv: ctx.key(kv[0]))
            return (len(p1) == 2 and len(p2) == 2 and c1 == -c2
                    and p1.arrows == tuple(reversed(p2.arrows)))
        n = len(arrows)
        if len(rels) == n * (n - 1) // 2 and all(map(is_commutator, rels)):
            return koszul_complex(pres)
        if len(rels) == 1 and len(rels[0].terms) == n and all(
                len(p) == 2 and p.arrows[0] == p.arrows[1] and c == 1
                for p, c in rels[0].terms.items()):
            return skew_complex(pres)
    raise NotFree("no built-in resolution matches this presentation; "
                  "supply one in the complex file format")


# ---------------------------------------------------------------------------
# transport and dualization
# ---------------------------------------------------------------------------

def dg_transport(cplx: BimoduleComplex) -> BimoduleComplex:
    """Rewrite each free bimodule as a shifted free module over the graded
    enveloping algebra; entries pick up (-1)^(l_t |u|)."""
    if cplx.kind != "graded":
        raise NotFree("transport starts from a plain graded complex")
    ctx = cplx.pres.ctx
    diffs = []
    for k, dk in enumerate(cplx.diffs):
        new = {}
        for (ti, si), entries in dk.items():
            lt = -cplx.terms[k][ti].degree
            new[(ti, si)] = [
                (c * (-1) ** ((lt * ctx.degree(u)) % 2), u, v)
                for (c, u, v) in entries]
        diffs.append(new)
    return BimoduleComplex(cplx.pres, cplx.terms, diffs,
                           name=cplx.name + ".dg", kind="dg-right",
                           positions=cplx.positions)


def dualize(cplx: BimoduleComplex) -> BimoduleComplex:
    """Termwise dual over the enveloping algebra.

    Plain complexes are transported first.  The result of dualizing a
    right complex is a left complex with reversed terms; dualizing again
    returns a right complex (the double dual), which has the same
    per-bidegree cohomology dimensions as the transported original.
    """
    if cplx.kind == "graded":
        cplx = dg_transport(cplx)
    n = len(cplx.terms) - 1
    new_terms = []
    for j in range(n + 1):
        old = cplx.terms[n - j]
        new_terms.append([
            FreeSummand(s.left_vertex, s.right_vertex, -s.degree,
                        s.label + "^") for s in old])
    new_positions = [-cplx.positions[n - j] for j in range(n + 1)]
    new_diffs = []
    for j in range(n):
        # dual of diffs[n-j-1]: terms[n-j] -> terms[n-j-1]
        old = cplx.diffs[n - j - 1]
        new = {}
        for (ti, si), entries in old.items():
            ls = -cplx.terms[n - j][si].degree
            lt = -cplx.terms[n - j - 1][ti].degree
            sgn = (-1) ** (((ls + lt) * lt) % 2)
            # component: dual(term[n-j-1], ti) -> dual(term[n-j], si)
            # in the new indexing: source index ti at new term j+1,
            # target index si at new term j
            new.setdefault((si, ti), []).extend(
                (c * sgn, u, v) for (c, u, v) in entries)
        new_diffs.append(new)
    kind = "dg-left" if cplx.kind == "dg-right" else "dg-right"
    return BimoduleComplex(cplx.pres, new_terms, new_diffs,
                           name=cplx.name + "^", kind=kind,
                           positions=new_positions)


# ---------------------------------------------------------------------------
# slice evaluation
# ---------------------------------------------------------------------------

def slice_cohomology(cplx, rc, degrees):
    """dims of ker/im per (term position, internal degree) by direct exact
    linear algebra on the slices; suitable for small windows.  `cplx`
    must be a complex (check_complex), see _homology_dims."""
    return _cohomology(cplx, rc, degrees, lazy_left=False)


def one_sided_complex(cplx, rc, degrees):
    """Kill the left tensor factor: generators (term k, summand, right
    path); the induced differential keeps only entry terms whose left path
    is lazy.  Returns homology dims per (position, generator degree).

    Generator degree of (summand s, q) is |q| + shift-offset so that it
    matches the internal degree of the corresponding slice elements.
    The complex of free graded one-sided modules splits as a minimal part
    plus trivial pairs, so these homology dims are exactly the generator
    multiplicities of the minimal part; nonzero entries away from the
    expected spot falsify the duality claim.  `cplx` must be a complex
    (check_complex), see _homology_dims.

    This is the slice evaluation with p the lazy word at each summand's
    left vertex (BimoduleComplex.slots with lazy_left): an entry whose
    left path u is not lazy leaves that slice.  A generator's image q.v
    or v.q is one row of the context's arrow map when v is one arrow.
    """
    return _cohomology(cplx, rc, degrees, lazy_left=True)


def _cohomology(cplx, rc, degrees, lazy_left):
    out = {}
    for w in degrees:
        slots = [cplx.slots(rc, k, w, lazy_left)
                 for k in range(len(cplx.terms))]
        _homology_dims(
            cplx, w, [n for _, n in slots],
            lambda k, misses, lead: cplx.leads(
                rc, k, w, slots[k + 1][0], slots[k][0], misses, lead),
            lambda k: cplx.images(rc, k, w, slots[k + 1][0], slots[k][0]),
            out)
    return out


def _homology_dims(cplx, w, dims, leads, images, out):
    """out[(position k, w)] = dims[k] - rank in - rank out, where images(k)
    gives the images of the differential from term k + 1 to term k and
    leads(k, misses, lead) marks their least indices in the bytearray
    `lead` of dims[k] zeros, and returns it (BimoduleComplex.leads).

    One image for each distinct least index gives independent images,
    so the number of distinct least indices among any subset of a map's
    images bounds its rank from below; and d o d = 0 bounds the two ranks
    at position j by dims[j] together.  Where the lower bounds already
    add up to dims[j], both ranks at j are exact.  Each map is ranked in
    up to three stages, each stage only for the maps that the bounds so
    far pin at neither end: (1) the least indices of the images that
    need no miss product, (2) those of all images, (3) elimination.  So
    the maps must form a complex (check_complex): otherwise a position
    can read 0 although its true ranks overfill it (it reads negative
    only where even the bounds do)."""
    low = [0] * (len(dims) + 1)   # low[k + 1] bounds the rank of map k

    def eliminate(k):
        el = SparseEliminator()
        for vec in images(k):
            el.add(vec)
        return el.rank

    for stage in (lambda k: leads(k, False, bytearray(dims[k])).count(1),
                  lambda k: leads(k, True, bytearray(dims[k])).count(1),
                  eliminate):
        for k in range(len(dims) - 1):
            if low[k] + low[k + 1] < dims[k] and \
                    low[k + 1] + low[k + 2] < dims[k + 1]:
                low[k + 1] = stage(k)
    for k, dim in enumerate(dims):
        out[(cplx.positions[k], w)] = dim - low[k + 1] - low[k]


def exactness_probe(cplx, window, rc):
    """The augmented resolution is exact in the window: its one-sided
    generator complex has homology only at position 0, degree 0, of
    dimension = number of vertices.  Raises NotComplex first when `cplx`
    is not a complex (check_complex): its ranks would not be exact, see
    _homology_dims."""
    cplx.check_complex(rc)
    lo = min(window)
    degrees = range(0, lo - 1, -1)
    dims = one_sided_complex(cplx, rc, degrees)
    return _violations(dims, (0, 0), len(cplx.pres.quiver.vertices))


def _violations(dims, at, value):
    """(position, degree) -> (got, expected) at each key of dims whose
    dimension is not `value` at the key `at` and 0 elsewhere."""
    bad = {}
    for key, d in sorted(dims.items()):
        expected = value if key == at else 0
        if d != expected:
            bad[key] = (d, expected)
    return bad


# ---------------------------------------------------------------------------
# the duality verdict
# ---------------------------------------------------------------------------

# the deepest degree of the window whose dimension is computed directly on
# the graded slices; below it the one-sided certificate stands alone
DIRECT_FLOOR = -2


class CYVerdict(namedtuple("CYVerdict", "passed shift window dim_rows "
                           "certificate action_ok probe_failures")):
    """The verdict: `dim_rows` lists (degree v, expected dim R_v, computed,
    method); `certificate` maps (position, degree) to (got, expected) at
    each mismatch; `action_ok` maps an arrow name to whether the twist
    relation held; `probe_failures` holds the exactness probe's
    violations."""

    __slots__ = ()

    def summary(self):
        lines = []
        status = "PASS" if self.passed else "FAIL"
        lines.append(f"{status} twisted duality at shift [{self.shift}] "
                     f"window {self.window[0]}..{self.window[1]}")
        for v, exp, got, how in self.dim_rows:
            mark = "ok" if exp == got else "MISMATCH"
            lines.append(f"  degree {v}: expected {exp}, computed {got} "
                         f"[{how}, {mark}]")
        for name, ok in sorted(self.action_ok.items()):
            lines.append(f"  action {name}: "
                         f"{'matches twist' if ok else 'VIOLATES twist'}")
        if self.certificate:
            lines.append(f"  certificate violations: {self.certificate}")
        if self.probe_failures:
            lines.append(f"  exactness probe failed: {self.probe_failures}")
        return "\n".join(lines)


def check_twisted_cy(pres, cplx, twist: TwistSpec, window=None, cap=None):
    """Verify that the dual of the given free resolution has cohomology
    only at the claimed position, equal there to the shift of the diagonal
    bimodule twisted as specified, degree-wise within the window.

    Dimensions in the shallow part of the window (down to DIRECT_FLOOR)
    are computed directly on the graded slices; the rest of the window is
    certified through the one-sided generator complex, whose homology
    pins the minimal model of the dual down to the window floor.  The
    twist itself is tested on the top cohomology class z0: for every
    arrow x the class z0.x - eps_x x.z0 must be a coboundary.
    """
    if len(pres.quiver.vertices) != 1:
        raise NotFree("the duality verdict is implemented for single-vertex "
                      "presentations")
    if pres.cy is None:
        raise ValueError("presentation lacks declared CY data")
    a = pres.cy.a_invariant
    if window is None:
        window = (0, -(a + 4))
    hi, lo = max(window), min(window)
    if not lo <= 0 <= hi:
        raise WindowTooSmall(
            f"--window {lo}..{hi} does not contain degree 0, where the top "
            f"generator is certified; widen --window to reach 0")
    shallowest = max(arrow.degree for arrow in pres.quiver.arrows)
    if cap is None:
        cap = max(-lo + 2, pres.max_relation_length + 2, a + 2)
    elif shallowest < 0 and cap < lo // shallowest:
        # with every arrow of negative degree, a word of degree lo has at
        # most lo // shallowest arrows, and a shorter cap cannot list it
        raise CapTooSmall(
            f"--cap {cap} is below the length of the longest word of degree "
            f"{lo}, {lo // shallowest}; use --cap {lo // shallowest} or more")
    rc = RewriteContext(pres, cap)

    probe_failures = exactness_probe(cplx, window, rc)

    dual = dualize(cplx)
    claimed_pos = twist.shift - a

    # certificate: generator complex of the dual, degrees a+hi .. a+lo
    degrees = [v + a for v in range(hi, lo - 1, -1)]
    gen_dims = one_sided_complex(dual, rc, degrees)
    certificate = _violations(gen_dims, (claimed_pos, a), 1)
    certified = not certificate

    # direct slice computation in the shallow part of the window
    dim_rows = []
    shallow = [v for v in range(hi, lo - 1, -1) if v >= DIRECT_FLOOR]
    direct = slice_cohomology(dual, rc, [v + a for v in shallow])
    direct_ok = True
    for v in range(hi, lo - 1, -1):
        expected = sum(rc.counts(v).values()) if v <= 0 else 0
        if v in shallow:
            got = direct.get((claimed_pos, v + a), 0)
            stray = any(d and pos != claimed_pos for (pos, w2), d in
                        direct.items() if w2 == v + a)
            if stray or got != expected:
                direct_ok = False
            dim_rows.append((v, expected, got, "direct"))
        else:
            got = expected if certified else None
            dim_rows.append((v, expected, got, "certified"))
    dims_ok = certified and direct_ok

    action_ok = _twist_action_check(pres, dual, rc, twist, a)

    passed = dims_ok and not probe_failures and all(action_ok.values())
    return CYVerdict(passed, twist.shift, (hi, lo), dim_rows, certificate,
                     action_ok, probe_failures)


def _twist_action_check(pres, dual, rc, twist, a):
    """z0 . x == eps_x (-1)^(shift |x|) x . z0 in top cohomology, for
    each arrow x; the extra parity is the suspension sign of the claimed
    shift acting on the left."""
    v0 = pres.quiver.vertices[0]
    top = 0  # dual.terms[0] is the deepest original term (top position)
    n_pos = dual.positions[0]
    # z0 = class of the lazy pair at the summand of shift a
    zi = next((si for si, s in enumerate(dual.terms[top]) if s.degree == a),
              None)
    if zi is None:
        return {arr.name: False for arr in pres.quiver.arrows}
    lazy = rc.position(v0)
    results = {}
    for x, arrow in enumerate(pres.quiver.arrows):
        xdeg = arrow.degree
        w = a + xdeg
        # slice of the top term at degree w and the incoming image
        slots, _ = dual.slots(rc, top, w)
        el = SparseEliminator()
        for col in dual.images(rc, top, w, dual.slots(rc, top + 1, w)[0],
                               slots):
            el.add(col)
        ix = rc.position(v0, (x,))

        def slot(pdeg, ip, iq):
            base, local = slots.get((zi, pdeg, ip), (0, None))
            return None if local is None or iq is None or local[iq] < 0 \
                else base + local[iq]

        # left action: x . z0 = (-1)^((l+k)|x| + |x||p|) (p then x) (x) q
        l = a
        k = n_pos
        sgn_left = (-1) ** (((l + k) * xdeg) % 2)
        xz = {}
        g = slot(xdeg, ix, lazy)
        if g is not None:
            xz[g] = sgn_left
        zx = {}
        g = slot(0, lazy, ix)
        if g is not None:
            zx[g] = 1
        # the claimed shift itself twists left actions by the usual
        # suspension sign, so the comparison scalar absorbs it
        eps = twist.scalar(arrow.name) \
            * (-1) ** ((twist.shift * xdeg) % 2)
        # z0.x - eps x.z0 lies in the image
        results[arrow.name] = el.contains(_add_into(zx, xz.items(), -eps))
    return results
