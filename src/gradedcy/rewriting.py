"""Degree-truncated rewriting for path algebra quotients.

`truncated_rewriting` runs a Buchberger-style completion on the relation
set, resolving every overlap whose ambiguity word has length <= cap.
Rewriting under a length-lex order never increases path length, so the
returned system computes unique normal forms for all paths of length
<= cap.  An automaton over the rule tips (the Ufnarovski graph) decides
normality; `CountContext.counts` counts graded pieces by dynamic
programming over it, without listing a word.  Listings and products of
normal words live in `normalwords`: each degree's words form a trie of
int arrays (parent, last arrow, automaton state), so `dims`, which only
counts, never compiles them.  Nothing is claimed beyond the cap: counts
compare per-vertex-pair counts with cap+2 and raise NonStabilizing on
mismatch (the signature of a degree-0 cycle surviving in the quotient,
which the error names when the normality automaton shows one), a
heuristic, not a proof.  `RewritingSystem.reduce` serves the
completion and reduce_mod.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CapTooSmall, NonStabilizing
from .quiver import NCPoly, Path, PathAlgebraContext, _add_into


class RewritingSystem:
    """Confluent-up-to-cap rewrite rules: leading path -> smaller NCPoly."""

    def __init__(self, ctx: PathAlgebraContext, cap: int):
        self.ctx = ctx
        self.cap = cap
        self.rules = []            # list of (lhs_arrows_tuple, source, rhs)
        self._by_first = {}        # first arrow index -> [rule indices]
        self._nf_cache = {}
        self._tips = None          # tip automaton, built on first use
        self._counts = None        # count_normal() table

    # -- rule bookkeeping ---------------------------------------------------

    def _add_rule(self, poly: NCPoly):
        ctx = self.ctx
        lead = poly.leading(ctx)
        c = poly.terms[lead]
        rest = NCPoly({p: -Fraction(x) / c for p, x in poly.terms.items()
                       if p != lead})
        self.rules.append((lead.arrows, lead.source, rest))
        self._by_first.setdefault(lead.arrows[0], []).append(
            len(self.rules) - 1)
        self._nf_cache.clear()
        self._tips = self._counts = None

    def _find_redex(self, arrows):
        """Leftmost, then longest-overlap-first occurrence of a rule LHS."""
        for pos in range(len(arrows)):
            for ri in self._by_first.get(arrows[pos], ()):
                lhs = self.rules[ri][0]
                if arrows[pos:pos + len(lhs)] == lhs:
                    return pos, ri
        return None

    # -- reduction ----------------------------------------------------------

    def reduce_path(self, path: Path) -> NCPoly:
        cached = self._nf_cache.get(path)
        if cached is not None:
            return cached
        hit = self._find_redex(path.arrows)
        if hit is None:
            out = NCPoly.monomial(path)
        else:
            pos, ri = hit
            lhs, _, rhs = self.rules[ri]
            post_arrows = path.arrows[pos + len(lhs):]
            out = self._combine(
                (Path(path.source, path.arrows[:pos] + q.arrows + post_arrows),
                 c) for q, c in rhs.terms.items())
        self._nf_cache[path] = out
        return out

    def reduce(self, poly: NCPoly) -> NCPoly:
        return self._combine(poly.terms.items())

    def _combine(self, terms):
        """Sum of c * normal form of p over (p, c) in terms, accumulated in
        one dict; the terms come out in the order repeated NCPoly addition
        gives them."""
        out = {}
        for p, c in terms:
            _add_into(out, self.reduce_path(p).terms.items(), c)
        return NCPoly(out)

    # -- normal words -------------------------------------------------------

    def _step(self, state, arrow):
        """Aho-Corasick automaton over the rule left-hand sides (tips),
        built lazily.  A state is the longest suffix of the word read so
        far that is a proper prefix of a tip; () starts every path.  None
        means a tip ends at `arrow`: the longer word is not normal."""
        if self._tips is None:
            tips = {lhs for lhs, _, _ in self.rules}
            self._tips = (tips, {t[:k] for t in tips for k in range(len(t))}
                          | {()}, {})
        tips, prefixes, memo = self._tips
        if (state, arrow) not in memo:
            word = state + (arrow,)
            suffixes = [word[k:] for k in range(len(word) + 1)]
            memo[state, arrow] = None if tips.intersection(suffixes) else \
                next(s for s in suffixes if s in prefixes)
        return memo[state, arrow]

    def normal_paths(self, source, max_len, degree=None, states=None):
        """All normal-form paths from `source` of length <= max_len.

        With `degree` set, only paths of that internal degree are returned.
        When every arrow degree is <= 0, branches whose degree has dropped
        below `degree` are cut.  A list passed as `states` receives the
        automaton state reached by each returned path, in the same order.
        """
        quiver = self.ctx.quiver
        prune = degree is not None and \
            all(a.degree <= 0 for a in quiver.arrows)
        out = []

        def visit(path, state, cur_deg, cur_tgt):
            if degree is None or cur_deg == degree:
                out.append(path)
                if states is not None:
                    states.append(state)
            if len(path.arrows) == max_len:
                return
            for i in quiver.arrows_by_source[cur_tgt]:
                a, nxt = quiver.arrows[i], self._step(state, i)
                nd = cur_deg + a.degree
                if nxt is not None and not (prune and nd < degree):
                    visit(Path(path.source, path.arrows + (i,)), nxt, nd,
                          a.target)

        visit(Path(source, ()), (), 0, source)
        return out

    def count_normal(self):
        """(source, target) -> {degree: [number of normal paths of each
        length 0..cap]}, by a dynamic program over (vertex, automaton
        state, degree), one layer per length, that builds no path."""
        if self._counts is None:
            quiver, table = self.ctx.quiver, {}
            layer = {(v, v, (), 0): 1 for v in quiver.vertices}
            for length in range(self.cap + 1):
                nxt = {}
                for (s, t, state, deg), n in layer.items():
                    table.setdefault((s, t), {}).setdefault(
                        deg, [0] * (self.cap + 1))[length] += n
                    for i in quiver.arrows_by_source[t]:
                        st = self._step(state, i)
                        if st is not None:
                            a = quiver.arrows[i]
                            key = (s, a.target, st, deg + a.degree)
                            nxt[key] = nxt.get(key, 0) + n
                layer = nxt
            self._counts = table
        return self._counts


def truncated_rewriting(pres, cap) -> RewritingSystem:
    """Complete the relation set of `pres` up to ambiguity length `cap`."""
    if cap < pres.max_relation_length:
        longest = max((p for r in pres.relations for p in r.terms),
                      key=len, default=Path(None))
        raise CapTooSmall(
            f"--cap {cap} is below the longest relation path, of length "
            f"{len(longest)} in degree {pres.ctx.degree(longest)}; use "
            f"--cap {len(longest)} or more")
    ctx = pres.ctx
    rs = RewritingSystem(ctx, cap)
    pending = sorted(pres.relations,
                     key=lambda r: ctx.key(r.leading(ctx)))
    for r in pending:
        red = rs.reduce(r)
        if red:
            rs._add_rule(red)

    # Resolve overlap ambiguities in order of ambiguity-word length.
    from heapq import heappush, heappop

    queue = []
    counter = 0

    def push_one(a, b):
        nonlocal counter
        la = rs.rules[a][0]
        lb = rs.rules[b][0]
        # suffix of la equals prefix of lb (proper overlap)
        for k in range(1, min(len(la), len(lb))):
            if la[len(la) - k:] == lb[:k]:
                word_len = len(la) + len(lb) - k
                if word_len <= cap:
                    heappush(queue, (word_len, counter, a, b, k))
                    counter += 1
        # lb properly contained in la
        if a != b and len(lb) < len(la):
            for pos in range(len(la) - len(lb) + 1):
                if la[pos:pos + len(lb)] == lb:
                    heappush(queue, (len(la), counter, a, b, -(pos + 1)))
                    counter += 1

    def push_pairs(ri):
        for rj in range(ri + 1):
            push_one(ri, rj)
            if rj != ri:
                push_one(rj, ri)

    done = 0
    while True:
        while done < len(rs.rules):
            push_pairs(done)
            done += 1
        if not queue:
            break
        _, _, a, b, k = heappop(queue)
        la, src, ra = rs.rules[a]
        lb, _, rb = rs.rules[b]
        if k > 0:   # word la + lb[k:]; spoly = ra*tail - head*rb
            head, tail, post = la[:len(la) - k], lb[k:], ()
        else:       # lb inside la at -k - 1; spoly = ra - head*rb*post
            head, tail, post = la[:-k - 1], (), la[-k - 1 + len(lb):]
        spoly = NCPoly({Path(src, q.arrows + tail): c
                        for q, c in ra.terms.items()}) - \
            NCPoly({Path(src, head + q.arrows + post): c
                    for q, c in rb.terms.items()})
        red = rs.reduce(spoly)
        if red:
            rs._add_rule(red)
    return rs


# ---------------------------------------------------------------------------
# graded dimensions
# ---------------------------------------------------------------------------

def _pair_counts(rs, degree):
    """(source, target) -> number of normal paths of the degree within the
    cap of `rs`; pairs with none are absent."""
    return {pair: sum(rows[degree])
            for pair, rows in rs.count_normal().items() if degree in rows}


class CountContext:
    """The rewriting system of one presentation and its graded-piece
    counts; normalwords.RewriteContext adds listings and products."""

    def __init__(self, pres, cap):
        self.pres = pres
        self.cap = max(cap, pres.max_relation_length)
        self.rs = truncated_rewriting(pres, self.cap)
        self._checked_degrees = set()
        self._probe = None

    def counts(self, degree):
        """(source, target) -> dimension of the graded piece, counted
        without listing it; pairs of dimension 0 are absent.  Each degree
        is checked once against the counts of a system completed at
        cap+2."""
        got = _pair_counts(self.rs, degree)
        if degree not in self._checked_degrees:
            probe_cap = self.cap + 2
            if self._probe is None:
                self._probe = truncated_rewriting(self.pres, probe_cap)
            again = _pair_counts(self._probe, degree)
            if got != again:
                from .zerocycle import degree_zero_cycle
                cycle = degree_zero_cycle(self.rs)
                named = "" if cycle is None else \
                    f" ({self.pres.ctx.format_path(cycle)}: all its " \
                    f"powers are normal at --cap {self.cap})"
                raise NonStabilizing(
                    f"graded piece at degree {degree} changed between "
                    f"--cap {self.cap} and {probe_cap} ({sum(got.values())}"
                    f" vs {sum(again.values())}): a degree-0 cycle survives"
                    f"{named} or --cap is too small (cap versus cap+2 is a "
                    f"heuristic)")
            self._checked_degrees.add(degree)
        return got


def graded_dimension(pres, degree, source, target, cap):
    """Dimension of the (source -> target) graded piece, plus its basis."""
    from .normalwords import RewriteContext

    basis = RewriteContext(pres, cap).basis(degree)
    return basis.dim(source, target), basis


def dimension_table(pres, degrees, cap):
    """degree -> {(source, target) -> dim} for the listed degrees."""
    rc = CountContext(pres, cap)
    return {w: dict(sorted(rc.counts(w).items(), key=lambda kv: str(kv[0])))
            for w in degrees}


def length_table(pres, max_len):
    """(source, target) -> [count of normal forms of each length 0..max_len].

    Length-indexed (not degree-indexed); used to compare two presentations
    of the same finite dimensional algebra.
    """
    rs = truncated_rewriting(pres, max_len)
    return {pair: [sum(col) for col in zip(*rows.values())]
            for pair, rows in rs.count_normal().items()}


def __getattr__(name):
    """`rewriting.RewriteContext`, the class's name before it moved to
    normalwords (bench/tracer.py wraps it there), imported on first use so
    that `dims` does not compile normalwords."""
    if name == "RewriteContext":
        from .normalwords import RewriteContext
        return RewriteContext
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
