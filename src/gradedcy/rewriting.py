"""Degree-truncated rewriting for path algebra quotients.

`truncated_rewriting` runs a Buchberger-style completion on the relation
set, resolving every overlap whose ambiguity word has length <= cap.
Rewriting under a length-lex order never increases path length, so the
returned system computes unique normal forms for all paths of length
<= cap.  An automaton over the rule tips (the Ufnarovski graph) decides
normality; `RewriteContext.counts` counts graded pieces by dynamic
programming over it.  `basis` lists them, where a basis is needed, in
one walk, layer by layer: the words of length L are the words of length
L - 1 times an arrow the automaton steps on.  `times`, the one product
of listed words (slice algebras, preprojective layer, duality slices),
multiplies by paths one arrow at a time through per-degree maps (Green's
multiplication maps for a Groebner basis), each filled in one sweep of
index look-ups; only products where a tip fires go through the rules.
Nothing is claimed beyond the cap: a product that is a normal word
longer than it raises CapTooSmall, and counts and bases compare
per-vertex-pair counts with cap+2 and raise NonStabilizing on mismatch
(the signature of a degree-0 cycle surviving in the quotient), a
heuristic, not a proof.  `RewritingSystem.reduce` serves the completion
and reduce_mod.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CapTooSmall, NonStabilizing
from .quiver import NCPoly, Path, PathAlgebraContext


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
            for q, x in self.reduce_path(p).terms.items():
                s = out.get(q, 0) + c * x
                if s:
                    out[q] = s
                else:
                    out.pop(q, None)
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

class GradedPieceBasis:
    """Normal-form basis of one graded piece, split by vertex pair."""

    def __init__(self, degree, by_pair, states):
        self.degree = degree
        self.by_pair = by_pair  # (source, target) -> list of Path
        self.states = states    # (source, target) -> automaton state per path

    def dim(self, source=None, target=None):
        return sum(len(paths) for (s, t), paths in self.by_pair.items()
                   if source in (None, s) and target in (None, t))


def as_exact(c):
    """c as an int when it is an integer, else unchanged (a Fraction): the
    arrow maps carry integer coefficients as ints."""
    return c.numerator if c.denominator == 1 else c


def _add_into(out, vec, c):
    """out += c * vec for sparse dicts, dropping the entries that cancel.
    Written here, not taken from linalg, so that `dims`, which needs only
    this module, does not import linalg on every start."""
    for k, x in vec.items():
        y = out.get(k, 0) + c * x
        if y:
            out[k] = y
        else:
            out.pop(k, None)


def _joined(lists):
    """The lists concatenated; a single list is returned itself."""
    return lists[0] if len(lists) == 1 else [x for part in lists for x in part]


def _pair_counts(rs, degree):
    """(source, target) -> number of normal paths of the degree within the
    cap of `rs`; pairs with none are absent."""
    return {pair: sum(rows[degree])
            for pair, rows in rs.count_normal().items() if degree in rows}


class RewriteContext:
    """Caches the rewriting system, graded bases and the maps 'multiply by
    one arrow' for one presentation."""

    def __init__(self, pres, cap):
        self.pres = pres
        self.cap = max(cap, pres.max_relation_length)
        self.rs = truncated_rewriting(pres, self.cap)
        self._basis_cache = {}
        self._checked_degrees = set()
        self._probe = None
        self._listings = {}
        self._rows = {}     # (degree, arrow, left) -> rows, None = not yet
        self._layers = {}   # (degree, length) -> _layer()
        self._out = {}      # degree -> vertex -> arrows out of it, in order
        for x in sorted(pres.ctx.order_key, key=pres.ctx.order_key.get):
            a = pres.quiver.arrows[x]
            self._out.setdefault(a.degree, {}).setdefault(a.source, []) \
                .append(x)
        self._rules = {lhs: (pres.ctx.degree(Path(src, lhs)),
                             [(q, as_exact(c)) for q, c in rhs.terms.items()])
                       for lhs, src, rhs in self.rs.rules}

    def counts(self, degree, check_stability=True):
        """(source, target) -> dimension of the graded piece, counted
        without listing it; pairs of dimension 0 are absent.  The check
        compares with the counts of a system completed at cap+2."""
        got = _pair_counts(self.rs, degree)
        if check_stability and degree not in self._checked_degrees:
            probe_cap = self.cap + 2
            if self._probe is None:
                self._probe = truncated_rewriting(self.pres, probe_cap)
            again = _pair_counts(self._probe, degree)
            if got != again:
                raise NonStabilizing(
                    f"graded piece at degree {degree} changed between "
                    f"--cap {self.cap} and {probe_cap} ({sum(got.values())}"
                    f" vs {sum(again.values())}): a degree-0 cycle survives "
                    f"or --cap is too small (cap versus cap+2 is a "
                    f"heuristic)")
            self._checked_degrees.add(degree)
        return got

    def basis(self, degree, check_stability=True):
        """Normal-form basis of the graded piece, checked like counts(),
        built from the layers of lengths 0..cap: each pair's words in the
        monomial order, the pairs in the order the depth-first walk of
        normal_paths from each vertex in turn first meets them."""
        if check_stability and degree not in self._checked_degrees:
            self.counts(degree)
        if degree not in self._basis_cache:
            found = {}
            for length in range(self.cap + 1):
                for pair, part in self._layer(degree, length).items():
                    found.setdefault(pair, []).append(part)
            pairs, vertices = list(found), self.pres.quiver.vertices
            if len(pairs) > 1:
                pairs.sort(key=lambda pair: (vertices.index(pair[0]), min(
                    w.arrows for words, _ in found[pair] for w in words)))
            self._basis_cache[degree] = GradedPieceBasis(
                degree, {pair: _joined([ws for ws, _ in found[pair]])
                         for pair in pairs},
                {pair: _joined([ss for _, ss in found[pair]])
                 for pair in pairs})
        return self._basis_cache[degree]

    def _layer(self, degree, length):
        """(source, target) -> (words, states): the normal words of the
        degree and length, each pair's in the monomial order, with their
        automaton states: w * x for w one arrow shorter and x an arrow the
        automaton steps on from w's state.  Words w in order times arrows x
        in order come out in order; only several vertices or degrees sort."""
        if (degree, length) in self._layers:
            return self._layers[degree, length]
        got, arrows = {}, self.pres.quiver.arrows
        if length == 0 and degree == 0:
            got = {(v, v): ([Path(v, ())], [()])
                   for v in self.pres.quiver.vertices}
        for e, out in self._out.items() if length else ():
            for (s, t), (words, states) in \
                    self._layer(degree - e, length - 1).items():
                sinks = [(x, got.setdefault((s, arrows[x].target), ([], [])))
                         for x in out.get(t, ())]
                moves = {}      # state -> [(x, next state, sink)]
                for w, st in zip(words, states):
                    if st not in moves:
                        moves[st] = [(x, nxt, sink) for x, sink in sinks if
                                     (nxt := self.rs._step(st, x)) is not None]
                    for x, nxt, (ws, ss) in moves[st]:
                        ws.append(Path(s, w.arrows + (x,)))
                        ss.append(nxt)
        for pair, (ws, ss) in list(got.items()):
            if not ws:
                del got[pair]
            elif len(self._out) > 1 or len(self.pres.quiver.vertices) > 1:
                order = sorted(range(len(ws)),
                               key=lambda i: self.pres.ctx.key(ws[i]))
                got[pair] = [ws[i] for i in order], [ss[i] for i in order]
        self._layers[degree, length] = got
        return got

    def listing(self, degree):
        """(words, index, states) for basis(degree) in one flat order: the
        paths, (source, arrows) -> position, and each path's automaton
        state.  The multiplication maps are indexed by these positions."""
        got = self._listings.get(degree)
        if got is None:
            basis = self.basis(degree, check_stability=False)
            words = _joined(list(basis.by_pair.values()))
            got = self._listings[degree] = (
                words, {(p.source, p.arrows): i for i, p in enumerate(words)},
                _joined(list(basis.states.values())))
        return got

    def times(self, i, degree, path, left=False):
        """Normal form of q * path, or of path * q when `left`, for the word
        q at position i of listing(degree), as a sparse dict over
        listing(degree + |path|); a path that does not compose with q
        gives 0.  The path is applied one arrow at a time through the
        arrow maps, so a product that passes through a normal word longer
        than the cap raises CapTooSmall (see _arrow_product)."""
        arrows = path.arrows[::-1] if left else path.arrows
        if not arrows:
            q = self.listing(degree)[0][i]
            end = q.source if left else self.pres.ctx.target(q)
            return {i: 1} if end == path.source else {}
        quiver, vec = self.pres.quiver, {i: 1}
        for x in arrows:
            out = {}
            for j, c in vec.items():
                row = self.arrow_row(degree, x, j, left)
                _add_into(out, {row: 1} if type(row) is int else row, c)
            vec, degree = out, degree + quiver.arrows[x].degree
        return vec

    def arrow_map(self, degree, x, left=False):
        """Rows of 'times arrow x' (x * q when `left`) on listing(degree):
        the product's position in listing(degree + |x|), else a sparse dict
        over it, or None until arrow_row computes it.  One sweep of index
        look-ups fills the map, and leaves the misses (a tip fires, the
        word does not compose, or it is too long: CapTooSmall) to arrow_row."""
        rows = self._rows.get((degree, x, left))
        if rows is None:
            words, arrow = self.listing(degree)[0], self.pres.quiver.arrows[x]
            get = self.listing(degree + arrow.degree)[1].get
            # x * (lazy path) is listed whether or not it composes
            rows = self._rows[degree, x, left] = [
                get((arrow.source, (x,) + q.arrows)) if q.arrows else None
                for q in words] if left else [
                get((q.source, q.arrows + (x,))) for q in words]
        return rows

    def arrow_row(self, degree, x, i, left=False):
        """Row i of arrow_map(degree, x, left), computed on first use.  A
        row needs rows of strictly smaller products only (in the monomial
        order), so a map may be asked for its own rows while it is filled."""
        rows = self.arrow_map(degree, x, left)
        if rows[i] is None:
            rows[i] = self._arrow_product(degree, x, i, left)
        return rows[i]

    def _arrow_product(self, degree, x, i, left):
        """x * q (left) or q * x for the normal word q = listing(degree)[i].

        q * x is normal exactly when the automaton steps from q's state;
        otherwise the longest tip that ends the word fires, as in
        reduce_path.  In x * q only a tip starting with x can fire, the
        first of them in rule order.  The word is then (rest) * tip or
        tip * (rest) with `rest` normal, and each term of the tip's
        right-hand side is multiplied onto `rest` by the maps again.  A
        product that is one listed normal word comes back as its index; a
        normal word that is not listed is longer than the cap, and raises
        CapTooSmall rather than being dropped."""
        words, _, states = self.listing(degree)
        q, arrow, rs = words[i], self.pres.quiver.arrows[x], self.rs
        if left:
            if arrow.target != q.source:
                return {}
            word, source = (x,) + q.arrows, arrow.source
            tips = [rs.rules[r][0] for r in rs._by_first.get(x, ())]
            tip = next((t for t in tips if word[:len(t)] == t), None)
        else:
            if self.pres.ctx.target(q) != arrow.source:
                return {}
            word, source, tip = q.arrows + (x,), q.source, None
            if rs._step(states[i], x) is None:
                end = states[i] + (x,)
                tip = next(end[k:] for k in range(len(end))
                           if end[k:] in self._rules)
        if tip is None:
            j = self.listing(degree + arrow.degree)[1].get((source, word))
            if j is None:
                shown = self.pres.ctx.format_path(Path(source, word))
                raise CapTooSmall(
                    f"the product {shown} is a normal word of length "
                    f"{len(word)} in degree {degree + arrow.degree}, beyond "
                    f"--cap {self.cap}; raise --cap to at least {len(word)}")
            return j
        tip_degree, rhs = self._rules[tip]
        if left:
            rest = word[len(tip):]
            rest_source = self.pres.quiver.arrows[tip[-1]].target
        else:
            rest, rest_source = word[:len(word) - len(tip)], source
        rest_degree = degree + arrow.degree - tip_degree
        start = self.listing(rest_degree)[1][rest_source, rest]
        out = {}
        for r, c in rhs:
            _add_into(out, self.times(start, rest_degree, r, left), c)
        return out


def graded_dimension(pres, degree, source, target, cap):
    """Dimension of the (source -> target) graded piece, plus its basis."""
    rc = RewriteContext(pres, cap)
    basis = rc.basis(degree)
    return basis.dim(source, target), basis


def dimension_table(pres, degrees, cap):
    """degree -> {(source, target) -> dim} for the listed degrees."""
    rc = RewriteContext(pres, cap)
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
