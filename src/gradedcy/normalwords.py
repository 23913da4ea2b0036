"""Listings and products of normal words, as a trie of int arrays.

`RewriteContext.listing(d)` holds the normal words of degree d and length
<= cap.  They are built one length at a time: the words of length L are
w * x for the words w of length L - 1 and the arrows x the tip automaton
steps on from w's state (Green's multiplication-map words over the
Ufnarovski graph).  So a word is stored as a trie node, not as a Path:
each vertex-pair block of a listing keeps three int arrays, `parent` (the
index of w in its block of degree d - |x|), `last` (x) and `state` (the
automaton state's number), plus the end of each length.  Positions in a
listing are block start + index, and no word is hashed.

`times`, the one product of listed words (slice algebras, preprojective
layer, duality slices), multiplies by paths one arrow at a time through
per-degree int arrays (Green's multiplication maps for a Groebner basis).
The right map of x is read off the trie (w * x is a child of w); the left
map of x follows x * (q * y) = (x * q) * y along those child links.  Only
misses, products q * x where a tip fires, go through the rules (a miss
of x * q is a right product of a shorter one), and a product that is a
normal word longer than the cap raises CapTooSmall; misses are kept in
one flat store of compressed sparse rows, not as a dict each.  The
rules keep NCPoly's coefficients, ints where integral, so products
carry ints where integral and Fractions elsewhere.  Paths are
rebuilt from the parent chain only at the API: `basis` and `word`, which
the slice algebras use for their labels and products.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right

from .errors import CapTooSmall
from .quiver import Path, _add_into
from .rewriting import CountContext


class GradedPieceBasis:
    """Normal-form basis of one graded piece, split by vertex pair."""

    def __init__(self, degree, by_pair):
        self.degree = degree
        self.by_pair = by_pair  # (source, target) -> list of Path

    def dim(self, source=None, target=None):
        return sum(len(paths) for (s, t), paths in self.by_pair.items()
                   if source in (None, s) and target in (None, t))


class Listing:
    """The normal words of one degree d: its non-empty vertex-pair blocks
    in order, each [parent, last, state, ends].  Word j of block (s, t) is
    word parent[j] of block (s, source of x) of degree d - |x|, times
    x = last[j] (-1 for a lazy word), with automaton state number
    state[j]; ends[L] counts the words of length <= L.  Position
    start + j of the listing is word j of the block at `start`."""

    def __init__(self, blocks):
        self.blocks, self.offsets, self.starts, n = [], [], {}, 0
        for pair, block in blocks:
            self.blocks.append((pair, n, block))
            self.offsets.append(n)
            self.starts[pair] = n
            n += len(block[1])
        self.size = n

    def __len__(self):
        return self.size


class RewriteContext(CountContext):
    """Caches the rewriting system, the listings of normal words and the
    maps 'multiply by one arrow' for one presentation."""

    def __init__(self, pres, cap):
        super().__init__(pres, cap)
        self._blocks = {}   # degree -> pair -> block, grown by _grow
        self._grown = {}    # degree -> longest length grown
        self._listings = {}
        self._states, self._state_ids = [()], {(): 0}
        self._rows = {}     # (degree, arrow, left) -> array, < 0 = a miss
        self._filling = {}  # (degree, arrow, True) -> (rows, length filled)
        # computed misses: row -2 - k has the terms from _ends[k] to
        # _ends[k + 1] of _keys (positions) and _coeffs (exact numbers)
        self._ends, self._keys, self._coeffs = array("i", [0]), array("i"), []
        self._out = {}      # degree -> vertex -> arrows out of it, in order
        for x, a in enumerate(pres.quiver.arrows):
            self._out.setdefault(a.degree, {}).setdefault(a.source, []) \
                .append(x)
        self._rules = {lhs: (pres.ctx.degree(Path(src, lhs)),
                             list(rhs.terms.items()))
                       for lhs, src, rhs in self.rs.rules}

    def basis(self, degree):
        """Normal-form basis of the graded piece, checked like counts():
        the words of listing(degree) as Paths, the pairs sorted by
        str(pair)."""
        if degree not in self._checked_degrees:
            self.counts(degree)
        return GradedPieceBasis(degree, {
            pair: [Path(pair[0], self._arrows(degree, pair, j))
                   for j in range(len(block[1]))]
            for pair, _, block in self.listing(degree).blocks})

    def _grow(self, degree, length):
        """List the normal words of the degree up to `length` into its
        blocks, one length at a time: w * x for w one arrow shorter and x
        an arrow the automaton steps on from w's state.  Words w in order
        times arrows x in order come out in order; only several vertices or
        degrees sort a length by the monomial order (rebuilt words)."""
        blocks, arrows = self._blocks.setdefault(degree, {}), \
            self.pres.quiver.arrows
        for m in range(self._grown.get(degree, -1) + 1, length + 1):
            if m == 0 and degree == 0:
                for v in self.pres.quiver.vertices:
                    blocks[v, v] = [array("i", [-1]), array("i", [-1]),
                                    array("i", [0]), []]
            for e, out in self._out.items() if m else ():
                self._grow(degree - e, m - 1)
                for (s, t), (_, _, states, ends) in \
                        list(self._blocks[degree - e].items()):
                    sinks = [(x, blocks.setdefault(
                        (s, arrows[x].target),
                        [array("i"), array("i"), array("i"), [0] * m]))
                        for x in out.get(t, ())]
                    moves = {}  # state -> [(x, next state, sink)]
                    for j in range(ends[m - 2] if m > 1 else 0, ends[m - 1]):
                        st = states[j]
                        if st not in moves:
                            moves[st] = [
                                (x, self._state_id(nxt), sink)
                                for x, sink in sinks if (nxt := self.rs._step(
                                    self._states[st], x)) is not None]
                        for x, nxt, (parent, last, sts, _) in moves[st]:
                            parent.append(j)
                            last.append(x)
                            sts.append(nxt)
            for pair, (parent, last, states, ends) in blocks.items():
                lo = ends[-1] if ends else 0
                if len(last) - lo > 1 and (len(self._out) > 1 or len(
                        self.pres.quiver.vertices) > 1):
                    order = sorted(range(lo, len(last)), key=lambda j:
                                   self._arrows(degree, pair, j))
                    for col in parent, last, states:
                        col[lo:] = array("i", [col[j] for j in order])
                ends.append(len(last))
            self._grown[degree] = m

    def _state_id(self, state):
        """The number of an automaton state, given on first sight."""
        got = self._state_ids.setdefault(state, len(self._states))
        if got == len(self._states):
            self._states.append(state)
        return got

    def _climb(self, degree, pair, j, steps):
        """Up to `steps` levels up the parent chain from word j of the
        pair's block of the degree: the arrows read (the last arrow first)
        and the degree, pair and index in its block of the word reached."""
        (s, t), read, arrows = pair, [], self.pres.quiver.arrows
        while len(read) < steps:
            parent, last, _, _ = self._blocks[degree][s, t]
            if (x := last[j]) < 0:
                break
            read.append(x)
            degree, t, j = degree - arrows[x].degree, arrows[x].source, \
                parent[j]
        return read, degree, (s, t), j

    def _arrows(self, degree, pair, j):
        """The arrows of word j of the pair's block (at most cap)."""
        return tuple(self._climb(degree, pair, j, self.cap)[0][::-1])

    def listing(self, degree):
        """The normal words of the degree as a Listing, in the order of
        basis(degree): the pairs sorted by str(pair), each pair's words in
        the monomial order.  The multiplication maps are indexed by its
        positions."""
        got = self._listings.get(degree)
        if got is None:
            self._grow(degree, self.cap)
            got = self._listings[degree] = Listing(sorted(
                ((pair, block) for pair, block in
                 self._blocks[degree].items() if block[1]),
                key=lambda b: str(b[0])))
        return got

    def _at(self, degree, i):
        """(pair, block, index in the block) of position i."""
        listing = self.listing(degree)
        pair, start, block = listing.blocks[
            bisect_right(listing.offsets, i) - 1]
        return pair, block, i - start

    def word(self, degree, i):
        """The word at position i of listing(degree), as a Path."""
        pair, _, j = self._at(degree, i)
        return Path(pair[0], self._arrows(degree, pair, j))

    def position(self, source, arrows=()):
        """Position of the word in the listing of its degree, by child
        links from the lazy word; None when it is not a listed normal word
        (or does not compose)."""
        i, degree = self.listing(0).starts[source, source], 0
        for y in arrows:
            i = self.arrow_map(degree, y)[i]
            if i < 0:
                return None
            degree += self.pres.quiver.arrows[y].degree
        return i

    def times(self, i, degree, path, left=False):
        """Normal form of q * path, or of path * q when `left`, for the word
        q at position i of listing(degree), as a sparse dict over
        listing(degree + |path|); a path that does not compose with q
        gives 0.  The path is applied one arrow at a time through the
        arrow maps, so a product that passes through a normal word longer
        than the cap raises CapTooSmall (see _arrow_product)."""
        arrows = path.arrows[::-1] if left else path.arrows
        if not arrows:
            (s, t), _, _ = self._at(degree, i)
            return {i: 1} if (s if left else t) == path.source else {}
        vec = {i: 1}
        for x in arrows:
            vec = self._times_arrow(vec.items(), degree, x, left)
            degree += self.pres.quiver.arrows[x].degree
        return vec

    def _times_arrow(self, terms, degree, x, left=False):
        """v * x, or x * v when `left`, as a sparse dict, for v the sum of
        the (position, coefficient) terms over listing(degree), through
        the arrow maps."""
        out = {}
        for j, c in terms:
            _add_into(out, self.arrow_row(degree, x, j, left), c)
        return out

    def arrow_map(self, degree, x, left=False):
        """Rows of 'times arrow x' (x * q when `left`) on listing(degree),
        an int array: the product's position in listing(degree + |x|), or
        below 0 for a miss (a tip fires, the word does not compose, or it
        is too long: CapTooSmall), which arrow_row computes."""
        rows = self._rows.get((degree, x, left))
        if rows is None:
            if left:
                self._fill_left(degree, x, self.cap)
            else:
                self._edges(degree + self.pres.quiver.arrows[x].degree)
            rows = self._rows[degree, x, left]
        return rows

    def _edges(self, degree):
        """The right maps into listing(degree), read off its trie: word j
        of a block is row (position of its parent) of the map of last[j]."""
        arrows = self.pres.quiver.arrows
        for y, a in enumerate(arrows):
            self._rows[degree - a.degree, y, False] = \
                array("i", [-1]) * len(self.listing(degree - a.degree))
        for (s, _), start, (parent, last, _, _) in \
                self.listing(degree).blocks:
            via = {}
            for j, y in enumerate(last):
                if y >= 0:
                    if y not in via:
                        d = degree - arrows[y].degree
                        via[y] = (self._rows[d, y, False],
                                  self.listing(d).starts[s, arrows[y].source])
                    rows, base = via[y]
                    rows[base + parent[j]] = start + j

    def _fill_left(self, degree, x, length):
        """The left map of x on listing(degree), for the words of length
        <= `length`: x * e_t is the word x, and x * (q * y) is the child
        along y of x * q (a subword of a normal word is normal).  So a miss
        of x * q stays a miss, and a miss of (x * q) * y, once computed, is
        the same product as x * (q * y)."""
        key, arrow = (degree, x, True), self.pres.quiver.arrows[x]
        listing = self.listing(degree)
        rows, done = self._filling.get(key) or \
            (array("i", [-1]) * len(listing), -1)
        for m in range(done + 1, length + 1):
            for (s, _), start, (parent, last, _, ends) in listing.blocks:
                if m == 0:
                    if ends[0] and s == arrow.target:
                        rows[start] = self.arrow_map(0, x)[
                            self.position(arrow.source)]
                    continue
                via = {}
                for j in range(ends[m - 1], ends[m]):
                    if (y := last[j]) not in via:
                        d = degree - self.pres.quiver.arrows[y].degree
                        via[y] = (self._fill_left(d, x, m - 1),
                                  self.listing(d).starts[
                                      s, self.pres.quiver.arrows[y].source],
                                  self.arrow_map(d + arrow.degree, y))
                    up, base, child = via[y]
                    u = up[base + parent[j]]
                    rows[start + j] = child[u] if u >= 0 else -1
            self._filling[key] = rows, m
        if length == self.cap:
            self._rows[key] = rows
        return rows

    def arrow_row(self, degree, x, i, left=False):
        """Row i of arrow_map(degree, x, left) as (position, coefficient)
        terms: (position, 1) alone, or a miss's (see _row), read from copies
        of the store's slices, so the store may grow while they are read."""
        rows = self._rows.get((degree, x, left))
        if rows is None or (row := rows[i]) == -1:
            row = self._row(degree, x, i, left)
        if row >= 0:
            return ((row, 1),)
        a, b = self._ends[-2 - row], self._ends[-1 - row]
        return zip(self._keys[a:b], self._coeffs[a:b])

    def _row(self, degree, x, i, left=False):
        """The code of row i of arrow_map(degree, x, left), whose terms
        arrow_row reads: a position, or -2 - k for product k of the store,
        computed on first use.  A miss needs rows of strictly smaller
        products only (in the monomial order), so a map may be asked for
        its own rows while its misses are computed."""
        rows = self._rows.get((degree, x, left))
        if rows is None:
            rows = self.arrow_map(degree, x, left)
        if (row := rows[i]) == -1:
            row = rows[i] = self._arrow_product(degree, x, i, left)
        return row

    def _arrow_product(self, degree, x, i, left):
        """The code of x * q (left) or q * x for the normal word q at
        position i of listing(degree), when it is not a listed normal word:
        a new product is added to the store once all its terms are known.

        q * x is normal exactly when the automaton steps from q's state;
        otherwise the longest tip that ends the word fires, as in
        reduce_path.  The word is then (rest) * tip with `rest` the
        ancestor of q len(tip) - 1 levels up, and each term of the tip's
        right-hand side is multiplied onto `rest` by the maps again.  A
        normal product that is not listed is longer than the cap, and
        raises CapTooSmall rather than being dropped.  x * q is (x * q')
        * y for q = q' * y, and x * e_v is e_u * x for x from u to v: so a
        left row is the right row of y on the left row of q' (the same code
        when x * q' is listed), and no tip is sought on the left."""
        (s, t), block, j = self._at(degree, i)
        arrows, y = self.pres.quiver.arrows, block[1][j]
        if (arrows[x].target != s) if left else (t != arrows[x].source):
            return self._store({})
        if left and y < 0:
            return self._row(0, x, self.position(arrows[x].source))
        if left:
            d = degree - arrows[y].degree
            parent = self.listing(d).starts[s, arrows[y].source] + block[0][j]
            prod = self._row(d, x, parent, True)
            if prod >= 0:   # a miss of the right map, shared
                return self._row(d + arrows[x].degree, y, prod)
            return self._store(self._times_arrow(
                self.arrow_row(d, x, parent, True), d + arrows[x].degree, y))
        state, tip = self._states[block[2][j]], None
        if self.rs._step(state, x) is None:
            end = state + (x,)
            tip = next(end[k:] for k in range(len(end))
                       if end[k:] in self._rules)
        if tip is None:
            word = self._arrows(degree, (s, t), j) + (x,)
            raise CapTooSmall(
                f"the product {self.pres.ctx.format_path(Path(s, word))} is "
                f"a normal word of length {len(word)} in degree "
                f"{degree + arrows[x].degree}, beyond --cap {self.cap}; "
                f"raise --cap to at least {len(word)}")
        tip_degree, rhs = self._rules[tip]
        rest_degree = degree + arrows[x].degree - tip_degree
        _, _, pair, k = self._climb(degree, (s, t), j, len(tip) - 1)
        start, out = self.listing(rest_degree).starts[pair] + k, {}
        for r, c in rhs:
            _add_into(out, self.times(start, rest_degree, r).items(), c)
        return self._store(out)

    def _store(self, vec):
        """Append the sparse dict vec to the store; its new row code."""
        self._keys.extend(vec)
        self._coeffs.extend(vec.values())
        self._ends.append(len(self._keys))
        return -len(self._ends)
