import inspect
import random
import textwrap
from math import comb

import pytest

from gradedcy import normalwords
from gradedcy.dimer import (dual_qp, grading_from_matchings,
                            jacobian_presentation, load_dimer,
                            perfect_matchings)
from gradedcy.errors import CapTooSmall, NonStabilizing
from gradedcy.quiver import NCPoly, Path, load_presentation, \
    parse_presentation
from gradedcy.normalwords import RewriteContext
from gradedcy.preprojective import layered_presentation
from gradedcy.rewriting import (RewritingSystem, dimension_table,
                                graded_dimension, length_table,
                                truncated_rewriting)

from helpers import (DATA, PathListings, basis_by_walk,
                     brute_force_graded_dimension, load, random_presentation,
                     scale)


def rule_names(pres, rs):
    quiver = pres.quiver
    return sorted(tuple(quiver.arrows[i].name for i in lhs)
                  for lhs, _, _ in rs.rules)


def test_commutative_koszul_single_rule():
    pres = load("k_xy.pres")
    rs = truncated_rewriting(pres, 6)
    assert rule_names(pres, rs) == [("y", "x")]


def test_skew_two_variable_completion():
    pres = load("skew_2.pres")
    rs = truncated_rewriting(pres, 6)
    names = rule_names(pres, rs)
    assert ("x2", "x2") in names
    # the resolved overlap adds the cube rule
    assert ("x2", "x1", "x1") in names


def test_cap_too_small():
    pres = load("skew_2.pres")
    with pytest.raises(CapTooSmall, match="--cap 1 .* degree -2"):
        truncated_rewriting(pres, 1)


def test_polynomial_dimensions_binomial():
    for n, name in ((1, "k_x.pres"), (2, "k_xy.pres"), (3, "k_xyz.pres")):
        pres = load(name)
        for w in range(0, 7):
            d, _ = graded_dimension(pres, -w, "P", "P", cap=9)
            assert d == comb(w + n - 1, n - 1), (name, w)


def test_positive_degrees_vanish():
    pres = load("k_xy.pres")
    rc = RewriteContext(pres, 6)
    for w in (1, 2, 3):
        assert rc.basis(w).dim() == 0


def test_skew_three_variables_piece():
    pres = load("skew_3.pres")
    d, basis = graded_dimension(pres, -2, "P", "P", cap=6)
    assert d == 8
    assert basis.dim() == 8


def test_preprojective_kronecker_layer_against_bruteforce():
    from gradedcy.quiver import Arrow, Quiver
    from gradedcy.preprojective import preprojective_presentation

    Q = Quiver(["0", "1"], [Arrow("x", "0", "1", 0), Arrow("y", "0", "1", 0)])
    pres = preprojective_presentation(Q)
    rc = RewriteContext(pres, 8)
    got = rc.basis(-1).dim()
    oracle = brute_force_graded_dimension(pres, -1, 8)
    assert got == oracle == 12


CORPUS = ["k_x.pres", "k_xy.pres", "k_xy_23.pres", "k_xyz.pres",
          "skew_2.pres", "skew_3.pres", "skew_4.pres"]


@pytest.mark.parametrize("name", CORPUS)
def test_graded_dimension_matches_bruteforce(name):
    pres = load(name)
    cap = 6
    rc = RewriteContext(pres, cap)
    for w in range(0, -7, -1):
        got = sum(len(rc.rs.normal_paths(v, cap, degree=w))
                  for v in pres.quiver.vertices)
        oracle = brute_force_graded_dimension(pres, w, cap)
        assert got == oracle, (name, w)


@pytest.mark.parametrize("name", CORPUS)
def test_normal_form_idempotent(name):
    pres = load(name)
    rs = truncated_rewriting(pres, 8)
    ctx = pres.ctx
    rng = random.Random(20250810)
    quiver = pres.quiver
    for _ in range(60):
        v = rng.choice(quiver.vertices)
        arrows = []
        cur = v
        for _ in range(rng.randrange(0, 8)):
            outs = quiver.arrows_by_source[cur]
            if not outs:
                break
            i = rng.choice(outs)
            arrows.append(i)
            cur = quiver.arrows[i].target
        p = Path(v, tuple(arrows))
        once = rs.reduce(NCPoly.monomial(p))
        twice = rs.reduce(once)
        assert once.terms == twice.terms


def test_dimension_table_counts_without_enumerating(monkeypatch):
    """Degree -12 of one generic quadratic relation in four variables has
    7 865 521 normal words; listing them (twice, with the stability probe)
    took minutes, counting them takes milliseconds."""
    def refuse(*args, **kwargs):
        raise AssertionError("dimension_table enumerated normal paths")

    monkeypatch.setattr(RewritingSystem, "normal_paths", refuse)
    want = [1, 4]
    while len(want) < 13:
        want.append(4 * want[-1] - want[-2])    # 1/(1 - 4t + t^2)
    table = dimension_table(load("skew_4.pres"), range(0, -13, -1), 16)
    assert [table[-k] for k in range(13)] == [{("P", "P"): d} for d in want]
    assert want[-1] == 7865521


def _jacobian(name, matchings):
    dimer = load_dimer(DATA / name)
    if matchings is None:
        matchings = perfect_matchings(dimer)[0]
    deg = grading_from_matchings(dimer, matchings, [-1] * len(matchings))
    return jacobian_presentation(dual_qp(dimer), deg)


@pytest.mark.parametrize("name,matchings", [
    ("hexagonal.dimer", None),
    ("four_face.dimer", [("d1", "d2", "om")]),
    ("four_face.dimer", [("d1", "d2", "om"), ("d1", "d2", "h2")])])
def test_counts_match_bases_with_degree_zero_arrows(name, matchings):
    """Multi-vertex Jacobian algebras: the counted and the enumerated
    pieces agree per vertex pair, and a piece that does not stabilize by
    the cap raises NonStabilizing on both paths."""
    pres = _jacobian(name, matchings)

    def piece(how, w):
        rc = RewriteContext(pres, 12)
        try:
            if how == "counts":
                return rc.counts(w)
            return {k: len(v) for k, v in rc.basis(w).by_pair.items()}
        except NonStabilizing:
            return NonStabilizing

    for w in range(0, -4, -1):
        assert piece("counts", w) == piece("basis", w), (name, w)


def test_length_table_counts_lazy_paths():
    pres = load("k_xy.pres")
    lt = length_table(pres, 3)
    assert lt[("P", "P")][0] == 1
    assert lt[("P", "P")][1] == 2
    assert lt[("P", "P")][2] == 3


def test_fuzz_rewriting_against_oracle():
    """Random homogeneous presentations: per vertex pair, counted graded
    dimensions agree with enumerated normal forms and with the path-space
    quotient, length tables agree with enumeration, and reduction is
    multiplicative."""
    from gradedcy.quiver import Path

    rng = random.Random(424242)
    for trial in range(60):
        pres = random_presentation(rng)
        rc = RewriteContext(pres, 6)
        rs = rc.rs
        ctx = pres.ctx
        verts = pres.quiver.vertices
        for w in range(0, -5, -1):
            listed = {}
            for v in verts:
                for p in rs.normal_paths(v, 6, degree=w):
                    listed[v, ctx.target(p)] = \
                        listed.get((v, ctx.target(p)), 0) + 1
            assert rc.counts(w) == listed, (trial, w)
            for s in verts:
                for t in verts:
                    assert listed.get((s, t), 0) == \
                        brute_force_graded_dimension(pres, w, 6, s, t), \
                        (trial, w, s, t)
        histogram = {}
        for v in verts:
            for p in rs.normal_paths(v, 6):
                histogram.setdefault((v, ctx.target(p)), [0] * 7)[len(p)] += 1
        assert length_table(pres, 6) == histogram, trial
        # nf(p q) == nf(nf(p) nf(q)) for short random paths
        for _ in range(6):
            parts = []
            for _ in range(2):
                v = rng.choice(pres.quiver.vertices)
                arrows, cur = [], v
                for _ in range(rng.randrange(0, 3)):
                    outs = pres.quiver.arrows_by_source[cur]
                    if not outs:
                        break
                    i = rng.choice(outs)
                    arrows.append(i)
                    cur = pres.quiver.arrows[i].target
                parts.append(Path(v, tuple(arrows)))
            p, q = parts
            pq = ctx.compose(p, q)
            if pq is None:
                continue
            direct = rs.reduce(NCPoly.monomial(pq))
            recombined = NCPoly()
            for mp, cp in rs.reduce(NCPoly.monomial(p)).terms.items():
                for mq, cq in rs.reduce(NCPoly.monomial(q)).terms.items():
                    comp = ctx.compose(mp, mq)
                    if comp is not None:
                        recombined = recombined + scale(
                            rs.reduce(NCPoly.monomial(comp)), cp * cq)
            assert direct.terms == recombined.terms, trial


def _walk(quiver, rng, vertex, length, backward):
    """A random path of up to `length` arrows that starts at `vertex`, or
    ends there when `backward`."""
    arrows, end = [], vertex
    for _ in range(length):
        nxt = (quiver.arrows_by_target if backward
               else quiver.arrows_by_source)[end]
        if not nxt:
            break
        i = rng.choice(nxt)
        arrows.append(i)
        end = quiver.arrows[i].source if backward else quiver.arrows[i].target
    if backward:
        return Path(end, tuple(reversed(arrows)))
    return Path(vertex, tuple(arrows))


def _arrow_map_faults(pres, cap, degrees, rng, trials=20):
    """(word, path, left) wherever the arrow maps of a RewriteContext
    disagree with reduce_path: every listed normal word shorter than the
    cap times every arrow, on both sides, and per degree `trials` seeded
    random words of one to three arrows that compose with it."""
    rc = RewriteContext(pres, cap)
    ctx, quiver = pres.ctx, pres.quiver

    def fault(degree, i, path, left):
        q = rc.word(degree, i)
        prod = ctx.compose(path, q) if left else ctx.compose(q, path)
        want = {} if prod is None else rc.rs.reduce_path(prod).terms
        got = {rc.word(degree + ctx.degree(path), j): c
               for j, c in rc.times(i, degree, path, left).items()}
        return [] if got == want else [(q, path, left)]

    faults = []
    for d in degrees:
        words = [rc.word(d, i) for i in range(len(rc.listing(d)))]
        for i, q in enumerate(words):
            if len(q) < rc.cap:
                for x, a in enumerate(quiver.arrows):
                    for left in (False, True):
                        faults += fault(d, i, Path(a.source, (x,)), left)
        short = [i for i, q in enumerate(words) if len(q) + 3 <= rc.cap]
        for _ in range(trials if short else 0):
            i = rng.choice(short)
            q, m = words[i], rng.randrange(1, 4)
            faults += fault(d, i, _walk(quiver, rng, ctx.target(q), m,
                                        False), False)
            faults += fault(d, i, _walk(quiver, rng, q.source, m, True),
                            True)
    return faults


@pytest.mark.parametrize("left", [False, True])
def test_times_refuses_a_product_beyond_the_cap(left):
    """In k[x] at cap 2, x^2 * x = x^3 is a nonzero normal word that the
    listings do not reach: the product raises, naming the cap, instead of
    coming back as 0."""
    rc = RewriteContext(load("k_x.pres"), 2)
    assert len(rc.listing(-2)) == 1 and rc.word(-2, 0) == Path("P", (0, 0))
    with pytest.raises(CapTooSmall) as err:
        rc.times(0, -2, Path("P", (0,)), left)
    assert "--cap 2" in str(err.value) and "degree -3" in str(err.value)
    assert rc.times(0, -1, Path("P", (0,)), left) == {0: 1}


def _four_face_jacobian():
    dimer = load_dimer(DATA / "four_face.dimer")
    g = grading_from_matchings(dimer, [("d1", "d2", "om")], [-1])
    return jacobian_presentation(dual_qp(dimer), g)


def test_arrow_maps_match_reduce_path_on_random_presentations():
    """Multiplying by arrows through the cached maps agrees with reducing
    the product from scratch, on seeded random presentations (arrow
    degrees -1 and -2, so words of length <= 6 reach degree -12)."""
    rng = random.Random(424242)
    for trial in range(60):
        pres = random_presentation(rng)
        assert _arrow_map_faults(pres, 6, range(0, -13, -1), rng) == [], \
            trial


@pytest.mark.parametrize("name", ["skew_2.pres", "skew_3.pres",
                                  "skew_4.pres", "k_xyz.pres",
                                  "k_xy_23.pres", "four_face"])
def test_arrow_maps_match_reduce_path_on_corpus(name):
    """The same differential on the corpus; four_face's Jacobian algebra
    has degree-0 arrows, so its words of one degree have many lengths."""
    rng = random.Random(sum(map(ord, name)))
    if name == "four_face":
        pres, cap, degrees = _four_face_jacobian(), 12, range(0, -3, -1)
    else:
        pres, cap, degrees = load(name), 6, range(0, -7, -1)
    assert _arrow_map_faults(pres, cap, degrees, rng) == []


@pytest.mark.parametrize("method,old,new", [
    # a tip never fires at the end of q * x: the automaton is not asked
    ("_arrow_product", "if self.rs._step(state, x) is None:", "if False:"),
    # a rule's right-hand side applied with the wrong sign
    ("_arrow_product",
     "_add_into(out, self.times(start, rest_degree, r).items(), c)",
     "_add_into(out, self.times(start, rest_degree, r).items(), -c)"),
    # x * (q' * y) taken as (x * q') * x: the wrong last arrow
    ("_arrow_product", "self._row(d + arrows[x].degree, y, prod)",
     "self._row(d + arrows[x].degree, x, prod)"),
    # a stored product read from one past its start: its first term lost
    ("arrow_row", "a, b = self._ends[-2 - row], self._ends[-1 - row]",
     "a, b = self._ends[-2 - row] + 1, self._ends[-1 - row]"),
    # x * (q' * y) taken as x * q', the left map's own row, not the right
    # row of y on it
    ("_arrow_product", "return self._row(d + arrows[x].degree, y, prod)",
     "return prod"),
], ids=["no-tip", "rhs-sign", "left-step", "ends-slice", "left-reuse"])
def test_arrow_map_differential_catches_mutants(monkeypatch, method, old,
                                                new):
    source = textwrap.dedent(
        inspect.getsource(getattr(RewriteContext, method)))
    assert source.count(old) == 1
    namespace = dict(vars(normalwords))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(RewriteContext, method, namespace[method])
    # a typed refusal catches the mutant as well as a wrong product: the
    # first mutant takes a product that is not normal for a normal word
    # the listing misses, and refuses it as a normal word beyond the cap
    try:
        faults = _arrow_map_faults(load("skew_3.pres"), 6, range(0, -5, -1),
                                   random.Random(7))
    except CapTooSmall:
        faults = ["refused"]
    assert faults


def _listing_faults(pres, cap, degrees):
    """Degrees where the trie listing of a RewriteContext differs from the
    oracles: its blocks of words and their automaton states from one
    depth-first walk per degree (the pairs, the words of each pair and
    their states, in order), and its words, positions, states and every
    row of the right and left arrow maps from the listings of Paths that
    the trie replaced.  The words are read off the listing, not through
    `basis`, whose stability check refuses the degrees beyond the cap's
    reach that these listings go to."""
    rc = RewriteContext(pres, cap)
    old, faults = PathListings(rc), []

    def rows(d, x, left):
        return [-1 if r is None else r for r in old.arrow_map(d, x, left)]

    for d in degrees:
        want, want_states = basis_by_walk(rc, d)
        words, _, states = old.listing(d)
        blocks = rc.listing(d).blocks
        trie_words = {pair: [rc.word(d, start + j)
                             for j in range(len(block[1]))]
                      for pair, start, block in blocks}
        trie_states = {pair: [rc._states[st] for st in block[2]]
                       for pair, _, block in blocks}
        agree = [
            list(trie_words.items()) == list(want.items()),
            list(trie_states.items()) == list(want_states.items()),
            [rc.word(d, i) for i in range(len(rc.listing(d)))] == words,
            [rc.position(p.source, p.arrows) for p in words] ==
            list(range(len(words))),
            [st for sts in trie_states.values() for st in sts] == states,
            all([max(r, -1) for r in rc.arrow_map(d, x, left)] ==
                rows(d, x, left) for x in range(len(pres.quiver.arrows))
                for left in (False, True))]
        if not all(agree):
            faults.append(d)
    return faults


def _kronecker_preprojective():
    from gradedcy.preprojective import preprojective_presentation
    from gradedcy.quiver import Arrow, Quiver

    return preprojective_presentation(Quiver(
        ["0", "1"], [Arrow("x", "0", "1", 0), Arrow("y", "0", "1", 0)]))


def _reversed_order(pres):
    """pres with its arrows declared in reverse, so the monomial order
    compares them the other way; the relations' paths are renumbered to
    the new arrow indices."""
    from gradedcy.quiver import GradedQuiverPresentation, NCPoly, Path, \
        Quiver

    last = len(pres.quiver.arrows) - 1
    return GradedQuiverPresentation(
        Quiver(pres.quiver.vertices, pres.quiver.arrows[::-1]),
        [NCPoly({Path(p.source, tuple(last - i for i in p.arrows)): c
                 for p, c in r.terms.items()}) for r in pres.relations])


@pytest.mark.parametrize("name", CORPUS + [
    "skew_3 reversed", "kronecker", "hexagonal", "four_face",
    "four_face two"])
def test_layered_listings_match_the_walk(name):
    """Listings built layer by layer from the words one arrow shorter equal
    the depth-first walk plus the monomial-order sort, entry for entry:
    on the corpus (k_xy_23 has two arrow degrees), under a reversed arrow
    order, and on multi-vertex algebras with degree-0 arrows (the
    preprojective Kronecker algebra and the Jacobian algebras of the
    hexagonal and four_face dimers), where one degree has many lengths."""
    if name in CORPUS:
        pres, cap, degrees = load(name), 6, range(2, -9, -1)
    elif name == "skew_3 reversed":
        pres, cap, degrees = _reversed_order(load("skew_3.pres")), 6, \
            range(0, -8, -1)
    elif name == "kronecker":
        pres, cap, degrees = _kronecker_preprojective(), 8, range(1, -4, -1)
    else:
        matchings = {"hexagonal": None, "four_face": [("d1", "d2", "om")],
                     "four_face two": [("d1", "d2", "om"),
                                       ("d1", "d2", "h2")]}[name]
        pres = _jacobian(name.split()[0] + ".dimer", matchings)
        cap, degrees = 10, range(1, -4, -1)
    assert _listing_faults(pres, cap, degrees) == []


def test_layered_listings_match_the_walk_on_random_presentations():
    rng = random.Random(424242)
    for trial in range(60):
        pres = random_presentation(rng)
        assert _listing_faults(pres, 6, range(1, -14, -1)) == [], trial


@pytest.mark.parametrize("name", ["four_face", "layered a2"])
def test_listings_order_pairs_by_name(name):
    """Listings and bases order their vertex pairs by str(pair), the order
    of dimension_table and of the slice algebras' bases, on two inputs
    where a depth-first walk from each vertex in turn meets the pairs in
    another order.  The bases are those of the degrees the cap settles:
    four_face's degree -2 is refused by the stability check at cap 10."""
    if name == "four_face":
        pres = _jacobian("four_face.dimer", [("d1", "d2", "om")])
        cap, degrees = 10, range(0, -3, -1)
    else:
        pres = layered_presentation(
            load_presentation(DATA / "a2.quiver").quiver, 2)
        cap, degrees = 6, (0, -1)
    rc = RewriteContext(pres, cap)
    for d in degrees:
        pairs = [pair for pair, _, _ in rc.listing(d).blocks]
        assert pairs == sorted(pairs, key=str), d
        if d > -2:
            assert list(rc.basis(d).by_pair) == pairs, d


@pytest.mark.parametrize("method,old,new", [
    # words one arrow longer than the cap are listed too
    ("listing", "self._grow(degree, self.cap)",
     "self._grow(degree, self.cap + 1)"),
    # a word keeps the state of its prefix instead of the stepped one
    ("_grow", "sts.append(nxt)", "sts.append(st)"),
    # the parent pointer names the word before the prefix
    ("_grow", "parent.append(j)", "parent.append(max(j - 1, 0))"),
    # the child table drops the start of the child's block
    ("_edges", "rows[base + parent[j]] = start + j",
     "rows[base + parent[j]] = j"),
    # x * (q * y) taken as x * q, without the step along y
    ("_fill_left", "rows[start + j] = child[u] if u >= 0 else -1",
     "rows[start + j] = u"),
], ids=["cap-plus-one", "stale-state", "parent", "child-table",
        "left-recursion"])
def test_listing_oracle_catches_mutants(monkeypatch, method, old, new):
    """Each mutant is caught on skew_3 (one vertex-pair block per degree)
    or on the preprojective Kronecker algebra (several), as a fault or as
    an error from a position out of range."""
    source = textwrap.dedent(
        inspect.getsource(getattr(RewriteContext, method)))
    assert source.count(old) == 1
    namespace = dict(vars(normalwords))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(RewriteContext, method, namespace[method])
    caught = []
    for pres, cap, degrees in ((load("skew_3.pres"), 6, range(0, -9, -1)),
                               (_kronecker_preprojective(), 8,
                                range(1, -4, -1))):
        try:
            caught += _listing_faults(pres, cap, degrees)
        except (IndexError, KeyError, CapTooSmall):
            caught.append("error")
    assert caught


def test_duality_and_slices_list_without_the_walk(monkeypatch):
    """The duality verdict and the slice algebras list their bases layer
    by layer: neither calls normal_paths, which stays the oracle."""
    from gradedcy.duality import (builtin_resolution, check_twisted_cy,
                                  identity_twist)
    from gradedcy.slice_algebras import build_AUB

    def refuse(*args, **kwargs):
        raise AssertionError("a basis was listed by the depth-first walk")

    monkeypatch.setattr(RewritingSystem, "normal_paths", refuse)
    pres = load("skew_3.pres")
    verdict = check_twisted_cy(pres, builtin_resolution(pres),
                               identity_twist(4), window=(0, -6))
    assert verdict.passed, verdict.summary()
    _, _, B = build_AUB(pres, 2)
    assert B.dim > 0


def _degree_zero_presentation(rng):
    """One to three vertices, two to four arrows of degree 0 or -1, and one
    or two relations, each two parallel paths of length 1..2 and equal
    degree."""
    from gradedcy.quiver import Arrow, GradedQuiverPresentation, Quiver

    verts = [str(i) for i in range(rng.randrange(1, 4))]
    arrows = [Arrow(f"a{i}", rng.choice(verts), rng.choice(verts),
                    -rng.randrange(2)) for i in range(rng.randrange(2, 5))]
    probe = GradedQuiverPresentation(Quiver(verts, arrows), [])
    ctx = probe.ctx
    buckets = {}
    for p in (q for q in _paths(probe, 2) if q.arrows):
        key = (p.source, ctx.target(p), ctx.degree(p))
        buckets.setdefault(key, []).append(p)
    cand = [b for b in buckets.values() if len(b) >= 2]
    rels = [NCPoly(dict(zip(rng.sample(b, 2), (1, rng.choice([-1, 1])))))
            for b in rng.sample(cand, min(len(cand), rng.randrange(1, 3)))]
    return GradedQuiverPresentation(probe.quiver, rels)


def _paths(pres, max_len):
    from helpers import all_paths
    return all_paths(pres, max_len)


def _normal(rs, path):
    return rs.reduce_path(path).terms == {path: 1}


@pytest.mark.parametrize("seed", range(60))
def test_degree_zero_cycle_against_short_words(seed):
    """The cycle named in a NonStabilizing message is a closed word of
    degree-0 arrows whose powers are normal; on these small presentations
    a cycle is named exactly when some closed word of length <= 3 has its
    first four powers normal (27 of the 60 have none)."""
    from gradedcy.zerocycle import degree_zero_cycle

    pres = _degree_zero_presentation(random.Random(1700 + seed))
    rs = truncated_rewriting(pres, 6)
    ctx = pres.ctx
    got = degree_zero_cycle(rs)
    if got is not None:
        assert got.arrows and ctx.target(got) == got.source
        assert all(pres.quiver.arrows[i].degree == 0 for i in got.arrows)
        assert all(_normal(rs, Path(got.source, got.arrows * k))
                   for k in range(1, 5))
    short = [p for p in _paths(pres, 3) if p.arrows and ctx.degree(p) == 0
             and ctx.target(p) == p.source
             and all(_normal(rs, Path(p.source, p.arrows * k))
                     for k in range(1, 5))]
    assert (got is None) == (not short)


def test_degree_zero_cycle_through_three_vertices():
    """The cycle of degree-0 arrows through P, Q and R is named as one
    word, from the first node the search meets twice (after it has
    backed out of the dead end d into S): the tip a*b*c*x
    makes the state after a*b*c differ from the start, so that node is Q
    after a, and the word is b*c*a."""
    from gradedcy.zerocycle import degree_zero_cycle

    pres = parse_presentation("[vertices]\nP\nQ\nR\nS\n[arrows]\n"
                              "x P P -1\nd P S 0\na P Q 0\nb Q R 0\n"
                              "c R P 0\n[relations]\nx*a*b*c - a*b*c*x\n")
    got = degree_zero_cycle(truncated_rewriting(pres, 6))
    assert pres.ctx.format_path(got) == "b*c*a"
