import pytest

from gradedcy.complexes import BimoduleComplex, FreeSummand, parse_complex
from gradedcy.duality import (builtin_resolution, check_twisted_cy,
                              dg_transport, dualize, exactness_probe,
                              identity_twist, koszul_complex, sign_twist,
                              skew_complex, slice_cohomology)
from gradedcy.errors import (CapTooSmall, Inhomogeneous, NotComplex, NotFree,
                             WindowTooSmall)
from gradedcy.normalwords import RewriteContext
from gradedcy.quiver import parse_presentation

from helpers import (DATA, check_complex_by_reduction,
                     homology_dims_by_elimination, load,
                     one_sided_complex_by_reduction, slice_matrix,
                     slice_matrix_by_reduction)


def entries(cplx, k):
    ctx = cplx.pres.ctx
    out = {}
    for (ti, si), es in sorted(cplx.diffs[k].items()):
        out[(ti, si)] = sorted(
            (str(c), ctx.format_path(u), ctx.format_path(v))
            for c, u, v in es)
    return out


def test_transport_entries_two_variables():
    """The enveloping-side complex of the two-variable resolution carries
    the expected signs: the top map becomes (y(x)1 + 1(x)y, -x(x)1 - 1(x)x)
    while the bottom maps are unchanged."""
    cpx = builtin_resolution(load("k_xy.pres"))
    tr = dg_transport(cpx)
    assert entries(tr, 1) == {
        (0, 0): [("1", "e_P", "y"), ("1", "y", "e_P")],
        (1, 0): [("-1", "e_P", "x"), ("-1", "x", "e_P")],
    }
    assert entries(tr, 0) == {
        (0, 0): [("-1", "e_P", "x"), ("1", "x", "e_P")],
        (0, 1): [("-1", "e_P", "y"), ("1", "y", "e_P")],
    }


def test_dual_entries_two_variables():
    """The dual complex entries match the worked example: x(x)1 - 1(x)x and
    y(x)1 - 1(x)y out of the bottom and -y(x)1 - 1(x)y, x(x)1 + 1(x)x into
    the top."""
    cpx = builtin_resolution(load("k_xy.pres"))
    du = dualize(cpx)
    assert du.kind == "dg-left"
    assert du.positions == [2, 1, 0]
    assert [[s.degree for s in t] for t in du.terms] == [[2], [1, 1], [0]]
    assert entries(du, 1) == {
        (0, 0): [("-1", "e_P", "x"), ("1", "x", "e_P")],
        (1, 0): [("-1", "e_P", "y"), ("1", "y", "e_P")],
    }
    assert entries(du, 0) == {
        (0, 0): [("-1", "e_P", "y"), ("-1", "y", "e_P")],
        (0, 1): [("1", "e_P", "x"), ("1", "x", "e_P")],
    }


def test_transport_of_skew_complex():
    cpx = skew_complex(load("skew_3.pres"))
    tr = dg_transport(cpx)
    top = entries(tr, 1)
    for i in range(3):
        assert top[(i, 0)] == [("-1", f"x{i+1}", "e_P"),
                               ("1", "e_P", f"x{i+1}")]


def test_transport_zero_shift_unchanged():
    cpx = builtin_resolution(load("k_x.pres"))
    tr = dg_transport(cpx)
    assert entries(tr, 0) == entries(cpx, 0)


def test_builtin_detection():
    assert builtin_resolution(load("k_xyz.pres")).name == "koszul"
    assert builtin_resolution(load("skew_2.pres")).name == "skew"
    with pytest.raises(NotFree):
        from gradedcy.quiver import parse_presentation
        builtin_resolution(parse_presentation(
            "[vertices]\nP\n[arrows]\nx P P -1\ny P P -1\n[relations]\n"
            "x*y + y*x\n"))


def test_resolutions_are_complexes_and_exact():
    for name in ("k_x.pres", "k_xy.pres", "k_xyz.pres", "skew_2.pres",
                 "skew_3.pres", "k_xy_23.pres"):
        pres = load(name)
        cpx = builtin_resolution(pres)
        assert cpx.check_complex(6)
        assert exactness_probe(cpx, (0, -6), RewriteContext(pres, 8)) == {}


def test_broken_complex_detected():
    pres = load("k_xy.pres")
    cpx = builtin_resolution(pres)
    # corrupt an entry: drop the sign on the top map
    (c, u, v) = cpx.diffs[1][(0, 0)][0]
    cpx.diffs[1][(0, 0)][0] = (-c, u, v)
    with pytest.raises(NotComplex):
        cpx.check_complex(6)


def test_probe_catches_wrong_relation():
    from gradedcy.quiver import parse_presentation
    # the Koszul-shaped complex over the relation x*x is not even a
    # complex: the probe refuses it rather than rank maps whose ranks
    # d o d = 0 no longer pins
    wrong = parse_presentation(
        "[vertices]\nP\n[arrows]\nx P P -1\ny P P -1\n[relations]\n"
        "x*x\n", filename="wrong")
    cpx = koszul_complex(wrong)
    with pytest.raises(NotComplex, match="from summand g.x,y. to g.."):
        exactness_probe(cpx, (0, -4), RewriteContext(wrong, 6))


CASES = [
    ("k_x.pres", "id", 2, True),
    ("k_x.pres", "sigma", 2, False),
    ("k_xy.pres", "sigma", 4, True),
    ("k_xy.pres", "id", 4, False),
    ("skew_2.pres", "id", 4, True),
    ("skew_2.pres", "sigma", 4, False),
    ("skew_3.pres", "id", 4, True),
    ("k_xy_23.pres", "id", 7, True),
    ("k_xyz.pres", "id", 6, True),
    ("k_xyz.pres", "sigma", 6, False),
]


@pytest.mark.parametrize("name,twist,shift,expected", CASES)
def test_twisted_cy_battery(name, twist, shift, expected):
    pres = load(name)
    cpx = builtin_resolution(pres)
    tw = sign_twist(pres, shift) if twist == "sigma" else \
        identity_twist(shift)
    verdict = check_twisted_cy(pres, cpx, tw, window=(0, -6))
    assert verdict.passed == expected, verdict.summary()


def test_wrong_shift_fails():
    pres = load("k_xy.pres")
    cpx = builtin_resolution(pres)
    v = check_twisted_cy(pres, cpx, sign_twist(pres, 3), window=(0, -4))
    assert not v.passed


def test_window_must_contain_zero(monkeypatch):
    """The window is checked before any completion runs, and the message
    names the flag and the window it got."""
    from gradedcy import rewriting

    def refuse(*args, **kwargs):
        raise AssertionError("completion ran before the window check")

    monkeypatch.setattr(rewriting, "truncated_rewriting", refuse)
    pres = load("k_xy.pres")
    cpx = builtin_resolution(pres)
    for window in ((-2, -4), (3, 1)):
        with pytest.raises(WindowTooSmall) as err:
            check_twisted_cy(pres, cpx, sign_twist(pres, 4), window=window)
        lo, hi = min(window), max(window)
        assert f"--window {lo}..{hi}" in str(err.value)


def test_double_dual_dimensions():
    for name in ("k_x.pres", "k_xy.pres", "skew_2.pres"):
        pres = load(name)
        rc = RewriteContext(pres, 8)
        cpx = builtin_resolution(pres)
        tr = dg_transport(cpx)
        dd = dualize(dualize(cpx))
        degrees = [0, -1, -2, -3]
        assert slice_cohomology(tr, rc, degrees) == \
            slice_cohomology(dd, rc, degrees), name


def test_transport_preserves_dimensions():
    for name in ("k_xy.pres", "skew_2.pres"):
        pres = load(name)
        rc = RewriteContext(pres, 8)
        cpx = builtin_resolution(pres)
        tr = dg_transport(cpx)
        degrees = [0, -1, -2, -3]
        assert slice_cohomology(cpx, rc, degrees) == \
            slice_cohomology(tr, rc, degrees), name


def test_direct_and_certified_agree():
    """The one-sided certificate and the direct slice computation give the
    same dual cohomology dimensions on small windows."""
    from gradedcy.duality import one_sided_complex
    for name, a in (("k_x.pres", 1), ("k_xy.pres", 2), ("skew_2.pres", 2)):
        pres = load(name)
        rc = RewriteContext(pres, 8)
        dual = dualize(builtin_resolution(pres))
        n = dual.positions[0]
        direct = slice_cohomology(dual, rc, [a, a - 1, a - 2])
        gens = one_sided_complex(dual, rc, [a, a - 1, a - 2])
        # certificate says: single generator at (n, a); then the direct
        # dims must be dim R_{w-a} at position n and 0 elsewhere
        assert gens.get((n, a)) == 1
        assert all(d == 0 for key, d in gens.items() if key != (n, a))
        for w in (a, a - 1, a - 2):
            for pos in set(dual.positions):
                expected = rc.basis(w - a).dim() if pos == n else 0
                assert direct.get((pos, w), 0) == expected, (name, pos, w)


def test_complex_file_round_trip():
    pres = load("k_xy.pres")
    with open(DATA / "koszul_xy.cpx", "r", encoding="utf-8") as fh:
        parsed = parse_complex(fh.read(), pres, filename="koszul_xy.cpx")
    assert parsed.check_complex(6)
    assert exactness_probe(parsed, (0, -4), RewriteContext(pres, 6)) == {}
    v = check_twisted_cy(pres, parsed, sign_twist(pres, 4), window=(0, -4))
    assert v.passed
    v2 = check_twisted_cy(pres, parsed, identity_twist(4), window=(0, -4))
    assert not v2.passed


def test_all_variants_compose_to_zero_on_slices():
    """Plain, transported, dual, and double-dual differentials all square
    to zero slice by slice (so their cohomology is well defined)."""
    from helpers import vec_add

    def composite_vanishes(cplx, rc, degrees):
        for w in degrees:
            for k in range(len(cplx.diffs) - 1):
                _, mid, inner = slice_matrix(cplx, rc, k + 1, w)
                mid2, _, outer = slice_matrix(cplx, rc, k, w)
                assert mid == mid2
                for col in inner:
                    out = {}
                    for i, c in col.items():
                        out = vec_add(out, outer[i], c)
                    if out:
                        return False
        return True

    for name in ("k_x.pres", "k_xy.pres", "skew_2.pres"):
        pres = load(name)
        rc = RewriteContext(pres, 8)
        cpx = builtin_resolution(pres)
        for c in (cpx, dg_transport(cpx), dualize(cpx),
                  dualize(dualize(cpx))):
            assert composite_vanishes(c, rc, [0, -1, -2, -3]), (name, c.kind)


def _corpus_complexes():
    """(label, presentation, complex, cap, number of degrees) for every
    corpus complex: the built-in resolutions, the two complex files and
    the dimer resolutions of hexagonal and four_face (whose entries v have
    two arrows, and whose Jacobian algebra has degree-0 arrows).  The
    label is the presentation's file and the complex's name, and for a
    dimer resolution the dimer and its number of grading matchings."""
    from gradedcy.dimer import (cy3_complex, dual_qp,
                                grading_from_matchings, jacobian_presentation,
                                load_dimer, perfect_matchings)

    for name in ("k_x.pres", "k_xy.pres", "k_xyz.pres", "skew_2.pres",
                 "skew_3.pres"):
        pres = load(name)
        cpx = builtin_resolution(pres)
        yield (name, cpx.name), pres, cpx, 8, 6
    for name, cpx in (("k_xy.pres", "koszul_xy.cpx"),
                      ("skew_2.pres", "skew2.cpx")):
        pres = load(name)
        with open(DATA / cpx, "r", encoding="utf-8") as fh:
            yield (name, cpx), pres, parse_complex(fh.read(), pres,
                                                   filename=cpx), 8, 6
    hexagonal = load_dimer(DATA / "hexagonal.dimer")
    ms, _ = perfect_matchings(hexagonal)
    deg = grading_from_matchings(hexagonal, ms, [-1] * 3)
    pres = jacobian_presentation(dual_qp(hexagonal), deg)
    yield ("hexagonal/3", "cy3"), pres, \
        cy3_complex(dual_qp(hexagonal), deg, pres), 8, 5
    four_face = load_dimer(DATA / "four_face.dimer")
    for matchings, depth in (([("d1", "d2", "om")], 2),
                             ([("d1", "d2", "om"), ("d1", "d2", "h2")], 3)):
        deg = grading_from_matchings(four_face, matchings,
                                     [-1] * len(matchings))
        pres = jacobian_presentation(dual_qp(four_face), deg)
        yield (f"four_face/{len(matchings)}", "cy3"), pres, \
            cy3_complex(dual_qp(four_face), deg, pres), 12, depth


def test_one_sided_complex_matches_reduction_oracle():
    """Homology dims of the one-sided generator complex built through the
    arrow maps equal those of the former build, which reduces every
    product from scratch, on every corpus complex and its dual."""
    from gradedcy.duality import one_sided_complex

    for _, pres, cpx, cap, depth in _corpus_complexes():
        rc = RewriteContext(pres, cap)
        for c in (cpx, dualize(cpx)):
            top = max(s.degree for t in c.terms for s in t)
            degrees = range(top, top - depth - 1, -1)
            assert one_sided_complex(c, rc, degrees) == \
                one_sided_complex_by_reduction(c, rc, degrees), \
                (cpx.name, c.kind)


def test_certified_ranks_match_elimination(monkeypatch):
    """duality._homology_dims reads a rank off the distinct least indices
    of a map's images wherever they pin it (their count and the one at
    the map's other end add up to the dimension between them), first of
    the images that need no miss product, then of all, and eliminates the
    rest.  On every corpus presentation with its built-in resolution,
    both complex files, the hexagonal and both four_face Jacobian
    gradings, and the dual of each, its homology dims equal those of
    ranking every map by elimination, at every (position, degree) of the
    one-sided complex and of the first three slices.  The hit columns
    alone pin every map of the skew_3, skew_4, k_x and k_xy_23
    resolutions; the two-variable resolutions and files, k_xyz and the
    hexagonal grading need every column of some map, and only four_face's
    two gradings need the eliminator, their one-sided complexes too."""
    from gradedcy import complexes, duality

    stages, leads = set(), complexes.BimoduleComplex.leads

    class Counted(duality.SparseEliminator):
        def __init__(self):
            super().__init__()
            stages.add(at + (3,))

    def spied(self, rc, k, w, src, tgt, misses, lead):
        stages.add(at + (2 if misses else 1,))
        return leads(self, rc, k, w, src, tgt, misses, lead)

    monkeypatch.setattr(duality, "SparseEliminator", Counted)
    monkeypatch.setattr(complexes.BimoduleComplex, "leads", spied)
    corpus = list(_corpus_complexes())
    for name in ("k_xy_23.pres", "skew_4.pres"):
        pres = load(name)
        cpx = builtin_resolution(pres)
        corpus.append(((name, cpx.name), pres, cpx, 8, 6))
    for label, pres, cpx, cap, depth in corpus:
        rc = RewriteContext(pres, cap)
        for c in (cpx, dualize(cpx)):
            top = max(s.degree for t in c.terms for s in t)
            for lazy_left, n in ((True, depth + 1), (False, 3)):
                at = label, lazy_left
                degrees = range(top, top - n, -1)
                got = duality._cohomology(c, rc, degrees, lazy_left)
                with monkeypatch.context() as m:
                    m.setattr(duality, "_homology_dims",
                              homology_dims_by_elimination)
                    want = duality._cohomology(c, rc, degrees, lazy_left)
                assert got == want, (cpx.name, c.kind, lazy_left)

    def reaching(stage):
        return {label for label, _, s in stages if s == stage}

    assert reaching(1) == {label for label, *_ in corpus}
    four_face = {("four_face/1", "cy3"), ("four_face/2", "cy3")}
    assert reaching(2) == {
        ("k_xy.pres", "koszul"), ("k_xy.pres", "koszul_xy.cpx"),
        ("k_xyz.pres", "koszul"), ("skew_2.pres", "skew"),
        ("skew_2.pres", "skew2.cpx"), ("hexagonal/3", "cy3"), *four_face}
    assert reaching(3) == four_face
    assert {(label, True, 3) for label in four_face} <= stages


def _with_dead_entries(pres):
    """The skew resolution of a two-arrow presentation with one more
    summand E first in terms[0], and maps into E that are 0: a
    zero-coefficient entry from the first arrow's summand, and two
    entries that cancel (one target key twice) from the second's."""
    cpx = skew_complex(pres)
    v = pres.quiver.vertices[0]
    lazy = pres.ctx.lazy(v)
    x, y = (pres.ctx.arrow_path(a.name) for a in pres.quiver.arrows)
    d1 = {(ti + 1, si): es for (ti, si), es in cpx.diffs[0].items()}
    d1[0, 0] = [(0, x, lazy), (0, lazy, x)]
    d1[0, 1] = [(1, lazy, y), (-1, lazy, y)]
    terms = [[FreeSummand(v, v, 0, "E")] + cpx.terms[0], *cpx.terms[1:]]
    return BimoduleComplex(pres, terms, [d1, cpx.diffs[1]], name="dead")


def _leads_faults():
    """Where BimoduleComplex.leads disagrees with the images: on every
    corpus complex, _with_dead_entries(skew_2) and the dual of each, over
    the one-sided and the full slices, leads(..., misses=True) must mark
    exactly the elements min(v) of the nonzero images v, and leads(...,
    misses=False) a subset of them.  A list of (complex, kind, lazy_left,
    degree, map, misses)."""
    skew_2 = load("skew_2.pres")
    faults = []
    for _, pres, cpx, cap, depth in [
            *_corpus_complexes(),
            (None, skew_2, _with_dead_entries(skew_2), 8, 4)]:
        rc = RewriteContext(pres, cap)
        for c in (cpx, dualize(cpx)):
            top = max(s.degree for t in c.terms for s in t)
            for lazy_left, n in ((True, depth + 1), (False, 3)):
                for w in range(top, top - n, -1):
                    slots = [c.slots(rc, k, w, lazy_left)
                             for k in range(len(c.terms))]
                    for k in range(len(c.diffs)):
                        args = rc, k, w, slots[k + 1][0], slots[k][0]
                        hits, full = (
                            {t for t, m in enumerate(c.leads(
                                *args, misses, bytearray(slots[k][1]))) if m}
                            for misses in (False, True))
                        want = {min(v) for v in c.images(*args) if v}
                        where = (cpx.name, c.kind, lazy_left, w, k)
                        if full != want:
                            faults.append(where + (True,))
                        if not hits <= want:
                            faults.append(where + (False,))
    return faults


def test_leads_match_least_slots_of_images():
    """BimoduleComplex.leads gives the least slot of each image without
    building it (see _leads_faults)."""
    assert _leads_faults() == []


LEADS_MUTANTS = {
    "a miss passes to the next entry": (
        "if not misses:\n" + " " * 20 + "break",
        "if not misses:\n" + " " * 20 + "continue"),
    "entries in plan order": (
        "plan = sorted((e for e in plan if e[1]), key=lambda e: e[0][0])",
        "plan = [e for e in plan if e[1]]"),
    "a repeated key not sent to the images": (
        "distinct = len({e[0][0] for e in plan}) == len(plan)",
        "distinct = True"),
    "zero entries kept": (
        "(e for e in plan if e[1])", "(e for e in plan)"),
    "a hit marks its key's base": (
        "lead[base + t] = 1\n" + " " * 24 + "break\n" + " " * 20
        + "continue",
        "lead[base] = 1\n" + " " * 24 + "break\n" + " " * 20 + "continue"),
}


@pytest.mark.parametrize("mutant", sorted(LEADS_MUTANTS))
def test_leads_differential_catches_mutants(monkeypatch, mutant):
    """Each planted fault of BimoduleComplex.leads shows in _leads_faults."""
    import inspect
    import textwrap

    from gradedcy import complexes

    old, new = LEADS_MUTANTS[mutant]
    source = textwrap.dedent(
        inspect.getsource(complexes.BimoduleComplex.leads))
    assert source.count(old) == 1
    namespace = dict(vars(complexes))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(complexes.BimoduleComplex, "leads",
                        namespace["leads"])
    assert _leads_faults()


def test_verdict_computes_miss_products_only_where_hits_leave_maps_loose(
        monkeypatch):
    """The verdict on skew_3 stores at most one miss product at -9..0 and
    at -12..0 (3 190 and 57 310 when every image was built), since the
    hit columns pin every map there; on k_xyz at -8..0 some maps need
    every column, so it still stores some."""
    from gradedcy import duality

    stored = []
    store = RewriteContext._store

    def spied(self, vec):
        stored.append(len(vec))
        return store(self, vec)

    monkeypatch.setattr(RewriteContext, "_store", spied)
    for name, lo, most in (("skew_3.pres", -9, 1), ("skew_3.pres", -12, 1),
                           ("k_xyz.pres", -8, None)):
        pres = load(name)
        stored.clear()
        verdict = duality.check_twisted_cy(
            pres, builtin_resolution(pres),
            identity_twist(pres.cy.dimension + pres.cy.a_invariant),
            window=(0, lo))
        assert verdict.passed, name
        if most is None:
            assert stored, name
        else:
            assert len(stored) <= most, (name, lo, len(stored))


def test_one_sided_oracle_catches_a_block_offset_mutant(monkeypatch):
    """Numbering each summand's generators after the first from one
    before its offset makes two summands share a generator (the count
    stays right), which the oracle comparison sees."""
    import inspect
    import textwrap

    from gradedcy import complexes
    from gradedcy.duality import one_sided_complex

    old = "out[si, pdeg, ip] = n, qs"
    source = textwrap.dedent(
        inspect.getsource(complexes.BimoduleComplex.slots))
    assert source.count(old) == 1
    namespace = dict(vars(complexes))
    exec(source.replace(old, "out[si, pdeg, ip] = max(n - 1, 0), qs"),
         namespace)
    monkeypatch.setattr(complexes.BimoduleComplex, "slots",
                        namespace["slots"])
    caught = []
    for _, pres, cpx, cap, depth in _corpus_complexes():
        rc = RewriteContext(pres, cap)
        for c in (cpx, dualize(cpx)):
            top = max(s.degree for t in c.terms for s in t)
            degrees = range(top, top - depth - 1, -1)
            if one_sided_complex(c, rc, degrees) != \
                    one_sided_complex_by_reduction(c, rc, degrees):
                caught.append((cpx.name, c.kind))
    assert caught


def _variants(cpx):
    return cpx, dg_transport(cpx), dualize(cpx), dualize(dualize(cpx))


def test_slots_number_each_slice_element_once():
    """In every slice that the tests read, of every corpus complex and its
    variants (the dg-left duals of four_face and hexagonal among them),
    one-sided and full: base + local[i] over all keys and all positions
    i with local[i] >= 0 hits each of 0 .. n-1 once; each key has q
    words, numbered 0, 1, ... in listing order, so it owns the elements
    from its base on; and keys with the same |q| and right vertex share
    one local map object."""
    for _, pres, cpx, cap, depth in _corpus_complexes():
        rc = RewriteContext(pres, cap)
        for c in _variants(cpx):
            top = max(s.degree for t in c.terms for s in t)
            for lazy_left, n in ((True, depth + 1), (False, 3)):
                for w in range(top, top - n, -1):
                    for k, term in enumerate(c.terms):
                        slots, size = c.slots(rc, k, w, lazy_left)
                        where = cpx.name, c.kind, lazy_left, w, k
                        hit, shared = [], {}
                        for (si, pdeg, _), (base, local) in slots.items():
                            own = [g for g in local if g >= 0]
                            assert own and own == list(range(len(own))), \
                                where
                            hit += [base + g for g in own]
                            s = term[si]
                            assert shared.setdefault(
                                (w - s.degree - pdeg, s.right_vertex),
                                local) is local, where
                        assert sorted(hit) == list(range(size)), where


def test_oracles_catch_an_offset_mutant_past_the_first_block(monkeypatch):
    """Numbering each vertex-pair block of a local map after the first
    from one before its place makes two q words share an element.  A
    single-vertex listing has one block, so only multi-vertex slices
    change: every other corpus complex keeps its slice matrices, and the
    slice-matrix oracle sees the fault on both four_face gradings, the
    only corpus Jacobian algebra with more than one vertex."""
    import inspect
    import textwrap

    from gradedcy import complexes

    old = "range(j, j + size)"
    source = textwrap.dedent(
        inspect.getsource(complexes.BimoduleComplex.slots))
    assert source.count(old) == 1
    namespace = dict(vars(complexes))
    exec(source.replace(old, "range(max(j - 1, 0), max(j - 1, 0) + size)"),
         namespace)
    monkeypatch.setattr(complexes.BimoduleComplex, "slots",
                        namespace["slots"])
    caught = set()
    for (name, _), pres, cpx, cap, _ in _corpus_complexes():
        rc = RewriteContext(pres, cap)
        for c in _variants(cpx):
            if _slices_by_element(c, rc, slice_matrix) != \
                    _slices_by_element(c, rc, slice_matrix_by_reduction):
                caught.add(name)
    assert caught == {"four_face/1", "four_face/2"}


def _flipped(cplx):
    """cplx with the sign of one entry term of its last map flipped."""
    diffs = [dict(d) for d in cplx.diffs]
    key = min(diffs[-1])
    (c, u, v), *rest = diffs[-1][key]
    diffs[-1][key] = [(-c, u, v), *rest]
    return BimoduleComplex(cplx.pres, cplx.terms, diffs, name=cplx.name,
                           kind=cplx.kind, positions=cplx.positions)


def test_check_complex_on_every_kind():
    """d o d = 0 holds with the Koszul signs of each kind on every corpus
    complex, its transport, dual and double dual (the former check, blind
    to the kind, raised NotComplex on the dg ones); one flipped entry sign
    is caught on each, and on the graded complex the former check
    agrees."""
    for _, pres, cpx, cap, _ in _corpus_complexes():
        rc = RewriteContext(pres, cap)
        for c in _variants(cpx):
            assert c.check_complex(rc), (cpx.name, c.kind)
            if len(c.diffs) > 1:
                with pytest.raises(NotComplex):
                    _flipped(c).check_complex(rc)
        assert check_complex_by_reduction(cpx, rc)
        if len(cpx.diffs) > 1:
            with pytest.raises(NotComplex):
                check_complex_by_reduction(_flipped(cpx), rc)


def test_construction_checks_entry_degrees():
    """Every corpus complex, its transport, dual and double dual keeps the
    degree rule |u| + |v| = source degree - target degree (construction
    checks it); an entry one degree off is refused with its place."""
    for _, _, cpx, _, _ in _corpus_complexes():
        for c in _variants(cpx):
            BimoduleComplex(c.pres, c.terms, c.diffs, kind=c.kind,
                            positions=c.positions)
    pres = load("k_xy.pres")
    cpx = koszul_complex(pres)
    diffs = [dict(d) for d in cpx.diffs]
    (c, u, v), *rest = diffs[1][1, 0]
    diffs[1][1, 0] = [(c, pres.ctx.path_from_names(["x", "y"]), v), *rest]
    with pytest.raises(Inhomogeneous) as err:
        BimoduleComplex(pres, cpx.terms, diffs)
    assert str(err.value) == "entry x*y#e_P from g[x,y] (degree -2) to g[y] " \
        "(degree -1) has |u| + |v| = -2, not the source degree minus the " \
        "target degree, -1"


TWO_VERTICES = "[vertices]\nP Q\n[arrows]\na P Q -1\n"


@pytest.mark.parametrize("kind,u,v,ends", [
    ("graded", "a", "e_Q", "u from P to Q and v from Q to Q, not u from P "
     "to P and v from P to Q"),
    ("dg-right", "a", "e_Q", "u from P to Q and v from Q to Q, not u from P "
     "to P and v from P to Q"),
    ("dg-left", "e_P", "a", "u from P to P and v from P to Q, not u from P "
     "to P and v from Q to P"),
])
def test_construction_checks_entry_vertices(kind, u, v, ends):
    """An entry (c, u, v) from summand s to summand t meets their
    vertices: u runs from s's left vertex to t's and v from t's right
    vertex to s's (graded and dg-right), or u from t's left vertex to s's
    and v from s's right vertex to t's (dg-left).  Each entry here keeps
    degrees and breaks only its kind's vertex rule (the dg-left one is a
    graded entry); a product of such paths used to be 0 without a word."""
    pres = parse_presentation(TWO_VERTICES)
    ctx = pres.ctx
    paths = {"a": ctx.path_from_names(["a"]), "e_P": ctx.lazy("P"),
             "e_Q": ctx.lazy("Q")}
    terms = [[FreeSummand("P", "P", 0, "t")], [FreeSummand("P", "Q", -1, "s")]]
    diffs = [{(0, 0): [(1, paths[u], paths[v])]}]
    with pytest.raises(Inhomogeneous) as err:
        BimoduleComplex(pres, terms, diffs, kind=kind)
    assert str(err.value) == f"entry {u}#{v} from s (P, Q) to t (P, P) has " \
        + ends
    if kind == "dg-left":
        BimoduleComplex(pres, terms, diffs)


def test_check_complex_refuses_products_beyond_the_cap():
    """Entry paths whose products are longer than the cap would leave the
    listings: CapTooSmall names --cap instead of dropping the words."""
    pres = load("k_xy.pres")
    cpx = parse_complex("[term 0]\nP P 0\n[term 1]\nP P -3\n[term 2]\n"
                        "P P -6\n[map 1]\n0 0 x*x*x#1\n[map 2]\n"
                        "0 0 y*y*y#1\n", pres, filename="long.cpx")
    with pytest.raises(CapTooSmall, match="--cap 4"):
        cpx.check_complex(4)
    with pytest.raises(NotComplex):
        cpx.check_complex(6)


def _slices_by_element(cplx, rc, evaluate):
    """{(k, w, source element): {target element: coefficient}} of the
    slice matrices of each map in the top two degrees of its source,
    elements as (summand, Path, Path)."""
    out = {}
    for k in range(len(cplx.diffs)):
        top = max(s.degree for s in cplx.terms[k + 1])
        for w in (top, top - 1):
            src, tgt, cols = evaluate(cplx, rc, k, w)
            for e, col in zip(src, cols):
                out[k, w, e] = {tgt[i]: c for i, c in col.items()}
    return out


def test_slice_matrices_match_reduction_oracle():
    """Slice matrices through the entry evaluator equal, entry by entry,
    those of the former evaluation (Path-keyed bases, its own sign rules,
    every product reduced from scratch) on every corpus complex, its
    transport, dual and double dual."""
    for _, pres, cpx, cap, _ in _corpus_complexes():
        rc = RewriteContext(pres, cap)
        for c in _variants(cpx):
            assert _slices_by_element(c, rc, slice_matrix) == \
                _slices_by_element(c, rc, slice_matrix_by_reduction), \
                (cpx.name, c.kind)


@pytest.mark.parametrize("kind,old,new", [
    ("graded", "e = 0 if", "e = pdeg if"),
    ("dg-right", "else pdeg * (udeg + ctx.degree(v))", "else pdeg * udeg"),
    ("dg-left", "(pdeg + qdeg) * (s.degree + t.degree + udeg)",
     "(pdeg + qdeg) * (s.degree + t.degree)"),
])
def test_slice_oracle_catches_sign_rule_mutants(monkeypatch, kind, old, new):
    """Breaking the sign rule for one kind changes some slice matrix of a
    corpus complex of that kind, which the oracle comparison sees."""
    import inspect
    import textwrap

    from gradedcy import complexes

    source = textwrap.dedent(
        inspect.getsource(complexes.BimoduleComplex.entry_plan))
    assert source.count(old) == 1
    namespace = dict(vars(complexes))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(complexes.BimoduleComplex, "entry_plan",
                        namespace["entry_plan"])
    caught = []
    for _, pres, cpx, cap, _ in _corpus_complexes():
        rc = RewriteContext(pres, cap)
        for c in _variants(cpx)[:3]:
            if c.kind == kind and _slices_by_element(c, rc, slice_matrix) \
                    != _slices_by_element(c, rc, slice_matrix_by_reduction):
                caught.append(cpx.name)
    assert caught


def test_verdict_checks_its_input_complex_first(monkeypatch):
    """A resolution file with one sign flipped in [map 2] is refused with
    NotComplex by the exactness probe, before any homology is computed."""
    from gradedcy import duality

    def refuse(*args, **kwargs):
        raise AssertionError("homology ran on a complex that is not one")

    monkeypatch.setattr(duality, "one_sided_complex", refuse)
    monkeypatch.setattr(duality, "slice_cohomology", refuse)
    pres = load("k_xy.pres")
    text = (DATA / "koszul_xy.cpx").read_text(encoding="utf-8")
    assert text.count("0 0 -y#1 + 1#y") == 1
    bad = parse_complex(text.replace("0 0 -y#1 + 1#y", "0 0 y#1 + 1#y"),
                        pres, filename="bad.cpx")
    with pytest.raises(NotComplex, match="from summand T2.0. to T0.0."):
        check_twisted_cy(pres, bad, sign_twist(pres, 4), window=(0, -4))


def test_wide_window_skew_three():
    """skew_3 at window -11..0 (about 16 s in process before the arrow
    maps, 1.1-1.6 s with the layered listings on a 2-CPU host): every row
    equals the Hilbert series 1/(1-3t+t^2)."""
    pres = load("skew_3.pres")
    v = check_twisted_cy(pres, builtin_resolution(pres), identity_twist(4),
                         window=(0, -11))
    assert v.passed, v.summary()
    series = [1, 3]
    while len(series) < 12:
        series.append(3 * series[-1] - series[-2])
    assert [(d, e, g) for d, e, g, _ in v.dim_rows] == \
        [(-n, series[n], series[n]) for n in range(12)]


def test_verdict_peak_memory_stays_small():
    """The skew_3 verdict down to degree -9 peaks at 0.50 MB of traced
    allocations (Python 3.11) with its words stored as trie arrays, its
    ranks read off leading indices with no pivot stored, and its miss
    products in one flat store, against 1.37 MB with a dict per miss
    product, 1.95 MB with every map eliminated and its unit pivots kept
    without rows, 3.4 MB with a row dict per pivot and 7.1 MB when each
    listed word was a Path with an arrow tuple and a tuple-keyed index:
    per-word or per-product objects or stored pivots that come back fail
    here, not only in the benchmark's max-RSS."""
    import tracemalloc

    pres = load("skew_3.pres")
    cpx = builtin_resolution(pres)
    tracemalloc.start()
    try:
        verdict = check_twisted_cy(pres, cpx, identity_twist(4),
                                   window=(0, -9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.passed, verdict.summary()
    assert peak < 800_000, peak
