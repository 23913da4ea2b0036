import inspect
import random
import textwrap
from fractions import Fraction

import pytest

from gradedcy import findim
from gradedcy.cli import main
from gradedcy.errors import Inconclusive, NotBasic, NotSplitBasic
from gradedcy.fdalgebra import FDAlgebra, FDBimodule
from gradedcy.findim import (RightModule, gabriel_quiver,
                             injective_dimension, is_iwanaga_gorenstein,
                             projective_resolution, radical)
from gradedcy.linalg import SparseEliminator
from gradedcy.preprojective import block_trivial_extension
from gradedcy.quiver import arrow_multiplicities
from gradedcy.slice_algebras import build_AUB, build_tilde

from helpers import (DATA, check_module, dense_dual_of_regular,
                     dense_resolution, gabriel_quiver_by_pairs,
                     gabriel_quiver_by_products, linear_quiver, load,
                     radical_powers, random_presentation, sparse_action,
                     unit_pivot_mutant_add)


def dual_numbers():
    _, _, B = build_AUB(load("k_x.pres"), 1)
    return B


def test_radical_dual_numbers():
    B = dual_numbers()
    assert len(radical(B)) == 1
    assert radical_powers(B).loewy_length == 2


def test_radical_of_B_xy():
    _, _, B = build_AUB(load("k_xy.pres"), 2)
    assert len(radical(B)) == B.dim - 2 == 10
    # nilpotency
    assert radical_powers(B).loewy_length <= B.dim


def test_radical_semisimple():
    alg = FDAlgebra(["e1", "e2"],
                    {(0, 0): {0: 1}, (1, 1): {1: 1}}, [0, 1])
    assert radical(alg) == [] and radical_powers(alg).loewy_length == 1


def t_squared_one():
    # basis {1, t} with t*t = 1: the complement of the idempotent is not
    # an ideal
    return FDAlgebra(["one", "t"],
                     {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
                      (1, 1): {0: 1}}, [0])


def test_not_split_basic():
    with pytest.raises(NotSplitBasic):
        radical(t_squared_one())


def test_gorenstein_check_not_split_basic():
    with pytest.raises(NotSplitBasic):
        is_iwanaga_gorenstein(t_squared_one(), 1, 3)


def idempotent_t():
    # basis {1, t} with t*t = t: span(t) is an ideal, but not nilpotent
    return FDAlgebra(["one", "t"],
                     {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
                      (1, 1): {1: 1}}, [0])


def traceless_x():
    # basis {1, x, y} with x*x = y, x*y = y*x = x, y*y = y: span(x, y) is an
    # ideal and tr(L_x) = 0, yet x^3 = x; only tr(L_y) = 2 shows it
    return FDAlgebra(["one", "x", "y"],
                     {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
                      (1, 0): {1: 1}, (2, 0): {2: 1}, (1, 1): {2: 1},
                      (1, 2): {1: 1}, (2, 1): {1: 1}, (2, 2): {2: 1}}, [0])


def truncated_t():
    # basis {1, t, s = t^2} with t^3 = 0: the radical span(t, s) is nilpotent
    return FDAlgebra(["one", "t", "s"],
                     {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
                      (1, 0): {1: 1}, (2, 0): {2: 1}, (1, 1): {2: 1}}, [0])


@pytest.mark.parametrize("planted,label", [(idempotent_t, "t"),
                                           (traceless_x, "y")])
def test_radical_refuses_a_non_nilpotent_ideal(planted, label):
    """An ideal off the idempotents whose powers never vanish is refused
    by its trace, through radical and through the Gorenstein check."""
    match = f"not nilpotent: left multiplication by {label} "
    with pytest.raises(NotSplitBasic, match=match):
        radical(planted())
    with pytest.raises(NotSplitBasic, match=match):
        is_iwanaga_gorenstein(planted(), 1, 3)


def test_radical_passes_a_nilpotent_ideal():
    alg = truncated_t()
    assert radical(alg) == [1, 2]
    assert radical_powers(alg).loewy_length == 3


def _radical_or_refusal(fn, alg):
    try:
        return fn(alg)
    except NotSplitBasic:
        return NotSplitBasic


def test_radical_agrees_with_the_power_tower():
    """radical refuses exactly when the power tower J, J^2, ... does not
    reach 0 (or the ideal check fails), and returns the same basis
    otherwise: on the planted algebras, on A, B and B^op of the corpus at
    a = 1, 2, on their block algebras B~ at n = 2, 3, and on `corpi` of
    A3 to A12 at n = 1, 2."""
    algebras = [(f.__name__, 0, "planted", f())
                for f in (t_squared_one, idempotent_t, traceless_x,
                          truncated_t)]
    for name in ("k_x.pres", "k_xy.pres", "skew_2.pres", "skew_3.pres",
                 "k_xy_23.pres", "k_xyz.pres"):
        for a in (1, 2):
            A, U, B = build_AUB(load(name), a)
            algebras += [(name, a, "A", A), (name, a, "B", B),
                         (name, a, "B^op", B.opposite())]
            for n in (2, 3):
                algebras.append((name, a, f"B~{n}", build_tilde(A, U, n)[2]))
    for n in range(3, 13):
        for layers in (1, 2):
            algebras.append((f"A{n}", layers, "corpi",
                             block_trivial_extension(linear_quiver(n),
                                                     layers)))
    verdicts = []
    for name, a, which, alg in algebras:
        got = _radical_or_refusal(radical, alg)
        want = _radical_or_refusal(lambda x: radical_powers(x).basis, alg)
        assert got == want, (name, a, which)
        verdicts.append(got is NotSplitBasic)
    assert verdicts[:4] == [True, True, True, False] and not any(verdicts[4:])


def test_radical_and_gabriel_quiver_count_products(monkeypatch):
    """On `corpi` of A12 at n = 2 (dim 300) the radical is read off the
    structure table with no product; the power tower made 337 272.  The
    Gabriel quiver multiplies only the rows e_i b by each e_j."""
    alg = block_trivial_extension(linear_quiver(12), 2)
    calls, product = [0], FDAlgebra.product

    def counting(self, u, v):
        calls[0] += 1
        return product(self, u, v)

    monkeypatch.setattr(FDAlgebra, "product", counting)
    radical(alg)
    assert calls == [0]
    gabriel_quiver(alg)
    assert calls[0] <= 6624


def test_gabriel_quiver_engine():
    B = dual_numbers()
    assert arrow_multiplicities(gabriel_quiver(B)) == {("v0", "v0"): 1}


def test_gabriel_quiver_refuses_a_repeated_idempotent():
    """The guard runs on every call: the field declared with its unit
    twice is not a basic algebra with two vertices."""
    k = FDAlgebra(["e"], {(0, 0): {0: 1}}, [0, 0])
    with pytest.raises(NotBasic, match="repeated idempotent"):
        gabriel_quiver(k)


def test_simple_module_periodic_betti():
    B = dual_numbers()
    S = RightModule(B, 1, sparse_action([[[Fraction(1)]], [[Fraction(0)]]]))
    res = projective_resolution(S, 6)
    assert res.finished_at == -1
    assert [s.total_rank for s in res.steps] == [1] * 7


def test_sink_simple_is_projective():
    A, _, _ = build_AUB(load("k_xy.pres"), 2)
    # the simple at the sink slot equals e_1 A; build it as a module
    dim = 1
    acts = []
    e1 = A.idempotents[1]
    for b in range(A.dim):
        acts.append([[Fraction(1 if b == e1 else 0)]])
    S = RightModule(A, dim, sparse_action(acts))
    res = projective_resolution(S, 4)
    assert res.finished_at == 0


def test_dual_regular_resolution_short():
    _, _, B = build_AUB(load("k_xy.pres"), 2)
    D = RightModule.dual_of_regular(B)
    check_module(D)
    res = projective_resolution(D, 4)
    assert res.finished_at <= 1


def test_injective_dimensions():
    _, _, B1 = build_AUB(load("k_x.pres"), 1)
    assert injective_dimension(B1, "left", 4) == 0
    assert injective_dimension(B1, "right", 4) == 0
    A, _, B = build_AUB(load("k_xy.pres"), 2)
    assert injective_dimension(B, "left", 4) == 1
    assert injective_dimension(B, "right", 4) == 1
    assert injective_dimension(A, "left", 4) == 1
    assert injective_dimension(A, "right", 4) == 1


def test_one_opposite_per_gorenstein_check(monkeypatch):
    """Only the right side builds an opposite: D(A) of the left side is a
    module over the algebra itself.  The left side used to pass
    alg.opposite() to dual_of_regular, which took the opposite again (3
    opposites per check)."""
    built, opposite = [], FDAlgebra.opposite

    def spy(self):
        built.append(self.dim)
        return opposite(self)

    monkeypatch.setattr(FDAlgebra, "opposite", spy)
    _, _, B = build_AUB(load("skew_3.pres"), 2)
    assert B.dim == 20
    assert is_iwanaga_gorenstein(B, 1, 3).holds
    assert built == [20]


def test_ig_battery():
    _, _, B1 = build_AUB(load("k_x.pres"), 1)
    assert is_iwanaga_gorenstein(B1, 1, 3).holds
    A, U, B = build_AUB(load("k_xy.pres"), 2)
    assert is_iwanaga_gorenstein(B, 1, 3).holds
    assert not is_iwanaga_gorenstein(A, 0, 3).holds
    A1, U1, _ = build_AUB(load("k_x.pres"), 1)
    for n in (1, 2, 3):
        _, _, Bt = build_tilde(A1, U1, n)
        rep = is_iwanaga_gorenstein(Bt, 1, 3)
        assert rep.holds and rep.inj_dim_left == rep.inj_dim_right == 0


def test_inconclusive_when_cap_hit():
    # a cap of 0 cannot decide the Kronecker path algebra
    A, _, _ = build_AUB(load("k_xy.pres"), 2)
    with pytest.raises(Inconclusive):
        is_iwanaga_gorenstein(A, 5, 0)


def test_betti_numbers_basis_independent():
    """Conjugating the action matrices by a random change of basis leaves
    the Betti numbers alone."""
    from gradedcy.linalg import mat_inv, mat_mul

    _, _, B = build_AUB(load("k_xy.pres"), 2)
    D = RightModule.dual_of_regular(B)
    base = [s.betti for s in projective_resolution(D, 3).steps]

    rng = random.Random(7)
    n = D.dim
    while True:
        g = [[Fraction(rng.randrange(-2, 3)) for _ in range(n)]
             for _ in range(n)]
        try:
            ginv = mat_inv(g)
            break
        except ZeroDivisionError:
            continue
    acts = [mat_mul(mat_mul(ginv, m), g) for m in dense_dual_of_regular(B)]
    # action in the new basis: row convention needs g on the other side
    twisted = RightModule(D.alg, n, sparse_action(acts))
    check_module(twisted)
    assert [s.betti for s in projective_resolution(twisted, 3).steps] == base


def test_radical_powers_vanish_on_corpus():
    for name, a in (("k_x.pres", 1), ("k_xy.pres", 2), ("skew_2.pres", 2)):
        _, _, B = build_AUB(load(name), a)
        rad = radical_powers(B)
        assert radical(B) == rad.basis
        assert rad.loewy_length <= B.dim + 1
        assert rad.powers[-1].rank > 0  # last recorded power nonzero


def test_json_reports():
    import json

    from helpers import betti_table_json, ig_report_json

    B = dual_numbers()
    S = RightModule(B, 1, sparse_action([[[Fraction(1)]], [[Fraction(0)]]]))
    res = projective_resolution(S, 3)
    data = json.loads(betti_table_json(res))
    assert [s["total"] for s in data["steps"]] == [1, 1, 1, 1]
    rep = is_iwanaga_gorenstein(B, 1, 3)
    data = json.loads(ig_report_json(rep))
    assert data["holds"] and data["inj_dim_left"] == 0


def test_gorenstein_invariant_across_corpus():
    """Every built extension algebra with declared duality dimension d+1
    is d-Gorenstein, with the injective dimensions exactly d except in
    the self-injective one-variable case."""
    from gradedcy.slice_algebras import build_AUB

    expected_exact = {"k_x.pres": 0, "k_xy.pres": 1, "skew_2.pres": 1,
                      "skew_3.pres": 1, "k_xy_23.pres": 1,
                      "k_xyz.pres": 2}
    for name, exact in expected_exact.items():
        pres = load(name)
        d = pres.cy.dimension - 1
        _, _, B = build_AUB(pres, pres.cy.a_invariant)
        rep = is_iwanaga_gorenstein(B, d, d + 2)
        assert rep.holds, name
        assert rep.inj_dim_left == rep.inj_dim_right == exact, name


def test_resolutions_match_dense_oracle_on_corpus():
    """Sparse resolutions of D(B) on both sides, the action rows of every
    syzygy, and the IG reports built from them, against the dense
    reference resolution."""
    for name in ("k_x.pres", "k_xy.pres", "skew_2.pres", "skew_3.pres",
                 "k_xy_23.pres", "k_xyz.pres"):
        pres = load(name)
        d = pres.cy.dimension - 1
        _, _, B = build_AUB(pres, pres.cy.a_invariant)
        inj = {}
        for side, alg in (("right", B.opposite()), ("left", B)):
            D = RightModule.dual_of_regular(alg)
            dense = sparse_action(dense_dual_of_regular(alg))
            assert D.action == dense, (name, side)
            res, modules = projective_resolution(D, d + 2), []
            steps, finished = dense_resolution(D.alg, alg.dim, dense,
                                               d + 2, modules)
            assert [s.betti for s in res.steps] == steps, (name, side)
            assert res.finished_at == finished, (name, side)
            assert [s.total_rank for s in res.steps] == \
                [sum(b.values()) for b in steps], (name, side)
            assert _syzygy_actions(D, d + 2) == modules, (name, side)
            inj[side] = finished if finished >= 0 else None
        rep = is_iwanaga_gorenstein(B, d, d + 2)
        assert (rep.inj_dim_left, rep.inj_dim_right) == \
            (inj["left"], inj["right"]), name
        assert rep.holds == (inj["left"] <= d and inj["right"] <= d), name


def _arrows(quiver):
    return [(a.name, a.source, a.target, a.degree) for a in quiver.arrows]


def test_gabriel_quiver_matches_the_per_pair_oracle():
    """One span seeded with J^2 counts the same arrows, named in the same
    order, as a fresh copy of J^2 for every vertex pair: on A, B and B^op
    of the corpus at a = 1, 2 and on the `corpi` block algebras."""
    algebras = []
    for name in ("k_x.pres", "k_xy.pres", "skew_2.pres", "skew_3.pres",
                 "skew_4.pres", "k_xy_23.pres", "k_xyz.pres"):
        for a in (1, 2):
            A, _, B = build_AUB(load(name), a)
            algebras += [(name, a, "A", A), (name, a, "B", B),
                         (name, a, "B^op", B.opposite())]
    for name in ("a2.quiver", "kronecker.quiver", "three_vertex.quiver"):
        for n in (1, 2, 3):
            algebras.append((name, n, "corpi",
                             block_trivial_extension(load(name).quiver, n)))
    for name, a, which, alg in algebras:
        assert _arrows(gabriel_quiver(alg)) == \
            _arrows(gabriel_quiver_by_pairs(alg)), (name, a, which)


def test_gabriel_quiver_matches_the_product_sweep():
    """Reading e_i b off the structure table and multiplying only its
    nonzero rows by each e_j finds the arrows, named in the same order,
    that two products per vertex pair and radical basis element found: on
    A and B of the corpus at a = 1, 2 and on `corpi` of A9 and A12."""
    algebras = []
    for name in ("k_x.pres", "k_xy.pres", "skew_2.pres", "skew_3.pres",
                 "skew_4.pres", "k_xy_23.pres", "k_xyz.pres"):
        for a in (1, 2):
            A, _, B = build_AUB(load(name), a)
            algebras += [(name, a, "A", A), (name, a, "B", B)]
    for n in (9, 12):
        for layers in (1, 2):
            alg = block_trivial_extension(linear_quiver(n), layers)
            algebras.append((f"A{n}", layers, "corpi", alg))
    for name, a, which, alg in algebras:
        assert _arrows(gabriel_quiver(alg)) == \
            _arrows(gabriel_quiver_by_products(alg)), (name, a, which)


def _syzygy_actions(M, cap):
    """The action rows of the nonzero syzygies that
    projective_resolution(M, cap) passes through."""
    jbasis = radical(M.alg)
    actions = []
    for _ in range(cap + 1):
        _, M = findim.syzygy(M, jbasis)
        if M is None:
            break
        actions.append(M.action)
    return actions


def _resolution_faults(pres, a, cap=3):
    """The sides of B = A + U at which the sparse resolution of D(B) and
    the dense reference disagree: in a Betti table, in `finished_at`, or
    in the action rows of a syzygy, which agree entry for entry because
    both kernel bases are echelon over the same free columns."""
    _, _, B = build_AUB(pres, a)
    faults = []
    for side, alg in (("right", B.opposite()), ("left", B)):
        D = RightModule.dual_of_regular(alg)
        res = projective_resolution(D, cap)
        modules = []
        steps, finished = dense_resolution(
            D.alg, alg.dim, sparse_action(dense_dual_of_regular(alg)), cap,
            modules)
        if [s.betti for s in res.steps] != steps or \
                res.finished_at != finished or \
                _syzygy_actions(D, cap) != modules:
            faults.append(side)
    return faults


def _random_presentations():
    # sized for the dense reference: the next presentation from this seed
    # gives a B of dim 30 that it resolves in several seconds
    rng = random.Random(1313)
    return [random_presentation(rng) for _ in range(18)]


def test_resolutions_match_dense_oracle_on_random_presentations():
    """Seeded random presentations through build_AUB at a = 1, 2: both
    sides of D(B) resolve as the dense reference does, to length 3."""
    for trial, pres in enumerate(_random_presentations()):
        for a in (1, 2):
            assert _resolution_faults(pres, a) == [], (trial, a)


@pytest.mark.parametrize("old,new", [
    # a dependent element whose kernel vector starts at column 0 is kept
    # as a row of the span instead of entering the kernel
    ("if min(v) < M.dim:", "if min(v) <= M.dim:"),
    # every kernel vector is kept as a row as well: later elements reduce
    # against it, so the kernel basis is no longer echelon over the free
    # columns (the Betti tables alone do not show this one)
    ("        else:\n", "        else:\n            span.add(v)\n"),
    # an action row that cancels to zero is kept as an empty row
    ("if w:", "if True:"),
    # each left factor's row of the table keeps only its first product
    ("rows.setdefault(a, []).append((b, prod))",
     "rows.setdefault(a, [(b, prod)])"),
], ids=["off-by-one", "kernel-row", "empty-row", "first-product"])
def test_resolution_oracle_catches_tag_mutants(monkeypatch, old, new):
    source = textwrap.dedent(inspect.getsource(findim.syzygy))
    assert source.count(old) == 1
    namespace = dict(vars(findim))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(findim, "syzygy", namespace["syzygy"])
    assert any(_resolution_faults(pres, a)
               for pres in _random_presentations() for a in (1, 2))


def test_corpus_oracle_catches_the_kernel_row_mutant(monkeypatch):
    """Keeping every kernel vector as a span row as well leaves the Betti
    tables of the corpus as they are, but not the action rows of the
    syzygies: the corpus comparison sees it on skew_3 at a = 2."""
    old, new = "        else:\n", "        else:\n            span.add(v)\n"
    source = textwrap.dedent(inspect.getsource(findim.syzygy))
    assert source.count(old) == 1
    namespace = dict(vars(findim))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(findim, "syzygy", namespace["syzygy"])
    assert _resolution_faults(load("skew_3.pres"), 2, 3)


def test_corpus_oracle_catches_the_unit_pivot_mutant(monkeypatch):
    """An eliminator that takes a one-entry vector at a pivot whose row is
    longer for one already in its span, without reducing it, shortens
    skew_3's resolutions at a = 2: the corpus comparison sees both sides."""
    monkeypatch.setattr(SparseEliminator, "add", unit_pivot_mutant_add())
    assert _resolution_faults(load("skew_3.pres"), 2) == ["right", "left"]


class _CountingTable(dict):
    """A structure table that counts its keyed reads."""

    reads = 0

    def get(self, *args):
        self.reads += 1
        return super().get(*args)

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.reads += 1
        return super().__contains__(key)


def test_resolutions_walk_the_table_without_keyed_reads():
    """Resolving D(B) and D(B^op) on skew_3 at a = 2 to length 3 reads
    the structure tables only by their items: no `get`, `[]` or `in`."""
    _, _, B = build_AUB(load("skew_3.pres"), 2)
    tables = []
    for alg in (B.opposite(), B):
        alg.mult = _CountingTable(alg.mult)
        tables.append(alg.mult)
        res = projective_resolution(RightModule.dual_of_regular(alg), 3)
        assert res.finished_at == 1
    assert [t.reads for t in tables] == [0, 0]


def test_skew_4_at_a_3_resolves_to_the_cap(monkeypatch, capsys):
    """The scale input: ig-check on skew_4 at a = 3, d = 2 resolves each
    side of D(B) through the same (module dim, cover rank) steps, finds
    no injective dimension within the cap 4 and exits 1 Inconclusive."""
    syzygy, injdim, sides = findim.syzygy, findim.injective_dimension, []

    def recording_syzygy(M, jbasis):
        slots, nxt = syzygy(M, jbasis)
        sides[-1][1].append((M.dim, len(slots)))
        return slots, nxt

    def recording_injdim(alg, side, cap):
        sides.append([(side, cap), []])
        dim = injdim(alg, side, cap)
        sides[-1].append(dim)
        return dim

    monkeypatch.setattr(findim, "syzygy", recording_syzygy)
    monkeypatch.setattr(findim, "injective_dimension", recording_injdim)
    code = main(["ig-check", str(DATA / "skew_4.pres"), "--a", "3",
                 "--d", "2"])
    steps = [(126, 75), (6999, 280), (1, 1), (5, 1), (20, 1)]
    assert sides == [[("right", 4), steps, None], [("left", 4), steps, None]]
    assert code == 1
    assert capsys.readouterr().err.startswith("error: Inconclusive: ")


def _not_exact(table):
    """The coefficients of a structure table that are neither an int nor
    a Fraction with a denominator other than 1."""
    return [c for vec in table.values() for c in vec.values()
            if type(c) is not int
            and not (type(c) is Fraction and c.denominator != 1)]


def test_coefficients_are_ints_where_integral(monkeypatch, capsys):
    """Structure constants are ints where integral and Fractions only
    where they are not: A, U and B on the corpus at a = 1 and 2, B~ at
    n = 2, and the block trivial extension of A3 at n = 1 and 2. Action
    rows along both resolutions of ig-check skew_3 at a = 2 are never
    floats, and FDAlgebra reads Fraction(2) as 2 and keeps 1/2."""
    tables = []
    for path in sorted(DATA.glob("*.pres")):
        for a in (1, 2):
            A, U, B = build_AUB(load(path.name), a)
            At, Ut, Bt = build_tilde(A, U, 2)
            tables += [A.mult, U.left, U.right, B.mult,
                       At.mult, Ut.left, Ut.right, Bt.mult]
    for n in (1, 2):
        tables.append(block_trivial_extension(linear_quiver(3), n).mult)
    assert [c for t in tables for c in _not_exact(t)] == []

    syzygy, modules = findim.syzygy, []

    def recording_syzygy(M, jbasis):
        slots, nxt = syzygy(M, jbasis)
        modules.extend([M, nxt] if nxt else [M])
        return slots, nxt

    monkeypatch.setattr(findim, "syzygy", recording_syzygy)
    assert main(["ig-check", str(DATA / "skew_3.pres"), "--a", "2",
                 "--d", "2"]) == 0
    capsys.readouterr()
    values = {type(c) for M in modules for row in M.action
              for w in row.values() for c in w.values()}
    assert len(modules) >= 4 and values and values <= {int, Fraction}

    labels, idem = ["e", "x", "y"], {(0, 0): {0: 1}, (0, 1): {1: 1},
                                     (1, 0): {1: 1}, (0, 2): {2: 1},
                                     (2, 0): {2: 1}}
    for c, stored in ((Fraction(2), 2), (2.0, 2), ("1/2", Fraction(1, 2)),
                      (Fraction(1, 2), Fraction(1, 2))):
        alg = FDAlgebra(labels, {**idem, (1, 1): {2: c}}, [0])
        assert alg.mult[1, 1] == {2: stored}
        assert type(alg.mult[1, 1][2]) is type(stored)


@pytest.mark.parametrize("zero", ["0", "0/1", 0.0])
def test_zero_coefficients_are_dropped_whatever_their_spelling(zero):
    """A coefficient is read before it is tested for zero: '0', '0/1' and
    0.0 are zero entries, so a product they alone make is no entry at all
    (x*x used to be stored as {0: 0}, and radical raised NotSplitBasic)."""
    table = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
             (1, 1): {0: zero}}
    alg = FDAlgebra(["e", "x"], table, [0])
    assert (1, 1) not in alg.mult and radical(alg) == [1]
    U = FDBimodule(alg, ["u"], {(0, 0): {0: 1}, (1, 0): {0: zero}},
                   {(0, 0): {0: 1}, (0, 1): {0: zero}})
    assert U.left == U.right == {(0, 0): {0: 1}}
