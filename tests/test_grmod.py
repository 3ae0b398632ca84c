import random
from pathlib import Path

import pytest

from cohprobe import grmod, veronese
from cohprobe.algfile import parse_algebra_file
from cohprobe.cli import _module_from_json
from cohprobe.coherence import (
    RightIdealSpec,
    builtin_corpus,
    classify_profile,
    enumerate_ideals,
    ideal_map,
)
from cohprobe.freealg import GeneratorTable, NcPoly, parse_poly, poly_scale
from cohprobe.gbasis import AlgebraPresentation, complete_to_degree, opposite
from cohprobe.grmod import (
    FreeModule,
    ModuleMap,
    audit_resolution,
    free_dim,
    kernel_min_generators,
    min_generators,
    minimal_resolution,
)
from cohprobe.linalg import QQ, PrimeField, SpanSolver, field_values, multiplier

from oracles import (
    bar_tor_trivial_module,
    column_of,
    euler_characteristic_check,
    reference_columns,
    reference_scale,
    tor0_oracle,
    ungated_kernel_min_generators,
)
from test_report_digests import MODULE, WEIGHTED_FRAC, _sklyanin_alg
from test_veronese import pm_onto
from windows import ModuleComponents

ALGEBRAS = Path(__file__).resolve().parent.parent / "algebras"


def make_tgb(names, rels, D=8, field=QQ):
    gt = GeneratorTable(list(names))
    pres = AlgebraPresentation(field, gt, [parse_poly(gt, field, r) for r in rels])
    return complete_to_degree(pres, D)


def presented(tgb, src_shifts, tgt_shifts, entries):
    """M = coker(F1 -> F0), passed as its relation map."""
    return ModuleMap(tgb, FreeModule(tuple(src_shifts)), FreeModule(tuple(tgt_shifts)), entries)


def simple_module(tgb):
    entries = {
        (0, i): parse_poly(tgb.gt, tgb.field, name) for i, name in enumerate(tgb.gt.names)
    }
    return presented(tgb, tgb.gt.weights, (0,), entries)


@pytest.fixture(scope="module")
def free2():
    return make_tgb("xy", [])


@pytest.fixture(scope="module")
def xy_zero():
    return make_tgb("xy", ["x*y"])


def test_component_basis_full_algebra(free2):
    pres = presented(free2, (), (0,), {})
    for d in range(5):
        basis = ModuleComponents(pres).basis(d)
        assert [w for _, w in basis] == free2.normal_words(d)


def test_component_basis_coker_x(free2):
    pres = presented(free2, (1,), (0,), {(0, 0): parse_poly(free2.gt, QQ, "x")})
    dims = [len(ModuleComponents(pres).basis(d)) for d in range(1, 6)]
    assert dims == [2 ** (d - 1) for d in range(1, 6)]


def test_component_basis_zero_presentation(free2):
    # identity relations map: cokernel vanishes
    pres = presented(free2, (0,), (0,), {(0, 0): parse_poly(free2.gt, QQ, "1")})
    assert all(not ModuleComponents(pres).basis(d) for d in range(5))


def test_kernel_identity_map_empty(free2):
    f = ModuleMap(free2, FreeModule((0,)), FreeModule((0,)),
                  {(0, 0): parse_poly(free2.gt, QQ, "1")})
    gens = kernel_min_generators(f)
    assert gens.source.shifts == () and gens.entries == {}


def test_kernel_left_mult_x_over_xy_zero(xy_zero):
    f = ModuleMap(xy_zero, FreeModule((1,)), FreeModule((0,)),
                  {(0, 0): parse_poly(xy_zero.gt, QQ, "x")})
    gens = kernel_min_generators(f)
    assert gens.target == f.source
    assert gens.source.shifts == (2,)
    assert gens.entries == {(0, 0): parse_poly(xy_zero.gt, QQ, "y")}


def test_kernel_free_algebra_refree(free2):
    # kernels of maps between frees over T(V) are free: e0 -> x, e1 -> x*y
    # has the one syzygy e1 - e0*y, and re-resolving the kernel as a
    # presentation finds no second syzygies
    f = ModuleMap(free2, FreeModule((1, 2)), FreeModule((0,)),
                  {(0, 0): parse_poly(free2.gt, QQ, "x"),
                   (0, 1): parse_poly(free2.gt, QQ, "x*y")})
    gens = kernel_min_generators(f)
    assert gens.target == f.source
    assert gens.source.shifts == (2,)
    assert gens.entries == {(0, 0): parse_poly(free2.gt, QQ, "-y"),
                            (1, 0): parse_poly(free2.gt, QQ, "1")}
    assert len(kernel_min_generators(gens)) == 0


@pytest.mark.parametrize("field", [QQ, PrimeField(32003), PrimeField(3)],
                         ids=["Q", "F32003", "F3"])
def test_kernel_min_generators_relations(field):
    # the non-minimal module of the digest pins (its scalar entry 2 makes e1
    # redundant) and k, over example2 and a Sklyanin algebra
    example2 = complete_to_degree(
        parse_algebra_file((ALGEBRAS / "example2.alg").read_text(encoding="utf-8"), field=field), 7)
    sklyanin = complete_to_degree(parse_algebra_file(_sklyanin_alg(-2, 2, -1), field=field), 6)
    cases = [_module_from_json(example2, MODULE), simple_module(example2), simple_module(sklyanin)]
    for relations in cases:
        p0 = minimal_resolution(relations, length=0).p0_map
        got = kernel_min_generators(p0, relations)
        want = ungated_kernel_min_generators(p0, relations)
        assert len(got) > 0
        assert got.source.shifts == want.source.shifts
        assert got.entries == want.entries
        # P^0 is built modulo the relations, so it records no ranks, and its
        # plain kernel is gated on ranks taken from its own columns
        assert p0.ranks == {}
        _same_map(kernel_min_generators(p0), ungated_kernel_min_generators(p0), relations.entries)


def test_every_syzygy_module_is_kernel_min_generators(monkeypatch, tgb_fast):
    calls = []
    real = grmod.kernel_min_generators

    def counted(f, relations=None, step=1):
        calls.append((f, relations))
        return real(f, relations, step)

    monkeypatch.setattr(grmod, "kernel_min_generators", counted)
    monkeypatch.setattr(veronese, "kernel_min_generators", counted)
    tgb = make_tgb("xy", ["x*y - y*x"], D=6)
    relations = simple_module(tgb)
    for length in (0, 1, 2, 4):
        calls.clear()
        res = minimal_resolution(relations, length=length)
        # one call per level, each on the map before it, level 1 modulo the relations
        maps = [res.p0_map, *res.diffs][:length]
        assert calls == [(f, None if i else relations) for i, f in enumerate(maps)]
    for n in (2, 3):
        calls.clear()
        veronese.pm_module_presentations(tgb_fast("commutative_model"), n)
        assert len(calls) == n


def _same_map(got, want, label):
    assert got.source.shifts == want.source.shifts, label
    assert got.entries == want.entries, label


def _example2(field, D):
    text = (ALGEBRAS / "example2.alg").read_text(encoding="utf-8")
    return complete_to_degree(parse_algebra_file(text, field=field), D)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
def test_gated_kernels_are_the_ungated_ones(field):
    # kernel_min_generators skips a kernel only where the generators already
    # span it, so every syzygy module equals the one built with a kernel at
    # every degree: same shifts, same entries
    corpus = {e.label: e.presentation for e in builtin_corpus(field)}
    ideals = 0
    for label in ("example1", "remark"):
        for p in (corpus[label], opposite(corpus[label])):
            tgb = complete_to_degree(p, 7)
            assert tgb.anick_series is None, label
            for ideal in enumerate_ideals(tgb, 2, 64):
                f = ideal_map(tgb, ideal)
                _same_map(kernel_min_generators(f), ungated_kernel_min_generators(f),
                          (p.label, ideal.strings(tgb)))
                ideals += 1
    assert ideals >= 100
    sklyanin = complete_to_degree(parse_algebra_file(_sklyanin_alg(-2, 2, -1), field=field), 6)
    for ideal in enumerate_ideals(sklyanin, 2, 12):
        f = ideal_map(sklyanin, ideal)
        _same_map(kernel_min_generators(f), ungated_kernel_min_generators(f), ideal.strings(sklyanin))
    # every level of a resolution, each built from the level before it with
    # the ranks that level recorded; the random presentations have P^0
    # generators in several degrees, whose ranks are recorded modulo the
    # relations and read by level 1
    example2 = _example2(field, 8)
    rng = random.Random(47)
    small = make_tgb("xyz", ["y*z", "x*z - z*x"], D=5, field=field)
    cases = [(simple_module(sklyanin), 3), (simple_module(example2), 4),
             (_module_from_json(example2, MODULE), 4)]
    cases += [(random_presentation(small, rng), 2) for _ in range(12)]
    for relations, length in cases:
        res = minimal_resolution(relations, length=length)
        maps = [res.p0_map, *res.diffs]
        for i, level in enumerate(res.diffs):
            _same_map(level, ungated_kernel_min_generators(maps[i], None if i else relations),
                      (relations.entries, i + 1))
    # the P^m syzygies, on the degrees m, m + n, ..., D
    for label in ("remark", "commutative_model", "example2"):
        tgb = complete_to_degree(corpus[label], 9)
        for n in (2, 3):
            for m in range(n):
                onto = pm_onto(tgb, m)
                _same_map(kernel_min_generators(onto, step=n),
                          ungated_kernel_min_generators(onto, step=n), (label, n, m))


def test_gate_computes_kernels_only_where_generators_appear(monkeypatch, corpus_fast, fast_field):
    # a degree calls kernel_basis iff it emits a generator: dim K_d exceeds
    # the rank of the span of the generators below d exactly when a kernel
    # vector extends that span
    calls = []
    real = grmod.kernel_basis
    monkeypatch.setattr(grmod, "kernel_basis",
                        lambda fld, cols: calls.append(len(cols)) or real(fld, cols))
    tgb = complete_to_degree(corpus_fast["example1"].presentation, 8)
    assert tgb.anick_series is None
    f = ideal_map(tgb, RightIdealSpec.from_strings(tgb, ["y"]))
    gens = kernel_min_generators(f)
    assert str(classify_profile(gens.degree_counts(), 8)) == "STABLE(2)"
    assert len(calls) == len(set(gens.source.shifts)) == 1
    calls.clear()
    _same_map(ungated_kernel_min_generators(f), gens, "y")
    assert len(calls) == 8
    # a resolution level reads the ranks its predecessor recorded, so it
    # builds the predecessor's columns only at the degrees where it emits
    built = []
    columns = ModuleMap.component_columns
    monkeypatch.setattr(ModuleMap, "component_columns",
                        lambda self, d: built.append((self, d)) or columns(self, d))
    sklyanin = complete_to_degree(parse_algebra_file(_sklyanin_alg(-2, 2, -1), field=fast_field), 7)
    res = minimal_resolution(simple_module(sklyanin), length=2)
    for f in res.diffs:
        built.clear()
        calls.clear()
        nxt = kernel_min_generators(f)
        emitting = sorted(set(nxt.source.shifts))
        assert emitting
        assert [d for m, d in built if m is f] == emitting
        assert len(calls) == len(emitting)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
def test_recorded_ranks_are_eliminated_ranks(field):
    # min_generators with no modulo records, at each degree it visits, the
    # rank of the finished map's columns; a SpanSolver elimination of the
    # same columns must agree.  P^0, built modulo the relations, records none
    def eliminated(gens, d):
        span = SpanSolver(field)
        for col in gens.component_columns(d):
            span.add(col)
        return span.rank

    example2 = _example2(field, 7)
    sklyanin = complete_to_degree(parse_algebra_file(_sklyanin_alg(-2, 2, -1), field=field), 6)
    checked = []
    for relations in (simple_module(sklyanin), _module_from_json(example2, MODULE)):
        D = relations.tgb.D
        res = minimal_resolution(relations, length=3)
        assert res.p0_map.ranks == {}
        maps = [res.p0_map, *res.diffs]
        for i, level in enumerate(res.diffs):
            assert set(level.ranks) == set(range(min(maps[i].source.shifts), D + 1))
            checked.append(level)
    for ideal in enumerate_ideals(sklyanin, 2, 6):
        f = ideal_map(sklyanin, ideal)
        checked.append(kernel_min_generators(f))
        checked.append(min_generators(sklyanin, f.target, range(7),
                                      lambda d, have: f.component_columns(d)))
    checked.append(kernel_min_generators(pm_onto(example2, 1), step=2))
    for gens in checked:
        assert gens.ranks
        for d, r in gens.ranks.items():
            assert r == eliminated(gens, d), (d, gens.source.shifts)
    assert sum(any(gens.ranks.values()) for gens in checked) > len(checked) // 2


def test_resolution_simple_module_free(free2):
    res = minimal_resolution(simple_module(free2))
    assert res.tor[0] == [1] + [0] * 8
    assert res.tor[1] == [0, 2] + [0] * 7
    assert res.tor[2] == [0] * 9
    audit = audit_resolution(res)
    assert audit["minimal"] and audit["exact"] and audit["surjective"]


def test_resolution_free_module_trivial():
    res = minimal_resolution(presented(make_tgb("xy", [], D=6), (), (0,), {}))
    assert res.tor[0] == [1] + [0] * 6
    assert res.tor[1] == [0] * 7
    assert res.tor[2] == [0] * 7


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("shifts0,shifts1,cells,tor0", [
    # e0*x + e1 = 0 makes e1 redundant: M = A
    ((0, 1), (1,), {(0, 0): "x", (1, 0): "1"}, [1, 0, 0, 0, 0, 0, 0]),
    # the identity relation kills the generator: M = 0
    ((0,), (0,), {(0, 0): "1"}, [0] * 7),
], ids=["redundant generator", "identity relation"])
def test_resolution_non_minimal_presentation(field, shifts0, shifts1, cells, tor0):
    tgb = make_tgb("xy", [], D=6, field=field)
    entries = {kl: parse_poly(tgb.gt, field, t) for kl, t in cells.items()}
    res = minimal_resolution(presented(tgb, shifts1, shifts0, entries), length=3)
    assert res.tor == [tor0, [0] * 7, [0] * 7, [0] * 7]
    audit = audit_resolution(res)
    assert audit["minimal"] and audit["exact"] and audit["surjective"]
    assert all(euler_characteristic_check(res))


def random_presentation(tgb, rng):
    """Random shifts and entries, scalar entries included, so that generators
    and relations are often redundant."""
    fld = tgb.field
    shifts0 = sorted(rng.choice((0, 0, 1, 2)) for _ in range(rng.randint(1, 3)))
    shifts1 = sorted(rng.choice((0, 1, 1, 2, 3)) for _ in range(rng.randint(0, 4)))
    entries = {}
    for k, a in enumerate(shifts0):
        for l, b in enumerate(shifts1):
            if b >= a and rng.random() < 0.6:
                words = tgb.normal_words(b - a)
                picked = rng.sample(words, min(2, len(words)))
                terms = {w: fld.of_fraction(rng.choice((-2, -1, 1, 3)), 1) for w in picked}
                entries[(k, l)] = NcPoly(terms, b - a)
    return presented(tgb, shifts1, shifts0, entries)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
def test_tor0_of_random_presentations_against_oracle(field):
    # P^0 comes out of the syzygy loop's generator search modulo the
    # relations; the oracle reads Tor_0 off the scalar entries instead
    rng = random.Random(47)
    redundant = 0
    for names, rels in [("xy", ["x*y - y*x"]), ("xyz", ["y*z", "x*z - z*x"])]:
        tgb = make_tgb(names, rels, D=5, field=field)
        for _ in range(12):
            relations = random_presentation(tgb, rng)
            res = minimal_resolution(relations, length=1)
            assert res.tor[0] == tor0_oracle(relations), relations.entries
            audit = audit_resolution(res)
            assert audit["minimal"] and audit["exact"] and audit["surjective"]
            redundant += sum(res.tor[0]) < len(relations.target)
    assert redundant >= 5


def test_resolution_builds_one_map_per_level(monkeypatch):
    # each level's generator map is built once and grown degree by degree
    tgb = make_tgb("xy", ["x*y - y*x"], D=6)
    relations = presented(tgb, (1, 2), (0, 1), {
        (0, 0): parse_poly(tgb.gt, QQ, "x"), (1, 0): parse_poly(tgb.gt, QQ, "1"),
        (0, 1): parse_poly(tgb.gt, QQ, "y^2"), (1, 1): parse_poly(tgb.gt, QQ, "x")})
    built = []
    real = ModuleMap.__init__

    def counted(self, *args):
        built.append(self)
        real(self, *args)

    monkeypatch.setattr(ModuleMap, "__init__", counted)
    for length in (0, 1, 3):
        built.clear()
        res = minimal_resolution(relations, length=length)
        assert len(res.diffs) == length
        assert built == [res.p0_map, *res.diffs]
    # e1 = -e0*x, so M = A/(y^2 - x^2)A: one relation of degree 2, no syzygy
    assert res.tor == [[1] + [0] * 6, [0, 0, 1] + [0] * 4, [0] * 7, [0] * 7]


def test_tor_simple_module_xy_zero_matches_bar_oracle():
    tgb = make_tgb("xy", ["x*y"], D=6)
    tor = minimal_resolution(simple_module(tgb)).tor
    bar = bar_tor_trivial_module(tgb, 6)
    assert tor[0][0] == 1
    assert tor[1] == bar[1]
    assert tor[2] == bar[2]


def test_tor_simple_module_bar_oracle_more_algebras():
    for names, rels in [("xy", ["x*y - y*x"]), ("xyz", ["x*y", "y*z", "x*z - z*x"])]:
        tgb = make_tgb(names, rels, D=5)
        tor = minimal_resolution(simple_module(tgb)).tor
        bar = bar_tor_trivial_module(tgb, 5)
        assert tor[1] == bar[1], names
        assert tor[2] == bar[2], names


def test_euler_characteristic():
    for rels in ([], ["x*y"]):
        res = minimal_resolution(simple_module(make_tgb("xy", rels, D=6)))
        assert all(euler_characteristic_check(res))


def test_exactness_audit_catches_tampering():
    tgb = make_tgb("xy", ["x*y"], D=6)
    res = minimal_resolution(simple_module(tgb))
    # drop the second differential: exactness at P^1 must fail
    res.diffs[1] = ModuleMap(tgb, FreeModule(()), res.diffs[0].source, {})
    audit = audit_resolution(res)
    assert not audit["exact"]


def drop_last_generator(res, i):
    """Corrupt res: remove the last generator of P^i from the chain."""
    into = res.diffs[i - 1]
    tgb = into.tgb
    kept = FreeModule(into.source.shifts[:-1])
    last = len(kept)
    res.diffs[i - 1] = ModuleMap(tgb, kept, into.target,
                                 {kl: p for kl, p in into.entries.items() if kl[1] != last})
    if i < len(res.diffs):
        out = res.diffs[i]
        res.diffs[i] = ModuleMap(tgb, out.source, kept,
                                 {kl: p for kl, p in out.entries.items() if kl[0] != last})


def not_exact_at_p0(ranks):
    """Details of an exactness failure at P^0: (degree, rank d1, kernel dim)."""
    return [f"image(d1) != ker(P0->M) at degree {d}: {r} vs {k}" for d, r, k in ranks]


def not_exact_at_p1(ranks):
    """Details of an exactness failure at P^1: (degree, rank d2, kernel dim)."""
    return [f"image(d2) != ker(d1) at degree {d}: {r} vs {k}" for d, r, k in ranks]


ZERO_P0 = {"minimal": True, "exact": False, "surjective": False,
           "detail": ["P0 -> M not onto at degree 0"] + not_exact_at_p0([(0, 0, 1)])}

# findings on corrupted resolutions of k at D = 7, pinned from an audit that
# computed ker(P0 -> M) and ker(di) as kernel bases instead of rank identities
AUDIT_CONTROLS = {
    ("xy", ("x*y - y*x",)): {
        "drop P1": not_exact_at_p0([(d, d, d + 1) for d in range(1, 8)]),
        "drop P2": not_exact_at_p1([(d, 0, d - 1) for d in range(2, 8)]),
    },
    ("xyz", ("x*y", "y*z", "x*z - z*x")): {
        "drop P1": not_exact_at_p0([(1, 2, 3), (2, 5, 6), (3, 9, 10), (4, 14, 15),
                             (5, 20, 21), (6, 27, 28), (7, 35, 36)]),
        "drop P2": not_exact_at_p1([(2, 2, 3), (3, 6, 8), (4, 12, 15), (5, 20, 24),
                             (6, 30, 35), (7, 42, 48)]),
    },
    ("xy", ("x*y",)): {
        "drop P1": not_exact_at_p0([(d, d, d + 1) for d in range(1, 8)]),
        "drop P2": not_exact_at_p1([(d, 0, d - 1) for d in range(2, 8)]),
    },
}


@pytest.mark.parametrize("algebra", list(AUDIT_CONTROLS),
                         ids=["commutative", "example1", "xy_zero"])
@pytest.mark.parametrize("control", ["drop P1", "zero p0", "drop P2"])
def test_audit_negative_controls(algebra, control):
    names, rels = algebra
    tgb = make_tgb(names, rels, D=7)
    length = {"drop P1": 1, "zero p0": 2, "drop P2": 3}[control]
    res = minimal_resolution(simple_module(tgb), length=length)
    if control == "zero p0":
        res.p0_map = ModuleMap(tgb, res.p0_map.source, res.relations.target, {})
        want = ZERO_P0
    else:
        drop_last_generator(res, int(control[-1]))
        want = {"minimal": True, "exact": False, "surjective": True,
                "detail": AUDIT_CONTROLS[algebra][control]}
    assert audit_resolution(res) == want


def set_entry(res, i, kl, poly):
    """Corrupt res: replace entry kl of d(i) by poly."""
    dmap = res.diffs[i - 1]
    res.diffs[i - 1] = ModuleMap(dmap.tgb, dmap.source, dmap.target, {**dmap.entries, kl: poly})


def test_audit_flags_chains_that_are_not_complexes():
    # corruptions that keep every rank identity: only the composites show them
    tgb = make_tgb("xy", ["x*y - y*x"], D=7)
    res = minimal_resolution(simple_module(tgb), length=3)
    assert audit_resolution(res)["detail"] == []
    set_entry(res, 2, (0, 0), poly_scale(QQ, QQ.of_fraction(-1, 1), res.diffs[1].entries[(0, 0)]))
    assert audit_resolution(res) == {
        "minimal": True, "exact": False, "surjective": True,
        "detail": ["d1*d2 != 0 at degree 2"],
    }
    # M = A/(x): d1 = x, replaced by y, which P0 -> M does not kill
    pres = presented(tgb, (1,), (0,), {(0, 0): parse_poly(tgb.gt, QQ, "x")})
    res = minimal_resolution(pres, length=2)
    assert audit_resolution(res)["detail"] == []
    set_entry(res, 1, (0, 0), parse_poly(tgb.gt, QQ, "y"))
    assert audit_resolution(res) == {
        "minimal": True, "exact": False, "surjective": True,
        "detail": ["P0 -> M is nonzero on image(d1) at degree 1"],
    }


def test_minimality_no_scalar_entries():
    for rels in ([], ["x*y"]):
        res = minimal_resolution(simple_module(make_tgb("xy", rels, D=7)))
        for dmap in res.diffs:
            for poly in dmap.entries.values():
                assert poly.degree >= 1


def test_free_dim():
    tgb = make_tgb("xy", [])
    fm = FreeModule((0, 1))
    assert free_dim(tgb, fm, 2) == 4 + 2


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
@pytest.mark.parametrize("cells", [
    # a non-monomial entry, a second target block and coefficients other than 1
    {(0, 0): "x^2 + 3*y*x", (1, 0): "2*x - y", (1, 1): "-3*x*y + y^2", (0, 2): "1/2*x"},
    # one unit monomial into the first block: the columns are the table rows
    {(0, 0): "y*x"},
], ids=["mixed", "unit"])
def test_component_columns_against_normal_forms(field, cells):
    # Jordan plane: normal forms of products carry coefficients other than 1
    tgb = make_tgb("xy", ["y*x - x*y - x^2"], D=7, field=field)
    src = (2, 3, 1) if len(cells) > 1 else (2,)
    tgt = (0, 1)
    f = presented(tgb, src, tgt, {k: parse_poly(tgb.gt, field, v) for k, v in cells.items()})
    for d in range(tgb.D + 1):
        # each column divided by its multiplier is the reference column, and
        # it is stored as its least integer multiple
        want = reference_columns(f, d)
        cols = f.component_columns(d)
        assert [field_values(field, col) for col in cols] == want
        assert cols == [column_of(field, vec) for vec in want]


# the module of non-integral cells that CI resolves over example2
MOD_FRAC = {"shifts0": [0, 1, 1], "shifts1": [1, 2, 2],
            "matrix": [["x", "1/2*y*y", "0"], ["2/3", "z", "x"], ["0", "0", "3/4*y"]]}


def tor_relations(name, field, D):
    """The relations that `tor --length 3 -D D` resolves in each case of
    test_resolution_columns_are_their_reference_columns."""
    if name == "example2-mod-frac":
        text = (ALGEBRAS / "example2.alg").read_text(encoding="utf-8")
        tgb = complete_to_degree(parse_algebra_file(text, field=field), D)
        return _module_from_json(tgb, MOD_FRAC)
    text = WEIGHTED_FRAC if name == "weighted_frac" else _sklyanin_alg(-2, 2, -1)
    tgb = complete_to_degree(parse_algebra_file(text, field=field), D)
    letters = [NcPoly.monomial(tgb.gt, field, (i,)) for i in range(len(tgb.gt.names))]
    return ideal_map(tgb, RightIdealSpec(letters))


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
@pytest.mark.parametrize("name", ["sklyanin(-2,2,-1)", "weighted_frac", "example2-mod-frac"])
def test_resolution_columns_are_their_reference_columns(name, field):
    # every column R with multiplier m of every map of a `tor --length 3
    # -D 6` resolution is m times the reference column, for the least such
    # m: Sklyanin (rows by _reduce_terms), weighted_frac (non-unit integer
    # leads) and example2 with CI's module of non-integral cells.  Over F_p
    # every m is 1; over Q some are not
    D = 6
    relations = tor_relations(name, field, D)
    res = minimal_resolution(relations, length=3)
    scaled = 0
    for f in [relations, res.p0_map, *res.diffs]:
        for d in range(D + 1):
            for col, ref in zip(f.component_columns(d), reference_columns(f, d), strict=True):
                m = multiplier(col)
                assert m == field.integral(ref)[0]
                assert dict(col) == reference_scale(field, m, ref)
                scaled += m > 1
    assert (scaled > 0) == (field == QQ)


def test_audit_flags_a_corrupted_entry_between_scaled_columns():
    # over Q the complex check combines columns R_j / m_j with multipliers
    # above 1: the Sklyanin resolution of k audits clean, and scaling one
    # entry of d3 by 2 keeps every rank identity but not d2 * d3 = 0
    relations = tor_relations("sklyanin(-2,2,-1)", QQ, 6)
    res = minimal_resolution(relations, length=3)
    assert audit_resolution(res)["detail"] == []
    assert sum(multiplier(col) > 1 for col in res.diffs[1].component_columns(3)) > 1
    entry = res.diffs[2].entries[(1, 0)]
    set_entry(res, 3, (1, 0), poly_scale(QQ, QQ.of_fraction(2, 1), entry))
    assert audit_resolution(res) == {
        "minimal": True, "exact": False, "surjective": True,
        "detail": ["d2*d3 != 0 at degree 3"],
    }
