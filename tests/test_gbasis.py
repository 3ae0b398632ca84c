import gc
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import cohprobe.gbasis as gbasis
from cohprobe.algfile import parse_algebra_file
from cohprobe.coherence import RightIdealSpec, builtin_corpus, probe_algebra, probe_ideal
from cohprobe.errors import DegreeBoundExceeded, NonHomogeneousRelation, ZeroDegreeGenerator
from cohprobe.freealg import (
    GeneratorTable,
    NcPoly,
    enumerate_words,
    leading_word,
    parse_poly,
    poly_str,
    word_key,
)
from cohprobe.gbasis import (
    AlgebraPresentation,
    complete_to_degree,
    component_dim_bruteforce,
    hilbert_dims,
    normal_word_counts,
    opposite,
    validate_presentation,
)
from cohprobe.grmod import FreeModule, ModuleMap, minimal_resolution
from cohprobe.linalg import QQ, PrimeField, field_values
from cohprobe.veronese import degree_one_generated, veronese_presentation
from oracles import (
    bar_tor_trivial_module,
    column_of,
    ideal_syzygy_profile_oracle,
    overlap_failures,
    poly_in_ideal_bruteforce,
    reference_normal_form,
)
from test_report_digests import FLAG_FP, FLAG_Q, FLAG_WEIGHTED, WEIGHTED_FRAC, _sklyanin_alg

ALGEBRAS = Path(__file__).resolve().parent.parent / "algebras"


def make(names, rels, label="a", field=QQ, weights=None):
    gt = GeneratorTable(list(names), weights)
    return AlgebraPresentation(field, gt, [parse_poly(gt, field, r) for r in rels], label=label)


def test_validate_ok():
    validate_presentation(make("xy", ["x*y"]))


def test_validate_inhomogeneous():
    gt = GeneratorTable(["x", "y"])
    bad = NcPoly({(0,): QQ.one(), (0, 1): QQ.one()}, 1)
    with pytest.raises(NonHomogeneousRelation):
        validate_presentation(AlgebraPresentation(QQ, gt, [bad]))


def test_validate_degree_one_relation():
    with pytest.raises(NonHomogeneousRelation):
        validate_presentation(make("xy", ["x - y"]))


def test_validate_zero_weight():
    with pytest.raises(ZeroDegreeGenerator):
        make("xy", [], weights=[1, 0])


def test_monomial_no_overlap_tgb():
    p = make("xy", ["x*y"])
    tgb = complete_to_degree(p, 8)
    assert tgb.element_strings() == ["x*y"]


def test_free_algebra_empty_tgb():
    tgb = complete_to_degree(make("xy", []), 8)
    assert tgb.elements == []
    assert hilbert_dims(tgb, 8) == [2 ** d for d in range(9)]


def test_example2_completion_log():
    p = make("xyz", ["y*z", "x*z - z*x"], label="example2")
    tgb = complete_to_degree(p, 8)
    assert len(tgb.elements) == 2  # no ambiguities resolve to anything new
    op = complete_to_degree(opposite(p), 8)
    # the opposite completion discovers the z x^n y family
    assert len(op.elements) > 2
    assert any(deg > 2 for deg, _ in op.log.added)


def test_normal_form_examples():
    p = make("xy", ["x*y"])
    tgb = complete_to_degree(p, 8)
    q = parse_poly(tgb.gt, QQ, "x*y + y*x")
    assert poly_str(tgb.gt, QQ, tgb.normal_form(q)) == "y*x"
    for g in tgb.elements:
        assert tgb.normal_form(g).is_zero()


def test_normal_form_example1_xzy():
    p = make("xyz", ["x*y", "y*z", "x*z - z*x"], label="example1")
    tgb = complete_to_degree(p, 8)
    q = parse_poly(tgb.gt, QQ, "x*z*y")
    nf = tgb.normal_form(q)
    assert nf.is_zero()
    # membership confirmed by the span oracle
    assert poly_in_ideal_bruteforce(p, q)


def test_normal_form_idempotent_linear_random():
    p = make("xyz", ["x*y", "y*z", "x*z - z*x"])
    tgb = complete_to_degree(p, 6)
    rng = random.Random(23)
    pool = enumerate_words(tgb.gt, 4)
    for _ in range(30):
        items = [(w, QQ.of_fraction(rng.randrange(-2, 3), 1)) for w in rng.sample(pool, 4)]
        q = NcPoly.build(tgb.gt, QQ, items)
        nf = tgb.normal_form(q)
        assert tgb.normal_form(nf) == nf


def test_ideal_membership_random_products():
    p = make("xyz", ["x*y", "y*z", "x*z - z*x"])
    tgb = complete_to_degree(p, 7)
    rng = random.Random(29)
    words = enumerate_words(tgb.gt, 2)
    for r in p.relations:
        for _ in range(10):
            u = rng.choice(words)
            v = rng.choice(words)
            prod = NcPoly.build(
                tgb.gt, QQ, [((u + w + v), c) for w, c in r.terms.items()]
            )
            assert tgb.normal_form(prod).is_zero()


def test_hilbert_xy_zero():
    tgb = complete_to_degree(make("xy", ["x*y"]), 8)
    assert hilbert_dims(tgb, 8) == list(range(1, 10))


def test_hilbert_commutative_model():
    tgb = complete_to_degree(make("xy", ["x*y - y*x"]), 8)
    assert hilbert_dims(tgb, 8) == list(range(1, 10))


def test_bruteforce_free():
    assert component_dim_bruteforce(make("xy", []), 5) == 32


def test_bruteforce_xy_zero_d3():
    assert component_dim_bruteforce(make("xy", ["x*y"]), 3) == 4


def test_bruteforce_example1_d2():
    p = make("xyz", ["x*y", "y*z", "x*z - z*x"])
    assert component_dim_bruteforce(p, 2) == 6


def test_hilbert_agrees_with_oracle_all_corpus(corpus_fast, tgb_fast):
    for label in corpus_fast:
        tgb = tgb_fast(label)
        dims = hilbert_dims(tgb, 6)
        oracle = [component_dim_bruteforce(corpus_fast[label].presentation, d) for d in range(7)]
        assert dims == oracle, label


def test_automaton_counts_match_enumeration(corpus_fast, tgb_fast):
    for label in corpus_fast:
        tgb = tgb_fast(label)
        assert normal_word_counts(tgb) == hilbert_dims(tgb, 10), label


def test_opposite_involutive():
    p = make("xyz", ["y*z", "x*z - z*x"])
    q = opposite(opposite(p))
    assert [r.terms for r in q.relations] == [r.terms for r in p.relations]


def test_opposite_words_reversed():
    p = make("xy", ["x*y"])
    assert [poly_str(p.gens, QQ, r) for r in opposite(p).relations] == ["y*x"]
    p2 = make("xyz", ["x*z - z*x"])
    assert sorted(opposite(p2).relations[0].terms) == sorted(p2.relations[0].terms)


def test_completion_deterministic():
    p = make("xyz", ["y*z", "x*z - z*x"])
    t1 = complete_to_degree(opposite(p), 9)
    t2 = complete_to_degree(opposite(p), 9)
    assert t1.elements == t2.elements
    assert t1.element_strings() == t2.element_strings()


def test_degree_bound_guard():
    tgb = complete_to_degree(make("xy", ["x*y"]), 4)
    with pytest.raises(DegreeBoundExceeded):
        tgb.normal_words(5)
    with pytest.raises(DegreeBoundExceeded):
        tgb.normal_form(NcPoly.monomial(tgb.gt, QQ, (0,) * 5))


def test_weighted_generators_hilbert():
    # x of weight 1, z of weight 2, relation xz = zx: commutative, dims
    # match partitions into one unit part and one double part count
    p = make("xz", ["x*z - z*x"], weights=[1, 2])
    tgb = complete_to_degree(p, 8)
    dims = hilbert_dims(tgb, 8)
    assert dims == [1, 1, 2, 2, 3, 3, 4, 4, 5]  # x^a z^b with a + 2b = d
    oracle = [component_dim_bruteforce(p, d) for d in range(9)]
    assert dims == oracle


def test_nonmonomial_completion_stress():
    # x^2 = yx forces a genuine completion round (the overlap xxx yields
    # xyx - y^2x and so on); both dimension paths must agree throughout
    p = make("xy", ["x^2 - y*x"])
    tgb = complete_to_degree(p, 8)
    assert len(tgb.elements) > 1  # completion added elements
    dims = hilbert_dims(tgb, 8)
    oracle = [component_dim_bruteforce(p, d) for d in range(9)]
    assert dims == oracle
    # and the result is field independent at this size
    from cohprobe.linalg import PrimeField

    p_fast = make("xy", ["x^2 - y*x"], field=PrimeField(32003))
    assert hilbert_dims(complete_to_degree(p_fast, 8), 8) == dims


def test_single_letter_lead():
    # weight-2 generator rewritten to x^2: the algebra collapses to k[x]
    p = make("xz", ["z - x^2"], weights=[1, 2])
    tgb = complete_to_degree(p, 8)
    assert hilbert_dims(tgb, 8) == [1] * 9
    assert [component_dim_bruteforce(p, d) for d in range(9)] == [1] * 9


def test_normal_form_membership_dual_route():
    # q - nf(q) lies in the ideal (span oracle) and nf(q) is supported on
    # normal words; exercised on an algebra whose completion is nontrivial
    p = make("xy", ["x^2 - y*x"])
    tgb = complete_to_degree(p, 6)
    rng = random.Random(37)
    for d in (3, 4, 5):
        pool = enumerate_words(p.gens, d)
        for _ in range(6):
            items = [(w, QQ.of_fraction(rng.randrange(-2, 3), 1)) for w in rng.sample(pool, 3)]
            q = NcPoly.build(p.gens, QQ, items)
            nf = tgb.normal_form(q)
            assert all(w in tgb.normal_index(p.gens.word_degree(w)) for w in nf.terms)
            diff = NcPoly.build(
                p.gens,
                QQ,
                list(q.terms.items())
                + [(w, QQ.neg(c)) for w, c in nf.terms.items()],
            )
            assert poly_in_ideal_bruteforce(p, diff)


def test_order_changes_leads_not_dims():
    gt_xy = GeneratorTable(["x", "y"])
    gt_yx = GeneratorTable(["x", "y"], precedence=["y", "x"])
    rel = "x*y - y*x"
    p1 = AlgebraPresentation(QQ, gt_xy, [parse_poly(gt_xy, QQ, rel)])
    p2 = AlgebraPresentation(QQ, gt_yx, [parse_poly(gt_yx, QQ, rel)])
    t1 = complete_to_degree(p1, 6)
    t2 = complete_to_degree(p2, 6)
    assert hilbert_dims(t1, 6) == hilbert_dims(t2, 6)
    assert t1.normal_words(2) != t2.normal_words(2)  # different normal bases


@pytest.mark.parametrize("name", sorted(p.name for p in ALGEBRAS.glob("*.alg")) + ["weighted"])
def test_added_degrees_nondecreasing(name):
    # the completion heap is keyed by degree first and every S-polynomial is
    # at least as heavy as its parents, so elements land in degree order
    if name == "weighted":
        p = make("xz", ["x*z - z*x", "x^2*z - z^2"], weights=[1, 2])
    else:
        p = parse_algebra_file((ALGEBRAS / name).read_text(encoding="utf-8"))
    tgb = complete_to_degree(p, 8)
    degrees = [deg for deg, _ in tgb.log.added]
    assert degrees == sorted(degrees)
    assert len(degrees) == len(tgb.elements)


@pytest.mark.parametrize("name", sorted(p.name for p in ALGEBRAS.glob("*.alg")))
def test_truncated_basis_is_the_completion_at_the_lower_bound(name):
    # the reduced truncated basis is unique, so cutting the basis at D down
    # to d gives the completion at d; checked on the algebra and, when it
    # is generated in degree 1, on its discovered Veronese presentation
    p = parse_algebra_file((ALGEBRAS / name).read_text(encoding="utf-8"), field=PrimeField(32003))
    tgb = complete_to_degree(p, 8)
    presentations = [p]
    if degree_one_generated(tgb):
        presentations.append(veronese_presentation(tgb, 2).presentation)
    for q in presentations:
        full = complete_to_degree(q, 8)
        for d in range(2, 8):
            assert full.truncated(d) == complete_to_degree(q, d), (q.label, d)
    with pytest.raises(DegreeBoundExceeded):
        tgb.truncated(9)


@st.composite
def presentations_and_polys(draw):
    field = draw(st.sampled_from([QQ, PrimeField(32003)]))
    gt = GeneratorTable(["x", "y", "z"][: draw(st.integers(2, 3))])

    def poly(degrees, max_terms):
        words = enumerate_words(gt, draw(degrees))
        items = draw(st.lists(
            st.tuples(st.sampled_from(words), st.integers(-3, 3)), min_size=1, max_size=max_terms,
        ))
        return NcPoly.build(gt, field, [(w, field.of_fraction(c, 1)) for w, c in items])

    relations = [poly(st.integers(2, 3), 4) for _ in range(draw(st.integers(1, 3)))]
    assume(all(not r.is_zero() for r in relations))
    polys = [poly(st.integers(1, 5), 6) for _ in range(4)]
    return AlgebraPresentation(field, gt, relations), polys


@settings(deadline=None)
@given(presentations_and_polys())
def test_random_presentations_against_references(case):
    p, polys = case
    tgb = complete_to_degree(p, 5)
    for q in polys:
        assert tgb.normal_form(q).terms == reference_normal_form(tgb, q.terms)
    dims = hilbert_dims(tgb, 5)
    assert dims == [component_dim_bruteforce(p, d) for d in range(6)]
    # reversing words is an anti-isomorphism A -> A^op: an involution on
    # presentations, and completion of A^op finds the dimensions of A
    assert [r.terms for r in opposite(opposite(p)).relations] == [r.terms for r in p.relations]
    assert hilbert_dims(complete_to_degree(opposite(p), 5), 5) == dims
    # relations have degree >= 2, so the letter x is never zero in A
    ideal = RightIdealSpec.from_strings(tgb, ["x"])
    assert probe_ideal(tgb, ideal).profile == ideal_syzygy_profile_oracle(tgb, ideal.gens, 5)
    k = ModuleMap(
        tgb, FreeModule(tuple(p.gens.weights)), FreeModule((0,)),
        {(0, i): NcPoly.monomial(p.gens, p.field, (i,)) for i in range(len(p.gens))},
    )
    tor = minimal_resolution(k, length=3).tor
    assert tor[:3] == bar_tor_trivial_module(tgb, 5)
    # where Anick's criterion holds, the probe above took its rank route, and
    # Tor_1(k, k) = L, Tor_2(k, k) = R and Tor_3(k, k) = 0 through the bound
    c = tgb.anick_series
    if c is not None:
        assert tor[1] == [0, len(p.gens), 0, 0, 0, 0]
        assert tor[2] == [c[d] + tor[1][d] - (d == 0) for d in range(6)]
        assert not any(tor[3])
    # product tables: row i of products(e, w) is NF(w * u) for u the i-th
    # normal word of degree e, indexed by normal words, as an integer vector
    # with its least multiplier; the stored row of u * w, which a table of u
    # lists when w is normal, is NF(u * w)
    for w in sorted({w for q in polys for w in q.terms}):
        dw = p.gens.word_degree(w)
        for e in range(6 - dw):
            idx = tgb.normal_index(e + dw)
            rows = tgb.products(e, w)
            assert len(rows) == tgb.dim(e)
            for u, row in zip(tgb.normal_words(e), rows):
                for word, got in ((w + u, row), (u + w, tgb.normal_form_row(u + w))):
                    want = reference_normal_form(tgb, {word: p.field.one()})
                    assert got == column_of(p.field, {idx[t]: c for t, c in want.items()})


def test_one_normal_form_row_per_word(corpus_fast, monkeypatch):
    # every row is built once, at one seam: on example2's binomial basis the
    # one-term chase runs once per dead letter extension v * x and for no
    # product word beyond those; on Sklyanin's three-term basis every row
    # comes from _reduce_terms
    seen, reduced = [], []
    real_row, real_reduce = gbasis.TruncatedGroebnerBasis._new_row, gbasis._reduce_terms

    def counted_row(self, word, *hints):
        seen.append(word)
        return real_row(self, word, *hints)

    def counted_reduce(terms, index):
        reduced.append(tuple(terms))
        return real_reduce(terms, index)

    monkeypatch.setattr(gbasis.TruncatedGroebnerBasis, "_new_row", counted_row)
    monkeypatch.setattr(gbasis, "_reduce_terms", counted_reduce)
    cases = (
        (corpus_fast["example2"].presentation, True),
        (parse_algebra_file(_sklyanin_alg(-2, 2, -1)), False),
    )
    for p, chased in cases:
        tgb = complete_to_degree(p, 6)
        assert tgb.binomial is chased, p.label
        seen.clear()
        reduced.clear()
        named = [w for d in range(1, 4) for w in tgb.normal_words(d)]
        tables = {(e, w): tgb.products(e, w) for w in named for e in range(7 - len(w))}
        built = list(seen)
        if chased:
            # the chase ran for each w's degree-0 table and once for each
            # dead letter extension v * x, and for no other product word
            dead = [
                v + (a,)
                for (d, a) in tgb._letters
                for v in tgb.normal_words(d)
                if tgb._index.find(v + (a,)) is not None
            ]
            assert dead and sorted(built) == sorted(named + dead), p.label
            assert reduced == [], p.label
        else:
            # every product word is reduced once, by _reduce_terms
            assert not tgb._letters
            assert built and len(built) == len(set(built))
            assert reduced == [(w,) for w in built], p.label
        # every product row is the stored row of its product word, so NF(x*y*x)
        # reads the same as x * (y*x) and as (x*y) * x
        for (e, w), rows in tables.items():
            for u, got in zip(tgb.normal_words(e), rows):
                assert got == tgb.normal_form_row(w + u), (p.label, w, u)
        x, y = (0,), (1,)
        row = tgb.normal_form_row(x + y + x)
        assert tgb.products(2, x)[tgb.normal_index(2)[y + x]] == row
        assert tgb.products(1, x + y)[tgb.normal_index(1)[x]] == row
        # normal_form_word is the field values of a row, keyed by normal words
        for d in range(7):
            words = tgb.normal_words(d)
            for w in enumerate_words(tgb.gt, d):
                row = field_values(tgb.field, tgb.normal_form_row(w))
                assert tgb.normal_form_word(w) == {words[t]: c for t, c in row.items()}


@pytest.mark.parametrize("name", ["example2", "weighted_frac", "sklyanin(-2,2,-1)"])
def test_product_rows_are_the_reference_rewriting(name):
    # every row of every table through D=6, for every w through degree 5,
    # normal or not, is the reference rewriting's.  Each w gets a basis with
    # no stored rows or tables, so its tables are built for w alone: walks
    # over new letter tables on the binomial bases, the split w * u on
    # Sklyanin.
    # example2 (binomial),
    # weighted_frac (a weight-2 letter, non-unit integer leads) and
    # Sklyanin (three-term elements, rows by _reduce_terms)
    text = {
        "example2": (ALGEBRAS / "example2.alg").read_text(encoding="utf-8"),
        "weighted_frac": WEIGHTED_FRAC,
        "sklyanin(-2,2,-1)": _sklyanin_alg(-2, 2, -1),
    }[name]
    D = 6
    tgb = complete_to_degree(parse_algebra_file(text), D)
    assert tgb.binomial is (name != "sklyanin(-2,2,-1)")
    gt, one = tgb.gt, tgb.field.one()
    if tgb.binomial:
        # the chase of x*x*z rewrites x*z at 1 and then meets x*z at 0, left
        # of the rewrite: every search starts from 0
        x, z = gt.index("x"), gt.index("z")
        assert tgb._index.find((x, x, z))[:2] == (1, 3)
        assert tgb._index.find((x, z, x))[:2] == (0, 2)
    wanted = {}
    normal_seen = non_normal_seen = 0
    for dw in range(6):
        for w in enumerate_words(gt, dw):
            if tgb._index.find(w) is None:
                normal_seen += 1
            else:
                non_normal_seen += 1
            fresh = tgb.truncated(D)
            for e in range(D - dw + 1):
                idx = fresh.normal_index(e + dw)
                for u, row in zip(fresh.normal_words(e), fresh.products(e, w)):
                    if w + u not in wanted:
                        want = reference_normal_form(tgb, {w + u: one})
                        wanted[w + u] = column_of(tgb.field, {idx[t]: c for t, c in want.items()})
                    assert row == wanted[w + u], (name, w, u)
    assert normal_seen and non_normal_seen


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
@pytest.mark.parametrize("name", ["example2", "weighted_frac", "commutative", "remark", "free2"])
def test_letter_tables_are_the_reference_rewriting(name, field):
    # row i of the letter table of (d, x) is NF(v_i * x) for v_i the i-th
    # normal word of degree d, for every d + w_x <= 7: on example2,
    # weighted_frac (a weight-2 letter, non-unit integer leads), commutative,
    # remark (a relation family) and free2 (no relations)
    text = WEIGHTED_FRAC if name == "weighted_frac" else (ALGEBRAS / f"{name}.alg").read_text(
        encoding="utf-8")
    D = 7
    tgb = complete_to_degree(parse_algebra_file(text, field=field), D)
    assert tgb.binomial
    one = field.one()
    for x, wx in enumerate(tgb.gt.weights):
        for d in range(D - wx + 1):
            idx = tgb.normal_index(d + wx)
            table = tgb._letter_table(d, x)
            assert len(table) == tgb.dim(d)
            for v, row in zip(tgb.normal_words(d), table):
                want = reference_normal_form(tgb, {v + (x,): one})
                assert row == column_of(field, {idx[t]: c for t, c in want.items()}), (name, v, x)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
def test_zero_rows_are_one_shared_dict(field):
    # a word whose normal form is 0 gets no dict of its own: after the
    # example2 right probe at D=10, every empty row in the letter tables, the
    # product tables and the row memo is the same object
    text = (ALGEBRAS / "example2.alg").read_text(encoding="utf-8")
    tgb = complete_to_degree(parse_algebra_file(text, field=field), 10)
    probe_algebra(tgb, side="right")
    empty = [row for table in tgb._letters.values() for row in table if not row]
    empty += [row for table in tgb._products.values() for row in table if not row]
    empty += [row for row in tgb._rows.values() if not row]
    assert len(empty) > 1000
    assert all(row is empty[0] for row in empty)


def test_free_algebra_tables_rewrite_nothing(corpus_fast, monkeypatch):
    # with no relations every letter extension is normal, so building every
    # letter table and every product table of degree >= 1 through D=8
    # rewrites no word: the chase runs only for the degree-0 rows
    chased = []
    real_row = gbasis.TruncatedGroebnerBasis._new_row

    def counted_row(self, word, *hints):
        chased.append(word)
        return real_row(self, word, *hints)

    monkeypatch.setattr(gbasis.TruncatedGroebnerBasis, "_new_row", counted_row)
    D = 8
    tgb = complete_to_degree(corpus_fast["free2"].presentation, D)
    for x, wx in enumerate(tgb.gt.weights):
        for d in range(D - wx + 1):
            tgb._letter_table(d, x)
    assert chased == []
    named = [w for d in range(1, 4) for w in tgb.normal_words(d)]
    for w in named:
        for e in range(1, D - len(w) + 1):
            idx = tgb.normal_index(e + len(w))
            assert tgb.products(e, w) == [{idx[w + u]: 1} for u in tgb.normal_words(e)]
    assert chased == named


def test_normal_words_come_out_in_order():
    # the depth-first walk follows prec_value, not the letter index: here z
    # is the greatest letter and y (weight 2) the least
    gt = GeneratorTable(["x", "y", "z"], weights=[1, 2, 1], precedence=["z", "x", "y"])
    p = AlgebraPresentation(QQ, gt, [parse_poly(gt, QQ, r) for r in ("z*x - x*z", "y*z - x*x*z")])
    D = 8
    tgb = complete_to_degree(p, D)
    leads = [leading_word(gt, g) for g in tgb.elements]

    def normal(w):
        return not any(w[i:i + len(lw)] == lw for lw in leads for i in range(len(w)))

    counts = normal_word_counts(tgb)
    for d in range(D + 1):
        words = tgb.normal_words(d)
        assert words == sorted(words, key=lambda w: word_key(gt, w)), d
        free = enumerate_words(gt, d)
        assert all(word_key(gt, a) < word_key(gt, b) for a, b in zip(free, free[1:])), d
        assert words == [w for w in enumerate_words(gt, d) if normal(w)], d
        assert len(words) == counts[d], d
    # the letter index order would give another order
    assert sorted(tgb.normal_words(3)) != tgb.normal_words(3)


def test_word_walkers_leave_no_reference_cycles():
    # a walker recursing through a closure over itself makes a cycle per
    # call, which keeps its word list (and the lead trie) alive until the
    # cyclic collector runs
    p = parse_algebra_file((ALGEBRAS / "example2.alg").read_text(encoding="utf-8"))
    tgb = complete_to_degree(p, 6)
    gc.collect()
    gc.disable()
    try:
        assert len(enumerate_words(p.gens, 4)) == 81
        assert gc.collect() == 0
        assert len(tgb.normal_words(5)) == 2 ** 6 - 1
        assert gc.collect() == 0
    finally:
        gc.enable()


# algebras whose completion at D=8 overlap_failures certifies: the `gb` digest
# pins with a weight-2 letter or a skipped overlap that reduces to nonzero,
# and three Sklyanin algebras
CERTIFIED = {
    "weighted_frac": WEIGHTED_FRAC,
    "flag_q": FLAG_Q,
    "flag_weighted": FLAG_WEIGHTED,
    "flag_fp": FLAG_FP,
    **{"sklyanin({},{},{})".format(*abc): _sklyanin_alg(*abc)
       for abc in ((-2, 2, -1), (1, -2, 2), (2, -1, 1))},
}


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
def test_corpus_completions_resolve_every_overlap(field):
    for entry in builtin_corpus(field):
        for p in (entry.presentation, opposite(entry.presentation)):
            assert overlap_failures(complete_to_degree(p, 8)) == [], p.label


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_completions_resolve_every_overlap(name):
    assert overlap_failures(complete_to_degree(parse_algebra_file(CERTIFIED[name]), 8)) == []


def test_overlap_failures_sees_a_missing_element():
    # negative control: without any one element that an overlap landed, that
    # overlap no longer resolves
    p = opposite(make("xyz", ["y*z", "x*z - z*x"], label="example2"))
    tgb = complete_to_degree(p, 6)
    landed = [g for g in tgb.elements if g.degree > 2]
    assert landed
    for g in landed:
        rest = [h for h in tgb.elements if h is not g]
        cut = gbasis.TruncatedGroebnerBasis(p, 6, rest, tgb.log)
        assert overlap_failures(cut), poly_str(p.gens, p.field, g)


def test_interior_lead_overlaps_are_not_reduced(monkeypatch):
    # an overlap word with a lead strictly inside it builds no S-polynomial:
    # reducing every overlap within D=9 here takes 155 calls, 103 of them
    # zero, and the basis is the same
    p = parse_algebra_file(_sklyanin_alg(-2, 2, -1))
    full = complete_to_degree(p, 10)
    results = []
    real = gbasis._reduce_terms

    def counted(terms, index):
        results.append(real(terms, index))
        return results[-1]

    monkeypatch.setattr(gbasis, "_reduce_terms", counted)
    tgb = complete_to_degree(p, 9)
    assert len(results) == 118 and sum(not nf for _, nf in results) == 66
    assert tgb.log.skipped_overlaps == 284
    assert tgb.elements == full.truncated(9).elements


@pytest.mark.parametrize("field", [QQ, PrimeField(32003), PrimeField(3)], ids=["Q", "F32003", "F3"])
def test_rewriting_leaves_its_input_terms_alone(field):
    # _reduce_terms and normal_form only read their caller's terms dict,
    # whatever they rescale; weighted_frac's integer reducers have non-unit
    # leads
    rng = random.Random(8)
    presentations = [entry.presentation for entry in builtin_corpus(field)]
    presentations.append(parse_algebra_file(WEIGHTED_FRAC, field=field))
    for p in presentations:
        tgb = complete_to_degree(p, 6)
        for d in range(2, 7):
            words = enumerate_words(p.gens, d)
            for _ in range(4):
                terms = {}
                for w in rng.sample(words, min(5, len(words))):
                    c = field.of_fraction(rng.randrange(-4, 5), rng.choice((1, 2)))
                    if c:
                        terms[w] = c
                saved = dict(terms)
                gbasis._reduce_terms(terms, tgb._index)
                assert terms == saved, p.label
                tgb.normal_form(NcPoly(terms, d if terms else None))
                assert terms == saved, p.label


@pytest.mark.parametrize("field", [QQ, PrimeField(32003), PrimeField(3)], ids=["Q", "F32003", "F3"])
def test_chase_is_the_general_rewriting(field, slice_cases):
    # the one-term chase builds the row of _reduce_terms (its result over its
    # scale lam) and of the reference rewriting for every word through D, as
    # an integer vector with its least multiplier: on the corpus on both sides,
    # weighted_frac (non-unit integer leads) and the binomial bases of the
    # sweep slice over the field; Sklyanin's three-term basis falls back
    D = 6
    chased = []
    for entry in builtin_corpus(field):
        chased += [entry.presentation, opposite(entry.presentation)]
    chased.append(parse_algebra_file(WEIGHTED_FRAC, field=field))
    tgbs = [complete_to_degree(p, D) for p in chased]
    assert all(tgb.binomial for tgb in tgbs)
    sweep_tgbs = [c.tgb for c in slice_cases if c.tgb.field == field]
    assert any(not tgb.binomial for tgb in sweep_tgbs)
    tgbs += [tgb for tgb in sweep_tgbs if tgb.binomial]
    assert not complete_to_degree(parse_algebra_file(_sklyanin_alg(-2, 2, -1), field=field), D).binomial
    one = field.one()
    for tgb in tgbs:
        for d in range(tgb.D + 1):
            idx = tgb.normal_index(d)
            for w in enumerate_words(tgb.gt, d):
                row = tgb._new_row(w)
                lam, general = gbasis._reduce_terms({w: one}, tgb._index)
                general = {t: field.of_fraction(c, lam) for t, c in general.items()}
                want = column_of(field, {idx[t]: c for t, c in general.items()})
                assert row == want, tgb.presentation.label
                assert general == reference_normal_form(tgb, {w: one}), tgb.presentation.label
