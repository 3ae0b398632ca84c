from pathlib import Path

import pytest

from cohprobe.algfile import parse_algebra_file
from cohprobe.errors import WindowTooShallow
from cohprobe.freealg import GeneratorTable, make_monic, parse_poly
from cohprobe.gbasis import (
    AlgebraPresentation,
    CompletionLog,
    TruncatedGroebnerBasis,
    complete_to_degree,
)
from cohprobe.grmod import FreeModule, ModuleMap
from cohprobe.linalg import QQ, PrimeField
from cohprobe.zalg import ZAlgebraWindow, cohproj_hom, hom_dim_window, transport_module

from oracles import all_triples_audit, fold_audit, hom_dim_oracle
from test_report_digests import WEIGHTED_FRAC
from windows import (
    ProjectivePresentation,
    coker_transport,
    coker_window,
    gamma_star_presentation,
    projective_window,
    simple_window,
    tensor_projective_iso_check,
    truncate_below,
    window_min_generator_profile,
)

ALGEBRAS = Path(__file__).resolve().parent.parent / "algebras"


@pytest.fixture(scope="module")
def model_tgb(corpus_fast):
    return complete_to_degree(corpus_fast["commutative_model"].presentation, 14)


@pytest.fixture(scope="module")
def weighted_tgb():
    # k[x, z] with x of weight 1 and z of weight 2: dim A_d = d // 2 + 1
    gt = GeneratorTable(["x", "z"], weights=[1, 2])
    pres = AlgebraPresentation(QQ, gt, [parse_poly(gt, QQ, "x*z - z*x")], label="weighted")
    return complete_to_degree(pres, 10)


@pytest.fixture(scope="module")
def free1_tgb():
    gt = GeneratorTable(["x"])
    return complete_to_degree(AlgebraPresentation(QQ, gt, [], label="free1"), 8)


def test_from_graded_dims_free1(free1_tgb):
    zw = ZAlgebraWindow(free1_tgb, 0, 6)
    assert all(zw.dim(i, j) == 1 for i in range(0, 7) for j in range(i, 7))


def test_from_graded_dims_free2(corpus_fast, tgb_fast):
    zw = ZAlgebraWindow(tgb_fast("free2"), 0, 4)
    for i in range(0, 5):
        for j in range(i, 5):
            assert zw.dim(i, j) == 2 ** (j - i)


def test_from_graded_dims_model(model_tgb):
    zw = ZAlgebraWindow(model_tgb, 0, 6)
    for i in range(0, 7):
        for j in range(i, 7):
            assert zw.dim(i, j) == j - i + 1


def test_window_audits(model_tgb, tgb_fast):
    assert ZAlgebraWindow(model_tgb, 0, 5).audit()["ok"]
    assert ZAlgebraWindow(tgb_fast("free2"), 0, 4).audit()["ok"]
    assert ZAlgebraWindow(tgb_fast("example2"), 0, 4).audit()["ok"]


def test_mult_composes_in_the_graded_order(tgb_fast):
    # mult(i, j, k)[x][y] is NF(x * y) for x in A_jk and y in A_ij; the
    # opposite product is associative and unital too, so the audit alone
    # cannot tell the two sides apart
    tgb = tgb_fast("example2", 6)
    zw = ZAlgebraWindow(tgb, 0, 4)
    for i in range(5):
        for j in range(i, 5):
            for k in range(j, 5):
                idx = tgb.normal_index(k - i)
                want = [
                    [{idx[t]: c for t, c in tgb.normal_form_word(x + y).items()}
                     for y in zw.basis(i, j)]
                    for x in zw.basis(j, k)
                ]
                assert zw.mult(i, j, k) == want, (i, j, k)


def test_window_audit_checks_each_letter_triple_once(tgb_fast, weighted_tgb, monkeypatch):
    # A_ij = A_(j-i), so associativity is checked at i = lo only, and with
    # x in A_kl only where l - k is a letter weight
    seen = []
    real = ZAlgebraWindow._assoc_ok

    def counted(self, i, j, k, l):
        seen.append((i, j, k, l))
        return real(self, i, j, k, l)

    monkeypatch.setattr(ZAlgebraWindow, "_assoc_ok", counted)
    assert ZAlgebraWindow(tgb_fast("free2"), -2, 3).audit()["ok"]
    assert seen == [(-2, j, k, k + 1) for j in range(-2, 4) for k in range(j, 3)]
    seen.clear()
    assert ZAlgebraWindow(weighted_tgb, -2, 3).audit()["ok"]
    assert seen == [(-2, j, k, k + w) for j in range(-2, 4) for k in range(j, 4)
                    for w in (1, 2) if k + w <= 3]


def _uncompleted(text, D):
    """The basis of the relations of an .alg text alone, not completed."""
    pres = parse_algebra_file(text)
    return TruncatedGroebnerBasis(
        pres, D, [make_monic(pres.gens, pres.field, r) for r in pres.relations], CompletionLog()
    )


SKLYANIN_121 = (
    "label sklyanin(1,2,-1)\ngen x 1\ngen y 1\ngen z 1\n"
    "rel y*z + 2*z*y - x^2\nrel z*x + 2*x*z - y^2\nrel x*y + 2*y*x - z^2\n"
)


def test_window_audit_rejects_uncompleted_relations():
    # the Sklyanin relations alone are not a Groebner basis: rewriting by them
    # gives products that are not associative, and the audit must say where
    raw = _uncompleted(SKLYANIN_121, 5)
    audit = ZAlgebraWindow(raw, 0, 4).audit()
    assert not audit["ok"]
    assert audit["problems"][0] == "associativity fails on (0,1,2,3)"
    complete = complete_to_degree(raw.presentation, 5)
    assert ZAlgebraWindow(complete, 0, 4).audit() == {"ok": True, "problems": []}


def test_window_audit_agrees_with_all_triples():
    # associativity with x a letter decides it for every x: the audit and
    # the all-triples oracle agree on the verdict, for every bundled algebra
    # and weighted_frac, completed, and for two uncompleted bases, one with
    # a weight-2 letter, and every triple the audit flags fails in the oracle
    cases = {}
    for path in sorted(ALGEBRAS.glob("*.alg")):
        pres = parse_algebra_file(path.read_text(encoding="utf-8"), field=PrimeField(32003))
        cases[path.stem] = ZAlgebraWindow(complete_to_degree(pres, 5), 0, 5)
    cases["weighted_frac"] = ZAlgebraWindow(
        complete_to_degree(parse_algebra_file(WEIGHTED_FRAC), 6), 0, 6)
    cases["raw sklyanin"] = ZAlgebraWindow(_uncompleted(SKLYANIN_121, 5), 0, 4)
    cases["raw weighted_frac"] = ZAlgebraWindow(_uncompleted(WEIGHTED_FRAC, 6), 0, 6)
    audits = {}
    for name, zw in cases.items():
        audit = audits[name] = zw.audit()
        oracle = all_triples_audit(zw)
        assert audit["ok"] == oracle["ok"] == (not name.startswith("raw")), name
        assert set(audit["problems"]) <= set(oracle["problems"]), name
        if name != "raw weighted_frac":
            assert audit["problems"][:1] == oracle["problems"][:1], name
        else:
            # the oracle first fails on (xy*xy)*x, with x = xy not a letter;
            # the audit finds the letter triple that failure reduces to
            assert oracle["problems"][0] == "associativity fails on (0,1,3,5)"
            assert audit["problems"][0] == "associativity fails on (0,1,4,5)"


def test_window_audit_takes_x_over_letters(monkeypatch):
    # a normal word is its first letter times a normal word, so the audit
    # reads the products of x in A_kl for the normal letters x only: at
    # l - k = 2 on weighted_frac that is z, not xx, xy, yx or yy
    zw = ZAlgebraWindow(complete_to_degree(parse_algebra_file(WEIGHTED_FRAC), 6), 0, 6)
    reads = []

    class Reads(list):
        def __getitem__(self, index):
            reads.append((self.key, index))
            return list.__getitem__(self, index)

    real = ZAlgebraWindow.mult

    def mult(self, i, j, k):
        out = Reads(real(self, i, j, k))
        out.key = (i, j, k)
        return out

    monkeypatch.setattr(ZAlgebraWindow, "mult", mult)
    # with 0 < j < k the tables indexed by x, mult(j, k, l) and mult(0, k, l),
    # are the only ones with their keys
    for j, k in [(1, 2), (1, 3), (2, 4)]:
        reads.clear()
        assert zw._assoc_ok(0, j, k, k + 2)
        xs = {index for key, index in reads if key in ((j, k, k + 2), (0, k, k + 2))}
        assert [zw.basis(k, k + 2)[x] for x in xs] == [(2,)]
    monkeypatch.undo()
    assert zw.audit()["ok"] and all_triples_audit(zw)["ok"]


def test_transport_projective(model_tgb):
    P3 = projective_window(model_tgb, 3, -2, 8)
    for i in range(-2, 9):
        assert P3.dim(i) == (3 - i + 1 if i <= 3 else 0)
    assert fold_audit(P3)["ok"]


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
def test_transport_matches_coker_transport(field):
    # P_j as column j of the Z-algebra window equals the cokernel transport
    # of the relation-free map into A(-j), tensor by tensor, for every j of
    # the window: j = lo leaves P_j one component, j = hi gives it all
    texts = {path.stem: path.read_text(encoding="utf-8") for path in sorted(ALGEBRAS.glob("*.alg"))}
    texts["weighted_frac"] = WEIGHTED_FRAC
    for name, text in texts.items():
        tgb = complete_to_degree(parse_algebra_file(text, field=field), 7)
        zw = ZAlgebraWindow(tgb, -3, 4)
        for j in range(-3, 5):
            window = transport_module(zw, j)
            oracle = coker_transport(ModuleMap(tgb, FreeModule(()), FreeModule((-j,)), {}), -3, 4)
            assert window.dims == oracle.dims, (name, j)
            assert window.act == oracle.act, (name, j)
            assert window.dim(-3) == tgb.dim(j + 3), (name, j)


def test_transport_simple(model_tgb):
    relations = ModuleMap(
        model_tgb, FreeModule((1, 1)), FreeModule((0,)),
        {(0, 0): parse_poly(model_tgb.gt, model_tgb.field, "x"),
         (0, 1): parse_poly(model_tgb.gt, model_tgb.field, "y")},
    )
    S = coker_transport(relations, -4, 8)
    assert S.dim(0) == 1
    assert all(S.dim(i) == 0 for i in range(-4, 9) if i != 0)


def test_truncate_below(model_tgb):
    P3 = projective_window(model_tgb, 3, -2, 8)
    t = truncate_below(P3, 2)
    assert t.dim(3) == 0
    assert t.dim(2) == 2
    # truncating at the window top is the identity
    t2 = truncate_below(P3, 8)
    assert t2.dims == P3.dims
    # truncating below the floor kills everything
    t3 = truncate_below(P3, -3)
    assert all(v == 0 for v in t3.dims.values())


def test_truncation_exact_triple(model_tgb):
    # (P_j)_{<= j-1} + S_j fills P_j dimensionwise
    P2 = projective_window(model_tgb, 2, -2, 8)
    t = truncate_below(P2, 1)
    S = simple_window(model_tgb, 2, -2, 8)
    for i in range(-2, 9):
        assert t.dim(i) + S.dim(i) == P2.dim(i)


def test_hom_full_projectives(model_tgb):
    P0 = projective_window(model_tgb, 0, -2, 8)
    P2 = projective_window(model_tgb, 2, -2, 8)
    assert hom_dim_window(P0, P2)[-1] == 3  # A_2 of the model
    assert hom_dim_window(P2, P0)[-1] == 0


def _hom_cases(model_tgb, free2, weighted_tgb):
    pp = ProjectivePresentation([0], [1], {(0, 0): parse_poly(free2.gt, free2.field, "x")})
    return {
        "model P1->P3": (projective_window(model_tgb, 1, -2, 8),
                         projective_window(model_tgb, 3, -2, 8)),
        "model P3->P1": (projective_window(model_tgb, 3, -2, 8),
                         projective_window(model_tgb, 1, -2, 8)),
        "free2 P0->P0": (projective_window(free2, 0, -6, 1),
                         projective_window(free2, 0, -6, 1)),
        "free2 P1->coker": (projective_window(free2, 1, -5, 1), coker_window(pp, free2, -5, 1)),
        "model P0->S0": (projective_window(model_tgb, 0, -6, 8),
                         simple_window(model_tgb, 0, -6, 8)),
        "weighted P1->P3": (projective_window(weighted_tgb, 1, -2, 8),
                            projective_window(weighted_tgb, 3, -2, 8)),
    }


def test_hom_levels_match_truncation(model_tgb, tgb_fast, weighted_tgb):
    # level n of the one elimination equals a fresh pass over (m1)_{<=n},
    # both through hom_dim_window and through the full-span oracle
    for name, (m1, m2) in _hom_cases(model_tgb, tgb_fast("free2"), weighted_tgb).items():
        levels = hom_dim_window(m1, m2)
        assert len(levels) == m1.hi - m1.lo + 1, name
        for n in range(m1.lo, m1.hi + 1):
            truncated = truncate_below(m1, n)
            assert levels[n - m1.lo] == hom_dim_window(truncated, m2)[-1], (name, n)
            assert levels[n - m1.lo] == hom_dim_oracle(truncated, m2), (name, n)


def test_cohproj_hom_model_values(model_tgb):
    for a, b in [(0, 0), (0, 3), (1, 4), (2, 5)]:
        r = cohproj_hom(
            projective_window(model_tgb, a, -2, 12),
            projective_window(model_tgb, b, -2, 12),
        )
        assert r.stabilized and r.value == b - a + 1, (a, b, r.table)


def test_cohproj_hom_bounded_target(model_tgb):
    P0 = projective_window(model_tgb, 0, -6, 8)
    S0 = simple_window(model_tgb, 0, -6, 8)
    r = cohproj_hom(P0, S0)
    assert r.stabilized and r.value == 0


def test_cohproj_hom_tensor_growth(tgb_fast):
    tgb = tgb_fast("free2")
    P0 = projective_window(tgb, 0, -6, 1)
    r = cohproj_hom(P0, P0)
    assert not r.stabilized
    values = [h for _, h in r.table]
    assert values[1:] == [1, 4, 16, 64, 256, 1024]
    assert all(values[i] <= values[i + 1] for i in range(len(values) - 1))


def test_cohproj_hom_tensor_coker_growth(tgb_fast):
    # M = coker(P_0 -x-> P_1) over T(k^2): trunc(P_1, n) is free on
    # 2^(1-n) generators and dim M_n = 2^(-n) for n <= 0, so the hom table
    # reads 1, 2, 8, 32, 128 on the window [-4, 1]
    tgb = tgb_fast("free2")
    gt, fld = tgb.gt, tgb.field
    pp = ProjectivePresentation([0], [1], {(0, 0): parse_poly(gt, fld, "x")})
    M = coker_window(pp, tgb, -5, 1)
    P1 = projective_window(tgb, 1, -5, 1)
    r = cohproj_hom(P1, M)
    assert not r.stabilized
    assert r.table == [(1, 1), (0, 2), (-1, 8), (-2, 32), (-3, 128), (-4, 512)]


def test_cohproj_hom_weighted_generators(weighted_tgb):
    # levels below lo + max(weight) miss the action of z and read an inflated
    # Hom; from that floor on, Hom(P_a, P_b) stabilizes at dim A_{b-a}
    P = [projective_window(weighted_tgb, a, -2, 8) for a in range(4)]
    for a in range(4):
        for b in range(a, 4):
            r = cohproj_hom(P[a], P[b])
            assert r.stabilized and r.value == weighted_tgb.dim(b - a), (a, b, r.table)
            assert [n for n, _ in r.table] == list(range(8, -1, -1))


def test_window_too_shallow(model_tgb):
    P0 = projective_window(model_tgb, 0, 0, 3)
    with pytest.raises(WindowTooShallow):
        cohproj_hom(P0, P0)


def test_tensor_iso_check():
    rep = tensor_projective_iso_check(2, 0, 8)
    assert rep.ok
    assert rep.dims[0][1:] == (256, 256, 256)
    assert not tensor_projective_iso_check(2, 0, 8, negative=True).ok
    # one generator: P_i is isomorphic to P_{i-1} on the nose
    assert tensor_projective_iso_check(1, 0, 6).ok


def test_gamma_star_projective(model_tgb):
    pp = ProjectivePresentation([], [2], {})
    relations = gamma_star_presentation(pp, model_tgb)
    assert relations.target.shifts == (-2,)
    assert len(relations.source.shifts) == 0


def test_gamma_star_simple_vanishes_in_cohproj(model_tgb):
    # S_0 = coker(P_{-1}^2 -> P_0) maps to the trivial graded module; its
    # transport is bounded, so every cohproj hom into it stabilizes at 0
    gt = model_tgb.gt
    fld = model_tgb.field
    pp = ProjectivePresentation(
        [-1, -1], [0],
        {(0, 0): parse_poly(gt, fld, "x"), (0, 1): parse_poly(gt, fld, "y")},
    )
    rt = coker_transport(gamma_star_presentation(pp, model_tgb), -6, 8)
    assert rt.dim(0) == 1 and all(rt.dim(i) == 0 for i in range(-6, 9) if i != 0)
    P1 = projective_window(model_tgb, 1, -6, 8)
    r = cohproj_hom(P1, rt)
    assert r.stabilized and r.value == 0


def test_coker_window_matches_transport(model_tgb):
    gt = model_tgb.gt
    fld = model_tgb.field
    pp = ProjectivePresentation([0], [1], {(0, 0): parse_poly(gt, fld, "x")})
    direct = coker_window(pp, model_tgb, -2, 10)
    rt = coker_transport(gamma_star_presentation(pp, model_tgb), -2, 10)
    assert direct.dims == rt.dims
    for c in range(3):
        Pc = projective_window(model_tgb, c, -2, 10)
        t1 = cohproj_hom(Pc, direct).table
        t2 = cohproj_hom(Pc, rt).table
        assert t1 == t2, c


def test_min_generator_profile_truncation(model_tgb):
    # Prop-style check: truncations of P_a over the model need no new
    # generators below the truncation index
    P2 = projective_window(model_tgb, 2, -4, 8)
    t = truncate_below(P2, 0)
    profile = window_min_generator_profile(t)
    assert profile[0] == t.dim(0)
    assert all(profile[i] == 0 for i in range(-3, 0))


def test_module_fold_audit(model_tgb, tgb_fast):
    assert fold_audit(projective_window(model_tgb, 2, -2, 6))["ok"]
    assert fold_audit(projective_window(tgb_fast("example2"), 1, -3, 4))["ok"]
