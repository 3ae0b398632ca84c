import random
from pathlib import Path

import pytest

import cohprobe.coherence as coherence
import cohprobe.gbasis as gbasis
import cohprobe.linalg as linalg
from cohprobe.algfile import parse_algebra_file, render_algebra_file
from cohprobe.coherence import (
    RightIdealSpec,
    Verdict,
    builtin_corpus,
    classify_profile,
    enumerate_ideals,
    ideal_map,
    noetherian_chain_profile,
    probe_algebra,
    probe_ideal,
    worst_verdict,
)
from cohprobe.freealg import GeneratorTable, NcPoly, parse_poly, poly_str
from cohprobe.gbasis import AlgebraPresentation, complete_to_degree, opposite
from cohprobe.grmod import FreeModule, ModuleMap, minimal_resolution
from cohprobe.linalg import QQ, PrimeField, SpanSolver

from conftest import WITNESS_RIGHT
from oracles import ideal_syzygy_profile_oracle
from sweep import binomial_ideals, kernel_profile

ALGEBRAS = Path(__file__).resolve().parent.parent / "algebras"


def test_classify_stable_silent():
    v = classify_profile([0] * 11, 10)
    assert v.kind == "STABLE" and v.d0 == 0


def test_classify_growing_every_degree():
    v = classify_profile([0, 0] + [1] * 9, 10)
    assert v.kind == "GROWING"


def test_classify_growing_alternating():
    # new generators every other degree still count as growth
    profile = [1 if d % 2 == 1 and d >= 3 else 0 for d in range(11)]
    assert classify_profile(profile, 10).kind == "GROWING"


def test_classify_inconclusive():
    profile = [0] * 11
    profile[7] = 1
    assert classify_profile(profile, 10).kind == "INCONCLUSIVE"


def test_worst_verdict_order():
    assert worst_verdict([Verdict("STABLE", 0), Verdict("GROWING")]).kind == "GROWING"
    assert worst_verdict([Verdict("STABLE", 0), Verdict("INCONCLUSIVE")]).kind == "INCONCLUSIVE"
    # no verdict is aggregated over zero ideals
    with pytest.raises(ValueError):
        worst_verdict([])


def test_ideal_spec_rejects_zero_and_units(tgb_fast):
    tgb = tgb_fast("xy_zero")
    with pytest.raises(ValueError):
        RightIdealSpec.from_strings(tgb, ["x*y"])  # zero in the algebra
    with pytest.raises(ValueError):
        RightIdealSpec.from_strings(tgb, ["1"])


def test_probe_free_ideal_all_zero(tgb_fast):
    tgb = tgb_fast("free2")
    rep = probe_ideal(tgb, RightIdealSpec.from_strings(tgb, ["x"]))
    assert rep.profile == [0] * 11
    assert rep.verdict.kind == "STABLE"


def test_probe_example1_x_matches_oracle(tgb_fast):
    tgb = tgb_fast("example1")
    ideal = RightIdealSpec.from_strings(tgb, ["x"])
    rep = probe_ideal(tgb, ideal)
    assert rep.profile == [0, 0] + [1] * 9
    assert rep.verdict.kind == "GROWING"
    oracle = ideal_syzygy_profile_oracle(tgb, ideal.gens, 8)
    assert rep.profile[:9] == oracle
    # witnesses are the z^n y ladder
    assert rep.witness[0][1] == ["z^4*y"]


def test_probe_example2_left_witness_matches_oracle(corpus_fast):
    pres = corpus_fast["example2"].presentation
    tgb_op = complete_to_degree(opposite(pres), 10)
    ideal = RightIdealSpec.from_strings(tgb_op, ["z"])
    rep = probe_ideal(tgb_op, ideal)
    assert rep.verdict.kind == "GROWING"
    oracle = ideal_syzygy_profile_oracle(tgb_op, ideal.gens, 8)
    assert rep.profile[:9] == oracle


def test_probe_tor_consistency_corpus(tgb_fast):
    # Tor_1(J, k) degreewise equals Tor_2(A/J, k): probe profile vs the
    # resolution of the cyclic quotient presented by the same generators
    for label in ("free2", "xy_zero", "example1", "example2",
                  "remark", "commutative_model", "noetherian_base"):
        tgb = tgb_fast(label, 8)
        ideal = RightIdealSpec.from_strings(tgb, WITNESS_RIGHT[label])
        rep = probe_ideal(tgb, ideal)
        quotient = ModuleMap(
            tgb,
            FreeModule(tuple(g.degree for g in ideal.gens)),
            FreeModule((0,)),
            {(0, i): g for i, g in enumerate(ideal.gens)},
        )
        tor = minimal_resolution(quotient).tor
        assert tor[2] == rep.profile, label


def test_probe_algebra_aggregates(corpus_fast):
    for label, side, expected in [
        ("free2", "right", "STABLE"),
        ("example2", "right", "STABLE"),
        ("example2", "left", "GROWING"),
    ]:
        agg = probe_algebra(complete_to_degree(corpus_fast[label].presentation, 10), side=side)
        assert agg.aggregate.kind == expected, (label, side)
        if expected == "GROWING":
            assert agg.witness_ideal


def test_probe_opposite_involution(corpus_fast):
    pres = corpus_fast["example2"].presentation
    double = opposite(opposite(pres))
    a1 = probe_algebra(complete_to_degree(pres, 8), side="right", max_ideals=12)
    a2 = probe_algebra(complete_to_degree(double, 8), side="right", max_ideals=12)
    assert [r.profile for r in a1.reports] == [r.profile for r in a2.reports]
    assert a1.aggregate.kind == a2.aggregate.kind


def test_verdict_monotonic_in_depth(corpus_fast):
    # increasing D never flips GROWING to STABLE for designated witnesses
    for label, gens in [("example1", ["x"]), ("remark", ["x*y"])]:
        pres = corpus_fast[label].presentation
        kinds = []
        for D in (8, 10, 12):
            tgb = complete_to_degree(pres, D)
            rep = probe_ideal(tgb, RightIdealSpec.from_strings(tgb, gens))
            kinds.append(rep.verdict.kind)
        assert kinds == ["GROWING"] * 3, label


def test_enumerate_ideals_deterministic_and_capped(tgb_fast):
    tgb = tgb_fast("free2")
    ideals = enumerate_ideals(tgb, 2, 10)
    assert len(ideals) == 10
    again = enumerate_ideals(tgb, 2, 10)
    assert [i.strings(tgb) for i in ideals] == [i.strings(tgb) for i in again]
    full = enumerate_ideals(tgb, 2, 1000)
    assert len(full) == 6 + 15  # six words, all pairs


def test_enumerate_ideals_builds_only_what_it_returns(tgb_fast, monkeypatch):
    # 126 words of degree 1..6 give 126 singles and 7,875 pairs; the first
    # 130 ideals are the singles and then the pairs of the first word
    made = []
    real_init = RightIdealSpec.__init__

    def init(self, *args, **kwargs):
        made.append(None)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(RightIdealSpec, "__init__", init)
    tgb = tgb_fast("free2", 8)
    assert len(enumerate_ideals(tgb, 6, 64)) == len(made) == 64
    words = [w for d in range(1, 7) for w in tgb.normal_words(d)]
    want = [(w,) for w in words] + [(words[0], w) for w in words[1:5]]
    got = [tuple(w for g in ideal.gens for w in g.terms) for ideal in enumerate_ideals(tgb, 6, 130)]
    assert got == want


def test_noetherian_chain(tgb_fast):
    tgb = tgb_fast("noetherian_base")
    stages = noetherian_chain_profile(tgb)
    assert stages == [True] * 5


@pytest.mark.parametrize("texts,profile", [
    (["x"], [0, 1, 0, 0, 0, 0, 0]),
    (["x", "x*y"], [0, 1, 0, 0, 0, 0, 0]),   # x*y lies in xA
    (["x", "y"], [0, 2, 0, 0, 0, 0, 0]),
    (["x*y", "y"], [0, 1, 1, 0, 0, 0, 0]),   # x*y is not in yA
], ids=["x", "x,x*y", "x,y", "x*y,y"])
def test_ideal_tor0_profile(tgb_fast, texts, profile):
    # Tor_0(J, k) = Tor_1(A/J, k): the minimal generators of J are level 1 of
    # a resolution of A/J, as the Noetherian staircase reads them
    tgb = tgb_fast("free2", 6)
    f = ideal_map(tgb, RightIdealSpec.from_strings(tgb, texts))
    assert minimal_resolution(f, length=1).tor[1] == profile


def test_probe_mixed_degree_ideal(tgb_fast):
    # J = (x, y^2) over xy=0: only syzygy source is ann(x) = yA, so one
    # generator (y, 0) at module degree 2
    tgb = tgb_fast("xy_zero", 8)
    rep = probe_ideal(tgb, RightIdealSpec.from_strings(tgb, ["x", "y^2"]))
    assert rep.profile == [0, 0, 1, 0, 0, 0, 0, 0, 0]
    assert rep.verdict.kind == "STABLE" and rep.verdict.d0 == 2


def test_probe_profiles_field_independent(corpus_q, corpus_fast):
    from cohprobe.linalg import PrimeField

    for label, gens in [("example1", ["x"]), ("noetherian_base", ["z"])]:
        profs = []
        for corpus in (corpus_q, corpus_fast):
            tgb = complete_to_degree(corpus[label].presentation, 8)
            rep = probe_ideal(tgb, RightIdealSpec.from_strings(tgb, gens))
            profs.append(rep.profile)
        assert profs[0] == profs[1], label


def test_probe_weighted_generators():
    from cohprobe.freealg import GeneratorTable, parse_poly
    from cohprobe.gbasis import AlgebraPresentation

    gt = GeneratorTable(["x", "z"], weights=[1, 2])
    pres = AlgebraPresentation(
        QQ, gt, [parse_poly(gt, QQ, "x*z - z*x")], label="weighted_comm"
    )
    agg = probe_algebra(complete_to_degree(pres, 10), gen_degree_bound=2, max_ideals=10)
    assert agg.aggregate.kind == "STABLE"


def test_corpus_entries_complete():
    labels = {e.label for e in builtin_corpus(QQ)}
    assert {
        "free1",
        "free2",
        "xy_zero",
        "example1",
        "example2",
        "remark",
        "noetherian_base",
        "commutative_model",
    } <= labels


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
def test_corpus_presentations_are_the_bundled_files(field):
    files = {}
    for path in ALGEBRAS.glob("*.alg"):
        p = parse_algebra_file(path.read_text(encoding="utf-8"), field=field)
        files[p.label] = render_algebra_file(p)
    corpus = {e.label: render_algebra_file(e.presentation) for e in builtin_corpus(field)}
    assert sorted(files) == sorted(set(corpus) - {"free1"})
    for label, text in files.items():
        assert corpus[label] == text, label


def test_corpus_expected_verdicts_table():
    table = {e.label: (e.expected_right, e.expected_left) for e in builtin_corpus(QQ)}
    assert table["example1"] == ("GROWING", "GROWING")
    assert table["example2"] == ("STABLE", "GROWING")
    assert table["remark"] == ("GROWING", "GROWING")
    assert table["noetherian_base"] == ("STABLE", "STABLE")


# --- the two profile sources ---------------------------------------------

ANICK_HOLDS = ("free1", "free2", "xy_zero", "example2", "noetherian_base", "commutative_model")


def _sides(pres, D):
    yield "right", complete_to_degree(pres, D)
    yield "left", complete_to_degree(opposite(pres), D)


def _extra_ideals(tgb):
    """A repeated letter, and a non-monomial ideal of mixed degrees."""
    names = tgb.gt.names
    extra = [[names[0], names[0]]]
    if len(names) > 1:
        a, b = names[:2]
        extra.append([f"{a} + {b}", f"{a}*{b} + {b}*{a}"])
    return [RightIdealSpec.from_strings(tgb, texts) for texts in extra]


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
def test_probe_profile_sources_agree_on_corpus(field):
    # the rank route, wherever Anick's criterion holds, against the count of
    # minimal kernel generators, on every corpus ideal of both sides
    for entry in builtin_corpus(field):
        for side, tgb in _sides(entry.presentation, 8):
            assert (tgb.anick_series is not None) == (entry.label in ANICK_HOLDS)
            for ideal in enumerate_ideals(tgb, 2, 64) + _extra_ideals(tgb):
                want = kernel_profile(tgb, ideal)
                assert probe_ideal(tgb, ideal).profile == want, (entry.label, side)


def _make(names, rels, label):
    gt = GeneratorTable(list(names))
    fld = PrimeField(32003)
    return AlgebraPresentation(fld, gt, [parse_poly(gt, fld, r) for r in rels], label=label)


def test_anick_criterion_refusals(corpus_fast):
    refused = [
        corpus_fast["example1"].presentation,   # global dimension 3
        corpus_fast["remark"].presentation,     # infinitely related, Tor_3(k, k) != 0
        _make("xyz", ["-2*y*z + 2*z*y - x^2", "-2*z*x + 2*x*z - y^2",
                      "-2*x*y + 2*y*x - z^2"], "sklyanin(-2,2,-1)"),
        _make("xyz", ["y*z", "x*z - z*x", "y*z"], "example2 with y*z twice"),
        # a letter term does not hide global dimension 3: w = x*y is eliminated
        parse_algebra_file("label letter_example1\ngen x 1\ngen y 1\ngen z 1\ngen w 2\n"
                           "rel x*y\nrel y*z\nrel x*z - z*x\nrel w - x*y\n",
                           field=PrimeField(32003)),
    ]
    for pres in refused:
        for side, tgb in _sides(pres, 7):
            assert tgb.anick_series is None, (pres.label, side)


def test_anick_criterion_is_sound_on_corpus(corpus_fast):
    # where it holds: Tor_1(k, k) = L, Tor_2(k, k) = R and Tor_3(k, k) = 0
    for label in ANICK_HOLDS:
        for side, tgb in _sides(corpus_fast[label].presentation, 8):
            c = tgb.anick_series
            gt = tgb.gt
            k = ModuleMap(
                tgb, FreeModule(tuple(gt.weights)), FreeModule((0,)),
                {(0, i): NcPoly.monomial(gt, tgb.field, (i,)) for i in range(len(gt))},
            )
            tor = minimal_resolution(k, length=3).tor
            letters = [gt.weights.count(d) for d in range(9)]
            assert tor[1] == letters, (label, side)
            assert tor[2] == [c[d] - (d == 0) + letters[d] for d in range(9)], (label, side)
            assert not any(tor[3]), (label, side)


def test_anick_series_is_read_off_once_per_basis(corpus_fast, monkeypatch):
    # every probed ideal reads the criterion; each side's basis computes it once
    seen = []
    real = gbasis.hilbert_dims

    def counted(tgb, D):
        seen.append(tgb)
        return real(tgb, D)

    monkeypatch.setattr(gbasis, "hilbert_dims", counted)
    tgb = complete_to_degree(corpus_fast["example2"].presentation, 7)
    for side in ("right", "left"):
        assert len(probe_algebra(tgb, side=side).reports) > 1
    assert len(seen) == 2 and seen[0] is tgb


def test_witness_is_found_only_when_read(tgb_fast, monkeypatch):
    calls = []
    real = coherence.kernel_min_generators

    def counted(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(coherence, "kernel_min_generators", counted)
    right = probe_algebra(tgb_fast("example2", 8), side="right")
    right.to_dict()
    assert right.aggregate.kind == "STABLE" and calls == []
    left = probe_algebra(tgb_fast("example2", 8), side="left")
    assert calls == []
    growing = [r for r in left.reports if any(r.profile[5:])]
    assert growing
    blocks = left.to_dict()["ideals"]
    assert len(calls) == len(growing)
    # the witness is that of the kernel route
    tgb_op = complete_to_degree(opposite(tgb_fast("example2", 8).presentation), 8)
    for block in blocks:
        ideal = RightIdealSpec.from_strings(tgb_op, block["gens"])
        gens = real(ideal_map(tgb_op, ideal))
        zero = NcPoly({}, None)
        assert block["witness"] == [
            [s, [poly_str(tgb_op.gt, tgb_op.field, gens.entries.get((k, l), zero))
                 for k in range(len(ideal.gens))]]
            for l, s in enumerate(gens.source.shifts) if s > 4
        ]


def test_witness_starts_just_above_half_the_bound(tgb_fast):
    # over xy_zero the one syzygy of x^5 is y, at module degree 6 = D//2 + 1:
    # the rank route reports it, and the witness window (D//2, D] holds it
    tgb = tgb_fast("xy_zero", 10)
    assert tgb.anick_series is not None
    rep = probe_ideal(tgb, RightIdealSpec.from_strings(tgb, ["x^5"]))
    assert rep.profile == [0] * 6 + [1] + [0] * 4
    assert str(rep.verdict) == "STABLE(6)"
    assert rep.witness == [(6, ["y"])]


def _eliminated_rank_profile(f, c):
    """S(t) - H_J(t) c(t) mod t^(D+1) with every H_J(e) a SpanSolver rank."""
    D = f.tgb.D
    h = [0] * (D + 1)
    for e in range(min(f.source.shifts), D + 1):
        span = SpanSolver(f.tgb.field)
        for col in f.component_columns(e):
            span.add(col)
        h[e] = span.rank
    counts = f.degree_counts()
    return [counts[d] - sum(h[d - j] * c[j] for j in range(d + 1)) for d in range(D + 1)]


def test_counted_ranks_are_eliminated_ranks(corpus_fast, slice_cases, monkeypatch):
    # _rank_profile takes linalg.rank, which counts rows where every column
    # has at most one entry and eliminates elsewhere.  On the corpus bases
    # (words and binomials) every monomial ideal is counted at every degree;
    # x + y and the sweep's binomial ideals have two-entry columns, so
    # elimination runs too.  c is the Anick series, or 1 where there is none,
    # which compares H_J itself
    solvers = []

    class CountedSpanSolver(SpanSolver):
        def __init__(self, field):
            solvers.append(field)
            super().__init__(field)

    monkeypatch.setattr(linalg, "SpanSolver", CountedSpanSolver)

    def eliminations(tgb, ideals):
        c = tgb.anick_series or [1] + [0] * tgb.D
        before = len(solvers)
        for ideal in ideals:
            f = ideal_map(tgb, ideal)
            assert coherence._rank_profile(f, c) == _eliminated_rank_profile(f, c), \
                (tgb.presentation.label, ideal.strings(tgb))
        return len(solvers) - before

    for entry in corpus_fast.values():
        for p in (entry.presentation, opposite(entry.presentation)):
            tgb = complete_to_degree(p, 8)
            assert eliminations(tgb, enumerate_ideals(tgb, 2, 64)) == 0, p.label
            if len(p.gens) >= 2:
                one = tgb.field.one()
                x_plus_y = NcPoly.build(tgb.gt, tgb.field, [((0,), one), ((1,), one)])
                assert eliminations(tgb, [RightIdealSpec([x_plus_y])]) > 0, p.label
    binomials = sum(eliminations(c.tgb, binomial_ideals(c.tgb, random.Random(k)))
                    for k, c in enumerate(slice_cases))
    assert binomials > 0
