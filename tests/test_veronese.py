import io
import json
import random
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import cohprobe.veronese as veronese
from cohprobe.algfile import parse_algebra_file
from cohprobe.cli import main
from cohprobe.coherence import builtin_corpus
from cohprobe.errors import NotDegreeOneGenerated
from cohprobe.freealg import GeneratorTable, NcPoly, enumerate_words, parse_poly
from cohprobe.gbasis import AlgebraPresentation, complete_to_degree
from cohprobe.linalg import QQ, PrimeField
from cohprobe.veronese import (
    degree_one_generated,
    pm_module_presentations,
    veronese_cross_check,
    veronese_presentation,
)

from oracles import degree_one_generated_oracle

ALGEBRAS = Path(__file__).resolve().parent.parent / "algebras"


def test_free2_veronese_relation_free(tgb_fast):
    assert degree_one_generated(tgb_fast("free2"))
    vp = veronese_presentation(tgb_fast("free2"), 2)
    assert len(vp.generator_words) == 4
    assert all(c == 0 for c in vp.relations_per_degree.values())
    assert vp.hilbert_internal == [4 ** i for i in range(6)]
    assert vp.hilbert_internal == vp.hilbert_ambient


def test_commutative_veronese(tgb_fast):
    vp = veronese_presentation(tgb_fast("commutative_model"), 2)
    assert len(vp.generator_words) == 3
    # four independent quadratic relations: three commutators and the
    # determinantal one (hilbert forces 9 - 5 = 4, not 1)
    assert vp.relations_per_degree == {1: 0, 2: 4, 3: 0, 4: 0, 5: 0}
    assert vp.hilbert_internal == [1, 3, 5, 7, 9, 11]
    assert vp.hilbert_internal == vp.hilbert_ambient


def test_remark_veronese_monomial_finite(tgb_fast):
    vp = veronese_presentation(tgb_fast("remark"), 2)
    assert vp.all_relations_monomial()
    assert vp.last_relation_degree() == 2
    assert vp.trailing_silence() >= 3
    assert vp.hilbert_internal == vp.hilbert_ambient == [1, 4, 5, 5, 5, 5]


def test_pm_modules_free2(tgb_fast):
    reports = pm_module_presentations(tgb_fast("free2"), 2)
    assert [r.m for r in reports] == [0, 1]
    for r in reports:
        assert all(c == 0 for c in r.syzygy_profile)
        assert all(d == 0 for d in r.generator_degrees)


def test_pm_modules_commutative(tgb_fast):
    reports = pm_module_presentations(tgb_fast("commutative_model"), 2)
    p1 = reports[1]
    assert p1.syzygy_profile[1] > 0  # finitely many syzygies...
    assert all(c == 0 for c in p1.syzygy_profile[2:])  # ...then silence
    assert p1.trailing_silence() >= 3


def test_degree_one_generation_detector():
    gt = GeneratorTable(["x", "z"], weights=[1, 2])
    pres = AlgebraPresentation(
        QQ, gt, [parse_poly(gt, QQ, "x*z - z*x")], label="weighted"
    )
    tgb = complete_to_degree(pres, 8)
    assert not degree_one_generated(tgb)
    with pytest.raises(NotDegreeOneGenerated):
        pm_module_presentations(tgb, 2)
    with pytest.raises(NotDegreeOneGenerated):
        veronese_cross_check(veronese_presentation(tgb, 2))


def test_cross_check_and_pm_modules_share_their_work(monkeypatch):
    # the discovered presentation is completed at D once, for both reports
    completed = []
    real_complete = veronese.complete_to_degree

    def complete(p, D):
        completed.append((p.label, D))
        return real_complete(p, D)

    monkeypatch.setattr(veronese, "complete_to_degree", complete)
    alg = Path(__file__).resolve().parent.parent / "algebras" / "commutative.alg"
    with redirect_stdout(io.StringIO()):
        code = main(["veronese", str(alg), "--n", "2", "-D", "8",
                     "--cross-check", "--pm-modules", "--json"])
    assert code == 0
    assert completed.count(("commutative_model^(2)", 8)) == 1


def test_degree_one_check_builds_no_product_table(corpus_fast):
    # the check reads the relations: free2 at D=12 has 4,094 words of
    # degree 1..11 that a pushed span would multiply out
    tgb = complete_to_degree(corpus_fast["free2"].presentation, 12)
    assert degree_one_generated(tgb)
    assert not tgb._products and not tgb._rows


def test_degree_one_generated_with_a_heavy_letter():
    # z = x*y makes the weight-2 letter z a product of degree-one letters
    pres = parse_algebra_file("gen x 1\ngen y 1\ngen z 2\nrel z - x*y\n")
    for D in (1, 2, 5):
        tgb = complete_to_degree(pres, D)
        assert degree_one_generated(tgb) and degree_one_generated_oracle(tgb), D


def _degree_one_presentations():
    """The corpus and bundled algebras, a family whose first member is a
    letter, plus 100 seeded random presentations on 2 or 3 letters of weight
    1 or 2 whose relations of degree 2 and 3 mix words with letter terms."""
    out = [parse_algebra_file("gen x 1\ngen y 1\ngen z 2\nrel z - x*y\nrelfam x^{n} n >= 1\n")]
    for field in (QQ, PrimeField(32003)):
        out += [e.presentation for e in builtin_corpus(field)]
        out += [parse_algebra_file(path.read_text(encoding="utf-8"), field=field)
                for path in sorted(ALGEBRAS.glob("*.alg"))]
    rng = random.Random(20021)
    for k in range(100):
        field = (QQ, PrimeField(32003))[k % 2]
        n = rng.choice((2, 3))
        gt = GeneratorTable(["x", "y", "z"][:n], weights=[rng.choice((1, 1, 2)) for _ in range(n)])
        relations = []
        for _ in range(rng.randint(1, 3)):
            words = enumerate_words(gt, rng.choice((2, 2, 3)))
            if not words:
                continue
            letters = [w for w in words if len(w) == 1]
            picked = rng.sample(letters, min(len(letters), rng.randint(0, 1)))
            picked += rng.sample(words, rng.randint(1, min(3, len(words))))
            r = NcPoly.build(gt, field, [(w, rng.randint(1, 5)) for w in dict.fromkeys(picked)])
            if not r.is_zero():
                relations.append(r)
        out.append(AlgebraPresentation(field, gt, relations, label=f"random{k}"))
    return out


def test_degree_one_generated_matches_the_pushed_span():
    cases = negatives = 0
    for pres in _degree_one_presentations():
        for D in (3, 5):
            tgb = complete_to_degree(pres, D)
            want = degree_one_generated_oracle(tgb)
            assert degree_one_generated(tgb) == want, (pres.label, D, pres.relation_strings())
            cases += 1
            negatives += not want
    assert cases > 200 and 50 < negatives < cases - 50


def test_cross_check_below_the_ambient_bound_completes_once(monkeypatch):
    # free2^(2) affords probe depth 6 < D = 10: its basis at 6 is cut from
    # the one completed at 10, not completed again
    completed = []
    real_complete = veronese.complete_to_degree

    def complete(p, D):
        completed.append((p.label, D))
        return real_complete(p, D)

    monkeypatch.setattr(veronese, "complete_to_degree", complete)
    alg = Path(__file__).resolve().parent.parent / "algebras" / "free2.alg"
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["veronese", str(alg), "--n", "2", "-D", "10", "--cross-check",
                     "--field", "F32003", "--json"])
    assert code == 0
    assert json.loads(out.getvalue())["veronese"]["cross_check"]["veronese_D"] == 6
    # discovery completes free2^(2) at the internal degrees 1..5 only
    assert completed.count(("free2^(2)", 10)) == 1
    assert ("free2^(2)", 6) not in completed


def test_veronese_of_veronese_hilbert(corpus_fast):
    pres = corpus_fast["commutative_model"].presentation
    tgb12 = complete_to_degree(pres, 12)
    vp2 = veronese_presentation(tgb12, 2)
    vp22 = veronese_presentation(complete_to_degree(vp2.presentation, 3), 2)
    vp4 = veronese_presentation(tgb12, 4)
    shared = min(len(vp22.hilbert_internal), len(vp4.hilbert_internal))
    assert vp22.hilbert_internal[:shared] == vp4.hilbert_internal[:shared]


def test_cross_checks(tgb_fast):
    cc_free = veronese_cross_check(veronese_presentation(tgb_fast("free2"), 2))
    assert cc_free.agree
    assert cc_free.ambient_verdict.kind == "STABLE"
    vp = veronese_presentation(tgb_fast("remark"), 2)
    cc_remark = veronese_cross_check(vp)
    assert not cc_remark.agree
    assert cc_remark.ambient_verdict.kind == "GROWING"
    assert cc_remark.veronese_verdict.kind == "STABLE"
    assert vp.all_relations_monomial()


def test_cross_check_example1_both_growing(tgb_fast):
    cc = veronese_cross_check(veronese_presentation(tgb_fast("example1"), 2))
    assert cc.agree
    assert cc.ambient_verdict.kind == "GROWING"
    assert cc.veronese_verdict.kind == "GROWING"


def test_hilbert_mismatch_hard_failure():
    # not generated in degree <= n slices: the honest hard failure fires
    from cohprobe.errors import HilbertMismatch

    gt = GeneratorTable(["x", "z"], weights=[1, 3])
    pres = AlgebraPresentation(QQ, gt, [], label="weighted_free")
    tgb = complete_to_degree(pres, 8)
    with pytest.raises(HilbertMismatch):
        veronese_presentation(tgb, 2)
