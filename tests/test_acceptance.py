"""Acceptance suite: one test per criterion, exact expectations throughout.

Heavy probes run on the F32003 fast path; criterion 1 runs the Q audit path
as well.  Run with `pytest -s tests/test_acceptance.py` to see the PASS
lines.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

from cohprobe.cli import main as cli_main
from cohprobe.coherence import (
    RightIdealSpec,
    builtin_corpus,
    noetherian_chain_profile,
    probe_algebra,
    probe_ideal,
)
from cohprobe.freealg import parse_poly
from cohprobe.gbasis import (
    complete_to_degree,
    component_dim_bruteforce,
    hilbert_dims,
    opposite,
)
from cohprobe.grmod import FreeModule, ModuleMap, audit_resolution, minimal_resolution
from cohprobe.linalg import QQ, PrimeField
from cohprobe.veronese import veronese_cross_check, veronese_presentation
from cohprobe.zalg import ZAlgebraWindow, cohproj_hom

from conftest import WITNESS_RIGHT
from oracles import fold_audit, ideal_syzygy_profile_oracle
from windows import (
    ProjectivePresentation,
    coker_transport,
    coker_window,
    gamma_star_presentation,
    projective_window,
    tensor_projective_iso_check,
    truncate_below,
)

FAST = PrimeField(32003)
ALGEBRAS = Path(__file__).resolve().parent.parent / "algebras"


def _pres(label, field=FAST):
    for e in builtin_corpus(field):
        if e.label == label:
            return e.presentation
    raise KeyError(label)


def report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_01_oracle_equivalence():
    """Groebner dims equal brute-force span dims for every corpus algebra,
    every degree <= 8, on both the fast and the audit field.  Zero tolerance."""
    for field, fname in ((FAST, "F32003"), (QQ, "Q")):
        for entry in builtin_corpus(field):
            tgb = complete_to_degree(entry.presentation, 8)
            dims = hilbert_dims(tgb, 8)
            oracle = [component_dim_bruteforce(entry.presentation, d) for d in range(9)]
            assert dims == oracle, (fname, entry.label)
    report(1, "hilbert_dims == component_dim_bruteforce, d <= 8, corpus x {F32003, Q}")


def _free2_test_presentations(tgb):
    """Deterministic suite of >= 20 module presentations over T(k^2), each
    given by its relation map."""
    gt, fld = tgb.gt, tgb.field
    P = lambda s: parse_poly(gt, fld, s)
    presented = lambda src, tgt, entries: ModuleMap(
        tgb, FreeModule(tuple(src)), FreeModule(tuple(tgt)), entries)
    presentations = []
    singles = ["x", "y", "x*x", "x*y", "y*x", "y*y",
               "x - y", "x*y - y*x", "x*x - y*y", "x*y + y*x"]
    for text in singles:
        poly = P(text)
        presentations.append(presented((poly.degree,), (0,), {(0, 0): poly}))
    pairs = [("x", "y"), ("x", "x - y"), ("y", "x - y"),
             ("x", "y*y"), ("y", "x*x"), ("x - y", "x*y")]
    for a, b in pairs:
        pa, pb = P(a), P(b)
        presentations.append(
            presented((pa.degree, pb.degree), (0,), {(0, 0): pa, (0, 1): pb})
        )
    matrices = [
        [["x", "y"], ["y", "x"]],
        [["x", "0"], ["y", "x"]],
        [["x*y", "y"], ["0", "x"]],
        [["x", "y*x"], ["y", "x*x"]],
    ]
    for rows in matrices:
        entries = {}
        shifts1 = [0, 0]
        for k in range(2):
            for l in range(2):
                if rows[k][l] != "0":
                    poly = P(rows[k][l])
                    entries[(k, l)] = poly
                    shifts1[l] = poly.degree
        presentations.append(presented(shifts1, (0, 0), entries))
    # trivial module over the free algebra
    presentations.append(presented((1, 1), (0,), {(0, 0): P("x"), (0, 1): P("y")}))
    return presentations


def test_criterion_02_tensor_algebra_coherence():
    """T(k^2), D = 10: >= 20 presentations all have Tor_2 == 0; the right
    probe aggregate is STABLE."""
    tgb = complete_to_degree(_pres("free2"), 10)
    presentations = _free2_test_presentations(tgb)
    assert len(presentations) >= 20
    for i, mp in enumerate(presentations):
        tor = minimal_resolution(mp).tor
        assert tor[2] == [0] * 11, f"presentation {i}"
    agg = probe_algebra(complete_to_degree(_pres("free2"), 10))
    assert agg.aggregate.kind == "STABLE"
    report(2, f"{len(presentations)} presentations with Tor_2 == 0; probe STABLE")


def test_criterion_03_projective_isomorphism():
    """P_i ~ P_{i-1}^{dim V} in cohproj T(V): dimV=2, i=0, depth 8, plus
    the failing negative control."""
    rep = tensor_projective_iso_check(2, 0, 8, field=FAST)
    assert rep.ok
    assert all(src == tgt == rk == 2 ** (0 - l) for l, src, tgt, rk in rep.dims)
    neg = tensor_projective_iso_check(2, 0, 8, field=FAST, negative=True)
    assert not neg.ok
    report(3, "left-concatenation map is a componentwise iso; negative control fails")


def test_criterion_04_example1_not_coherent():
    """Example 1, J = (x): exactly one new syzygy generator at every module
    degree the window certifies (the z^n y ladder), confirmed by the
    independent degreewise kernel oracle; both side probes GROWING."""
    pres = _pres("example1")
    tgb = complete_to_degree(pres, 10)
    ideal = RightIdealSpec.from_strings(tgb, ["x"])
    rep = probe_ideal(tgb, ideal)
    assert rep.profile == [0, 0] + [1] * 9
    assert rep.verdict.kind == "GROWING"
    oracle = ideal_syzygy_profile_oracle(tgb, ideal.gens, 8)
    assert rep.profile[:9] == oracle
    witnesses = {d: comps for d, comps in rep.witness}
    assert witnesses[10] == ["z^8*y"]
    left = probe_algebra(complete_to_degree(pres, 10), side="left")
    assert left.aggregate.kind == "GROWING"
    report(4, "J=(x) grows one syzygy per degree (z^n y); left probe GROWING")


def test_criterion_05_example2_one_sided():
    """Example 2: right probe aggregate STABLE over the full ideal
    enumeration; left probe GROWING with an explicit oracle-confirmed
    witness."""
    pres = _pres("example2")
    right = probe_algebra(complete_to_degree(pres, 10), gen_degree_bound=2)
    assert right.aggregate.kind == "STABLE"
    assert len(right.reports) == 55
    left = probe_algebra(complete_to_degree(pres, 10), gen_degree_bound=2, side="left")
    assert left.aggregate.kind == "GROWING"
    assert left.witness_ideal == ["z"]
    tgb_op = complete_to_degree(opposite(pres), 10)
    witness = RightIdealSpec.from_strings(tgb_op, left.witness_ideal)
    rep = probe_ideal(tgb_op, witness)
    oracle = ideal_syzygy_profile_oracle(tgb_op, witness.gens, 8)
    assert rep.profile[:9] == oracle
    assert rep.profile == [0, 0] + [1] * 9
    report(5, "right aggregate STABLE (55 ideals); left GROWING, witness (z) oracle-confirmed")


def test_criterion_06_remark_algebra():
    """Remark algebra: (x*y) probe GROWING with the oracle-derived profile
    (new generators every other degree); the n=2 Veronese is monomial and
    finitely related with >= 3 trailing silent degrees; the cross-check
    flags the ambient-vs-Veronese disagreement."""
    pres = _pres("remark")
    tgb = complete_to_degree(pres, 10)
    ideal = RightIdealSpec.from_strings(tgb, ["x*y"])
    rep = probe_ideal(tgb, ideal)
    assert rep.verdict.kind == "GROWING"
    oracle = ideal_syzygy_profile_oracle(tgb, ideal.gens, 10)
    assert rep.profile == oracle
    assert [d for d, c in enumerate(rep.profile) if c] == [3, 5, 7, 9]
    vp = veronese_presentation(tgb, 2)
    assert vp.all_relations_monomial()
    assert vp.last_relation_degree() == 2
    assert vp.trailing_silence() >= 3
    cc = veronese_cross_check(vp)
    assert not cc.agree
    assert cc.ambient_verdict.kind == "GROWING"
    assert cc.veronese_verdict.kind == "STABLE"
    report(6, "(x*y) GROWING every other degree; Veronese monomial+finite; cross-check disagrees")


def test_criterion_07_veronese_sanity():
    """Commutative model n=2: 3 generators, new relations only at internal
    degree 2, hilbert 1,3,5,7,...; T(k^2) n=2 relation-free with hilbert
    4^i; hilbert consistency dim A^(n)_i == dim A_(in) holds in every run."""
    comm = _pres("commutative_model")
    tgb = complete_to_degree(comm, 10)
    vp = veronese_presentation(tgb, 2)
    assert len(vp.generator_words) == 3
    assert {i: c for i, c in vp.relations_per_degree.items() if c} == {2: 4}
    assert vp.hilbert_internal == [1, 3, 5, 7, 9, 11]
    assert vp.hilbert_internal == vp.hilbert_ambient
    free2 = _pres("free2")
    tgb2 = complete_to_degree(free2, 10)
    vp2 = veronese_presentation(tgb2, 2)
    assert all(c == 0 for c in vp2.relations_per_degree.values())
    assert vp2.hilbert_internal == [4 ** i for i in range(6)]
    assert vp2.hilbert_internal == vp2.hilbert_ambient
    report(7, "model Veronese: 3 gens, quadratic relations only, hilbert 2i+1; T(k^2): free, 4^i")


def _six_presentations(tgb):
    gt, fld = tgb.gt, tgb.field
    P = lambda s: parse_poly(gt, fld, s)
    return [
        ProjectivePresentation([], [0], {}),                        # P_0
        ProjectivePresentation([], [2], {}),                        # P_2
        ProjectivePresentation([0], [1], {(0, 0): P("x")}),         # point-like
        ProjectivePresentation([1], [2], {(0, 0): P("y")}),         # shifted point
        ProjectivePresentation([-1, -1], [0],
                               {(0, 0): P("x"), (0, 1): P("y")}),   # S_0
        ProjectivePresentation([0, 1], [2],
                               {(0, 0): P("x*y"), (0, 1): P("y")}),
    ]


def test_criterion_08_serre_model_equivalence():
    """Serre desk model, window [-2, 12]: cohproj_hom(P_a, P_b) stabilizes
    to b - a + 1 for 0 <= a <= b <= 5, and the gamma_star round trip
    preserves every pairwise cohproj Hom table on the six-presentation
    test set exactly."""
    tgb = complete_to_degree(_pres("commutative_model"), 14)
    lo, hi = -2, 12
    for a in range(6):
        for b in range(a, 6):
            r = cohproj_hom(
                projective_window(tgb, a, lo, hi), projective_window(tgb, b, lo, hi)
            )
            assert r.stabilized and r.value == b - a + 1, (a, b)
    pps = _six_presentations(tgb)
    direct = [coker_window(pp, tgb, lo, hi) for pp in pps]
    roundtrip = [
        truncate_below(coker_transport(gamma_star_presentation(pp, tgb), lo, hi), hi)
        for pp in pps
    ]
    for i in range(len(pps)):
        for j in range(len(pps)):
            t1 = cohproj_hom(direct[i], direct[j]).table
            t2 = cohproj_hom(roundtrip[i], roundtrip[j]).table
            assert t1 == t2, (i, j)
    report(8, "hom(P_a,P_b) == b-a+1 for a<=b<=5; round trip preserves 36 hom tables")


def test_criterion_09_noetherian_base():
    """k<t,z>/(zt): probe aggregate STABLE while the staged chain
    (tz, t^2 z^2, ...) needs a new generator at every stage up to D."""
    pres = _pres("noetherian_base")
    agg = probe_algebra(complete_to_degree(pres, 10))
    assert agg.aggregate.kind == "STABLE"
    tgb = complete_to_degree(pres, 10)
    stages = noetherian_chain_profile(tgb)
    assert stages == [True] * 5
    report(9, "coherent-but-not-Noetherian: probe STABLE, chain grows at all 5 stages")


def test_criterion_10_structural_audits():
    """Z-window associativity/units, resolution exactness+minimality,
    probe/tor consistency via Tor_i(J,k) = Tor_(i+1)(A/J,k), and
    byte-identical JSON across repeated runs."""
    # Z-window laws
    model = complete_to_degree(_pres("commutative_model"), 10)
    assert ZAlgebraWindow(model, 0, 5).audit()["ok"]
    free2 = complete_to_degree(_pres("free2"), 10)
    assert ZAlgebraWindow(free2, 0, 4).audit()["ok"]
    ex2 = complete_to_degree(_pres("example2"), 10)
    assert ZAlgebraWindow(ex2, 0, 4).audit()["ok"]
    assert fold_audit(projective_window(model, 2, -2, 6))["ok"]
    # resolution audits
    for label in ("free2", "xy_zero", "example2"):
        tgb = complete_to_degree(_pres(label), 8)
        gens = {(0, i): parse_poly(tgb.gt, tgb.field, n) for i, n in enumerate(tgb.gt.names)}
        simple = ModuleMap(tgb, FreeModule(tuple(tgb.gt.weights)), FreeModule((0,)), gens)
        audit = audit_resolution(minimal_resolution(simple))
        assert audit["minimal"] and audit["exact"] and audit["surjective"], label
    # probe/tor consistency on corpus witness ideals
    for label in ("free2", "xy_zero", "example1", "noetherian_base"):
        tgb = complete_to_degree(_pres(label), 8)
        ideal = RightIdealSpec.from_strings(tgb, WITNESS_RIGHT[label])
        rep = probe_ideal(tgb, ideal)
        quotient = ModuleMap(
            tgb,
            FreeModule(tuple(g.degree for g in ideal.gens)),
            FreeModule((0,)),
            {(0, i): g for i, g in enumerate(ideal.gens)},
        )
        assert minimal_resolution(quotient).tor[2] == rep.profile, label
    # determinism: byte-identical JSON across runs
    argv = ["probe", str(ALGEBRAS / "example1.alg"), "--ideal", "x",
            "--field", "F32003", "--json", "-D", "8"]
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert cli_main(argv) == 0
        outs.append(buf.getvalue())
    assert outs[0] == outs[1]
    json.loads(outs[0])
    report(10, "window laws, resolution audits, Tor shift consistency, byte-identical JSON")
