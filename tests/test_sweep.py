"""The tier-1 slice of the seeded random-presentation sweep (sweep.py), its
negative controls, and Tor(k, k) where Anick's criterion holds on algebras
whose relations have letter terms."""

from cohprobe import gbasis, grmod
from cohprobe.algfile import parse_algebra_file
from cohprobe.freealg import NcPoly
from cohprobe.gbasis import complete_to_degree, opposite
from cohprobe.grmod import FreeModule, ModuleMap, minimal_resolution
from cohprobe.linalg import QQ, PrimeField

from conftest import SLICE
from oracles import bar_tor_trivial_module, span_rank
from sweep import has_letter_terms, sweep

# a weight-2 letter z that a relation solves for: k[x, y], and a one-relator
# algebra on x, y, both of global dimension 2
LETTER_ALGEBRAS = (
    "label letter_commutative\ngen x 1\ngen y 1\ngen z 2\nrel z - x*y\nrel z - y*x\n",
    "label letter_onerel\ngen x 1\ngen y 1\ngen z 2\nrel z - x*y\nrel z*x - x*z\n",
)


def _letter_rank_cases(cases):
    return [c for c in cases if c.rank_route and has_letter_terms(c.presentation)]


def test_sweep_slice_agrees(slice_cases):
    assert [(c.presentation.label, c.disagreements) for c in slice_cases if c.disagreements] == []
    assert sum(c.ideals for c in slice_cases) > 300
    # both profile sources run, and letter terms do not force the kernel route
    assert any(not c.rank_route for c in slice_cases)
    assert _letter_rank_cases(slice_cases)


def _letters_relations_rho(p, D):
    """L_d, R_d and rho_d for d <= D: letters of weight d, relations of
    degree d, and the rank of the letter parts of those relations."""
    gt, fld = p.gens, p.field
    L = [gt.weights.count(d) for d in range(D + 1)]
    rels = [r for r in p.relations_through(D) if r.degree <= D]
    R = [sum(r.degree == d for r in rels) for d in range(D + 1)]
    rho = [
        span_rank(fld, [{t[0]: c for t, c in r.terms.items() if len(t) == 1}
                        for r in rels if r.degree == d])
        for d in range(D + 1)
    ]
    return L, R, rho


def test_sweep_fails_without_the_hilbert_identity(monkeypatch):
    # negative control: c(t) taken on trust puts every algebra on the rank
    # route, and the slice must then see profiles disagree
    def unchecked(tgb):
        L, R, _ = _letters_relations_rho(tgb.presentation, tgb.D)
        return [int(d == 0) - L[d] + R[d] for d in range(tgb.D + 1)]

    monkeypatch.setattr(gbasis.TruncatedGroebnerBasis, "anick_series", property(unchecked))
    cases = list(sweep(**SLICE))
    assert all(c.rank_route for c in cases)
    assert sum(len(c.disagreements) for c in cases) > 0


def test_sweep_flags_level_one_without_the_relations(monkeypatch):
    # negative control: level 1 taken as ker(P^0 -> F0) instead of
    # ker(P^0 -> M) resolves the wrong module, and the resolution checks
    # of the sweep must see it on every algebra
    real = grmod.kernel_min_generators
    monkeypatch.setattr(grmod, "kernel_min_generators",
                        lambda f, relations=None, step=1: real(f, step=step))
    cases = list(sweep(seed=1, algebras=6, D=6))
    assert all(any(what == "tor1" for what, _ in c.disagreements) for c in cases)


def test_sweep_flags_a_chase_without_the_lead_coefficient(monkeypatch):
    # negative control: a one-term chase that never divides by the lead
    # coefficient a of the integer reducer is wrong over Q wherever a monic
    # binomial has a non-integral coefficient, and the normal-form check of
    # the sweep must see it.  It ignores the degree hint of products
    real = gbasis.TruncatedGroebnerBasis._new_row

    def chase_without_a(self, word, *hints):
        if not self.binomial:
            return real(self, word)
        idx = self.normal_index(self.gt.word_degree(word))
        num = 1
        while (pos := self._index.find(word)) is not None:
            i, j, (_, tail) = pos
            if not tail:
                return {}
            ((t, tc),) = tail
            word = word[:i] + t + word[j:]
            num = self.field.canonical(num * tc)
        return {idx[word]: self.field.of_fraction(num, 1)}

    monkeypatch.setattr(gbasis.TruncatedGroebnerBasis, "_new_row", chase_without_a)
    cases = list(sweep(seed=1, algebras=6, D=6))
    flagged = [c for c in cases if any(what == "normal form" for what, _ in c.disagreements)]
    assert flagged and all(c.chase and c.presentation.field == QQ for c in flagged)


def _tor_k(tgb):
    gt = tgb.gt
    k = ModuleMap(
        tgb, FreeModule(tuple(gt.weights)), FreeModule((0,)),
        {(0, i): NcPoly.monomial(gt, tgb.field, (i,)) for i in range(len(gt))},
    )
    return minimal_resolution(k, length=3).tor


def test_tor_of_letter_term_algebras_on_the_rank_route(slice_cases):
    # Tietze elimination of the letters solved for: Tor_1(k, k) = L - rho,
    # Tor_2(k, k) = R - rho and Tor_3(k, k) = 0, on both sides, against the
    # bar complex for Tor_1 and Tor_2
    D = 5
    presentations = [parse_algebra_file(text, field=field)
                     for text in LETTER_ALGEBRAS for field in (QQ, PrimeField(32003))]
    presentations += [c.presentation for c in _letter_rank_cases(slice_cases)]
    for p in presentations:
        L, R, rho = _letters_relations_rho(p, D)
        assert any(rho)
        for tgb in (complete_to_degree(p, D), complete_to_degree(opposite(p), D)):
            assert tgb.anick_series is not None, p.label
            tor = _tor_k(tgb)
            assert tor[1] == [L[d] - rho[d] for d in range(D + 1)], p.label
            assert tor[2] == [R[d] - rho[d] for d in range(D + 1)], p.label
            assert not any(tor[3]), p.label
            assert tor[:3] == bar_tor_trivial_module(tgb, D), p.label
