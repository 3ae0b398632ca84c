"""Coherence probes: Tor_1 profiles of finitely generated right ideals.

A probe takes the map  f: (+) A(-deg g_i) -> A  onto the ideal J and
counts the minimal generators of ker f per degree up to D; the counts are
read as evidence.  Verdicts are evidence, never proofs: STABLE(d0) means
the profile is silent after d0 with at least the stability margin of
trailing silent degrees; GROWING means new generators keep appearing
through the top half of the window.

Profiles are graded by module degree (the degree of the syzygy inside
(+) A(-deg g_i)), which is also the grading of Tor_1(J, k) and matches
Tor_2(A/J, k) degree for degree.  The profile has two sources:

- where Anick's criterion certifies global dimension <= 2 through D
  (the basis's anick_series holds its c(t)), Tor balance and the Euler
  characteristic of A/J (x) P(k) give profile(t) = S(t) - H_J(t) c(t)
  mod t^(D+1), S counting the generators g_i by degree and H_J(e) the rank
  of f at degree e: one rank per degree, no kernel.  Where every column
  has at most one entry, as for a monomial ideal over a basis of words
  and binomials (whose normal forms are one scaled word or 0), that rank
  is a count of distinct row indices;
- elsewhere, the count of grmod.kernel_min_generators(f).

kernel_min_generators, the one routine that builds a syzygy module, is
also the one source of witnesses: the minimal syzygies of the top window
(D//2, D], computed only when read and when the profile counts one there.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice

from .algfile import parse_algebra_file
from .errors import InputError
from .freealg import NcPoly, parse_poly, poly_str
from .gbasis import AlgebraPresentation, complete_to_degree, opposite
from .grmod import FreeModule, ModuleMap, kernel_min_generators, minimal_resolution
from .linalg import QQ, rank

STABILITY_MARGIN = 4


@dataclass
class RightIdealSpec:
    """Finitely generated homogeneous right ideal, generators in normal form."""

    gens: list

    @classmethod
    def from_strings(cls, tgb, texts):
        gens = [parse_poly(tgb.gt, tgb.field, t) for t in texts]
        return cls.normalized(tgb, gens)

    @classmethod
    def normalized(cls, tgb, gens):
        out = []
        for g in gens:
            nf = tgb.normal_form(g)
            if nf.is_zero():
                raise InputError("ideal generator is zero in the algebra")
            if nf.degree < 1:
                raise InputError("ideal generators must have degree >= 1")
            out.append(nf)
        if not out:
            raise InputError("ideal needs at least one generator")
        return cls(out)

    def strings(self, tgb):
        return [poly_str(tgb.gt, tgb.field, g) for g in self.gens]


@dataclass
class Verdict:
    kind: str            # STABLE | GROWING | INCONCLUSIVE
    d0: int = None       # last degree with a new generator (STABLE only)

    def __str__(self):
        if self.kind == "STABLE":
            return f"STABLE({self.d0})"
        return self.kind

    def to_dict(self):
        return {"kind": self.kind, "d0": self.d0}


def classify_profile(profile, D):
    """Verdict from a new-generator profile indexed 0..D.

    STABLE(d0) when the last new generator sits at d0 with
    D - d0 >= STABILITY_MARGIN;
    otherwise GROWING when at least half (floor) of the degrees in the top
    half-window (D//2, D] carry new generators; otherwise INCONCLUSIVE.
    """
    d0 = 0
    for d, c in enumerate(profile):
        if c:
            d0 = d
    if D - d0 >= STABILITY_MARGIN:
        return Verdict("STABLE", d0)
    top = range(D // 2 + 1, D + 1)
    nnz = sum(1 for d in top if profile[d])
    if nnz >= max(1, len(top) // 2):
        return Verdict("GROWING")
    return Verdict("INCONCLUSIVE")


@dataclass
class CoherenceProbeReport:
    ideal_strings: list
    D: int
    profile: list                 # new minimal kernel generators per module degree
    verdict: Verdict
    find_witness: object          # () -> witness, run only when the witness is read

    @property
    def witness(self):
        """(degree, [component strings]) of the minimal syzygies above D//2."""
        if not any(self.profile[self.D // 2 + 1:]):
            return []
        return self.find_witness()

    def to_dict(self):
        return {
            "gens": self.ideal_strings,
            "D": self.D,
            "profile": self.profile,
            "verdict": self.verdict.to_dict(),
            "witness": [[d, comps] for d, comps in self.witness],
            "margin": STABILITY_MARGIN,
        }


def ideal_map(tgb, ideal):
    """The presentation map (+) A(-deg g_i) -> A of the ideal."""
    shifts = tuple(g.degree for g in ideal.gens)
    entries = {(0, i): g for i, g in enumerate(ideal.gens)}
    return ModuleMap(tgb, FreeModule(shifts), FreeModule((0,)), entries)


def _rank_profile(f, c):
    """S(t) - H_J(t) c(t) mod t^(D+1): the profile where c certifies global
    dimension <= 2, with H_J(e) the rank of f at degree e, a count of
    distinct row indices where every column has at most one entry
    (linalg.rank)."""
    D = f.tgb.D
    h = [0] * (D + 1)
    for e in range(min(f.source.shifts), D + 1):
        h[e] = rank(f.tgb.field, f.component_columns(e))
    counts = f.degree_counts()
    return [counts[d] - sum(h[d - j] * c[j] for j in range(d + 1)) for d in range(D + 1)]


def _top_window(gens, D):
    """(degree, [component strings]) of the generators of the map gens above D//2."""
    tgb = gens.tgb
    zero = NcPoly({}, None)
    return [
        (s, [poly_str(tgb.gt, tgb.field, gens.entries.get((k, l), zero))
             for k in range(len(gens.target))])
        for l, s in enumerate(gens.source.shifts) if s > D // 2
    ]


def probe_ideal(tgb, ideal):
    """Per-degree Tor_1 new-generator profile of the ideal up to the bound of tgb."""
    D = tgb.D
    f = ideal_map(tgb, ideal)
    c = tgb.anick_series
    if c is None:
        gens = kernel_min_generators(f)
        profile = gens.degree_counts()
    else:
        gens = None
        profile = _rank_profile(f, c)

    def find_witness():
        return _top_window(gens if gens is not None else kernel_min_generators(f), D)

    verdict = classify_profile(profile, D)
    return CoherenceProbeReport(ideal.strings(tgb), D, profile, verdict, find_witness)


_VERDICT_RANK = {"STABLE": 0, "INCONCLUSIVE": 1, "GROWING": 2}


def worst_verdict(verdicts):
    """The first verdict of the highest rank; there is none over zero verdicts."""
    return max(verdicts, key=lambda v: _VERDICT_RANK[v.kind])


@dataclass
class AggregateProbeReport:
    label: str
    side: str
    D: int
    gen_degree_bound: int
    max_ideals: int
    reports: list
    aggregate: Verdict
    witness_ideal: list  # gens of the first worst-verdict ideal

    def to_dict(self):
        return {
            "algebra": self.label,
            "side": self.side,
            "D": self.D,
            "gen_degree_bound": self.gen_degree_bound,
            "max_ideals": self.max_ideals,
            "aggregate": self.aggregate.to_dict(),
            "witness_ideal": self.witness_ideal,
            "ideals": [r.to_dict() for r in self.reports],
        }


def enumerate_ideals(tgb, gen_degree_bound, max_ideals):
    """The first max_ideals RightIdealSpecs with <= 2 normal-word generators
    of degree <= gen_degree_bound: the single words, then the pairs (i, j),
    i < j, in word order; only the ideals returned are built."""
    words = [w for d in range(1, gen_degree_bound + 1) for w in tgb.normal_words(d)]
    fld, gt = tgb.field, tgb.gt
    singles = ((w,) for w in words)
    gens = islice(chain(singles, combinations(words, 2)), max_ideals)
    return [RightIdealSpec([NcPoly.monomial(gt, fld, w) for w in ws]) for ws in gens]


def probe_algebra(tgb, gen_degree_bound=2, max_ideals=64, side="right"):
    """Probe every enumerated ideal of the algebra of tgb, up to its bound,
    and aggregate the worst verdict.

    The right variant probes tgb itself.  The left variant probes the
    opposite presentation, completed to the same bound; its ideals live in
    opposite coordinates.  Raises InputError when no ideal is enumerated, so
    that no verdict is ever aggregated over zero ideals, and when max_ideals
    < 1, which would slice the enumeration from its end.
    """
    if side not in ("right", "left"):
        raise InputError("side must be 'right' or 'left'")
    if max_ideals < 1:
        raise InputError(f"max ideals {max_ideals} < 1")
    p, D = tgb.presentation, tgb.D
    if side == "left":
        tgb = complete_to_degree(opposite(p), D)
    ideals = enumerate_ideals(tgb, gen_degree_bound, max_ideals)
    if not ideals:
        raise InputError(
            f"no ideals to probe with gen degree bound {gen_degree_bound} "
            f"and max ideals {max_ideals}"
        )
    reports = [probe_ideal(tgb, ideal) for ideal in ideals]
    aggregate = worst_verdict([r.verdict for r in reports])
    witness = []
    for r in reports:
        if r.verdict.kind == aggregate.kind:
            witness = r.ideal_strings
            break
    return AggregateProbeReport(
        p.label, side, D, gen_degree_bound, max_ideals, reports, aggregate, witness
    )


# --- built-in corpus ------------------------------------------------------


@dataclass
class CorpusEntry:
    label: str
    presentation: AlgebraPresentation
    expected_right: str
    expected_left: str


# (expected right verdict, expected left verdict, algebra file text)
_CORPUS = [
    ("STABLE", "STABLE", """
# polynomial ring in one variable
label free1
gen x 1
"""),
    ("STABLE", "STABLE", """
# tensor algebra on two generators; coherent, Tor_2 == 0
label free2
gen x 1
gen y 1
"""),
    ("STABLE", "STABLE", """
# one monomial relation; coherent
label xy_zero
gen x 1
gen y 1
rel x*y
"""),
    ("GROWING", "GROWING", """
# neither side coherent; J=(x) needs a new syzygy every degree
label example1
gen x 1
gen y 1
gen z 1
rel x*y
rel y*z
rel x*z - z*x
"""),
    ("STABLE", "GROWING", """
# right coherent, not left coherent
label example2
gen x 1
gen y 1
gen z 1
rel y*z
rel x*z - z*x
"""),
    ("GROWING", "GROWING", """
# infinitely related: x^2 y, y x^2, y x y, x y^(2n+1) x
label remark
gen x 1
gen y 1
rel x^2*y
rel y*x^2
rel y*x*y
relfam x*y^{2*n+1}*x  n >= 0
"""),
    ("STABLE", "STABLE", """
# coherent but not right Noetherian: chain (tz, t^2z^2, ...)
label noetherian_base
gen t 1
gen z 1
rel z*t
"""),
    ("STABLE", "STABLE", """
# Serre desk model: coordinate ring of the projective line
label commutative_model
gen x 1
gen y 1
rel x*y - y*x
"""),
]


def builtin_corpus(field=QQ):
    """The example algebras of the source material, with expected verdicts."""
    entries = []
    for right, left, text in _CORPUS:
        p = parse_algebra_file(text, field=field)
        entries.append(CorpusEntry(p.label, p, right, left))
    return entries


def noetherian_chain_profile(tgb):
    """New-generator flags for the staged ideal chain (tz, t^2 z^2, ...).

    Stage m adds t^m z^m (degree 2m <= tgb.D); the flag says whether the stage
    generator is a new minimal generator on top of the earlier stages.  The
    profile in degree 2m depends only on the generators of degree <= 2m, so
    one profile of the whole chain answers every stage.  That profile is
    Tor_0(J, k) = Tor_1(A/J, k), the level-1 row of a resolution of A/J.
    """
    gt, fld = tgb.gt, tgb.field
    t, z = gt.index("t"), gt.index("z")
    stages = range(1, tgb.D // 2 + 1)
    gens = [NcPoly.monomial(gt, fld, (t,) * m + (z,) * m) for m in stages]
    profile = minimal_resolution(ideal_map(tgb, RightIdealSpec(gens)), length=1).tor[1]
    return [bool(profile[2 * m]) for m in stages]
