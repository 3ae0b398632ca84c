"""A seeded random-presentation sweep: the two profile sources of
`probe_ideal` against each other and against an independent oracle.

Each random algebra has 2-3 letters of weight 1 or 2 and 1-3 relations of
degree 2-4; a relation has 1-3 terms with coefficients in {-2, -1, 1, 2, 3},
and the field cycles through Q, F32003 and F3.  A relation of degree 2 may
have a letter term (a letter of weight 2).  For each algebra completed at D
the sweep checks dim A_d against `component_dim_bruteforce` for d <= 5, then
probes the first 12 enumerated right ideals and 3 ideals generated by one
binomial: the profile of `probe_ideal` (the rank route where Anick's
criterion holds), the count of `kernel_min_generators` and
`oracles.ideal_syzygy_profile_oracle` must agree.  The normal form of
every normal word and of every product of two normal words of degree <=
min(D, 5) must equal `oracles.reference_normal_form`; on a basis of words
and binomials it is the one-term chase of `normal_form_row`.  The
completion at D of the algebra and of its opposite must resolve every
overlap of degree <= D (`oracles.overlap_failures`).  The minimal
resolution of k = A/A_+ to length 2, at the bound min(D, 5), must pass
`audit_resolution`, and its Tor_1 and Tor_2 rows must equal those of
`oracles.bar_tor_trivial_module`.

Run a larger sweep from the repository root with

    PYTHONPATH=src python tests/sweep.py --algebras 200 -D 8 --seed 2

which prints one line per disagreement and a summary, and exits 1 when any
check disagrees.
"""

import argparse
import random
import sys
from dataclasses import dataclass, field

from cohprobe.coherence import RightIdealSpec, enumerate_ideals, ideal_map, probe_ideal
from cohprobe.freealg import GeneratorTable, NcPoly, enumerate_words, word_str
from cohprobe.gbasis import (
    AlgebraPresentation,
    complete_to_degree,
    component_dim_bruteforce,
    opposite,
)
from cohprobe.grmod import audit_resolution, kernel_min_generators, minimal_resolution
from cohprobe.linalg import QQ, PrimeField

from oracles import (
    bar_tor_trivial_module,
    ideal_syzygy_profile_oracle,
    overlap_failures,
    reference_normal_form,
)

FIELDS = (QQ, PrimeField(32003), PrimeField(3))
COEFFS = (-2, -1, 1, 2, 3)
IDEALS = 12
BINOMIALS = 3
TOR_BOUND = 5
NF_BOUND = 5


def random_presentation(rng, k):
    """The k-th algebra of the sweep; the field is FIELDS[k % 3]."""
    fld = FIELDS[k % len(FIELDS)]
    n = rng.choice((2, 3))
    gt = GeneratorTable(["x", "y", "z"][:n], weights=[rng.choice((1, 2)) for _ in range(n)])
    relations = []
    target = rng.randint(1, 3)
    while len(relations) < target:
        words = enumerate_words(gt, rng.randint(2, 4))
        if not words:
            continue
        picked = rng.sample(words, min(len(words), rng.randint(1, 3)))
        r = NcPoly.build(gt, fld, [(w, fld.of_fraction(rng.choice(COEFFS), 1)) for w in picked])
        if not r.is_zero():
            relations.append(r)
    return AlgebraPresentation(fld, gt, relations, label=f"random{k}-{fld.name}")


def has_letter_terms(p):
    return any(len(t) == 1 for r in p.relations for t in r.terms)


def binomial_ideals(tgb, rng):
    """Up to BINOMIALS ideals, each generated by a*u + b*v for distinct normal
    words u, v of one degree <= 3 and a, b nonzero."""
    fld = tgb.field
    pools = [tgb.normal_words(d) for d in range(1, min(3, tgb.D) + 1)]
    pools = [words for words in pools if len(words) >= 2]
    out = []
    for _ in range(BINOMIALS if pools else 0):
        u, v = rng.sample(rng.choice(pools), 2)
        a, b = (fld.of_fraction(rng.choice((-2, -1, 1, 2)), 1) for _ in range(2))
        out.append(RightIdealSpec.normalized(tgb, [NcPoly.build(tgb.gt, fld, [(u, a), (v, b)])]))
    return out


def kernel_profile(tgb, ideal):
    profile = [0] * (tgb.D + 1)
    for s in kernel_min_generators(ideal_map(tgb, ideal)).source.shifts:
        profile[s] += 1
    return profile


def normal_form_disagreements(tgb):
    """The normal and product words of degree <= min(tgb.D, NF_BOUND) whose
    normal form differs from the reference rewriting."""
    top = min(tgb.D, NF_BOUND)
    words = {
        w + u
        for a in range(top + 1) for w in tgb.normal_words(a)
        for b in range(top + 1 - a) for u in tgb.normal_words(b)
    }
    one = tgb.field.one()
    return [
        ("normal form", word_str(tgb.gt, w))
        for w in sorted(words)
        if tgb.normal_form_word(w) != reference_normal_form(tgb, {w: one})
    ]


def resolution_disagreements(tgb):
    """Where the resolution of k = A/A_+ to length 2 fails its audit or
    differs from the bar complex in Tor_1 or Tor_2, at degrees 1..tgb.D."""
    letters = [NcPoly.monomial(tgb.gt, tgb.field, (i,)) for i in range(len(tgb.gt.names))]
    res = minimal_resolution(ideal_map(tgb, RightIdealSpec(letters)), length=2)
    out = []
    audit = audit_resolution(res)
    if not (audit["minimal"] and audit["exact"] and audit["surjective"]):
        out.append(("audit", audit["detail"]))
    bar = bar_tor_trivial_module(tgb, tgb.D)
    for i in (1, 2):
        if res.tor[i][1:] != bar[i][1:]:
            out.append((f"tor{i}", (res.tor[i], bar[i])))
    return out


@dataclass
class SweepCase:
    """One random algebra: its completed basis, the ideals it probed and
    every check that disagreed, as (what, detail) pairs."""

    presentation: AlgebraPresentation
    tgb: object
    ideals: int = 0
    disagreements: list = field(default_factory=list)

    @property
    def rank_route(self):
        return self.tgb.anick_series is not None

    @property
    def chase(self):
        return self.tgb.binomial


def check_algebra(p, D, rng):
    tgb = complete_to_degree(p, D)
    case = SweepCase(p, tgb)
    for side, t in (("A", tgb), ("A^op", complete_to_degree(opposite(p), D))):
        failures = overlap_failures(t)
        if failures:
            case.disagreements.append(("overlaps", (side, failures)))
    for d in range(min(5, D) + 1):
        if tgb.dim(d) != component_dim_bruteforce(p, d):
            case.disagreements.append(("dim", d))
    case.disagreements += normal_form_disagreements(tgb)
    for ideal in enumerate_ideals(tgb, 2, IDEALS) + binomial_ideals(tgb, rng):
        profiles = (
            probe_ideal(tgb, ideal).profile,
            kernel_profile(tgb, ideal),
            ideal_syzygy_profile_oracle(tgb, ideal.gens, D),
        )
        case.ideals += 1
        if profiles[0] != profiles[1] or profiles[1] != profiles[2]:
            case.disagreements.append(("profile", (ideal.strings(tgb), profiles)))
    case.disagreements += resolution_disagreements(tgb.truncated(min(D, TOR_BOUND)))
    return case


def sweep(seed, algebras, D):
    """Yield the SweepCase of each of the first `algebras` algebras of the seed."""
    rng = random.Random(seed)
    for k in range(algebras):
        yield check_algebra(random_presentation(rng, k), D, rng)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--algebras", type=int, default=40)
    ap.add_argument("-D", type=int, default=6)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    ideals = failed = rank = chase = letter = letter_rank = 0
    for case in sweep(args.seed, args.algebras, args.D):
        ideals += case.ideals
        failed += len(case.disagreements)
        rank += case.rank_route
        chase += case.chase
        letters = has_letter_terms(case.presentation)
        letter += letters
        letter_rank += letters and case.rank_route
        for what, detail in case.disagreements:
            print(f"DISAGREE {case.presentation.label} "
                  f"{case.presentation.relation_strings()} {what} {detail}")
    print(f"seed {args.seed}, D={args.D}: {args.algebras} algebras, {ideals} ideals, "
          f"{failed} disagreements; {rank} on the rank route; {chase} on the one-term "
          f"chase; {letter} with letter terms, {letter_rank} of them on the rank route")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
