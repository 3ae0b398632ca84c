"""Veronese subalgebras: discovered presentations, P^m modules, cross-checks.

A^{(n)} is presented on one symbol per normal word of A_n.  Relations are
discovered degree by degree: at internal degree i the normal symbol words
modulo the relations found so far are evaluated into A_{in}, and the kernel
of that evaluation is exactly the set of new relations (a nested truncated
completion on the symbol alphabet supplies the "modulo" part).  Internal
degree i always corresponds to ambient degree i*n; reports carry both.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import HilbertMismatch, InputError, NotDegreeOneGenerated
from .freealg import GeneratorTable, NcPoly, word_str
from .gbasis import AlgebraPresentation, complete_to_degree, normal_word_counts
from .grmod import kernel_min_generators
from .linalg import SpanSolver, kernel_basis
from .coherence import STABILITY_MARGIN, RightIdealSpec, ideal_map, probe_algebra

# cumulative component dimensions the Veronese side of a cross-check may probe
DIM_BUDGET = 2500


def degree_one_generated(tgb):
    """True iff A_1 * A_(d-1) spans A_d for every 2 <= d <= tgb.D.

    That is Tor_1(k, k) = 0 in degrees 2..D, and Tor_1(k, k) is the letters
    modulo the letter terms of the relations: a product u*r*v with u or v
    nonempty has none (A. Polishchuk, L. Positselski, "Quadratic Algebras",
    AMS 2005, ch. 1).  So one rank decides it, with no product table: the
    letter terms of the relations of degree <= D must span every letter of
    weight 2..D.
    """
    p, D = tgb.presentation, tgb.D
    span = SpanSolver(p.field)
    for r in p.relations_through(D):
        if 2 <= r.degree <= D:  # a family member may be a letter of weight 1
            span.add({t[0]: c for t, c in r.terms.items() if len(t) == 1})
    return span.rank == sum(1 for w in p.gens.weights if 2 <= w <= D)


def _require_degree_one(tgb):
    """Raise NotDegreeOneGenerated unless A is."""
    if not degree_one_generated(tgb):
        raise NotDegreeOneGenerated(f"{tgb.presentation.label} is not generated in degree 1")


@dataclass
class VeronesePresentation:
    ambient: object                  # completed basis of A it was discovered from
    n: int
    window: int                      # max internal degree discovered
    generator_words: list            # normal words of A_n, in order
    presentation: AlgebraPresentation
    relations_per_degree: dict       # internal degree -> count of new relations
    relation_monomial: dict          # internal degree -> all new relations monomial?
    hilbert_internal: list           # dim A^{(n)}_i from the discovered presentation
    hilbert_ambient: list            # dim A_{i n} from the ambient algebra

    def last_relation_degree(self):
        degs = [i for i, c in self.relations_per_degree.items() if c]
        return max(degs) if degs else 0

    def trailing_silence(self):
        return self.window - self.last_relation_degree()

    def all_relations_monomial(self):
        return all(self.relation_monomial.get(i, True) for i in self.relations_per_degree)

    def to_dict(self):
        return {
            "n": self.n,
            "window_internal": self.window,
            "generators": {
                name: word_str(self.ambient.gt, w)
                for name, w in zip(self.presentation.gens.names, self.generator_words)
            },
            "relations_per_internal_degree": {
                str(i): c for i, c in sorted(self.relations_per_degree.items())
            },
            "ambient_degrees": {str(i): i * self.n for i in self.relations_per_degree},
            "relations": self.presentation.relation_strings(),
            "hilbert_internal": self.hilbert_internal,
            "hilbert_ambient": self.hilbert_ambient,
            "last_relation_internal_degree": self.last_relation_degree(),
            "trailing_silent_degrees": self.trailing_silence(),
            "all_relations_monomial": self.all_relations_monomial(),
        }


def veronese_presentation(tgb, n):
    """Discover a presentation of A^{(n)} valid to internal degree tgb.D // n.

    Generators are the dim A_n normal words; at each internal degree the
    kernel of (normal symbol words) -> A_{in} contributes the new relations.
    Hilbert agreement with the ambient algebra is a hard invariant; where it
    fails, the error says whether A is generated in degree 1, without which
    the words of A_n need not generate A^{(n)}.
    """
    if n < 2:
        raise InputError("Veronese step n must be >= 2")
    label = tgb.presentation.label
    fld = tgb.field
    gen_words = tgb.normal_words(n)
    names = [f"v{i}" for i in range(len(gen_words))]
    sym_gt = GeneratorTable(names)
    window = tgb.D // n

    relations = []
    relations_per_degree = {}
    relation_monomial = {}
    hilbert_internal = [1]
    hilbert_ambient = [tgb.dim(0)]
    for i in range(1, window + 1):
        sym_pres = AlgebraPresentation(fld, sym_gt, list(relations), label=f"{label}^({n})")
        sym_tgb = complete_to_degree(sym_pres, i)
        sym_words = sym_tgb.normal_words(i)
        cols = [tgb.normal_form_row(tuple(letter for s in sw for letter in gen_words[s]))
                for sw in sym_words]
        new_rels = [
            NcPoly({sym_words[t]: c for t, c in vec.items()}, i)
            for vec in kernel_basis(fld, cols)
        ]
        relations_per_degree[i] = len(new_rels)
        relation_monomial[i] = all(len(r.terms) == 1 for r in new_rels)
        relations.extend(new_rels)
        # hard hilbert check: surviving symbol words must match dim A_{in}
        dim_pres = len(sym_words) - len(new_rels)
        dim_amb = tgb.dim(i * n)
        if dim_pres != dim_amb:
            why = "" if degree_one_generated(tgb) else f"{label} is not generated in degree 1: "
            raise HilbertMismatch(
                f"{why}A^({n}) internal degree {i}: presentation gives {dim_pres}, "
                f"ambient dim A_{i * n} = {dim_amb}"
            )
        hilbert_internal.append(dim_pres)
        hilbert_ambient.append(dim_amb)
    final = AlgebraPresentation(fld, sym_gt, relations, label=f"{label}^({n})")
    return VeronesePresentation(
        tgb,
        n,
        window,
        gen_words,
        final,
        relations_per_degree,
        relation_monomial,
        hilbert_internal,
        hilbert_ambient,
    )


@dataclass
class PmModuleReport:
    m: int
    generator_degrees: list      # internal degrees of minimal generators
    syzygy_profile: list         # new first syzygies per internal degree
    window: int

    def trailing_silence(self):
        last = 0
        for i, c in enumerate(self.syzygy_profile):
            if c:
                last = i
        return self.window - last

    def to_dict(self):
        return {
            "m": self.m,
            "generator_degrees_internal": self.generator_degrees,
            "syzygy_profile": self.syzygy_profile,
            "trailing_silent_degrees": self.trailing_silence(),
        }


def pm_module_presentations(tgb, n):
    """Minimal generators and first-syzygy profiles of P^m = (+)_i A_{m+in}.

    Everything is computed over the A^{(n)} grading (internal degrees) up to
    the bound of the ambient truncated basis, which supplies all products.
    P^m is generated by A_m as A is generated in degree 1 (checked); its
    syzygies are kernel_min_generators(onto A, step=n).  Trailing silence
    in the syzygy profile is the finite-presentation evidence.
    """
    _require_degree_one(tgb)
    fld, D = tgb.field, tgb.D
    reports = []
    for m in range(n):
        window = (D - m) // n
        gens = tgb.normal_words(m)  # generators of P^m in internal degree 0
        gen_degrees = [0] * len(gens)
        # P^m's generators as a map onto A: its kernel holds the syzygies
        onto = ideal_map(tgb, RightIdealSpec([NcPoly.monomial(tgb.gt, fld, u) for u in gens]))
        syz_profile = kernel_min_generators(onto, step=n).degree_counts()[m::n]
        reports.append(PmModuleReport(m, gen_degrees, syz_profile, window))
    return reports


@dataclass
class VeroneseCrossCheck:
    label: str
    n: int
    ambient_verdict: object
    veronese_verdict: object
    agree: bool
    ambient_D: int
    veronese_D: int
    discovery_window: int
    note: str

    def to_dict(self):
        return {
            "algebra": self.label,
            "n": self.n,
            "ambient": self.ambient_verdict.to_dict(),
            "veronese": self.veronese_verdict.to_dict(),
            "agree": self.agree,
            "ambient_D": self.ambient_D,
            "veronese_D": self.veronese_D,
            "discovery_window_internal": self.discovery_window,
            "note": self.note,
        }


def _affordable_depth(tgb):
    """Deepest m <= tgb.D with cumulative component dimensions within DIM_BUDGET."""
    counts = normal_word_counts(tgb)
    total = 0
    m = 0
    for d, c in enumerate(counts):
        total += c
        if total > DIM_BUDGET:
            break
        m = d
    return m


def veronese_cross_check(vp, gen_degree_bound=2, max_ideals=64):
    """Probe A and its discovered A^{(n)} presentation vp; report agreement.

    A, n and the ambient bound D are those of the basis vp was discovered
    from; A must be generated in degree 1.

    The discovered presentation is certified equal to A^{(n)} only up to the
    discovery window D // n; probing it deeper probes the algebra defined by
    the discovered relations, which is the honest reading of "finitely
    presented approximation".  The probe depth on the Veronese side goes as
    deep as the cumulative Veronese dimensions afford (DIM_BUDGET), never
    below STABILITY_MARGIN + 2 so a stability verdict stays reachable, never
    beyond the ambient D.  Disagreement is flagged as evidence, never
    refutation.
    """
    tgb = vp.ambient
    p, n, D = tgb.presentation, vp.n, tgb.D
    _require_degree_one(tgb)
    ambient = probe_algebra(tgb, gen_degree_bound, max_ideals, side="right")
    vtgb = complete_to_degree(vp.presentation, D)
    vD = min(D, max(_affordable_depth(vtgb), STABILITY_MARGIN + 2))
    vtgb = vtgb.truncated(vD)
    ver = probe_algebra(vtgb, gen_degree_bound, max_ideals, side="right")
    agree = ambient.aggregate.kind == ver.aggregate.kind
    note = (
        f"veronese probe depth {vD} exceeds the discovery window {vp.window}; "
        "beyond it the probe reads the discovered finite presentation"
        if vD > vp.window
        else ""
    )
    return VeroneseCrossCheck(
        p.label, n, ambient.aggregate, ver.aggregate, agree, D, vD, vp.window, note
    )
