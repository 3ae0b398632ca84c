"""Degree-truncated two-sided Groebner machinery for connected graded algebras.

A TruncatedGroebnerBasis at bound D resolves every overlap ambiguity of
degree <= D, which (diamond lemma, with a degree-compatible order and
homogeneous input) certifies normal forms and component dimensions for all
degrees <= D and nothing beyond.  Every report downstream carries D.

component_dim_bruteforce is the independent oracle: it spans the degree-d
slice of the relation ideal inside the free component by plain elimination,
with no rewriting involved.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field as dc_field

from .errors import DegreeBoundExceeded, InputError, NonHomogeneousRelation, ZeroDegreeGenerator
from .freealg import (
    GeneratorTable,
    NcPoly,
    enumerate_words,
    leading_word,
    make_monic,
    poly_add,
    poly_mul,
    poly_scale,
    poly_str,
    word_key,
    word_str,
)
from .linalg import SpanSolver, axpy


@dataclass
class RelationFamily:
    """Monomial relation template with exponents linear in a parameter n.

    factors is a list of (generator index, (a, b)) meaning gen^(a*n+b).
    Members are expanded for n >= n_min while their degree stays within the
    session bound; the family must have positive degree slope so expansion
    is finite.
    """

    factors: list
    n_min: int
    raw: str = ""

    def member_word(self, n):
        word = []
        for idx, (a, b) in self.factors:
            exp = a * n + b
            if exp < 0:
                raise InputError(f"negative exponent at n={n} in {self.raw!r}")
            word.extend([idx] * exp)
        return tuple(word)

    def degree_slope(self, gt):
        return sum(gt.weights[idx] * a for idx, (a, _) in self.factors)

    def expand(self, gt, field, bound):
        if self.degree_slope(gt) <= 0:
            raise InputError(f"relation family {self.raw!r} does not grow in degree")
        out = []
        n = self.n_min
        while True:
            word = self.member_word(n)
            if gt.word_degree(word) > bound:
                break
            out.append(NcPoly.monomial(gt, field, word))
            n += 1
        return out

    def reversed_copy(self):
        return RelationFamily(list(reversed(self.factors)), self.n_min, self.raw + " (reversed)")


@dataclass
class AlgebraPresentation:
    """Field, weighted generators and homogeneous relations, plus optional families."""

    field: object
    gens: GeneratorTable
    relations: list
    relfams: list = dc_field(default_factory=list)
    label: str = "algebra"

    def relation_strings(self):
        return [poly_str(self.gens, self.field, r) for r in self.relations]


def validate_presentation(p):
    """Accept iff all generator weights are >= 1 and relations are homogeneous of degree >= 2."""
    for name, w in zip(p.gens.names, p.gens.weights):
        if w < 1:
            raise ZeroDegreeGenerator(f"generator {name} has weight {w}")
    for r in p.relations:
        if r.is_zero():
            raise NonHomogeneousRelation("zero relation")
        degs = {p.gens.word_degree(w) for w in r.terms}
        if len(degs) != 1:
            raise NonHomogeneousRelation(f"relation mixes degrees {sorted(degs)}")
        if r.degree < 2:
            raise NonHomogeneousRelation(f"relation of degree {r.degree} < 2")
    for fam in p.relfams:
        if fam.degree_slope(p.gens) <= 0:
            raise NonHomogeneousRelation(f"family {fam.raw!r} does not grow in degree")


def opposite(p):
    """Reverse every word in every relation; involutive."""
    gt, fld = p.gens, p.field
    rels = [
        NcPoly.build(gt, fld, [(tuple(reversed(w)), c) for w, c in r.terms.items()])
        for r in p.relations
    ]
    fams = [fam.reversed_copy() for fam in p.relfams]
    return AlgebraPresentation(fld, gt, rels, fams, label=p.label + ".op")


@dataclass
class CompletionLog:
    input_relations: int = 0
    family_members: int = 0
    added: list = dc_field(default_factory=list)  # (degree, leading word string)
    skipped_overlaps: int = 0
    events: list = dc_field(default_factory=list)

    def to_dict(self):
        return {
            "input_relations": self.input_relations,
            "family_members": self.family_members,
            "added": [list(x) for x in self.added],
            "skipped_overlaps": self.skipped_overlaps,
            "events": list(self.events),
        }


class TruncatedGroebnerBasis:
    """Reduced completion of the relation ideal, valid up to degree D.

    elements are monic with pairwise distinct leading words, inter-reduced,
    each of degree <= D.  Normal forms, normal word bases and dimensions are
    certified for degrees <= D only; DegreeBoundExceeded guards the rest.
    """

    def __init__(self, presentation, D, elements, log):
        self.presentation = presentation
        self.gt = presentation.gens
        self.field = presentation.field
        self.D = D
        self.elements = elements
        self.log = log
        self._leads_by_len = {}
        self._lead_to_poly = {}
        for g in elements:
            lw = leading_word(self.gt, g)
            self._leads_by_len.setdefault(len(lw), set()).add(lw)
            self._lead_to_poly[lw] = g
        self._lead_lens = sorted(self._leads_by_len)
        self._nf_cache = {}
        self._normal_words = {}
        self._normal_index = {}

    # --- rewriting ---------------------------------------------------

    def is_normal_word(self, word):
        return _find_factor(word, self._leads_by_len, self._lead_lens) is None

    def normal_form_word(self, word):
        """Normal form of a single word, as a terms dict; memoized."""
        cached = self._nf_cache.get(word)
        if cached is not None:
            return cached
        result = _reduce_terms(
            {word: self.field.one()},
            self.gt,
            self.field,
            self._leads_by_len,
            self._lead_lens,
            self._lead_to_poly,
            memo=self._nf_cache,
        )
        self._nf_cache[word] = result
        return result

    def normal_form(self, q):
        """Normal form of a homogeneous polynomial of degree <= D; linear, idempotent."""
        if q.is_zero():
            return q
        if q.degree > self.D:
            raise DegreeBoundExceeded(f"degree {q.degree} > bound {self.D}")
        out = {}
        for w, c in q.terms.items():
            axpy(self.field, out, c, self.normal_form_word(w))
        return NcPoly(out, q.degree if out else None)

    # --- normal word bases --------------------------------------------

    def normal_words(self, d):
        """Ordered basis of A_d: words of degree d with no leading word as factor."""
        if d < 0:
            return []
        if d > self.D:
            raise DegreeBoundExceeded(f"degree {d} > bound {self.D}")
        cached = self._normal_words.get(d)
        if cached is not None:
            return cached
        gt = self.gt
        out = []
        max_len = self._lead_lens[-1] if self._lead_lens else 0

        def extend(prefix, rem):
            if rem == 0:
                out.append(tuple(prefix))
                return
            for i in range(len(gt)):
                w = gt.weights[i]
                if w > rem:
                    continue
                prefix.append(i)
                ok = True
                for L in self._lead_lens:
                    if L > len(prefix) or L > max_len:
                        break
                    if tuple(prefix[-L:]) in self._leads_by_len[L]:
                        ok = False
                        break
                if ok:
                    extend(prefix, rem - w)
                prefix.pop()

        extend([], d)
        out.sort(key=lambda w: word_key(gt, w))
        self._normal_words[d] = out
        return out

    def normal_index(self, d):
        cached = self._normal_index.get(d)
        if cached is None:
            cached = {w: i for i, w in enumerate(self.normal_words(d))}
            self._normal_index[d] = cached
        return cached

    def dim(self, d):
        return len(self.normal_words(d))

    def element_strings(self):
        return [poly_str(self.gt, self.field, g) for g in self.elements]

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedGroebnerBasis)
            and self.D == other.D
            and self.elements == other.elements
        )


def _find_factor(word, leads_by_len, lead_lens):
    """(start, length) of the leftmost leading word occurring in word, or None."""
    for i in range(len(word)):
        for L in lead_lens:
            if i + L > len(word):
                break
            if word[i : i + L] in leads_by_len[L]:
                return i, L
    return None


def _reduce_terms(terms, gt, fld, leads_by_len, lead_lens, lead_to_poly, memo=None):
    """Fully reduce a terms dict; deterministic descending-word sweep.

    Rewrites the largest unreduced word first; every rewrite replaces a word
    by strictly smaller ones of the same degree, so the heap drains.
    """
    result = {}
    heap = []
    pending = {}
    for w, c in terms.items():
        key = word_key(gt, w)
        heapq.heappush(heap, (tuple(-x for x in key[1]), w))
        pending[w] = c
    in_heap = set(pending)

    while heap:
        _, w = heapq.heappop(heap)
        if w not in in_heap:
            continue
        in_heap.discard(w)
        c = pending.pop(w, None)
        if c is None or fld.is_zero(c):
            continue
        hit = memo.get(w) if memo is not None else None
        if hit is not None:
            axpy(fld, result, c, hit)
            continue
        pos = _find_factor(w, leads_by_len, lead_lens)
        if pos is None:
            cur = result.get(w)
            nv = c if cur is None else fld.add(cur, c)
            if fld.is_zero(nv):
                result.pop(w, None)
            else:
                result[w] = nv
            continue
        i, L = pos
        g = lead_to_poly[w[i : i + L]]
        lead = w[i : i + L]
        prefix, suffix = w[:i], w[i + L :]
        for t, tc in g.terms.items():
            if t == lead:
                continue
            nw = prefix + t + suffix
            add = fld.neg(fld.mul(c, tc))
            cur = pending.get(nw)
            nv = add if cur is None else fld.add(cur, add)
            if fld.is_zero(nv):
                pending.pop(nw, None)
                in_heap.discard(nw)
            else:
                pending[nw] = nv
                if nw not in in_heap:
                    key = word_key(gt, nw)
                    heapq.heappush(heap, (tuple(-x for x in key[1]), nw))
                    in_heap.add(nw)
    return result


def complete_to_degree(p, D):
    """Overlap completion truncated at degree D; deterministic.

    Pending polynomials are processed in ascending (degree, leading word)
    order.  When a new element lands, basis elements whose lead it divides
    are re-queued, and every overlap ambiguity of degree <= D between the
    new lead and all current leads is turned into an S-polynomial and
    queued.  Homogeneity keeps every intermediate inside degree <= D.
    """
    validate_presentation(p)
    gt, fld = p.gens, p.field
    log = CompletionLog(input_relations=len(p.relations))
    inputs = list(p.relations)
    for fam in p.relfams:
        members = fam.expand(gt, fld, D)
        log.family_members += len(members)
        log.events.append(f"family {fam.raw!r} expanded to {len(members)} members at D={D}")
        inputs.extend(members)

    basis = {}  # leading word -> poly
    by_len = {}

    def leads_state():
        return by_len, sorted(by_len)

    counter = 0
    heap = []

    def push(poly, note):
        nonlocal counter
        if poly.is_zero():
            return
        lw = leading_word(gt, poly)
        counter += 1
        heapq.heappush(heap, (word_key(gt, lw), counter, poly, note))

    for r in inputs:
        if r.degree is not None and r.degree > D:
            log.events.append(f"input of degree {r.degree} beyond bound skipped")
            continue
        push(r, "input")

    def reduce_poly(q):
        bl, ll = leads_state()
        terms = _reduce_terms(q.terms, gt, fld, bl, ll, basis)
        return NcPoly(terms, q.degree if terms else None)

    while heap:
        _, _, q, note = heapq.heappop(heap)
        q = reduce_poly(q)
        if q.is_zero():
            continue
        q = make_monic(gt, fld, q)
        lw = leading_word(gt, q)
        # retire basis elements whose lead the new lead divides
        stale = []
        for L in sorted(by_len):
            if L <= len(lw):
                continue
            for other in list(by_len[L]):
                if any(other[i : i + len(lw)] == lw for i in range(L - len(lw) + 1)):
                    stale.append(other)
        for other in stale:
            g = basis.pop(other)
            by_len[len(other)].discard(other)
            if not by_len[len(other)]:
                del by_len[len(other)]
            push(g, "requeued")
        basis[lw] = q
        by_len.setdefault(len(lw), set()).add(lw)
        log.added.append((q.degree, word_str(gt, lw)))
        # queue overlap ambiguities with every current element (both sides)
        for other_lw, other in list(basis.items()):
            for first_lw, first_g, second_lw, second_g in (
                (lw, q, other_lw, other),
                (other_lw, other, lw, q),
            ):
                max_k = min(len(first_lw), len(second_lw)) - 1
                for k in range(1, max_k + 1):
                    if first_lw[-k:] != second_lw[:k]:
                        continue
                    tail = second_lw[k:]
                    head = first_lw[:-k]
                    if gt.word_degree(first_lw + tail) > D:
                        log.skipped_overlaps += 1
                        continue
                    s = poly_add(
                        fld,
                        poly_mul(fld, first_g, NcPoly.monomial(gt, fld, tail)),
                        poly_scale(
                            fld,
                            fld.neg(fld.one()),
                            poly_mul(fld, NcPoly.monomial(gt, fld, head), second_g),
                        ),
                    )
                    push(s, "overlap")
                if first_lw is second_lw:
                    break

    # final inter-reduction: tails rewritten to normal form, leads untouched
    changed = True
    while changed:
        changed = False
        for lw in sorted(basis, key=lambda w: word_key(gt, w)):
            g = basis[lw]
            by_len[len(lw)].discard(lw)
            bl, ll = leads_state()
            reduced = NcPoly(
                _reduce_terms(g.terms, gt, fld, bl, ll, basis), g.degree
            )
            by_len[len(lw)].add(lw)
            reduced = make_monic(gt, fld, reduced)
            if reduced != g:
                if leading_word(gt, reduced) != lw:
                    raise AssertionError("inter-reduction moved a leading word")
                basis[lw] = reduced
                changed = True

    elements = [basis[lw] for lw in sorted(basis, key=lambda w: word_key(gt, w))]
    log.events.append(f"completed with {len(elements)} elements at D={D}")
    return TruncatedGroebnerBasis(p, D, elements, log)


def hilbert_dims(tgb, D=None):
    """dim A_d for d = 0..D via normal word counts (Groebner path)."""
    D = tgb.D if D is None else D
    if D > tgb.D:
        raise DegreeBoundExceeded(f"degree {D} > bound {tgb.D}")
    return [tgb.dim(d) for d in range(D + 1)]


def normal_word_counts(tgb, D):
    """Count normal words per degree without enumerating them.

    Transfer-matrix walk on the factor automaton of the leading words:
    states are proper prefixes of leads, a step appends one letter, and a
    word dies exactly when some lead becomes a suffix.  Counts agree with
    len(normal_words(d)) but cost O(states * letters * D).  Only valid for
    d <= tgb.D, like everything derived from a truncated basis.
    """
    if D > tgb.D:
        raise DegreeBoundExceeded(f"degree {D} > bound {tgb.D}")
    gt = tgb.gt
    leads = set()
    for s in tgb._leads_by_len.values():
        leads.update(s)
    states = {()}
    for w in leads:
        for i in range(1, len(w)):
            states.add(w[:i])
    states = sorted(states, key=len)
    state_id = {s: i for i, s in enumerate(states)}
    lead_lens = sorted({len(w) for w in leads})

    def step(state, letter):
        t = state + (letter,)
        for L in lead_lens:
            if L <= len(t) and t[-L:] in leads:
                return None
        for i in range(len(t)):
            if t[i:] in state_id:
                return state_id[t[i:]]
        return state_id[()]

    trans = [
        [step(s, a) for a in range(len(gt))]
        for s in states
    ]
    counts = [0] * (D + 1)
    dp = {0: {state_id[()]: 1}}
    counts[0] = 1
    for d in range(0, D + 1):
        layer = dp.get(d)
        if not layer:
            continue
        if d > 0:
            counts[d] = sum(layer.values())
        for a in range(len(gt)):
            nd = d + gt.weights[a]
            if nd > D:
                continue
            for sid, c in layer.items():
                t = trans[sid][a]
                if t is None:
                    continue
                tgt = dp.setdefault(nd, {})
                tgt[t] = tgt.get(t, 0) + c
    return counts


def _ideal_slice(p, d):
    """Index of the degree-d words and the span of the ideal slice in them.

    The slice is spanned by every u*r*v of degree d, r a relation or a
    family member, eliminated directly with no Groebner machinery.
    """
    gt, fld = p.gens, p.field
    index = {w: i for i, w in enumerate(enumerate_words(gt, d))}
    relations = list(p.relations)
    for fam in p.relfams:
        relations.extend(fam.expand(gt, fld, d))
    solver = SpanSolver(fld)
    for r in relations:
        rd = r.degree
        if rd is None or rd > d:
            continue
        rest = d - rd
        for a in range(rest + 1):
            for u in enumerate_words(gt, a):
                for v in enumerate_words(gt, rest - a):
                    solver.add({index[u + t + v]: c for t, c in r.terms.items()})
    return index, solver


def component_dim_bruteforce(p, d):
    """Oracle: dim A_d = dim F_d - rank span{u*r*v}, no Groebner machinery.

    Enumerates the free component and eliminates the degree-d slice of the
    two-sided ideal directly.
    """
    validate_presentation(p)
    index, solver = _ideal_slice(p, d)
    return len(index) - solver.rank


def poly_in_ideal_bruteforce(p, q):
    """Oracle membership test: is q in the two-sided relation ideal (degree slice)."""
    if q.is_zero():
        return True
    index, solver = _ideal_slice(p, q.degree)
    return solver.contains({index[w]: c for w, c in q.terms.items()})
