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
from functools import cached_property
from math import gcd

from .errors import DegreeBoundExceeded, InputError, NonHomogeneousRelation, ZeroDegreeGenerator
from .freealg import (
    GeneratorTable,
    NcPoly,
    enumerate_words,
    leading_word,
    make_monic,
    poly_str,
    word_key,
    word_str,
)
from .linalg import SpanSolver


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

    def member_exponents(self, n):
        """[(generator index, exponent)] of the member at n."""
        out = [(idx, a * n + b) for idx, (a, b) in self.factors]
        if any(exp < 0 for _, exp in out):
            raise InputError(f"negative exponent at n={n} in {self.raw!r}")
        return out

    def member_degree(self, gt, n):
        return sum(gt.weights[idx] * exp for idx, exp in self.member_exponents(n))

    def degree_slope(self, gt):
        return sum(gt.weights[idx] * a for idx, (a, _) in self.factors)

    def expand(self, gt, field, bound):
        """The members of degree <= bound; a word is built only for those."""
        if self.degree_slope(gt) <= 0:
            raise InputError(f"relation family {self.raw!r} does not grow in degree")
        out = []
        n = self.n_min
        while self.member_degree(gt, n) <= bound:
            word = tuple(idx for idx, exp in self.member_exponents(n) for _ in range(exp))
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

    def relations_through(self, D):
        """The relations, then the members of each family of degree <= D."""
        out = list(self.relations)
        for fam in self.relfams:
            out.extend(fam.expand(self.gens, self.field, D))
        return out


def validate_presentation(p):
    """Accept iff all generator weights are >= 1, relations are homogeneous of
    degree >= 2, and every family grows from a first member of degree >= 1."""
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
        if fam.member_degree(p.gens, fam.n_min) == 0:
            raise NonHomogeneousRelation(
                f"family {fam.raw!r} has the empty word, the relation 1 = 0, at n={fam.n_min}")


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
        self._index = _LeadIndex(self.gt, self.field)
        for g in elements:
            self._index.insert(leading_word(self.gt, g), g)
        # every element a word or a binomial: normal forms are one-term chases
        self.binomial = all(len(g.terms) <= 2 for g in elements)
        self._rows = {}
        self._products = {}
        self._letters = {}
        self._parents = {}
        self._normal_words = {}
        self._normal_index = {}

    # --- rewriting ---------------------------------------------------

    def normal_form_row(self, word):
        """NF(word) as {index: coeff} over normal_index(deg word); memoized per word.

        This is the one stored copy of NF(word) for a word that a caller
        names: normal_form_word and the degree-0 product tables read it, so
        callers only read rows.  On a binomial basis the product tables of
        degree >= 1 are walks over the letter tables instead (see products),
        and no product word keys this memo.

        On a binomial basis (every element a word or u - c*v) a missing row
        is built by a one-term chase.  While find(w) gives a lead at [i, j)
        with integer reducer (a, tail): an empty tail (a word lead) makes
        the row {}; otherwise, for the one tail term (t, tc), w becomes
        w[:i] + t + w[j:], the numerator is multiplied by tc and the
        denominator by a.  The row is {w: num / den} at the normal word w.

        Proof that this is the row of _reduce_terms({word: 1}): there a
        rewrite of one word by a binomial leaves one pending word, so the
        heap pops the chased word each time and rewrites it at the same
        leftmost lead (the same find).  Its value c over lam follows num
        over den: a rewrite takes c to c // g * tc and lam to lam * a // g
        with g = gcd(a, c), so c / lam becomes c * tc / (lam * a).  The
        value never cancels, as tc and a are nonzero, so both end at the
        same word with the same coefficient.  Over F_p, a is 1 and
        field.canonical keeps the numerator a residue.  Other bases use
        _reduce_terms.
        """
        row = self._rows.get(word)
        if row is None:
            row = self._rows[word] = self._new_row(word)
        return row

    def _new_row(self, word, d=None):
        """NF(word) as a row, built as normal_form_row describes; d is deg
        word when the caller knows it."""
        idx = self.normal_index(self.gt.word_degree(word) if d is None else d)
        if not self.binomial:
            nf = _reduce_terms({word: self.field.one()}, self._index)
            return {idx[t]: c for t, c in nf.items()}
        find, canonical = self._index.find, self.field.canonical
        num = den = 1
        while (pos := find(word)) is not None:
            i, j, (a, tail) = pos
            if not tail:
                return {}
            ((t, tc),) = tail
            word = word[:i] + t + word[j:]
            num, den = canonical(num * tc), den * a
        return {idx[word]: self.field.of_fraction(num, den)}

    def normal_form_word(self, word):
        """Normal form of a single word, as a terms dict over normal words."""
        words = self.normal_words(self.gt.word_degree(word))
        return {words[i]: c for i, c in self.normal_form_row(word).items()}

    def products(self, e, word):
        """The product table of word at degree e; memoized per (e, word).

        Row j is NF(word * u) over normal_index(e + deg word), for u the j-th
        word of normal_words(e).  Callers only read the rows, which may be
        shared with other tables.

        On a binomial basis with e >= 1 the table is a walk over the letter
        tables, and no product word is rewritten.  Proof: let u = u' * x
        with x its last letter.  Normal words are closed under taking
        factors, so u' is the i-th normal word of degree e - w_x, for i the
        j-th entry of _parent_list(e).  word * u' - NF(word * u') lies in
        the ideal, and so does that difference times x, hence NF(word * u) =
        NF(NF(word * u') * x).  On a binomial basis NF(word * u') is 0 or
        c * v for one normal word v, row {k: c} of products(e - w_x, word),
        so NF(word * u) is 0 or c times NF(v * x), row k of
        _letter_table(e - w_x + deg word, x).  A row costs a lookup, and a
        field.scale when c != 1.

        Other bases, and e = 0, list the rows of normal_form_row(word * u):
        a product word reached by several splits is one row.
        """
        key = (e, word)
        rows = self._products.get(key)
        if rows is not None:
            return rows
        d = e + self.gt.word_degree(word)
        if self.binomial and e:
            weights, letter_table = self.gt.weights, self._letter_table
            scale, one = self.field.scale, self.field.one()
            below = [None] * len(weights)  # x -> (products(e - w_x, word), its letter table)
            rows = []
            for u, i in zip(self.normal_words(e), self._parent_list(e)):
                x = u[-1]
                tables = below[x]
                if tables is None:
                    wx = weights[x]
                    tables = below[x] = (self.products(e - wx, word), letter_table(d - wx, x))
                row = tables[0][i]
                if row:
                    ((k, c),) = row.items()
                    row = tables[1][k]
                    if c != one and row:
                        row = scale(c, row)
                rows.append(row)
        else:
            memo, new_row = self._rows, self._new_row
            rows = []
            for u in self.normal_words(e):
                wu = word + u
                row = memo.get(wu)
                if row is None:
                    row = memo[wu] = new_row(wu, d)
                rows.append(row)
        self._products[key] = rows
        return rows

    def _parent_list(self, e):
        """Entry j is the i for which u[:-1] is the i-th word of
        normal_words(e - w_x), for u the j-th word of normal_words(e), e >= 1,
        and x = u[-1].  u[:-1] is normal as a factor of u, and normal_index
        finds it whatever the letter weights."""
        parents = self._parents.get(e)
        if parents is None:
            weights = self.gt.weights
            index = [self.normal_index(e - w) if w <= e else None for w in weights]
            parents = self._parents[e] = [index[u[-1]][u[:-1]] for u in self.normal_words(e)]
        return parents

    def _letter_table(self, d, x):
        """Row i is NF(v * x) over normal_index(d + w_x), for v the i-th word
        of normal_words(d); memoized per (d, x).

        v * x is normal unless some lead is a suffix of it, as v is normal.
        The normal extensions are read off _parent_list(d + w_x): entry i at
        the j-th normal word, when that word ends in x, says that it is
        v_i * x, and the row is {j: 1}.  Only the dead extensions, where a
        lead is a suffix of v * x, are rewritten, by _new_row.
        """
        key = (d, x)
        table = self._letters.get(key)
        if table is None:
            t = d + self.gt.weights[x]
            one = self.field.one()
            table = [None] * self.dim(d)
            for j, (u, i) in enumerate(zip(self.normal_words(t), self._parent_list(t))):
                if u[-1] == x:
                    table[i] = {j: one}
            words = self.normal_words(d)
            for i, row in enumerate(table):
                if row is None:
                    table[i] = self._new_row(words[i] + (x,), t)
            self._letters[key] = table
        return table

    def normal_form(self, q):
        """Normal form of a homogeneous polynomial of degree <= D; linear, idempotent."""
        if q.is_zero():
            return q
        if q.degree > self.D:
            raise DegreeBoundExceeded(f"degree {q.degree} > bound {self.D}")
        out = {}
        for w, c in q.terms.items():
            self.field.axpy(out, c, self.normal_form_word(w))
        return NcPoly(out, q.degree if out else None)

    # --- normal word bases --------------------------------------------

    def normal_words(self, d):
        """Ordered basis of A_d: words of degree d with no leading word as
        factor, ascending by word_key.

        The walk is depth first and pushes the letters greatest prec_value
        first, so it pops them least first and emits the words in
        lexicographic order of their prec_value sequences: every word
        extending prefix + (x,) comes out before any extending prefix + (y,)
        when prec_value[x] < prec_value[y].  That is word_key's order on one
        degree: weights are positive, so no word of degree d is a proper
        prefix of another, and two of them compare at their first differing
        letter, where the walk forked.
        """
        if d < 0:
            return []
        if d > self.D:
            raise DegreeBoundExceeded(f"degree {d} > bound {self.D}")
        cached = self._normal_words.get(d)
        if cached is not None:
            return cached
        gt = self.gt
        step = self._index.step
        letters = sorted(enumerate(gt.weights), key=lambda iw: gt.prec_value[iw[0]], reverse=True)
        out = []
        stack = [((), d, [self._index.root])]
        while stack:
            prefix, rem, live = stack.pop()
            if rem == 0:
                out.append(prefix)
                continue
            for i, w in letters:
                if w <= rem:
                    nxt = step(live, i)
                    if nxt is not None:
                        stack.append((prefix + (i,), rem - w, nxt))
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

    def truncated(self, D):
        """The basis at the lower bound D: the elements of degree <= D.

        A reduced truncated basis is unique, so this is the basis that
        complete_to_degree(presentation, D) returns, without the completion.
        """
        if D > self.D:
            raise DegreeBoundExceeded(f"degree {D} > bound {self.D}")
        log = CompletionLog(input_relations=self.log.input_relations)
        log.events.append(f"truncated from D={self.D} to D={D}")
        return TruncatedGroebnerBasis(
            self.presentation, D, [g for g in self.elements if g.degree <= D], log
        )

    @cached_property
    def anick_series(self):
        """c(t) = 1 - sum_letters t^w + sum_relations t^(deg r) through D when
        Anick's criterion certifies global dimension <= 2 there, else None.

        The relations are those of the presentation and the family members of
        degree <= D.  The certificate is H_A(t) c(t) == 1 mod t^(D+1) alone
        (D. Anick, J. Algebra 78, 1982), letter terms included: with rho_d the
        rank of the letter parts of the relations of degree d, Tietze
        elimination of one pivot letter per independent letter part gives
        A = T(V')/I', dim V'_d = L_d - rho_d, I' in T(V')_{>=2} generated by
        R - rho elements, and the same c(t), as each step removes a letter and
        a relation of one degree.  So Tor_1(k, k) = L - rho, Tor_2(k, k) <=
        R - rho and 1/H_A - c = (V_2 - (R - rho)) - V_3 + V_4 - ... with
        V_i = Tor_i(k, k).  V_4 starts above V_3, so at the lowest degree <= D
        where R - rho - V_2 or V_3 were nonzero the difference would have a
        negative coefficient.  Hence Tor_2(k, k) = R - rho and Tor_i(k, k) = 0
        for i >= 3 in degrees <= D.
        """
        D, p = self.D, self.presentation
        c = [1] + [0] * D
        for w in p.gens.weights:
            if w <= D:
                c[w] -= 1
        for r in p.relations_through(D):
            if r.degree <= D:
                c[r.degree] += 1
        h = hilbert_dims(self, D)
        for d in range(D + 1):
            if sum(h[d - j] * c[j] for j in range(d + 1)) != int(d == 0):
                return None
        return c

    def element_strings(self):
        return [poly_str(self.gt, self.field, g) for g in self.elements]

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedGroebnerBasis)
            and self.D == other.D
            and self.elements == other.elements
        )


class _LeadIndex:
    """The rewriting system of a basis: a trie over its lead words.

    A node maps a letter to the next node; the node where a lead word ends
    also maps None to the reducer (a, tail) of its element g.  G is g's
    integer form, a new dict from field.integral (over Q the least integer
    multiple, primitive as g is monic; over F_p a copy of g), a is G's lead
    coefficient and tail lists the other terms of -G.  Leads are never
    factors of one another.
    """

    def __init__(self, gt, field):
        self.field = field
        self.root = {}
        # heap key of a word: rewriting pops the largest word first
        self.neg_prec = [-v for v in gt.prec_value]

    def insert(self, lead, g):
        """Index the monic g under its lead word; returns its reducer (a, tail)."""
        node = self.root
        for x in lead:
            node = node.setdefault(x, {})
        _, G = self.field.integral(g.terms)
        neg = self.field.neg
        reducer = node[None] = (G[lead], [(t, neg(c)) for t, c in G.items() if t != lead])
        return reducer

    def find(self, word):
        """(i, j, reducer) of the leftmost lead word word[i:j], the shortest
        one at that i; None when word is normal."""
        n = len(word)
        root = self.root
        for i in range(n):
            node = root
            for j in range(i, n):
                node = node.get(word[j])
                if node is None:
                    break
                if None in node:
                    return i, j + 1, node[None]
        return None

    def step(self, live, letter):
        """The live nodes of a normal word extended by letter, or None when
        the extension ends in a lead word.

        live lists the nodes of the word's suffixes that are prefixes of
        lead words, longest first, ending with the root (empty suffix)."""
        out = []
        for node in live:
            child = node.get(letter)
            if child is not None:
                if None in child:
                    return None
                out.append(child)
        out.append(self.root)
        return out


def _reduce_terms(terms, index):
    """Normal form of a terms dict modulo the indexed basis; deterministic.

    Rewrites the largest unreduced word first, at its leftmost lead word;
    every rewrite replaces a word by strictly smaller ones of the same
    degree, so the heap drains.  Coefficients stay integers over Q: to
    rewrite c * w with reducer (a, tail), everything is first scaled by
    a / gcd(a, c), and lam carries the product of the scales, so result /
    lam is the exact normal form.  Over F_p a = 1 and nothing is scaled.
    Rewrites add plain integers to the pending words; the field puts a
    word's value in canonical form only when the word is popped, so a word
    whose value cancelled is skipped then.
    """
    if not terms:
        return {}
    fld = index.field
    canonical, find = fld.canonical, index.find
    push, pop = heapq.heappush, heapq.heappop
    neg_prec = index.neg_prec.__getitem__
    lam, pending = fld.integral(terms)
    heap = [(tuple(map(neg_prec, w)), w) for w in pending]
    heapq.heapify(heap)
    result = {}

    while heap:
        w = pop(heap)[1]
        # a word enters the heap once, when it first becomes pending, and
        # never becomes pending again: rewrites only make smaller words
        c = canonical(pending.pop(w))
        if not c:  # cancelled
            continue
        pos = find(w)
        if pos is None:
            result[w] = c
            continue
        i, j, (a, tail) = pos
        if a != 1:
            g = gcd(a, c)
            c //= g
            s = a // g
            if s != 1:
                pending = {k: v * s for k, v in pending.items()}
                result = {k: v * s for k, v in result.items()}
                lam *= s
        prefix, suffix = w[:i], w[j:]
        for t, tc in tail:
            nw = prefix + t + suffix
            cur = pending.get(nw)
            if cur is None:
                pending[nw] = c * tc
                push(heap, (tuple(map(neg_prec, nw)), nw))
            else:
                pending[nw] = cur + c * tc
    return {w: fld.of_fraction(v, lam) for w, v in result.items()}


def complete_to_degree(p, D):
    """Overlap completion truncated at degree D; deterministic.

    Pending polynomials are processed in ascending (degree, leading word)
    order.  When a new element lands, every overlap ambiguity of degree
    <= D between the new lead and all current leads is turned into an
    S-polynomial and queued.  Homogeneity keeps every intermediate inside
    degree <= D.  Elements land in nondecreasing degree (an S-polynomial is
    at least as heavy as its parents), so a new lead never divides an older
    one: a word with a proper factor of degree d is heavier than d.

    S-polynomials are built from the integer reducers of the lead trie:
    for g1 with (a1, t1), g2 with (a2, t2) and head*lead2 == lead1*tail,
    a1*a2*(g1*tail - head*g2) = a1 * sum c*(head t) over t2 - a2 * sum
    c*(t tail) over t1, the overlap word cancelling.  Its normal form is
    a nonzero multiple of that of g1*tail - head*g2, so the monic element
    that lands is the same.

    No S-polynomial is built for an overlap whose word w holds a lead word
    strictly inside it, that is a lead in w[1:-1] (the chain criterion;
    T. Mora, TCS 134, 1994).  Proof that such an overlap is resolvable
    relative to the words below w, which is all the diamond lemma asks
    (G. M. Bergman, Adv. Math. 29, 1978): let the two leads be l1 = AB and
    l2 = BC with w = ABC, and let a lead l3 occur at position p with
    0 < p and p + |l3| < |w|.  Leads are never factors of one another, so
    this occurrence starts inside A and ends inside C.  Then (l1, l3)
    overlap on the proper prefix w[:p+|l3|] and (l3, l2) on the proper
    suffix w[p:]; both have degree below deg w <= D, so both are queued
    (l3 may be l1 or l2).  With r_i(w) the result of rewriting w at its
    l_i occurrence, r1(w) - r2(w) = (r1 - r3)(prefix) * w[p+|l3|:] +
    w[:p] * (r3 - r2)(suffix).  Each bracket is an ambiguity on a shorter
    word; the order is admissible, so multiplying it out keeps every word
    below w, and the ambiguity at w is resolvable relative to the words
    below w.  Induction on |w| covers brackets that were skipped
    themselves.  Leads never leave the trie, so it is enough that l3 is
    present when the pair is queued.  skipped_overlaps counts only the
    overlaps beyond D.
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

    basis = {}  # leading word -> (monic element, its reducer)
    index = _LeadIndex(gt, fld)
    canonical = fld.canonical
    counter = 0
    heap = []

    def push(poly):
        nonlocal counter
        if poly.is_zero():
            return
        lw = leading_word(gt, poly)
        counter += 1
        heapq.heappush(heap, (word_key(gt, lw), counter, poly))

    for r in inputs:
        if r.degree is not None and r.degree > D:
            log.events.append(f"input of degree {r.degree} beyond bound skipped")
            continue
        push(r)

    while heap:
        q = heapq.heappop(heap)[2]
        terms = _reduce_terms(q.terms, index)
        if not terms:
            continue
        q = make_monic(gt, fld, NcPoly(terms, q.degree))
        lw = leading_word(gt, q)
        reducer = index.insert(lw, q)
        basis[lw] = (q, reducer)
        log.added.append((q.degree, word_str(gt, lw)))
        # queue overlap ambiguities with every current element (both sides)
        for other_lw, (_, other) in list(basis.items()):
            for first_lw, (a1, t1), second_lw, (a2, t2) in (
                (lw, reducer, other_lw, other),
                (other_lw, other, lw, reducer),
            ):
                max_k = min(len(first_lw), len(second_lw)) - 1
                for k in range(1, max_k + 1):
                    if first_lw[-k:] != second_lw[:k]:
                        continue
                    tail = second_lw[k:]
                    head = first_lw[:-k]
                    word = first_lw + tail
                    degree = gt.word_degree(word)
                    if degree > D:
                        log.skipped_overlaps += 1
                        continue
                    if index.find(word[1:-1]) is not None:
                        continue  # a lead strictly inside: resolvable, see the docstring
                    s = {}
                    for t, c in t2:
                        w = head + t
                        s[w] = s.get(w, 0) + a1 * c
                    for t, c in t1:
                        w = t + tail
                        s[w] = s.get(w, 0) - a2 * c
                    # F_p sums are plain ints: canonical form before zero tests
                    push(NcPoly({w: c for w, v in s.items() if (c := canonical(v))}, degree))
                if first_lw is second_lw:
                    break

    # final inter-reduction: tails rewritten to normal form, leads untouched
    # (a tail word of the lead's degree cannot contain the lead).  Normal
    # forms modulo the completed basis are unique, so one pass suffices.
    elements = []
    for lw in sorted(basis, key=lambda w: word_key(gt, w)):
        g = basis[lw][0]
        terms = {lw: g.terms[lw]}
        terms.update(_reduce_terms({w: c for w, c in g.terms.items() if w != lw}, index))
        elements.append(NcPoly(terms, g.degree))
    log.events.append(f"completed with {len(elements)} elements at D={D}")
    return TruncatedGroebnerBasis(p, D, elements, log)


def hilbert_dims(tgb, D):
    """dim A_d for d = 0..D via normal word counts (Groebner path)."""
    if D > tgb.D:
        raise DegreeBoundExceeded(f"degree {D} > bound {tgb.D}")
    return [tgb.dim(d) for d in range(D + 1)]


def normal_word_counts(tgb):
    """Count normal words per degree 0..tgb.D without enumerating them.

    Transfer-matrix walk on the lead-word trie: the state of a normal word
    is its longest suffix that is a prefix of a lead (its first live node),
    a step appends one letter, and a word dies exactly when some lead
    becomes a suffix.  Counts agree with len(normal_words(d)) but cost
    O(states * letters * D).
    """
    D = tgb.D
    weights = tgb.gt.weights
    index = tgb._index
    counts = [0] * (D + 1)
    # per degree: id of a state's node -> (live nodes, number of words)
    layers = [{} for _ in range(D + 1)]
    layers[0][id(index.root)] = ([index.root], 1)
    for d in range(D + 1):
        for live, c in layers[d].values():
            counts[d] += c
            for a, w in enumerate(weights):
                if d + w > D:
                    continue
                nxt = index.step(live, a)
                if nxt is None:
                    continue
                layer = layers[d + w]
                key = id(nxt[0])
                _, before = layer.get(key, (None, 0))
                layer[key] = (nxt, before + c)
    return counts


def _ideal_slice(p, d):
    """Index of the degree-d words and the span of the ideal slice in them.

    The slice is spanned by every u*r*v of degree d, r a relation or a
    family member, eliminated directly with no Groebner machinery.
    """
    gt, fld = p.gens, p.field
    words = [enumerate_words(gt, e) for e in range(d + 1)]
    index = {w: i for i, w in enumerate(words[d])}
    solver = SpanSolver(fld)
    for r in p.relations_through(d):
        rd = r.degree
        if rd is None or rd > d:
            continue
        rest = d - rd
        for a in range(rest + 1):
            for u in words[a]:
                for v in words[rest - a]:
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
