"""Independent oracles used only by the tests.

Everything here recomputes answers from first principles (plain row
reduction over lists of dicts, full-span definitions instead of one-step
recursions) so the production path is checked against genuinely different
code.
"""

import heapq

from cohprobe.freealg import NcPoly, leading_word, word_key, word_str
from cohprobe.gbasis import _ideal_slice
from cohprobe.grmod import FreeModule, ModuleMap, _projected_kernel, free_dim, min_generators
from cohprobe.linalg import with_multiplier

from windows import ModuleComponents


# Generic field arithmetic: a plain + or * on the values, then the field's own
# embedding of fractions (of_fraction) normalizes the result.


def field_add(field, a, b):
    return field.of_fraction(a + b, 1)


def field_mul(field, a, b):
    return field.of_fraction(a * b, 1)


def is_zero(a):
    return a == 0


def reference_axpy(field, target, coeff, source):
    """target += coeff * source one scalar at a time, dropping zeros."""
    for c, v in source.items():
        nv = field_mul(field, coeff, v)
        if c in target:
            nv = field_add(field, target[c], nv)
        if is_zero(nv):
            target.pop(c, None)
        else:
            target[c] = nv


def column_of(field, values):
    """The column that a vector of field values is stored as: its least
    integer multiple R with that multiplier m, R / m (a linalg.Scaled when
    m > 1), read off field.integral."""
    m, vec = field.integral(values)
    return with_multiplier(vec, m)


def reference_columns(f, d):
    """The degree-d component columns of the map f as field values: the
    column of e_l * u sums c * NF(w * u) over the terms c * w of the entries
    (k, l), shifted to block k, one scalar at a time (reference_axpy), with
    the normal forms of normal_form_word."""
    tgb, field = f.tgb, f.tgb.field
    offsets, off = [], 0
    for t in f.target.shifts:
        offsets.append(off)
        off += tgb.dim(d - t) if d >= t else 0
    cols = []
    for l, s in enumerate(f.source.shifts):
        for u in tgb.normal_words(d - s) if d >= s else []:
            vec = {}
            for (k, col), poly in f.entries.items():
                if col != l:
                    continue
                idx = tgb.normal_index(d - f.target.shifts[k])
                for w, c in poly.terms.items():
                    nf = tgb.normal_form_word(w + u)
                    reference_axpy(field, vec, c, {offsets[k] + idx[t]: v for t, v in nf.items()})
            cols.append(vec)
    return cols


def reference_scale(field, a, vec):
    """a * vec one scalar at a time, dropping zeros."""
    out = {}
    for c, v in vec.items():
        nv = field_mul(field, a, v)
        if not is_zero(nv):
            out[c] = nv
    return out


def _reduce_row(field, row, pivots):
    row = dict(row)
    while True:
        hit = None
        for c in row:
            if c in pivots:
                hit = c
                break
        if hit is None:
            return row
        coeff = row[hit]
        for c, v in pivots[hit].items():
            cur = row.get(c, field.of_fraction(0, 1))
            nv = field_add(field, cur, field.neg(field_mul(field, coeff, v)))
            if is_zero(nv):
                row.pop(c, None)
            else:
                row[c] = nv


def span_rank(field, vectors):
    """Rank by plain elimination; pivot = max index (unlike the main path)."""
    pivots = {}
    for vec in vectors:
        row = _reduce_row(field, vec, pivots)
        if not row:
            continue
        lead = max(row)
        inv = field.inv(row[lead])
        pivots[lead] = {c: field_mul(field, inv, v) for c, v in row.items()}
    return len(pivots)


def span_contains(field, vectors, probe):
    pivots = {}
    for vec in vectors:
        row = _reduce_row(field, vec, pivots)
        if not row:
            continue
        lead = max(row)
        inv = field.inv(row[lead])
        pivots[lead] = {c: field_mul(field, inv, v) for c, v in row.items()}
    return not _reduce_row(field, probe, pivots)


def kernel_dim(field, columns, nrows):
    return len(columns) - span_rank(field, columns)


def hom_dim_oracle(m1, m2):
    """dim of degree-0 homomorphisms m1 -> m2 between window modules.

    Full-span definition: phi must commute with the stored action of every
    basis word on every window pair i < j, not only with the generators.
    """
    fld = m1.tgb.field
    lo, hi = m1.lo, m1.hi
    unknowns = {}
    for i in range(lo, hi + 1):
        for r in range(m2.dim(i)):
            for c in range(m1.dim(i)):
                unknowns[(i, r, c)] = len(unknowns)
    rows = []
    for j in range(lo, hi + 1):
        for i in range(lo, j):
            act1, act2 = m1.action(i, j), m2.action(i, j)
            for b in range(m1.dim(j)):
                for a in range(m1.tgb.dim(j - i)):
                    # phi_i(b * a) - phi_j(b) * a, one row per basis row r of (m2)_i
                    for r in range(m2.dim(i)):
                        row = {}
                        for c, v in (act1[b][a] if act1 else {}).items():
                            row[unknowns[(i, r, c)]] = v
                        for rp in range(m2.dim(j)):
                            v = act2[rp][a].get(r) if act2 else None
                            if v is not None:
                                key = unknowns[(j, rp, b)]
                                row[key] = field_add(fld, row.get(key, fld.of_fraction(0, 1)), fld.neg(v))
                        rows.append({k: v for k, v in row.items() if not is_zero(v)})
    return len(unknowns) - span_rank(fld, rows)


def degree_one_generated_oracle(tgb):
    """True iff A_1 * A_(d-1) spans A_d for every d <= tgb.D, by definition:
    the degree-d component columns of the map (+) A(-1) -> A that sends one
    generator to each normal word of degree 1 have rank dim A_d."""
    ones = tgb.normal_words(1)
    onto = ModuleMap(tgb, FreeModule((1,) * len(ones)), FreeModule((0,)), {
        (0, k): NcPoly.monomial(tgb.gt, tgb.field, u) for k, u in enumerate(ones)
    })
    return all(
        span_rank(tgb.field, onto.component_columns(d)) == tgb.dim(d)
        for d in range(2, tgb.D + 1)
    )


def ideal_syzygy_profile_oracle(tgb, gens, D, step=1):
    """New minimal kernel generators of (+) A(-deg g) -> A, per module degree.

    Kernel components are computed by elimination on the multiplication
    matrix; the A_+-multiples span is taken over every lower degree and
    every complementary word (the full definition, no one-step shortcut).
    With step n the degrees walk min(deg g), min(deg g) + n, ..., which
    reads the syzygies of a module over the n-th Veronese grading.
    """
    fld = tgb.field
    shifts = [g.degree for g in gens]

    def source_basis(d):
        out = []
        for i, s in enumerate(shifts):
            if d - s >= 0:
                for w in tgb.normal_words(d - s):
                    out.append((i, w))
        return out

    def map_columns(d):
        tgt_index = tgb.normal_index(d)
        cols = []
        for i, w in source_basis(d):
            vec = {}
            for gw, gc in gens[i].terms.items():
                for t, tc in tgb.normal_form_word(gw + w).items():
                    col = tgt_index[t]
                    cur = vec.get(col, fld.of_fraction(0, 1))
                    nv = field_add(fld, cur, field_mul(fld, gc, tc))
                    if is_zero(nv):
                        vec.pop(col, None)
                    else:
                        vec[col] = nv
            cols.append(vec)
        return cols

    def kernel_vectors(d):
        # eliminate columns, keep certificates: classic augmented elimination
        cols = map_columns(d)
        pivots = {}
        kernel = []
        for j, col in enumerate(cols):
            row = dict(col)
            cert = {j: fld.one()}
            while True:
                hit = None
                for c in row:
                    if c in pivots:
                        hit = c
                        break
                if hit is None:
                    break
                coeff = row[hit]
                prow, pcert = pivots[hit]
                for c, v in prow.items():
                    cur = row.get(c, fld.of_fraction(0, 1))
                    nv = field_add(fld, cur, fld.neg(field_mul(fld, coeff, v)))
                    if is_zero(nv):
                        row.pop(c, None)
                    else:
                        row[c] = nv
                for c, v in pcert.items():
                    cur = cert.get(c, fld.of_fraction(0, 1))
                    nv = field_add(fld, cur, fld.neg(field_mul(fld, coeff, v)))
                    if is_zero(nv):
                        cert.pop(c, None)
                    else:
                        cert[c] = nv
            if row:
                lead = max(row)
                inv = fld.inv(row[lead])
                pivots[lead] = (
                    {c: field_mul(fld, inv, v) for c, v in row.items()},
                    {c: field_mul(fld, inv, v) for c, v in cert.items()},
                )
            else:
                kernel.append(cert)
        return kernel

    degrees = range(min(shifts), D + 1, step)
    kernels = {d: kernel_vectors(d) for d in degrees}

    def push(vec, d_from, word):
        # right-multiply a source-basis vector by a word
        basis_from = source_basis(d_from)
        d_to = d_from + tgb.gt.word_degree(word)
        pos = {pair: n for n, pair in enumerate(source_basis(d_to))}
        out = {}
        for idx, c in vec.items():
            i, u = basis_from[idx]
            for t, tc in tgb.normal_form_word(u + word).items():
                n = pos[(i, t)]
                cur = out.get(n, fld.of_fraction(0, 1))
                nv = field_add(fld, cur, field_mul(fld, c, tc))
                if is_zero(nv):
                    out.pop(n, None)
                else:
                    out[n] = nv
        return out

    profile = [0] * (D + 1)
    for d in degrees:
        multiples = []
        for e in range(min(shifts), d, step):
            for vec in kernels[e]:
                for w in tgb.normal_words(d - e):
                    multiples.append(push(vec, e, w))
        total = span_rank(fld, multiples + kernels[d])
        old = span_rank(fld, multiples)
        profile[d] = total - old
    return profile


def bar_tor_trivial_module(tgb, D, i_max=2):
    """Tor_i(k, k)_d for i <= i_max via the reduced bar complex slice.

    C_i = (A_+)^(x i); d(a_1 (x) ... (x) a_i) alternates inner products and
    the outer factors die against k on both sides.  Dimensions only.
    """
    fld = tgb.field
    rows = [[0] * (D + 1) for _ in range(i_max + 1)]
    rows[0][0] = 1

    def plus_degrees(total, parts):
        if parts == 1:
            if total >= 1:
                yield (total,)
            return
        for first in range(1, total - parts + 2):
            for rest in plus_degrees(total - first, parts - 1):
                yield (first,) + rest

    def chain_basis(d, i):
        out = []
        for degs in plus_degrees(d, i):
            lists = [tgb.normal_words(e) for e in degs]
            if any(not lst for lst in lists):
                continue
            idx = [0] * i
            while True:
                out.append(tuple(lists[t][idx[t]] for t in range(i)))
                t = i - 1
                while t >= 0:
                    idx[t] += 1
                    if idx[t] < len(lists[t]):
                        break
                    idx[t] = 0
                    t -= 1
                if t < 0:
                    break
        return out

    def differential(d, i):
        """Matrix of d_i: C_i -> C_(i-1) at degree d, as columns."""
        if i < 2:
            return [], 0
        source = chain_basis(d, i)
        target = chain_basis(d, i - 1)
        tpos = {t: n for n, t in enumerate(target)}
        cols = []
        for chain in source:
            vec = {}
            sign = fld.neg(fld.one())
            for cut in range(i - 1):
                prod = tgb.normal_form_word(chain[cut] + chain[cut + 1])
                for w, c in prod.items():
                    key = chain[:cut] + (w,) + chain[cut + 2:]
                    n = tpos[key]
                    coeff = field_mul(fld, sign, c) if cut % 2 == 0 else c
                    cur = vec.get(n, fld.of_fraction(0, 1))
                    nv = field_add(fld, cur, coeff)
                    if is_zero(nv):
                        vec.pop(n, None)
                    else:
                        vec[n] = nv
            cols.append(vec)
        return cols, len(target)

    for d in range(1, D + 1):
        c1 = len(chain_basis(d, 1))
        rows[1][d] = c1 - span_rank(fld, differential(d, 2)[0])
        if i_max >= 2:
            d2_cols, _ = differential(d, 2)
            rank_d2 = span_rank(fld, d2_cols)
            ker_d2 = len(chain_basis(d, 2)) - rank_d2
            d3_cols, _ = differential(d, 3)
            rows[2][d] = ker_d2 - span_rank(fld, d3_cols)
    return rows


def _find_factor(word, leads_by_len, lead_lens):
    """(start, length) of the leftmost leading word occurring in word, or None."""
    for i in range(len(word)):
        for L in lead_lens:
            if i + L > len(word):
                break
            if word[i : i + L] in leads_by_len[L]:
                return i, L
    return None


def _reduce_terms(terms, gt, fld, leads_by_len, lead_lens, lead_to_poly):
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
        if c is None or is_zero(c):
            continue
        pos = _find_factor(w, leads_by_len, lead_lens)
        if pos is None:
            cur = result.get(w)
            nv = c if cur is None else field_add(fld, cur, c)
            if is_zero(nv):
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
            add = fld.neg(field_mul(fld, c, tc))
            cur = pending.get(nw)
            nv = add if cur is None else field_add(fld, cur, add)
            if is_zero(nv):
                pending.pop(nw, None)
                in_heap.discard(nw)
            else:
                pending[nw] = nv
                if nw not in in_heap:
                    key = word_key(gt, nw)
                    heapq.heappush(heap, (tuple(-x for x in key[1]), nw))
                    in_heap.add(nw)
    return result


def reference_normal_form(tgb, terms):
    """Normal form of a terms dict by plain field-arithmetic rewriting over
    tgb.elements (monic, with distinct leads), scanning each word for the
    leftmost, then shortest, leading word."""
    leads_by_len, lead_to_poly = {}, {}
    for g in tgb.elements:
        lw = leading_word(tgb.gt, g)
        leads_by_len.setdefault(len(lw), set()).add(lw)
        lead_to_poly[lw] = g
    return _reduce_terms(
        terms, tgb.gt, tgb.field, leads_by_len, sorted(leads_by_len), lead_to_poly
    )


def overlap_failures(tgb):
    """The ambiguities of degree <= tgb.D between final elements that do not
    resolve, as (first lead, second lead, shared length) strings; [] certifies
    that the completion is complete through D (diamond lemma).

    Every overlap head*l2 == l1*tail of leads l1, l2 with a shared part of
    length k, self-overlaps included, gives g1*tail - head*g2 built with
    plain field arithmetic, and it fails when its reference_normal_form is
    nonzero.  A lead that is a factor of another lead fails at once, with
    k its length.
    """
    gt, fld = tgb.gt, tgb.field
    minus_one = fld.of_fraction(-1, 1)
    by_lead = {leading_word(gt, g): g for g in tgb.elements}
    failures = []
    for l1, g1 in by_lead.items():
        for l2, g2 in by_lead.items():
            if l1 != l2 and any(l1[i:i + len(l2)] == l2 for i in range(len(l1) - len(l2) + 1)):
                failures.append((word_str(gt, l1), word_str(gt, l2), len(l2)))
            for k in range(1, min(len(l1), len(l2))):
                if l1[-k:] != l2[:k] or gt.word_degree(l1 + l2[k:]) > tgb.D:
                    continue
                head, tail = l1[:-k], l2[k:]
                s = {}
                reference_axpy(fld, s, fld.one(), {w + tail: c for w, c in g1.terms.items()})
                reference_axpy(fld, s, minus_one, {head + w: c for w, c in g2.terms.items()})
                if reference_normal_form(tgb, s):
                    failures.append((word_str(gt, l1), word_str(gt, l2), k))
    return failures


def poly_in_ideal_bruteforce(p, q):
    """Membership test: is q in the two-sided relation ideal (degree slice)."""
    if q.is_zero():
        return True
    index, solver = _ideal_slice(p, q.degree)
    return solver.contains({index[w]: c for w, c in q.terms.items()})


def tor0_oracle(relations):
    """dim Tor_0(M, k)_d for M = coker(relations) and d <= D.

    M (x) k = F0 / (F0 * A_+ + im r), so in degree d it is spanned by the
    generators e_k of F0 of degree d (the heads), less the span of the
    relations restricted to the heads.  Only a relation of degree d meets a
    head, through its scalar entries, so the rule reads the entries directly.
    """
    tgb = relations.tgb
    shifts0, shifts1 = relations.target.shifts, relations.source.shifts
    out = []
    for d in range(tgb.D + 1):
        heads = [k for k, s in enumerate(shifts0) if s == d]
        restricted = [
            {k: relations.entries[(k, l)].terms[()] for k in heads if (k, l) in relations.entries}
            for l, s in enumerate(shifts1) if s == d
        ]
        out.append(len(heads) - span_rank(tgb.field, restricted))
    return out


def ungated_kernel_min_generators(f, relations=None, step=1):
    """kernel_min_generators with no dimension gate: the projected kernel is
    computed and offered to min_generators at every degree of the window."""
    tgb, D = f.tgb, f.tgb.D
    rel_columns = relations.component_columns if relations is not None else lambda d: []
    return min_generators(
        tgb, f.source, range(min(f.source.shifts, default=D + 1), D + 1, step),
        lambda d, have: _projected_kernel(tgb.field, f.component_columns(d), rel_columns(d)),
    )


def euler_characteristic_check(res):
    """sum_i (-1)^i dim P^i_d == dim M_d for d <= D; meaningful when the
    window loses no Tor (all syzygies of the last level vanish)."""
    tgb = res.relations.tgb
    comps = ModuleComponents(res.relations)
    modules = [res.p0_map.source] + [dmap.source for dmap in res.diffs]
    out = []
    for d in range(tgb.D + 1):
        total = 0
        sign = 1
        for pmod in modules:
            total += sign * free_dim(tgb, pmod, d)
            sign = -sign
        out.append(total == len(comps.basis(d)))
    return out


def _fold(m, b, j, word):
    """Act on basis vector b of M_j by a word one letter at a time, left to right."""
    tgb = m.tgb
    fld = tgb.field
    vec = {b: fld.one()}
    cur = j
    for letter in word:
        w = tgb.gt.weights[letter]
        nxt = cur - w
        tensor = m.act.get((nxt, cur))
        if tensor is None:
            return {}
        ai = tgb.normal_index(w).get((letter,))
        out = {}
        if ai is not None:
            for bb, c in vec.items():
                reference_axpy(fld, out, c, tensor[bb][ai])
        else:
            # the letter itself is not a normal word; expand it
            idx = tgb.normal_index(w)
            for t, tc in tgb.normal_form_word((letter,)).items():
                aj = idx[t]
                for bb, c in vec.items():
                    reference_axpy(fld, out, field_mul(fld, c, tc), tensor[bb][aj])
        vec = out
        cur = nxt
        if not vec:
            return {}
    return vec


def fold_audit(m):
    """Action consistency of a window module: every stored tensor equals the
    letter-by-letter fold."""
    tgb = m.tgb
    problems = []
    for (i, j), tensor in sorted(m.act.items()):
        span = j - i
        if span < 2:
            continue
        words = tgb.normal_words(span)
        for b in range(m.dim(j)):
            for ai, a in enumerate(words):
                if _fold(m, b, j, a) != tensor[b][ai]:
                    problems.append(
                        f"action tensor ({i},{j}) differs from fold at b={b}, a={word_str(tgb.gt, a)}"
                    )
                    break
    return {"ok": not problems, "problems": problems}


def all_triples_audit(zw):
    """Associativity of a Z-algebra window on every composable triple.

    At i = lo over all lo <= j <= k <= l, word by word: for normal words x,
    y, z of degrees l - k, k - j and j - lo, (x*y)*z and x*(y*z) are
    recomputed from normal_form_word.  ZAlgebraWindow.audit checks the
    triples with l - k a letter weight only; both must find the same
    failures first.
    """
    tgb = zw.tgb
    fld = tgb.field
    one = fld.one()

    def times(left, right):
        out = {}
        for u, a in left.items():
            for v, b in right.items():
                reference_axpy(fld, out, field_mul(fld, a, b), tgb.normal_form_word(u + v))
        return out

    lo, hi = zw.lo, zw.hi
    problems = []
    for j in range(lo, hi + 1):
        for k in range(j, hi + 1):
            for l in range(k, hi + 1):
                if any(
                    times(times({x: one}, {y: one}), {z: one})
                    != times({x: one}, times({y: one}, {z: one}))
                    for x in tgb.normal_words(l - k)
                    for y in tgb.normal_words(k - j)
                    for z in tgb.normal_words(j - lo)
                ):
                    problems.append(f"associativity fails on ({lo},{j},{k},{l})")
    return {"ok": not problems, "problems": problems}
