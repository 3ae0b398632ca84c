"""Finitely presented graded right modules over a truncated algebra.

Modules enter only as presentations M = coker(r: F1 -> F0) of maps between
shifted free modules, and M is passed as its relation map r, whose basis
fixes the degree bound D.  Every question is answered by degreewise linear
algebra on component matrices.  Free module components are indexed by
pairs (generator k, normal word u), ordered by k then by the word order,
so all coordinates and witnesses are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .freealg import NcPoly
from .linalg import SpanSolver, kernel_basis, rank


@dataclass(frozen=True)
class FreeModule:
    """Direct sum of shifted copies A(-s_k); generator e_k sits in degree s_k."""

    shifts: tuple

    def __len__(self):
        return len(self.shifts)


def free_basis(tgb, fm, d):
    """Component basis of the free module at degree d: pairs (k, word)."""
    out = []
    for k, s in enumerate(fm.shifts):
        if d - s < 0:
            continue
        for w in tgb.normal_words(d - s):
            out.append((k, w))
    return out


def free_dim(tgb, fm, d):
    total = 0
    for s in fm.shifts:
        if d - s >= 0:
            total += tgb.dim(d - s)
    return total


def _block_offsets(tgb, fm, d):
    """Position of generator k's first basis pair in free_basis(tgb, fm, d)."""
    offsets = []
    off = 0
    for s in fm.shifts:
        offsets.append(off)
        if d - s >= 0:
            off += tgb.dim(d - s)
    return offsets


class ModuleMap:
    """Degree-0 map of free modules: e_l -> sum_k e_k * entry[(k, l)].

    entry (k, l) is homogeneous of degree shifts_src[l] - shifts_tgt[k]
    (or zero); entries are stored in normal form.  A map that min_generators
    returns with no modulo carries ranks[d], the rank of its degree-d
    component, at each degree it visited; other maps carry none.
    """

    def __init__(self, tgb, source, target, entries):
        self.tgb = tgb
        self.source = source
        self.target = target
        self.entries = {}
        for (k, l), poly in entries.items():
            if poly is None or poly.is_zero():
                continue
            poly = tgb.normal_form(poly)
            if poly.is_zero():
                continue
            want = source.shifts[l] - target.shifts[k]
            if poly.degree != want:
                raise InputError(
                    f"entry ({k},{l}) has degree {poly.degree}, expected {want}"
                )
            self.entries[(k, l)] = poly
        self.ranks = {}

    def __len__(self):
        """The number of source generators."""
        return len(self.source)

    def degree_counts(self):
        """The number of source generators of each degree 0..D."""
        counts = [0] * (self.tgb.D + 1)
        for s in self.source.shifts:
            counts[s] += 1
        return counts

    def append_generators(self, d, vecs):
        """Append one source generator of degree d per vector of vecs, sent to it.

        The vectors are coordinates over free_basis(tgb, target, d), so each
        entry is read off its normal-word coordinates, already in normal form.
        """
        basis = free_basis(self.tgb, self.target, d)
        for l, vec in enumerate(vecs, len(self.source)):
            polys = {}
            for i, c in vec.items():
                k, u = basis[i]
                polys.setdefault(k, {})[u] = c
            for k, terms in polys.items():
                self.entries[(k, l)] = NcPoly(terms, d - self.target.shifts[k])
        self.source = FreeModule(self.source.shifts + (d,) * len(vecs))

    def component_columns(self, d):
        """Columns of the degree-d component matrix over the target basis index.

        The column of e_l * u is the sum over the terms c * w of the entries
        (k, l) of c times row u of the product table of w, shifted to
        block k.  A single unit term in the first block is the table itself,
        so such columns share its row dicts: callers only read columns.
        """
        tgb = self.tgb
        fld = tgb.field
        one = fld.one()
        tgt_off = _block_offsets(tgb, self.target, d)
        cols = []
        for l, s in enumerate(self.source.shifts):
            e = d - s
            if e < 0:
                continue
            terms = [
                (tgt_off[k], c, tgb.products(e, w))
                for k in range(len(self.target)) if (k, l) in self.entries
                for w, c in self.entries[(k, l)].terms.items()
            ]
            if len(terms) == 1 and terms[0][0] == 0 and terms[0][1] == one:
                cols.extend(terms[0][2])
                continue
            for i in range(tgb.dim(e)):
                vec = {}
                for off, c, rows in terms:
                    fld.axpy(vec, c, _shifted(rows[i], off))
                cols.append(vec)
        return cols


def _shifted(row, off):
    """row with every index moved by off; row itself when off is 0."""
    return {off + t: v for t, v in row.items()} if off else row


def min_generators(tgb, src, degrees, span_at, modulo=None):
    """Minimal generators of a submodule K of the free module src, in the given
    degrees, as their generator map (+) A(-deg g) -> src.

    span_at(d, have) is any spanning set of K_d over free_basis(tgb, src, d),
    where have is the rank that the generators already emitted reach at d;
    it may return [] when K_d has that dimension.  With modulo, the
    generators are minimal modulo the submodule N of src whose degree-d
    component modulo(d) spans: they generate (K + N) / N, and have is taken
    modulo N.  At degree d the A-span of the generators already emitted is
    the image of the map, read off its component columns at d; on a
    Veronese grading (degrees m, m + n, ...) that image is the A^(n)-span.
    Degree by degree, the spanning vectors that extend it are appended to
    the map; graded Nakayama makes this a minimal generating set on the
    window.  With no modulo the map records in ranks[d] the rank of its
    finished degree-d component at each visited degree.
    """
    gens = ModuleMap(tgb, FreeModule(()), src, {})
    for d in degrees:
        span = SpanSolver(tgb.field)
        for col in modulo(d) if modulo else ():
            span.add(col)
        base = span.rank
        if len(gens):
            for col in gens.component_columns(d):
                span.add(col)
        new = [vec for vec in span_at(d, span.rank - base) if span.add(vec)]
        if new:
            gens.append_generators(d, new)
        if modulo is None:
            gens.ranks[d] = span.rank
    return gens


def _projected_kernel(fld, pcols, rcols):
    """Basis of ker(P -> coker(rel)) at one degree, from the two column lists.

    The kernel vectors of [rcols | pcols] whose 1 lies in the P block,
    restricted to that block.  Those whose 1 lies in the relation block
    vanish on the P block, and each of the rest ends in its 1 at its own
    position, so they are a basis of the projection with no second pass.
    With no relation columns that basis is the kernel basis itself.
    """
    m = len(rcols)
    if not m:
        return kernel_basis(fld, pcols)
    return [{i - m: c for i, c in vec.items() if i >= m}
            for vec in kernel_basis(fld, rcols + pcols) if max(vec) >= m]


def kernel_min_generators(f, relations=None, step=1):
    """Minimal generators of ker(f.source -> coker(relations)), ker f with no
    relations, at the degrees from the lowest source shift to the bound D in
    steps of step, as their generator map into f.source; its entries are the
    witnesses.  The one routine that builds a syzygy module: every resolution
    level, every P^m syzygy module (step n) and every probe kernel.

    A kernel is computed only at a degree that can emit a generator.  With P
    = f.source and r the relations, dim K_d = dim P_d - (rank [r | f]_d -
    rank r_d).  The generators emitted below d span (gens * A)_d, which lies
    in K_d and has the rank have; when that equals dim K_d it is K_d, no
    kernel vector extends it, and the callback returns no vector.  Where it
    is smaller the kernel vectors are offered as before, so the gate changes
    no generator.  With no relations the rank of f is f.ranks[d] where
    min_generators recorded it, as each resolution level does for the next,
    so a silent degree builds no column of f.  Elsewhere it is linalg.rank
    of the columns, which the kernel reuses.
    """
    tgb, D = f.tgb, f.tgb.D
    fld = tgb.field

    def kernel(d, have):
        dim_p = free_dim(tgb, f.source, d)
        r = f.ranks.get(d) if relations is None else None
        if r is not None and dim_p - r == have:
            return []
        pcols = f.component_columns(d)
        rcols = relations.component_columns(d) if relations is not None else []
        if r is None and dim_p - rank(fld, pcols, rcols) == have:
            return []
        return _projected_kernel(fld, pcols, rcols)

    degrees = range(min(f.source.shifts, default=D + 1), D + 1, step)
    return min_generators(tgb, f.source, degrees, kernel)


@dataclass
class TruncatedResolution:
    """Minimal chain P^L -> ... -> P^0 -> M = coker(relations), exact up to
    the bound D of the basis.

    p0_map carries the chosen generator representatives P^0 -> F0;
    diffs[i] is the differential P^(i+1) -> P^i.
    """

    relations: ModuleMap
    p0_map: ModuleMap
    diffs: list
    tor: list            # tor[i][d] = generators of P^i in degree d


def minimal_resolution(relations, length=2):
    """Minimal free resolution window of M = coker(relations) up to the bound D.

    Every level i >= 1 is kernel_min_generators of the map before it, level
    1 modulo the relations: the kernel of P^0 -> M.  length <= 2 is what
    the coherence criterion needs; it may reach D, since P^i starts in
    degree i.  Requires the presentation shifts to be >= 0 (every module
    in the package is presented that way).
    """
    tgb = relations.tgb
    fld, D = tgb.field, tgb.D
    if length < 0:
        raise InputError(f"resolution length {length} < 0")
    if length > D:
        raise InputError(f"resolution length {length} > bound {D}: P^i starts in degree i")
    f0 = relations.target
    if min(f0.shifts + relations.source.shifts, default=0) < 0:
        raise InputError("minimal_resolution expects nonnegative shifts")

    def heads(d, have):
        offsets = _block_offsets(tgb, f0, d)
        return [{offsets[k]: fld.one()} for k, s in enumerate(f0.shifts) if s == d]

    # P^0 from M (x) k = F0 / (F0 * A_+ + im r): the generators e_k of F0,
    # minimal modulo the relations
    p0 = min_generators(tgb, f0, sorted({s for s in f0.shifts if s <= D}), heads,
                        modulo=relations.component_columns)
    maps = [p0]
    for i in range(length):
        maps.append(kernel_min_generators(maps[-1], None if i else relations))
    tor = [m.degree_counts() for m in maps]
    return TruncatedResolution(relations, maps[0], maps[1:], tor)


def audit_resolution(res):
    """Exactness, minimality and surjectivity checks; returns a findings dict.

    Every check is a rank identity on component matrices, each built once
    per degree d <= D, independent of the kernels the resolution was built
    from:
    - minimality: no differential has a degree-0 (scalar) entry;
    - surjectivity: rank [p0_map | relations]_d == dim F0_d;
    - exact at P^0: rank d1_d == dim ker(P^0 -> M)_d, which is
      dim P^0_d - (rank [p0_map | relations]_d - rank relations_d);
    - exact at P^i: rank d(i+1)_d == dim ker(di)_d == dim P^i_d - rank di_d;
    - a complex: p0_map d1 lands in the relations and di d(i+1) == 0 on the
      generators, without which equal dimensions do not make the images
      the kernels.
    """
    tgb = res.relations.tgb
    fld = tgb.field
    findings = {"minimal": True, "exact": True, "surjective": True, "detail": []}
    for i, dmap in enumerate(res.diffs):
        for (k, l), poly in dmap.entries.items():
            if poly.degree == 0:
                findings["minimal"] = False
                findings["detail"].append(f"d{i+1} has scalar entry at ({k},{l})")
    for d in range(0, tgb.D + 1):
        pcols = res.p0_map.component_columns(d)
        dcols = [dmap.component_columns(d) for dmap in res.diffs]
        both = SpanSolver(fld)
        for col in res.relations.component_columns(d):
            both.add(col)
        rank_rel = both.rank
        # a complex: P0 -> M kills image(d1) and di kills image(d(i+1)).  The
        # maps are right A-linear, so the columns of the generators of degree
        # d suffice; a generator's block starts with its empty-word column.
        for i, (outer, dmap, cols) in enumerate(zip([pcols] + dcols, res.diffs, dcols)):
            offsets = _block_offsets(tgb, dmap.source, d)
            for l, s in enumerate(dmap.source.shifts):
                if s != d:
                    continue
                image = {}
                for j, c in cols[offsets[l]].items():
                    fld.axpy(image, c, outer[j])
                in_kernel = both.contains(image) if i == 0 else not image
                if not in_kernel:
                    findings["exact"] = False
                    findings["detail"].append(
                        f"P0 -> M is nonzero on image(d1) at degree {d}" if i == 0
                        else f"d{i}*d{i+1} != 0 at degree {d}"
                    )
                    break
        for col in pcols:
            both.add(col)
        if both.rank != free_dim(tgb, res.relations.target, d):
            findings["surjective"] = False
            findings["detail"].append(f"P0 -> M not onto at degree {d}")
        # kernel of P0 -> M dimensionwise
        kern = len(pcols) - (both.rank - rank_rel)
        for i, cols in enumerate(dcols):
            image = rank(fld, cols)
            if image != kern:
                findings["exact"] = False
                target = "ker(P0->M)" if i == 0 else f"ker(d{i})"
                findings["detail"].append(
                    f"image(d{i+1}) != {target} at degree {d}: {image} vs {kern}"
                )
            kern = len(cols) - image
    return findings
