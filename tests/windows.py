"""Window-module constructions and paper-level checks used only by the tests.

The CLI builds one kind of window module, P_j, as column j of the
Z-algebra window (``transport_module``); ``projective_window`` builds it
from a basis and a window.  The general construction lives here: the
cokernel transport ``coker_transport`` over ``ModuleComponents`` (per
degree, a basis of M = coker(relations) and coordinates in it), the direct
``coker_window``, and the simple and truncated windows.  So do the Gamma_*
round trip and the tensor-algebra projective isomorphism that the tests
compare the CLI path against.
"""

from dataclasses import dataclass

from cohprobe.errors import DegreeBoundExceeded, InputError
from cohprobe.freealg import GeneratorTable
from cohprobe.gbasis import AlgebraPresentation, complete_to_degree
from cohprobe.grmod import FreeModule, ModuleMap, _projected_kernel, free_basis
from cohprobe.linalg import QQ, SpanSolver, kernel_basis
from cohprobe.zalg import ZAlgebraWindow, ZModuleWindow, transport_module


class ModuleComponents:
    """Cached degreewise bases and canonical coordinates for M = coker(relations).

    The degree-d basis is the deterministic unit-vector complement of the
    relation image inside the free component: the units that do not depend
    on the relation columns and the units before them.  The kernel of
    [relation columns | unit columns] writes every other unit in that basis
    modulo the relations, so each degree is one reduction table, unit index
    -> coordinates, and coords() is a sparse sum over it.
    """

    def __init__(self, relations):
        self.relations = relations
        self.tgb = relations.tgb
        self._data = {}

    def _degree_data(self, d):
        if d > self.tgb.D:
            raise DegreeBoundExceeded(f"degree {d} > bound {self.tgb.D}")
        cached = self._data.get(d)
        if cached is not None:
            return cached
        fld = self.tgb.field
        one = fld.one()
        rel = self.relations.component_columns(d)
        fb = free_basis(self.tgb, self.relations.target, d)
        # dependent unit i -> its kernel vector modulo the relations, whose 1 sits at i
        deps = {max(v): v for v in _projected_kernel(fld, [{i: one} for i in range(len(fb))], rel)}
        pos = {}  # independent unit -> its position in the basis
        table = []
        for i in range(len(fb)):
            if i in deps:
                table.append({pos[t]: fld.neg(c) for t, c in deps[i].items() if t < i})
            else:
                pos[i] = len(pos)
                table.append({pos[i]: one})
        self._data[d] = ([fb[i] for i in pos], table)
        return self._data[d]

    def basis(self, d):
        """Basis of M_d as pairs (generator k, normal word)."""
        return self._degree_data(d)[0]

    def coords(self, d, fvec):
        """Coordinates of a free-component vector in the chosen basis of M_d."""
        table = self._degree_data(d)[1]
        out = {}
        for i, c in fvec.items():
            self.tgb.field.axpy(out, c, table[i])
        return out


def _window_from_components(tgb, lo, hi, dims, act_fn):
    """Assemble a ZModuleWindow by evaluating act_fn on every window pair."""
    act = {}
    for j in range(lo, hi + 1):
        if dims.get(j, 0) == 0:
            continue
        for i in range(lo, j):
            words = tgb.normal_words(j - i)
            tensor = []
            for b in range(dims[j]):
                row = []
                for a in words:
                    row.append(act_fn(i, j, b, a))
                tensor.append(row)
            act[(i, j)] = tensor
    return ZModuleWindow(tgb, lo, hi, dims, act)


def coker_transport(relations, lo, hi):
    """Window module of the graded module coker(relations): (M_Z)_i = M_{-i}."""
    tgb = relations.tgb
    comps = ModuleComponents(relations)
    f0 = relations.target

    dims = {}
    bases = {}
    positions = {}
    for i in range(lo, hi + 1):
        d = -i
        if d > tgb.D:
            raise DegreeBoundExceeded(f"window index {i} needs graded degree {d} > D")
        basis = comps.basis(d)
        dims[i] = len(basis)
        bases[i] = basis
        positions[i] = {pair: n for n, pair in enumerate(free_basis(tgb, f0, d))}

    def act_fn(i, j, b, a):
        k, u = bases[j][b]
        pos = positions[i]
        return comps.coords(-i, {pos[(k, t)]: tc for t, tc in tgb.normal_form_word(u + a).items()})

    return _window_from_components(tgb, lo, hi, dims, act_fn)


def projective_window(tgb, j, lo, hi):
    """P_j on the window [lo, hi]: components A_ij = A_{j-i}."""
    return transport_module(ZAlgebraWindow(tgb, lo, hi), j)


def simple_window(tgb, j, lo, hi):
    """S_j: one-dimensional at index j, zero action."""
    dims = {}
    act = {}
    if lo <= j <= hi:
        dims[j] = 1
        for i in range(lo, j):
            act[(i, j)] = [[{} for _ in tgb.normal_words(j - i)]]
    return ZModuleWindow(tgb, lo, hi, dims, act)


def truncate_below(m, n):
    """M_{<=n}: zero out components with index above n; action restricted."""
    dims = {i: (d if i <= n else 0) for i, d in m.dims.items()}
    act = {(i, j): tensor for (i, j), tensor in m.act.items() if j <= n}
    return ZModuleWindow(m.tgb, m.lo, m.hi, dims, act)


def window_min_generator_profile(m):
    """Minimal generator counts per index: dim M_n minus the span of the
    action images from all higher window indices."""
    fld = m.tgb.field
    out = {}
    for n in range(m.lo, m.hi + 1):
        if m.dim(n) == 0:
            out[n] = 0
            continue
        span = SpanSolver(fld)
        for j in range(n + 1, m.hi + 1):
            tensor = m.action(n, j)
            if tensor is None:
                continue
            for brow in tensor:
                for vec in brow:
                    if vec:
                        span.add(dict(vec))
        out[n] = m.dim(n) - span.rank
    return out


# --- tensor algebra projectives -------------------------------------------


@dataclass
class IsoCheckReport:
    ok: bool
    dims: list            # [(index, source dim, target dim, rank)]
    description: str


def tensor_projective_iso_check(dimV, i, depth, field=None, negative=False):
    """Check P_i ~ P_{i-1}^{dimV} in cohproj T(V) at window scale.

    The candidate map sends the t-th copy of P_{i-1} into (P_i)_{<= i-1} by
    left concatenation with the t-th basis letter; it must be a bijection
    on every window component.  With negative=True only one copy is used,
    the advertised failing control.
    """
    field = QQ if field is None else field
    names = [f"x{t}" for t in range(dimV)]
    gt = GeneratorTable(names)
    pres = AlgebraPresentation(field, gt, [], label=f"T(k^{dimV})")
    tgb = complete_to_degree(pres, depth + 1)
    lo = i - depth
    copies = 1 if negative else dimV
    ok = True
    dims = []
    for l in range(lo, i):
        src_dim = copies * tgb.dim(i - 1 - l)
        tgt_dim = tgb.dim(i - l)
        index = tgb.normal_index(i - l)
        solver = SpanSolver(field)
        rank = 0
        for t in range(copies):
            for u in tgb.normal_words(i - 1 - l):
                image = {index[(t,) + u]: field.one()}
                if solver.add(image):
                    rank += 1
        dims.append((l, src_dim, tgt_dim, rank))
        if not (src_dim == tgt_dim == rank):
            ok = False
    desc = f"copy t of P_{i-1} embeds by left concatenation with x{{t}}, {copies} copies"
    return IsoCheckReport(ok, dims, desc)


# --- gamma_star and projective presentations --------------------------------


@dataclass
class ProjectivePresentation:
    """M = coker( (+)_t P_{a_t} -> (+)_s P_{b_s} ), entries in A_{b_s - a_t}."""

    source_indices: list
    target_indices: list
    entries: dict        # (s, t) -> NcPoly of degree b_s - a_t

    def validate(self):
        for (s, t), poly in self.entries.items():
            if poly.is_zero():
                continue
            want = self.target_indices[s] - self.source_indices[t]
            if poly.degree != want:
                raise InputError(f"entry ({s},{t}) has degree {poly.degree}, want {want}")


def gamma_star_presentation(pp, tgb):
    """Transport a projective presentation back to a graded presentation,
    returned as its relation map: P_j corresponds to the free module with
    shift -j."""
    pp.validate()
    src = FreeModule(tuple(-a for a in pp.source_indices))
    tgt = FreeModule(tuple(-b for b in pp.target_indices))
    return ModuleMap(tgb, src, tgt, dict(pp.entries))


def coker_window(pp, tgb, lo, hi):
    """Direct windowed realization of coker(pp), built index by index.

    This is an independent construction from coker_transport(gamma_star):
    each component is the cokernel of the index slice of the presenting
    matrix, with its own deterministic quotient coordinates.
    """
    pp.validate()
    fld = tgb.field
    dims = {}
    tables = {}
    bases = {}

    def tgt_slice_basis(i):
        out = []
        for s, b in enumerate(pp.target_indices):
            if b - i < 0:
                continue
            for w in tgb.normal_words(b - i):
                out.append((s, w))
        return out

    one = fld.one()
    for i in range(lo, hi + 1):
        tbasis = tgt_slice_basis(i)
        pos = {pair: n for n, pair in enumerate(tbasis)}
        rel = []
        for t, a in enumerate(pp.source_indices):
            if a - i < 0:
                continue
            for u in tgb.normal_words(a - i):
                vec = {}
                for s in range(len(pp.target_indices)):
                    poly = pp.entries.get((s, t))
                    if poly is None or poly.is_zero():
                        continue
                    for w, c in poly.terms.items():
                        nf = tgb.normal_form_word(w + u)
                        fld.axpy(vec, c, {pos[(s, tw)]: tc for tw, tc in nf.items()})
                rel.append(vec)
        # a unit that depends on the relations and the units before it is
        # written in the chosen units by its kernel vector, 1 at m + n
        m = len(rel)
        units = [{n: one} for n in range(len(tbasis))]
        deps = {max(v) - m: v for v in kernel_basis(fld, rel + units) if max(v) >= m}
        chosen = [n for n in range(len(tbasis)) if n not in deps]
        col = {n: b for b, n in enumerate(chosen)}
        tables[i] = [
            {col[t - m]: fld.neg(c) for t, c in deps[n].items() if m <= t < m + n}
            if n in deps else {col[n]: one}
            for n in range(len(tbasis))
        ]
        dims[i] = len(chosen)
        bases[i] = (tbasis, chosen, pos)

    def act_fn(i, j, b, a):
        tbasis_j, chosen_j, _ = bases[j]
        pos_i = bases[i][2]
        s, u = tbasis_j[chosen_j[b]]
        out = {}
        for t, tc in tgb.normal_form_word(u + a).items():
            fld.axpy(out, tc, tables[i][pos_i[(s, t)]])
        return out

    return _window_from_components(tgb, lo, hi, dims, act_fn)
