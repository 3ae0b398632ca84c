"""Z-algebra windows, module transport, cohproj Hom and desk-scale checks.

A graded algebra A gives the Z-algebra with components A_ij = A_{j-i}; a
graded right module M transports to the window module with (M_Z)_i equal
to M_{-i}.  The multiplication A_jk (x) A_ij -> A_ik composes the graded
factors as (x, y) -> x*y, and the right action lowers the window index.

Hom in cohproj is computed by truncation-stabilization: the dimension of
the degree-0 homomorphism space Hom(M_{<=n}, N) is tabulated as n walks
down the window, and a value is declared stable after four constant
levels.  One elimination gives every level.  Growth tables (tensor algebra
behavior) are reported unreduced.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DegreeBoundExceeded,
    InputError,
    NotPresentedByProjectives,
    WindowTooShallow,
)
from .freealg import GeneratorTable, word_str
from .gbasis import AlgebraPresentation, complete_to_degree
from .grmod import FreeModule, ModuleMap, ModulePresentation, ModuleComponents, free_basis
from .linalg import SpanSolver, axpy

STABLE_RUN = 4
MIN_LEVELS = 6


class ZAlgebraWindow:
    """Components A_ij and multiplication tensors on an index window.

    Component bases are the normal words of degree j - i; multiplication
    tensors are built lazily from normal forms of concatenations.
    """

    def __init__(self, tgb, lo, hi):
        if hi - lo > tgb.D:
            raise DegreeBoundExceeded(f"window width {hi - lo} > bound {tgb.D}")
        if lo > hi:
            raise InputError("empty window")
        self.tgb = tgb
        self.lo = lo
        self.hi = hi
        self._mult = {}

    def basis(self, i, j):
        return self.tgb.normal_words(j - i)

    def dim(self, i, j):
        if j < i:
            return 0
        return self.tgb.dim(j - i)

    def mult(self, i, j, k):
        """Tensor A_jk (x) A_ij -> A_ik: (x_idx, y_idx) -> vec over A_ik basis."""
        key = (i, j, k)
        cached = self._mult.get(key)
        if cached is not None:
            return cached
        tgb = self.tgb
        out = {}
        idx = tgb.normal_index(k - i)
        for xi, x in enumerate(tgb.normal_words(k - j)):
            for yi, y in enumerate(tgb.normal_words(j - i)):
                nf = tgb.normal_form_word(x + y)
                out[(xi, yi)] = {idx[w]: c for w, c in nf.items()}
        self._mult[key] = out
        return out

    def audit(self):
        """Unit law on the diagonal and associativity on all composable triples."""
        tgb = self.tgb
        fld = tgb.field
        problems = []
        for i in range(self.lo, self.hi + 1):
            if self.dim(i, i) != 1 or self.basis(i, i) != [()]:
                problems.append(f"A_{i}{i} is not one-dimensional")
        for i in range(self.lo, self.hi + 1):
            for j in range(i, self.hi + 1):
                t1 = self.mult(i, i, j)  # A_ij (x) A_ii -> A_ij
                t2 = self.mult(i, j, j)  # A_jj (x) A_ij -> A_ij
                for xi in range(self.dim(i, j)):
                    if t1[(xi, 0)] != {xi: fld.one()}:
                        problems.append(f"right unit fails on A_{i}{j}")
                        break
                    if t2[(0, xi)] != {xi: fld.one()}:
                        problems.append(f"left unit fails on A_{i}{j}")
                        break
        for i in range(self.lo, self.hi + 1):
            for j in range(i, self.hi + 1):
                for k in range(j, self.hi + 1):
                    for l in range(k, self.hi + 1):
                        if not self._assoc_ok(i, j, k, l):
                            problems.append(f"associativity fails on ({i},{j},{k},{l})")
        return {"ok": not problems, "problems": problems}

    def _assoc_ok(self, i, j, k, l):
        fld = self.tgb.field
        m_kl_j = self.mult(j, k, l)   # x*y for x in A_kl, y in A_jk -> A_jl
        m_jl_i = self.mult(i, j, l)   # (..) * z -> A_il
        m_jk_i = self.mult(i, j, k)   # y*z -> A_ik
        m_kl_i2 = self.mult(i, k, l)  # x * (..) -> A_il
        dim_x = self.dim(k, l)
        dim_y = self.dim(j, k)
        dim_z = self.dim(i, j)
        for xi in range(dim_x):
            for yi in range(dim_y):
                xy = m_kl_j[(xi, yi)]
                for zi in range(dim_z):
                    left = {}
                    for t, c in xy.items():
                        axpy(fld, left, c, m_jl_i[(t, zi)])
                    right = {}
                    for t, c in m_jk_i[(yi, zi)].items():
                        axpy(fld, right, c, m_kl_i2[(xi, t)])
                    if left != right:
                        return False
        return True


def from_graded(tgb, lo, hi):
    """The Z-algebra window of a graded algebra: A_ij = A_{j-i}."""
    return ZAlgebraWindow(tgb, lo, hi)


class ZModuleWindow:
    """Windowed right module: components M_i and action tensors M_j (x) A_ij -> M_i.

    act[(i, j)][b][a] is the image of (basis b of M_j) * (basis word a of
    A_ij) as a sparse vector over the M_i basis; pairs with dim M_j == 0
    are absent.  pp remembers a projective presentation when the module was
    built as one.
    """

    def __init__(self, tgb, lo, hi, dims, act, pp=None):
        self.tgb = tgb
        self.lo = lo
        self.hi = hi
        self.dims = {i: dims.get(i, 0) for i in range(lo, hi + 1)}
        self.act = act
        self.pp = pp

    def dim(self, i):
        return self.dims.get(i, 0)

    def action(self, i, j):
        return self.act.get((i, j))

    def audit(self):
        """Action consistency: every stored tensor equals the letter-by-letter fold."""
        tgb = self.tgb
        problems = []
        for (i, j), tensor in sorted(self.act.items()):
            span = j - i
            if span < 2:
                continue
            words = tgb.normal_words(span)
            for b in range(self.dim(j)):
                for ai, a in enumerate(words):
                    folded = self._fold(b, j, a)
                    if folded != tensor[b][ai]:
                        problems.append(f"action tensor ({i},{j}) differs from fold at b={b}, a={word_str(tgb.gt, a)}")
                        break
        return {"ok": not problems, "problems": problems}

    def _fold(self, b, j, word):
        """Act by a word one letter at a time, left to right."""
        tgb = self.tgb
        fld = tgb.field
        vec = {b: fld.one()}
        cur = j
        for letter in word:
            w = tgb.gt.weights[letter]
            nxt = cur - w
            tensor = self.act.get((nxt, cur))
            if tensor is None:
                return {}
            letter_words = tgb.normal_index(w)
            ai = letter_words.get((letter,))
            out = {}
            if ai is not None:
                for bb, c in vec.items():
                    axpy(fld, out, c, tensor[bb][ai])
            else:
                # the letter itself is not a normal word; expand it
                nf = tgb.normal_form_word((letter,))
                idx = tgb.normal_index(w)
                for t, tc in nf.items():
                    aj = idx[t]
                    for bb, c in vec.items():
                        axpy(fld, out, fld.mul(c, tc), tensor[bb][aj])
            vec = out
            cur = nxt
            if not vec:
                return {}
        return vec


def _window_from_components(tgb, lo, hi, dims, act_fn, pp=None):
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
    return ZModuleWindow(tgb, lo, hi, dims, act, pp=pp)


def transport_module(pres, tgb, lo, hi, pp=None):
    """Window module of the graded module coker(pres): (M_Z)_i = M_{-i}."""
    comps = ModuleComponents(pres, tgb)
    f0 = pres.f0

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

    return _window_from_components(tgb, lo, hi, dims, act_fn, pp=pp)


def projective_window(tgb, j, lo, hi):
    """P_j on the window: components A_ij = A_{j-i}."""
    pres = ModulePresentation.free(tgb, (-j,))
    pp = ProjectivePresentation([], [j], {})
    return transport_module(pres, tgb, lo, hi, pp=pp)


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


def direct_sum(windows):
    base = windows[0]
    tgb, lo, hi = base.tgb, base.lo, base.hi
    for w in windows[1:]:
        if (w.lo, w.hi) != (lo, hi):
            raise InputError("windows not aligned")
    dims = {i: sum(w.dim(i) for w in windows) for i in range(lo, hi + 1)}
    act = {}
    for j in range(lo, hi + 1):
        if dims[j] == 0:
            continue
        for i in range(lo, j):
            words = tgb.normal_words(j - i)
            tensor = []
            for w_idx, w in enumerate(windows):
                offset = sum(v.dim(i) for v in windows[:w_idx])
                sub = w.action(i, j)
                for b in range(w.dim(j)):
                    row = []
                    for ai in range(len(words)):
                        vec = sub[b][ai] if sub else {}
                        row.append({r + offset: c for r, c in vec.items()})
                    tensor.append(row)
            act[(i, j)] = tensor
    return ZModuleWindow(tgb, lo, hi, dims, act)


# --- Hom and cohproj Hom ---------------------------------------------------


def hom_dim_window(m1, m2):
    """dim Hom((m1)_{<=n}, m2) of degree-0 homomorphisms, for n = lo..hi.

    Unknowns are the matrices phi_i: (m1)_i -> (m2)_i; constraints impose
    compatibility with the action of every basis word of each generator
    weight, which generates all of A.  The truncation (m1)_{<=n} keeps
    exactly the unknowns of index <= n and the constraints from index j <= n,
    so one elimination fed in ascending j gives every level; the last entry
    is dim Hom(m1, m2).
    """
    tgb = m1.tgb
    fld = tgb.field
    if (m1.lo, m1.hi) != (m2.lo, m2.hi):
        raise InputError("windows not aligned")
    lo, hi = m1.lo, m1.hi
    unknowns = {}
    rows = SpanSolver(fld)
    weight_words = {w: tgb.normal_words(w) for w in sorted(set(tgb.gt.weights))}
    levels = []
    for j in range(lo, hi + 1):
        for r in range(m2.dim(j)):
            for c in range(m1.dim(j)):
                unknowns[(j, r, c)] = len(unknowns)
        for w, words in weight_words.items():
            i = j - w
            if i < lo or m1.dim(j) == 0 or m2.dim(i) == 0:
                continue
            act1 = m1.action(i, j)
            act2 = m2.action(i, j)
            # transpose m2's action: by (a-word, target row) -> [(source row, coeff)]
            rhs = {}
            if act2:
                for rp in range(m2.dim(j)):
                    for ai in range(len(words)):
                        for r, v in act2[rp][ai].items():
                            rhs.setdefault((ai, r), []).append((rp, v))
            for b in range(m1.dim(j)):
                for ai in range(len(words)):
                    bg = act1[b][ai] if act1 else {}
                    for r in range(m2.dim(i)):
                        row = {}
                        for c, coeff in bg.items():
                            row[unknowns[(i, r, c)]] = coeff
                        # unknowns of index j never meet those of index i < j
                        for rp, v in rhs.get((ai, r), ()):
                            row[unknowns[(j, rp, b)]] = fld.neg(v)
                        if row:
                            rows.add(row)
        levels.append(len(unknowns) - rows.rank)
    return levels


@dataclass
class CohprojHom:
    stabilized: bool
    value: int            # None when not stabilized
    level: int            # truncation level where the stable run begins
    table: list           # [(n, dim Hom(trunc(m1, n), m2))], n descending

    def to_dict(self):
        return {
            "stabilized": self.stabilized,
            "value": self.value,
            "level": self.level,
            "table": [[n, h] for n, h in self.table],
        }


def cohproj_hom(m1, m2):
    """Hom in cohproj as the stabilized value of Hom(m1_{<=n}, m2).

    Walks n from the window top down to lo + max(weight): below that floor
    the action of the heaviest generators leaves the window, so the Hom of
    those levels is inflated and is never tabulated.  Stabilization needs
    STABLE_RUN consecutive equal values reaching the last computed level.
    Raises WindowTooShallow when fewer than MIN_LEVELS levels exist.
    """
    lo, hi = m1.lo, m1.hi
    floor = lo + max(m1.tgb.gt.weights)
    levels = hi - floor + 1
    if levels < MIN_LEVELS:
        raise WindowTooShallow(f"{levels} truncation levels < {MIN_LEVELS}")
    homs = hom_dim_window(m1, m2)
    table = [(n, homs[n - lo]) for n in range(hi, floor - 1, -1)]
    tail = table[-1][1]
    run = 0
    level = None
    for n, h in reversed(table):
        if h == tail:
            run += 1
            level = n
        else:
            break
    if run >= STABLE_RUN:
        return CohprojHom(True, tail, level, table)
    return CohprojHom(False, None, None, table)


def window_min_generator_profile(m):
    """Minimal generator counts per index: dim M_n minus the span of the
    action images from all higher window indices."""
    tgb = m.tgb
    fld = tgb.field
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

    def to_dict(self):
        return {
            "ok": self.ok,
            "dims": [list(x) for x in self.dims],
            "map": self.description,
        }


def tensor_projective_iso_check(dimV, i, depth, field=None, negative=False):
    """Check P_i ~ P_{i-1}^{dimV} in cohproj T(V) at window scale.

    The candidate map sends the t-th copy of P_{i-1} into (P_i)_{<= i-1} by
    left concatenation with the t-th basis letter; it must be a bijection
    on every window component.  With negative=True only one copy is used,
    the advertised failing control.
    """
    from .linalg import QQ

    field = QQ if field is None else field
    names = [f"x{t}" for t in range(dimV)]
    gt = GeneratorTable(names)
    pres = AlgebraPresentation(field, gt, [], label=f"T(k^{dimV})")
    tgb = complete_to_degree(pres, depth + 1)
    lo, hi = i - depth, i
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

    def validate(self, gt):
        for (s, t), poly in self.entries.items():
            if poly.is_zero():
                continue
            want = self.target_indices[s] - self.source_indices[t]
            if poly.degree != want:
                raise InputError(f"entry ({s},{t}) has degree {poly.degree}, want {want}")


def gamma_star_presentation(m, tgb):
    """Transport a projectively presented window module back to a graded
    presentation: P_j corresponds to the free module with shift -j."""
    if isinstance(m, ZModuleWindow):
        if m.pp is None:
            raise NotPresentedByProjectives("window module carries no projective presentation")
        pp = m.pp
    elif isinstance(m, ProjectivePresentation):
        pp = m
    else:
        raise NotPresentedByProjectives(f"cannot interpret {type(m).__name__}")
    pp.validate(tgb.gt)
    src = FreeModule(tuple(-a for a in pp.source_indices))
    tgt = FreeModule(tuple(-b for b in pp.target_indices))
    entries = {(s, t): poly for (s, t), poly in pp.entries.items()}
    return ModulePresentation(ModuleMap(tgb, src, tgt, entries))


def coker_window(pp, tgb, lo, hi):
    """Direct windowed realization of coker(pp), built index by index.

    This is an independent construction from transport_module(gamma_star):
    each component is the cokernel of the index slice of the presenting
    matrix, with its own deterministic quotient coordinates.
    """
    pp.validate(tgb.gt)
    fld = tgb.field
    dims = {}
    solvers = {}
    bases = {}

    def tgt_slice_basis(i):
        out = []
        for s, b in enumerate(pp.target_indices):
            if b - i < 0:
                continue
            for w in tgb.normal_words(b - i):
                out.append((s, w))
        return out

    for i in range(lo, hi + 1):
        tbasis = tgt_slice_basis(i)
        pos = {pair: n for n, pair in enumerate(tbasis)}
        solver = SpanSolver(fld, track=True)
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
                        axpy(fld, vec, c, {pos[(s, tw)]: tc for tw, tc in nf.items()})
                solver.add(vec, tag=None)
        chosen = []
        one = fld.one()
        for n in range(len(tbasis)):
            if solver.add({n: one}, tag=len(chosen)):
                chosen.append(n)
        dims[i] = len(chosen)
        solvers[i] = solver
        bases[i] = (tbasis, chosen, pos)

    def act_fn(i, j, b, a):
        tbasis_j, chosen_j, _ = bases[j]
        tbasis_i, chosen_i, pos_i = bases[i]
        s, u = tbasis_j[chosen_j[b]]
        vec = {pos_i[(s, tw)]: tc for tw, tc in tgb.normal_form_word(u + a).items()}
        residue, expr = solvers[i].reduce(vec)
        if residue:
            raise AssertionError("cokernel action did not reduce")
        return expr

    return _window_from_components(tgb, lo, hi, dims, act_fn, pp=pp)
