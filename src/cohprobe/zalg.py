"""Z-algebra windows, the projectives P_j and cohproj Hom.

A graded algebra A gives the Z-algebra with components A_ij = A_{j-i}.  The
multiplication A_jk (x) A_ij -> A_ik composes the graded factors as
(x, y) -> x*y and is read off the product tables of the basis.  The
projective P_j = (+)_i A_ij is column j of the window: its component i is
A_ij, and A_ik acts on (P_j)_k = A_kj by that same multiplication, so its
action tensors are the window's own and the right action lowers the window
index.

Hom in cohproj is computed by truncation-stabilization: the dimension of
the degree-0 homomorphism space Hom(M_{<=n}, N) is tabulated as n walks
down the window, and a value is declared stable after four constant
levels.  One elimination gives every level.  Growth tables (tensor algebra
behavior) are reported unreduced.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegreeBoundExceeded, InputError, WindowTooShallow
from .gbasis import complete_to_degree  # noqa: F401  (a binding the bench tracer patches)
from .grmod import free_basis  # noqa: F401  (a binding the bench tracer patches)
from .linalg import SpanSolver

STABLE_RUN = 4
MIN_LEVELS = 6


class ZAlgebraWindow:
    """Components A_ij and multiplication tensors on an index window.

    Component bases are the normal words of degree j - i; multiplication
    tensors are the product tables of the basis.
    """

    def __init__(self, tgb, lo, hi):
        if hi - lo > tgb.D:
            raise DegreeBoundExceeded(f"window width {hi - lo} > bound {tgb.D}")
        if lo > hi:
            raise InputError("empty window")
        self.tgb = tgb
        self.lo = lo
        self.hi = hi

    def basis(self, i, j):
        return self.tgb.normal_words(j - i)

    def dim(self, i, j):
        if j < i:
            return 0
        return self.tgb.dim(j - i)

    def mult(self, i, j, k):
        """Tensor A_jk (x) A_ij -> A_ik: [x_idx][y_idx] -> vec over the A_ik basis.

        Row y_idx of the product table of x at degree j - i is NF(x * y).
        """
        return [self.tgb.products(j - i, x) for x in self.basis(j, k)]

    def audit(self):
        """Unit laws and associativity on the window.

        A_ij = A_(j-i), so every check depends only on degree differences
        and is made once, at i = lo.  Associativity (x*y)*z = x*(y*z), with
        x in A_kl, y in A_jk and z in A_ij, is checked only for x a normal
        letter, so where l - k is the weight of a letter, for every
        lo <= j <= k; the rest follows.
        The unit laws cover l = k.  A normal word x of positive degree is
        a*x', with a its first letter and x' normal, since normal words are
        closed under factors; so the table gives x = NF(a*x').  The letter
        case gives x*y = a*(x'*y) and x*(y*z) = a*(x'*(y*z)), and then
        (x*y)*z = a*((x'*y)*z) = a*(x'*(y*z)) = x*(y*z)
        by the letter case once more and induction on the length of x.
        """
        fld = self.tgb.field
        lo, hi = self.lo, self.hi
        problems = []
        if self.dim(lo, lo) != 1 or self.basis(lo, lo) != [()]:
            problems.append(f"A_{lo}{lo} is not one-dimensional")
        for j in range(lo, hi + 1):
            t1 = self.mult(lo, lo, j)  # A_ij (x) A_ii -> A_ij
            t2 = self.mult(lo, j, j)  # A_jj (x) A_ij -> A_ij
            for xi in range(self.dim(lo, j)):
                if t1[xi][0] != {xi: fld.one()}:
                    problems.append(f"right unit fails on A_{lo}{j}")
                    break
                if t2[0][xi] != {xi: fld.one()}:
                    problems.append(f"left unit fails on A_{lo}{j}")
                    break
        weights = sorted(set(self.tgb.gt.weights))
        for j in range(lo, hi + 1):
            for k in range(j, hi + 1):
                for l in (k + w for w in weights if k + w <= hi):
                    if not self._assoc_ok(lo, j, k, l):
                        problems.append(f"associativity fails on ({lo},{j},{k},{l})")
        return {"ok": not problems, "problems": problems}

    def _assoc_ok(self, i, j, k, l):
        """(x*y)*z == x*(y*z) for x a normal letter of A_kl, y in A_jk, z in A_ij."""
        fld = self.tgb.field
        m_kl_j = self.mult(j, k, l)   # x*y for x in A_kl, y in A_jk -> A_jl
        m_jl_i = self.mult(i, j, l)   # (..) * z -> A_il
        m_jk_i = self.mult(i, j, k)   # y*z -> A_ik
        m_kl_i2 = self.mult(i, k, l)  # x * (..) -> A_il
        letters = [xi for xi, x in enumerate(self.basis(k, l)) if len(x) == 1]
        dim_y = self.dim(j, k)
        dim_z = self.dim(i, j)
        for xi in letters:
            for yi in range(dim_y):
                xy = m_kl_j[xi][yi]
                for zi in range(dim_z):
                    left = {}
                    for t, c in xy.items():
                        fld.axpy(left, c, m_jl_i[t][zi])
                    right = {}
                    for t, c in m_jk_i[yi][zi].items():
                        fld.axpy(right, c, m_kl_i2[xi][t])
                    if left != right:
                        return False
        return True


class ZModuleWindow:
    """Windowed right module: components M_i and action tensors M_j (x) A_ij -> M_i.

    act[(i, j)][b][a] is the image of (basis b of M_j) * (basis word a of
    A_ij) as a sparse vector over the M_i basis; pairs with dim M_j == 0
    are absent.
    """

    def __init__(self, tgb, lo, hi, dims, act):
        self.tgb = tgb
        self.lo = lo
        self.hi = hi
        self.dims = {i: dims.get(i, 0) for i in range(lo, hi + 1)}
        self.act = act

    def dim(self, i):
        return self.dims.get(i, 0)

    def action(self, i, j):
        return self.act.get((i, j))


def transport_module(zw, j):
    """P_j on the window of zw: (P_j)_i = A_ij, acted on by A_ik through zw.mult.

    Entry [b][a] of the action of A_ik on (P_j)_k is NF(x_b * y_a), row a of
    the product table of the normal word x_b at degree k - i.  The rows are
    the tables' own, so callers only read them.
    """
    lo, hi = zw.lo, zw.hi
    dims = {i: zw.dim(i, j) for i in range(lo, hi + 1)}
    act = {(i, k): zw.mult(i, k, j) for k in range(lo, hi + 1) if dims[k] for i in range(lo, k)}
    return ZModuleWindow(zw.tgb, lo, hi, dims, act)


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
    Raises WindowTooShallow when fewer than MIN_LEVELS levels exist, or
    when m1 is zero at every window index: every table would then read 0
    whatever the true Hom is.
    """
    lo, hi = m1.lo, m1.hi
    floor = lo + max(m1.tgb.gt.weights)
    levels = hi - floor + 1
    if levels < MIN_LEVELS:
        raise WindowTooShallow(f"{levels} truncation levels < {MIN_LEVELS}")
    if not any(m1.dims.values()):
        raise WindowTooShallow(f"source module is zero at every window index {lo}..{hi}")
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
