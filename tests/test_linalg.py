import copy
import random
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cohprobe.algfile import parse_algebra_file
from cohprobe.errors import InputError
from cohprobe.freealg import GeneratorTable, NcPoly
from cohprobe.gbasis import AlgebraPresentation, complete_to_degree
from cohprobe.grmod import FreeModule, ModuleMap
from cohprobe.linalg import (
    PrimeField,
    QQ,
    SpanSolver,
    _is_prime,
    kernel_basis,
    parse_field,
    rank,
)

from oracles import (
    field_mul,
    kernel_dim,
    reference_axpy,
    reference_normal_form,
    reference_scale,
    span_contains,
    span_rank,
)
from test_report_digests import _sklyanin_alg
from windows import ModuleComponents

ALGEBRAS = Path(__file__).resolve().parent.parent / "algebras"


def columns_of(field, rows):
    """Sparse column vectors of a dense integer matrix given by rows."""
    ncols = len(rows[0]) if rows else 0
    cols = []
    for j in range(ncols):
        col = {}
        for i, row in enumerate(rows):
            v = field.of_fraction(row[j], 1)
            if v != 0:
                col[i] = v
        cols.append(col)
    return cols


def columns_of_fractions(rows):
    """Sparse Q column vectors of a dense matrix of Fractions given by rows."""
    return [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(len(rows[0]))]


def solver_rank(field, vectors):
    solver = SpanSolver(field)
    for vec in vectors:
        solver.add(vec)
    return solver.rank


def test_kernel_identity_empty():
    assert kernel_basis(QQ, columns_of(QQ, [[1, 0], [0, 1]])) == []


def test_kernel_one_minus_one():
    (vec,) = kernel_basis(QQ, columns_of(QQ, [[1, -1]]))
    assert vec == {1: Fraction(1), 0: Fraction(1)}


def test_kernel_rank_one():
    (vec,) = kernel_basis(QQ, columns_of(QQ, [[1, 2], [2, 4]]))
    # proportional to (2, -1), normalized with a 1 in the free column
    assert vec[1] == Fraction(1)
    assert vec[0] == Fraction(-2)


def test_rank_plus_nullity_random():
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        m = columns_of(QQ, [[rng.randrange(-2, 3) for _ in range(cols)] for _ in range(rows)])
        assert solver_rank(QQ, m) + len(kernel_basis(QQ, m)) == cols


@settings(deadline=None)
@given(
    field=st.sampled_from([QQ, PrimeField(32003), PrimeField(3)]),
    rows=st.integers(1, 6).flatmap(lambda ncols: st.lists(
        st.lists(st.integers(-5, 5), min_size=ncols, max_size=ncols),
        min_size=1, max_size=6,
    )),
)
def test_kernel_basis_property(field, rows):
    cols = columns_of(field, rows)
    basis = kernel_basis(field, cols)
    assert len(basis) == kernel_dim(field, cols, len(rows))
    # free columns: those in the span of the columns before them
    free = [j for j in range(len(cols))
            if span_rank(field, cols[: j + 1]) == span_rank(field, cols[:j])]
    assert len(basis) == len(free)
    for j, vec in zip(free, basis):
        assert vec[j] == field.one()
        assert max(vec) == j
        assert not (set(vec) & set(free)) - {j}
        image = {}
        for t, c in vec.items():
            field.axpy(image, c, cols[t])
        assert image == {}
        if field != QQ:
            assert all(type(v) is int and 0 < v < field.p for v in vec.values())


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(32001)


def test_prime_field_decides_large_moduli_fast():
    start = time.perf_counter()
    assert PrimeField(1000000000000000003).p == 1000000000000000003
    assert time.perf_counter() - start < 1
    # a Carmichael number, and a strong pseudoprime to the bases 2, 3, 5 and 7
    for composite in (561, 3215031751):
        with pytest.raises(InputError, match="not prime"):
            PrimeField(composite)


def test_prime_field_matches_trial_division():
    def by_trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    for n in range(3000):
        assert _is_prime(n) == by_trial(n), n


def test_parse_field():
    assert parse_field("Q") == QQ
    assert parse_field("F32003") == PrimeField(32003)
    assert parse_field("Fp 32003") == PrimeField(32003)


def test_q_vs_fp_agreement_random():
    # identical ranks whenever p exceeds every intermediate value
    rng = random.Random(3)
    fp = PrimeField(32003)
    for _ in range(25):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        data = [[rng.randrange(-5, 6) for _ in range(cols)] for _ in range(rows)]
        assert solver_rank(QQ, columns_of(QQ, data)) == solver_rank(fp, columns_of(fp, data))


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_solver_stores_no_dict_of_its_caller(field):
    # a row whose pivot is already 1 is the residue dict itself, and reduce
    # builds that dict afresh, so changing the caller's vector later is
    # harmless; reducing never writes into its argument or a stored row
    half = field.of_fraction(1, 2)
    vec = {0: field.one(), 2: half}
    solver = SpanSolver(field)
    solver.add(vec)
    vec[1] = field.of_fraction(4, 1)
    row = {0: 2, 2: 1} if field == QQ else {0: 1, 2: half}
    assert solver.pivot_rows == {0: row}
    probe = {1: field.one()}
    assert solver.reduce(probe) == probe and solver.reduce(probe) is not probe
    hit = {0: field.of_fraction(2, 3), 1: half, 2: field.one()}
    before = dict(hit)
    solver.add(hit)
    assert hit == before
    assert solver.pivot_rows[0] == row
    assert solver.rank == 2


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_solver_empty_vector(field):
    # an empty vector adds nothing, without a reduction, and is in every
    # span; its residue is a new empty dict
    solver = SpanSolver(field)
    solver.add({0: field.one(), 1: field.one()})
    reduced = []
    solver.reduce = lambda vec: reduced.append(vec) or SpanSolver.reduce(solver, vec)
    assert solver.add({}) is False
    assert solver.rank == 1 and reduced == []
    del solver.reduce
    assert solver.contains({})
    empty = {}
    residue = solver.reduce(empty)
    assert residue == {} and residue is not empty


def _kernel_basis_eliminating_every_column(field, columns):
    """kernel_basis with empty columns eliminated like the others."""
    n = 1 + max((max(col) for col in columns if col), default=-1)
    solver = SpanSolver(field)
    out = []
    for j, col in enumerate(columns):
        residue = solver.reduce({**col, n + j: field.one()})
        if min(residue) < n:
            solver._insert(residue)
        else:
            u = residue[n + j]
            out.append({t - n: field.of_fraction(v, u) for t, v in residue.items()})
    return out


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_kernel_basis_skips_empty_columns(field, monkeypatch):
    # an empty column's kernel vector is {j: 1}, the same value and type
    # that eliminating it gives, and no reduction is made for it
    rng = random.Random(3)
    cases = [[{}, {}], [{}, {0: field.one()}, {}]]
    for _ in range(30):
        rows, ncols = rng.randrange(1, 5), rng.randrange(2, 7)
        data = [[rng.randrange(-3, 4) * (j % 3 != 1) for j in range(ncols)] for _ in range(rows)]
        cases.append(columns_of(field, data))
    reduced = []
    clear = SpanSolver._clear
    monkeypatch.setattr(SpanSolver, "_clear", lambda self, vec: reduced.append(vec) or clear(self, vec))
    for cols in cases:
        assert any(not col for col in cols)
        expected = _kernel_basis_eliminating_every_column(field, cols)
        del reduced[:]
        basis = kernel_basis(field, cols)
        assert [{t: (v, type(v)) for t, v in vec.items()} for vec in basis] == \
            [{t: (v, type(v)) for t, v in vec.items()} for vec in expected]
        assert len(reduced) == sum(1 for col in cols if col)


def test_rationals_inv_is_exact():
    assert QQ.inv(2) == Fraction(1, 2)
    assert type(QQ.inv(2)) is Fraction
    assert type(QQ.inv(Fraction(-3, 4))) is Fraction and QQ.inv(Fraction(-3, 4)) == Fraction(-4, 3)


@settings(deadline=None)
@given(st.integers(1, 6).flatmap(lambda ncols: st.lists(
    st.lists(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 9)),
             min_size=ncols, max_size=ncols),
    min_size=1, max_size=5,
)))
def test_kernel_basis_over_q_is_exact(rows):
    # fraction-free elimination divides the unit entry out once: each kernel
    # vector is made of canonical Fractions, has a 1 at its own column j and
    # a 0 on every other dependent column, and is a relation among the columns
    cols = columns_of_fractions(rows)
    basis = kernel_basis(QQ, cols)
    assert len(basis) == kernel_dim(QQ, cols, len(rows))
    dependent = [j for j in range(len(cols))
                 if span_rank(QQ, cols[: j + 1]) == span_rank(QQ, cols[:j])]
    assert [max(vec) for vec in basis] == dependent
    for j, vec in zip(dependent, basis):
        assert all(type(v) is Fraction and v != 0 for v in vec.values())
        assert vec[j] == 1
        assert not (set(vec) & set(dependent)) - {j}
        image = {}
        for t, c in vec.items():
            QQ.axpy(image, c, cols[t])
        assert image == {}


def test_integer_elimination_q_against_fp():
    # reduction mod p cannot raise the rank, so rank_Q >= rank_Fp; the two
    # may differ at a bad prime, so equality is not asserted.  A Q kernel
    # vector whose denominators are prime to p maps mod p into the F_p kernel
    rng = random.Random(29)
    primes = [PrimeField(3), PrimeField(32003)]
    differs = 0
    for _ in range(60):
        nrows = rng.randrange(1, 7)
        ncols = rng.randrange(1, 8)
        data = [[rng.choice((0, 0, rng.randrange(-9, 10), rng.randrange(-300, 301)))
                 for _ in range(ncols)] for _ in range(nrows)]
        qcols = columns_of(QQ, data)
        rank_q = solver_rank(QQ, qcols)
        kernel_q = kernel_basis(QQ, qcols)
        assert rank_q + len(kernel_q) == ncols
        for fp in primes:
            fcols = columns_of(fp, data)
            rank_p = solver_rank(fp, fcols)
            assert rank_q >= rank_p
            differs += rank_q != rank_p
            for vec in kernel_q:
                if any(v.denominator % fp.p == 0 for v in vec.values()):
                    continue
                image = {}
                for t, c in vec.items():
                    fp.axpy(image, fp.of_fraction(c.numerator, c.denominator), fcols[t])
                assert image == {}
    assert differs  # F_3 is a bad prime for some of these matrices


def scalar_relations(field, dim, columns):
    """coker(k^len(columns) -> k^dim) at degree 0, the columns as its relation map."""
    gt = GeneratorTable(["x"])
    tgb = complete_to_degree(AlgebraPresentation(field, gt, []), 1)
    entries = {(k, l): NcPoly({(): v}, 0) for l, col in enumerate(columns) for k, v in col.items()}
    return ModuleMap(tgb, FreeModule((0,) * len(columns)), FreeModule((0,) * dim), entries)


def assert_kernel_certificates(field, cols):
    """Every kernel vector v of cols is a certificate: sum_j v_j * cols[j] == 0,
    with a 1 at its column j, and no entry after j or on another dependent column."""
    basis = kernel_basis(field, cols)
    dependent = {max(vec) for vec in basis}
    assert len(dependent) == len(basis)
    for vec in basis:
        j = max(vec)
        assert vec[j] == field.one()
        assert not (set(vec) & dependent) - {j}
        image = {}
        for t, c in vec.items():
            field.axpy(image, c, cols[t])
        assert image == {}
    return basis


def assert_quotient_coordinates(field, rel, fvec):
    """fvec - sum_b coords_b * e_(basis b) lies in the span of the relations."""
    dim = 1 + max((max(v) for v in rel + [fvec] if v), default=-1)
    comps = ModuleComponents(scalar_relations(field, dim, rel))
    coords = comps.coords(0, fvec)
    rebuilt = dict(fvec)
    for b, c in coords.items():
        k, _ = comps.basis(0)[b]
        field.axpy(rebuilt, field.neg(c), {k: field.one()})
    span = SpanSolver(field)
    for col in rel:
        span.add(col)
    assert span.contains(rebuilt)
    return coords


def test_solver_certificates():
    a = {0: Fraction(1), 1: Fraction(1)}
    b = {1: Fraction(1)}
    probe = {0: Fraction(2), 1: Fraction(3)}
    # probe == 2*(e0+e1) + 1*e1 and e0 == (e0+e1) - e1
    cert, e0 = assert_kernel_certificates(QQ, [a, b, probe, {0: Fraction(1)}])
    assert cert == {2: Fraction(1), 0: Fraction(-2), 1: Fraction(-1)}
    assert e0 == {3: Fraction(1), 0: Fraction(-1), 1: Fraction(1)}
    # modulo e0+e1 the basis is e0, e2, and e1 == -e0
    coords = assert_quotient_coordinates(QQ, [a], {0: Fraction(2), 1: Fraction(3), 2: Fraction(1)})
    assert coords == {0: Fraction(-1), 1: Fraction(1)}


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
def test_solver_certificate_identity_random(field):
    # kernel vectors and quotient coordinates are certificates over the vectors
    # fed in, and every stored row is echelon with nothing to the left of its
    # pivot: a 1 at the pivot over F_p, a primitive integer row whose pivot is
    # positive over Q
    rng = random.Random(17)
    for _ in range(20):
        originals = []
        for t in range(6):
            vec = {i: field.of_fraction(rng.randrange(-3, 4), 1) for i in range(5)}
            originals.append({i: v for i, v in vec.items() if v != 0})
        probe = {i: field.of_fraction(rng.randrange(-4, 5), 1) for i in range(5)}
        probe = {i: v for i, v in probe.items() if v != 0}
        solver = SpanSolver(field)
        for vec in originals:
            solver.add(vec)
        basis = assert_kernel_certificates(field, originals + [probe])
        assert solver.contains(probe) == any(max(vec) == len(originals) for vec in basis)
        assert_quotient_coordinates(field, originals[:3], probe)
        for pivot, row in solver.pivot_rows.items():
            if field == QQ:
                assert all(type(v) is int for v in row.values())
                assert gcd(*row.values()) == 1
                assert row[pivot] > 0
            else:
                assert row[pivot] == field.one()
            assert min(row) == pivot


@st.composite
def axpy_cases(draw):
    """(field, target, coeff, source); some source entries cancel target ones."""
    field = draw(st.sampled_from([QQ, PrimeField(7)]))
    scalar = st.builds(field.of_fraction, st.integers(-9, 9), st.integers(1, 4))

    def vector():
        vec = draw(st.dictionaries(st.integers(0, 8), scalar, max_size=6))
        return {c: v for c, v in vec.items() if v != 0}

    target, coeff, source = vector(), draw(scalar), vector()
    if coeff != 0 and target:
        for c in draw(st.lists(st.sampled_from(sorted(target)), max_size=3)):
            source[c] = field_mul(field, field.neg(target[c]), field.inv(coeff))
    return field, target, coeff, source


@settings(deadline=None)
@given(axpy_cases())
def test_field_axpy_and_scale_match_reference(case):
    field, target, coeff, source = case
    before = dict(source)
    want = dict(target)
    reference_axpy(field, want, coeff, source)
    got = dict(target)
    field.axpy(got, coeff, source)
    assert got == want
    scaled = field.scale(coeff, source)
    assert scaled == reference_scale(field, coeff, source)
    assert all(v != 0 for v in got.values()) and all(v != 0 for v in scaled.values())
    assert source == before


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(32003)], ids=["Q", "F3", "F32003"])
def test_reduce_residue_contract(field):
    # reduce(v) is a new dict of ints with no key among the pivots, with
    # values in range(1, p) over F_p; it is empty exactly when v lies in the
    # span, and otherwise extends the span exactly as v does.  Over F_p it is
    # v minus an element of the span; over Q it may be any nonzero multiple.
    # Entries divisible by 3 vanish over F3, so pivots cancel there.
    rng = random.Random(21)
    entries = (0, 0, 1, -1, 2, 3, -3, 5, 6, -9)
    checked = {True: 0, False: 0}
    for _ in range(60):
        nrows, ncols = rng.randrange(1, 5), rng.randrange(3, 9)
        data = [[rng.choice(entries) for _ in range(ncols)] for _ in range(nrows)]
        rows = [vec for vec in columns_of(field, list(zip(*data))) if vec]
        solver = SpanSolver(field)
        for row in rows:
            solver.add(row)
        stored = {c: dict(row) for c, row in solver.pivot_rows.items()}
        for _ in range(6):
            v = {}
            for row in rows:
                reference_axpy(field, v, field.of_fraction(rng.randrange(-3, 4), rng.choice((1, 2))), row)
            if rng.random() < 0.5:
                noise = field.of_fraction(rng.choice(entries[2:]), 1)
                reference_axpy(field, v, field.one(), {rng.randrange(ncols): noise})
            saved = dict(v)
            r = solver.reduce(v)
            assert v == saved and r is not v
            assert solver.pivot_rows == stored
            assert all(type(x) is int for x in r.values())
            assert not r.keys() & solver.pivot_rows.keys()
            if field != QQ:
                assert all(0 < x < field.p for x in r.values())
            inside = span_contains(field, rows, v)
            checked[inside] += 1
            assert (r == {}) == inside
            if r:
                assert span_rank(field, rows + [r]) == span_rank(field, rows + [v]) \
                    == span_rank(field, rows + [v, r])
            if field != QQ:
                diff = dict(v)
                reference_axpy(field, diff, field.of_fraction(-1, 1), r)
                assert span_contains(field, rows, diff)
    assert checked[True] > 50 and checked[False] > 50



@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
def test_elimination_never_mutates_its_inputs(field):
    # product-table rows are shared across tables, so an elimination that
    # wrote into a column it was handed would corrupt them silently.  add,
    # rank (counted and eliminated) and kernel_basis leave every column as
    # it was: the product tables of example2 (one-term rows) and of a
    # Sklyanin basis (dense rows), and random columns with non-integral
    # entries over Q, some shared between positions
    texts = [(ALGEBRAS / "example2.alg").read_text(encoding="utf-8"), _sklyanin_alg(-2, 2, -1)]
    rng = random.Random(64)
    matrices = []
    tables = []
    for text in texts:
        tgb = complete_to_degree(parse_algebra_file(text, field=field), 5)
        for dw in (1, 2):
            for w in tgb.normal_words(dw):
                for e in range(1, 6 - dw):
                    rows = tgb.products(e, w)
                    tables.append((tgb, w, e, rows))
                    matrices.append(rows)
    for _ in range(20):
        nrows, ncols = rng.randrange(1, 5), rng.randrange(2, 7)
        cols = [{i: field.of_fraction(rng.choice((-3, -1, 1, 2, 4)), rng.randrange(1, 4)) for i in range(nrows)
                 if rng.random() < 0.7} for _ in range(ncols)]
        matrices.append(cols + [cols[0]])
    assert any(max(map(len, cols)) > 1 for cols in matrices)
    assert any(max(map(len, cols), default=0) <= 1 and any(cols) for cols in matrices)
    for k, cols in enumerate(matrices):
        before = copy.deepcopy(cols)
        solver = SpanSolver(field)
        for col in cols:
            solver.add(col)
        rank(field, cols)
        rank(field, cols[1:], cols[:1])
        kernel_basis(field, cols)
        assert cols == before, k
    one = field.one()
    for tgb, w, e, rows in tables:
        idx = tgb.normal_index(e + tgb.gt.word_degree(w))
        for u, row in zip(tgb.normal_words(e), rows):
            assert row == {idx[t]: c for t, c in reference_normal_form(tgb, {w + u: one}).items()}
