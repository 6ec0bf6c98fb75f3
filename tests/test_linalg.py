from fractions import Fraction

import sympy as sp
from hypothesis import given, settings, strategies as st

from superschur.fields import Field, RATIONALS
from superschur.linalg import (
    LinearMap,
    mat_rank,
    nullspace,
    reduce_vector,
    rref,
)

from helpers import compose


def _q(rows):
    return [[Fraction(x) for x in r] for r in rows]


def test_rref_canonical():
    rows, piv = rref(_q([[2, 4, 0], [1, 2, 1]]))
    assert piv == [0, 2]
    assert rows == [{0: 1, 1: 2}, {2: 1}]


def test_rref_is_idempotent_and_order_independent():
    a = _q([[1, 2, 3], [2, 4, 7], [0, 1, 1]])
    b = list(reversed(a))
    ra, _ = rref(a)
    rb, _ = rref(b)
    assert ra == rb
    assert rref(ra)[0] == ra


def test_rank_examples():
    assert mat_rank(_q([[1, 2], [2, 4]])) == 1
    assert mat_rank(_q([[1, 0], [0, 1]])) == 2
    assert mat_rank([]) == 0
    assert mat_rank(_q([[0, 0]])) == 0


def test_rank_with_fractions():
    rows = _q([["1/2", "1/3"], ["1/4", "1/6"]])
    assert mat_rank(rows) == 1


def test_rank_mod_p():
    f = Field(5)
    rows = [[f.of(2), f.of(4)], [f.of(1), f.of(2)]]
    assert mat_rank(rows) == 1
    rows = [[f.of(2), f.of(4)], [f.of(1), f.of(3)]]
    assert mat_rank(rows) == 2


def test_nullspace_annihilates():
    rows = _q([[1, 2, 3], [0, 1, 1]])
    for v in nullspace(rows, 3, RATIONALS):
        for r in rows:
            assert sum(a * b for a, b in zip(r, v)) == 0
    assert len(nullspace(rows, 3, RATIONALS)) == 1


def test_reduce_vector_and_membership():
    rows, piv = rref([{0: Fraction(1), 2: Fraction(1)}, {1: Fraction(1), 2: Fraction(2)}])
    echelon = dict(zip(piv, rows))
    assert not reduce_vector([Fraction(2), Fraction(1), Fraction(4)], echelon)
    assert reduce_vector([Fraction(0), Fraction(0), Fraction(1)], echelon)
    vec = [Fraction(1), Fraction(1), Fraction(0)]
    assert reduce_vector(vec, echelon) == {2: Fraction(-3)}
    assert reduce_vector({0: Fraction(1), 1: Fraction(1)}, echelon) == {2: Fraction(-3)}
    assert vec == [Fraction(1), Fraction(1), Fraction(0)]  # the input is left alone


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4),
                min_size=1, max_size=6))
def test_rank_matches_sympy_over_q(rows):
    ours = mat_rank(_q(rows))
    assert ours == sp.Matrix(rows).rank()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(0, 4), min_size=3, max_size=3),
                min_size=1, max_size=5))
def test_rank_matches_sympy_mod_5(rows):
    from sympy.polys.domains import GF
    from sympy.polys.matrices import DomainMatrix

    f = Field(5)
    ours = mat_rank([[f.of(x) for x in r] for r in rows])
    theirs = DomainMatrix.from_Matrix(sp.Matrix(rows)).convert_to(GF(5)).rank()
    assert ours == theirs


@st.composite
def sparse_rows(draw):
    """(ncols, rows as {column: int} dicts, some of the values zero).

    The rows include zero rows, duplicates and rows whose only nonzero
    entry is in column 0: a dict {0: x} is falsy under `any()`.
    """
    ncols = draw(st.integers(1, 7))
    value = st.integers(-4, 4)
    row = st.one_of(
        st.dictionaries(st.integers(0, ncols - 1), value, max_size=4),
        st.just({}),
        value.map(lambda x: {0: x}),
    )
    rows = draw(st.lists(row, min_size=1, max_size=7))
    for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2)):
        rows.append(dict(rows[i]))
    return ncols, draw(st.permutations(rows))


def _check_against_sympy(ncols, rows, field, theirs):
    """rref, mat_rank and nullspace of dense and sparse forms of `rows`
    against sympy's canonical RREF (rows, pivots) over the same field."""
    dense = [[field.of(r.get(c, 0)) for c in range(ncols)] for r in rows]
    sparse = [{c: field.of(x) for c, x in r.items()} for r in rows]
    want_rows, want_piv = theirs
    rank = len(want_piv)
    want = [tuple(field.of(x) for x in row) for row in want_rows[:rank]]

    for form in (dense, sparse):
        got_rows, got_piv = rref(form)
        assert got_piv == list(want_piv)
        assert got_rows == [{c: x for c, x in enumerate(row) if x} for row in want]
    assert mat_rank(dense) == mat_rank(sparse) == rank

    for form in (dense, sparse):
        basis = nullspace(form, ncols, field)
        assert len(basis) == ncols - rank
        for v in basis:
            for r in dense:
                assert not sum((a * b for a, b in zip(r, v)), field.zero)


@settings(max_examples=150, deadline=None)
@given(sparse_rows())
def test_kernel_matches_sympy_rref_over_q(case):
    ncols, rows = case
    m = sp.Matrix([[r.get(c, 0) for c in range(ncols)] for r in rows])
    rr, piv = m.rref()
    listed = [[str(x) for x in row] for row in rr.tolist()]  # sympy Rationals
    _check_against_sympy(ncols, rows, RATIONALS, (listed, piv))


@settings(max_examples=150, deadline=None)
@given(sparse_rows())
def test_kernel_matches_sympy_rref_mod_5(case):
    from sympy.polys.domains import GF
    from sympy.polys.matrices import DomainMatrix

    ncols, rows = case
    m = sp.Matrix([[r.get(c, 0) for c in range(ncols)] for r in rows])
    rr, piv = DomainMatrix.from_Matrix(m).convert_to(GF(5)).rref()
    listed = [[int(x) for x in row] for row in rr.to_Matrix().tolist()]
    _check_against_sympy(ncols, rows, Field(5), (listed, piv))


def test_linear_map_apply_and_compose():
    # a = [[1, 2], [0, 1]] and b = [[1, 0], [-1, 1]], given by their columns
    a = LinearMap(RATIONALS, 2, ({0: Fraction(1)}, {0: Fraction(2), 1: Fraction(1)}))
    b = LinearMap(RATIONALS, 2, ({0: Fraction(1), 1: Fraction(-1)}, {1: Fraction(1)}))
    assert a.rows == ((1, 2), (0, 1)) and b.rows == ((1, 0), (-1, 1))
    ab = compose(a, b)
    assert ab.rows == ((-1, 2), (-1, 1))
    assert any(ab.columns)
    assert mat_rank(a.columns) == 2
