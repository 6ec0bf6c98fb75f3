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


def _q(rows):
    return [[Fraction(x) for x in r] for r in rows]


def test_rref_canonical():
    rows, piv = rref(_q([[2, 4, 0], [1, 2, 1]]))
    assert piv == [0, 2]
    assert rows == [(1, 2, 0), (0, 0, 1)]


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
    rows, piv = rref(_q([[1, 0, 1], [0, 1, 2]]))
    assert not any(reduce_vector([Fraction(2), Fraction(1), Fraction(4)], rows, piv))
    assert any(reduce_vector([Fraction(0), Fraction(0), Fraction(1)], rows, piv))
    red = reduce_vector([Fraction(1), Fraction(1), Fraction(0)], rows, piv)
    assert red[0] == 0 and red[1] == 0 and red[2] == -3


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


def test_linear_map_apply_and_compose():
    a = LinearMap(RATIONALS, ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(1))))
    b = LinearMap(RATIONALS, ((Fraction(1), Fraction(0)), (Fraction(-1), Fraction(1))))
    v = [Fraction(1), Fraction(1)]
    assert a.apply(v) == [Fraction(3), Fraction(1)]
    ab = a.compose(b)
    assert ab.apply(v) == a.apply(b.apply(v))
    assert not ab.is_zero()
    assert a.rank() == 2
