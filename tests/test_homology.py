import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superschur import (
    GradedSubspace,
    PairSpace,
    ScanConfig,
    SuperDim,
    Superalgebra,
    abelian,
    boundary2,
    center,
    derived_subspace,
    direct_sum,
    epicenter,
    generate_nilpotent,
    get,
    heisenberg3,
    multiplier_dimension,
    names,
    quotient,
    relations3,
    tail_extension,
    validate,
)
from superschur.errors import NotNilpotent
from superschur.fields import Field, RATIONALS
from superschur.linalg import mat_rank, reduce_vector, rref

from helpers import chain, compose, intersection_dim
from oracles import oracle_multiplier

# Frozen golden values, pinned by the independent all-ordered-triples
# sympy oracle (tests/oracles.py) before the implementation was written:
# name: (dim C2, dim L^2, rank relations, dim M)
GOLDEN = {
    "(2|2)_1": (8, 2, 5, 1),
    "(2|2)_4": (8, 2, 4, 2),
    "(2|2)_6": (8, 2, 4, 2),
    "(1|3)_1": (9, 2, 4, 3),
    "(1|4)_7": (14, 3, 8, 3),
    "(3|2)_5": (12, 3, 7, 2),
    "(3|2)_13": (12, 3, 6, 3),
    "(2|3)_18": (13, 3, 8, 2),
    "(2|3)_19": (13, 3, 8, 2),
    "(2|3)_22": (13, 3, 7, 3),
    "(2|3)_23": (13, 3, 8, 2),
}


def _pair_dim(m, n):
    return ((m + n) ** 2 + (n - m)) // 2


# --- chain spaces -----------------------------------------------------------

@pytest.mark.parametrize("m,n", [(m, n) for m in range(7) for n in range(7)])
def test_pair_space_dimension_formula(m, n):
    ps = PairSpace.of(abelian(m, n))
    assert ps.dim == _pair_dim(m, n)


def test_triple_space_dimension_2_3():
    # C(2,3) + C(2,2)*3 + 2*C(4,2) + C(5,3) = 0 + 3 + 12 + 10
    assert relations3(get("(2|3)_22")).domain_dim == 25


def test_triple_space_dimension_2_2():
    assert relations3(get("(2|2)_1")).domain_dim == 12


def test_pair_parities_split():
    L = get("(2|3)_22")
    ps = PairSpace.of(L)
    even_pairs = sum(1 for p in ps.parities if p == 0)
    # ee pairs: 1, oo pairs: 6 -> 7 even; eo pairs: 6 odd
    assert even_pairs == 7 and ps.dim - even_pairs == 6


# --- boundary2 --------------------------------------------------------------

def test_boundary2_abelian_is_zero():
    assert mat_rank(boundary2(abelian(2, 2)).columns) == 0


def test_boundary2_catalog_ranks():
    for name, (_, dl2, _, _) in GOLDEN.items():
        assert mat_rank(boundary2(get(name)).columns) == dl2, name


def test_boundary2_image_2_2_1():
    L = get("(2|2)_1")
    b2 = boundary2(L)
    img = GradedSubspace.from_vectors(RATIONALS, L.dims, zip(*b2.rows))
    assert img.dim == SuperDim(2, 0)


# --- relations3 -------------------------------------------------------------

def test_relations3_abelian_is_zero():
    assert mat_rank(relations3(abelian(3, 2)).columns) == 0


def test_relations3_catalog_ranks():
    for name, (_, _, rk, _) in GOLDEN.items():
        assert mat_rank(relations3(get(name)).columns) == rk, name


def test_chain_condition_on_catalog():
    for name in names():
        L = get(name)
        assert not any(compose(boundary2(L), relations3(L)).columns), name


def test_relation_vectors_2_3_22():
    """Specific Jacobi relations: tails forced to zero or tied together."""
    L = get("(2|3)_22")
    ps = PairSpace.of(L)
    rows, piv = rref(relations3(L).columns)
    echelon = dict(zip(piv, rows))

    def unit(pair, coeff=1):
        v = [Fraction(0)] * ps.dim
        v[ps.index[pair]] = Fraction(coeff)
        return v

    def plus(u, w):
        return [a + b for a, b in zip(u, w)]

    e1, e2, f1, f2, f3 = range(5)
    # forced-zero tails
    for pair in [(e2, f1), (e2, f2), (f1, f2), (f1, f1), (e2, f3)]:
        assert not reduce_vector(unit(pair), echelon), pair
    # tied tails
    assert not reduce_vector(plus(unit((e1, e2)), unit((f2, f3), -2)), echelon)
    assert not reduce_vector(plus(unit((f1, f3)), unit((f2, f2))), echelon)
    # surviving generators stay out
    assert reduce_vector(unit((e1, f1)), echelon)
    assert reduce_vector(unit((e1, e2)), echelon)


# --- multiplier dimension ---------------------------------------------------

def test_multiplier_catalog_golden():
    for name, (p, dl2, rk, dm) in GOLDEN.items():
        rep = multiplier_dimension(get(name))
        assert (rep.dim_c2, rep.dim_derived, rep.rank_relations,
                rep.dim_multiplier) == (p, dl2, rk, dm), name


def test_multiplier_against_live_oracle_small_rows():
    for name in ("(2|2)_1", "(2|2)_6", "(2|3)_22", "(2|3)_19"):
        L = get(name)
        assert multiplier_dimension(L).dim_multiplier == oracle_multiplier(L)


def test_multiplier_abelian_formula():
    for m in range(0, 7):
        for n in range(0, 7 - m):
            if m + n == 0:
                continue
            assert multiplier_dimension(abelian(m, n)).dim_multiplier == _pair_dim(m, n)


def test_multiplier_heisenberg():
    assert multiplier_dimension(heisenberg3()).dim_multiplier == 2


def test_multiplier_zero_algebra_cases():
    assert multiplier_dimension(abelian(1, 0)).dim_multiplier == 0
    assert multiplier_dimension(abelian(0, 0)).dim_multiplier == 0


def test_multiplier_requires_nilpotent():
    L = Superalgebra.from_entries(RATIONALS, SuperDim(1, 1),
                                  [((0, 1), [Fraction(0), Fraction(1)])])
    with pytest.raises(NotNilpotent):
        multiplier_dimension(L)


def test_report_arithmetic_invariant():
    for name in names():
        rep = multiplier_dimension(get(name))
        assert rep.dim_multiplier == rep.dim_c2 - rep.dim_derived - rep.rank_relations
        assert min(rep.dim_c2, rep.dim_derived, rep.rank_relations,
                   rep.dim_multiplier) >= 0


def test_gamma_field_in_report():
    assert multiplier_dimension(get("(2|2)_4")).gamma == 2
    assert multiplier_dimension(abelian(2, 2)).gamma is None  # derived codim 4
    assert multiplier_dimension(heisenberg3()).gamma is None  # n = 0


def test_multiplier_matches_over_f5():
    for name in names():
        q = multiplier_dimension(get(name)).dim_multiplier
        f = multiplier_dimension(get(name, Field(5))).dim_multiplier
        assert q == f, name


def test_chain_1_20_over_q():
    """The (1|20) chain [e1, f_{k+1}] = f_k: its relation matrix is 230 x 1750
    with 380 nonzeros, so sparse elimination answers in well under a second."""
    L = chain(20, RATIONALS)
    t0 = time.perf_counter()
    rep = multiplier_dimension(L)
    epi = epicenter(L)  # raises CrossCheckError if the two criteria disagree
    elapsed = time.perf_counter() - t0
    assert (rep.dim_derived, rep.dim_multiplier) == (19, 11)
    assert epi.epicenter.dim.total == 0 and epi.capable
    assert len(epi.per_generator) == center(L).dim.total == 1
    assert not epi.per_generator[0].mono and not epi.per_generator[0].in_epicenter
    assert elapsed < 1.0, f"multiplier and epicenter took {elapsed:.2f} s"


# --- basis change invariance ------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_multiplier_invariant_under_basis_change(seed):
    from helpers import change_basis, random_parity_basis_change

    rng = random.Random(seed)
    for name in names():
        L = get(name)
        perm, scales = random_parity_basis_change(rng, L)
        other = change_basis(L, perm, scales)
        assert validate(other).ok
        assert (multiplier_dimension(other).dim_multiplier
                == multiplier_dimension(L).dim_multiplier), name


def test_rows_18_and_19_are_basis_permutations():
    """As printed, the two rows present the same algebra."""
    from helpers import change_basis

    l18 = get("(2|3)_18")
    l19 = get("(2|3)_19")
    # e1<->e2, f1->f1, f2<->f3
    permuted = change_basis(l19, [1, 0, 2, 4, 3], [Fraction(1)] * 5)
    assert permuted.table == l18.table


# --- tail extension ---------------------------------------------------------

def test_tail_extension_abelian_1_1():
    ext = tail_extension(abelian(1, 1))
    assert ext.algebra.dims == SuperDim(2, 2)
    assert ext.kernel.dim == SuperDim(1, 1)
    assert intersection_dim(derived_subspace(ext.algebra), ext.kernel) == 2


def test_tail_extension_2_3_22():
    L = get("(2|3)_22")
    ext = tail_extension(L)
    assert ext.kernel.dim.total == 13 - 7
    assert intersection_dim(derived_subspace(ext.algebra), ext.kernel) == 3


def _check_extension(L):
    rep = multiplier_dimension(L)
    ext = tail_extension(L)
    E = ext.algebra
    assert validate(E).ok
    # the kernel is central
    from superschur import product_subspace

    full = GradedSubspace.full(E.field, E.dims)
    assert product_subspace(E, ext.kernel, full).is_zero()
    # E/W is L again, labels and table both
    q = quotient(E, ext.kernel)
    assert q.table == L.table
    assert list(q.labels) == list(L.labels)
    # dim E^2 = dim L^2 + dim M and the multiplier embeds as E^2 meet W
    e2 = derived_subspace(E)
    assert e2.dim.total == rep.dim_derived + rep.dim_multiplier
    assert intersection_dim(e2, ext.kernel) == rep.dim_multiplier


def test_tail_extension_invariants_catalog():
    for name in names():
        _check_extension(get(name))


def test_tail_extension_requires_nilpotent():
    L = Superalgebra.from_entries(RATIONALS, SuperDim(1, 1),
                                  [((0, 1), [Fraction(0), Fraction(1)])])
    with pytest.raises(NotNilpotent):
        tail_extension(L)


# --- direct sums ------------------------------------------------------------
#
# For nilpotent A and B, dim M(A + B) = dim M(A) + dim M(B) + dim(A/A^2) dim(B/B^2),
# the tensor term counting every parity (the Kunneth-type formula of Batten,
# Moneyhun and Stitzinger for Lie algebras). It pins the multiplier at sizes
# the sympy oracle cannot reach.

SUM_FIELDS = (RATIONALS, Field(5), Field(7))


def _in_sum(S, a, b):
    """The subspace a + b of S = direct_sum(A, B), for subspaces a of A and b of B:
    A's evens, B's evens, A's odds, B's odds."""
    vecs = []
    for sub, even0, odd0 in ((a, 0, 0), (b, a.dims.even, a.dims.odd)):
        pos = ([even0 + i for i in range(sub.dims.even)]
               + [S.dims.even + odd0 + j for j in range(sub.dims.odd)])
        for v in sub.full_vectors():
            w = [S.field.zero] * S.dims.total
            for k, c in enumerate(v):
                w[pos[k]] = c
            vecs.append(w)
    return GradedSubspace.from_vectors(S.field, S.dims, vecs)


def _check_direct_sum(A, B):
    S = direct_sum(A, B)
    d_a, d_b = derived_subspace(A), derived_subspace(B)
    assert derived_subspace(S) == _in_sum(S, d_a, d_b)
    assert center(S) == _in_sum(S, center(A), center(B))
    tensor = (A.dims.total - d_a.dim.total) * (B.dims.total - d_b.dim.total)
    assert multiplier_dimension(S).dim_multiplier == (
        multiplier_dimension(A).dim_multiplier
        + multiplier_dimension(B).dim_multiplier + tensor), (A.name, B.name)


@pytest.fixture(scope="module")
def summands():
    """Per field: the catalog, small abelian seeds and a short scan stream."""
    pools = {}
    for fld in SUM_FIELDS:
        pool = [get(name, fld) for name in names()]
        pool += [abelian(m, n, fld) for m in range(3) for n in range(3) if m + n]
        pool += generate_nilpotent(ScanConfig(field=fld, samples=12, seed=2024))
        pools[fld] = pool
    return pools


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_direct_sum_identity(summands, data):
    pool = summands[data.draw(st.sampled_from(SUM_FIELDS))]
    _check_direct_sum(data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool)))


def test_direct_sum_identity_chain20_twice_over_f5():
    L = chain(20, Field(5))
    _check_direct_sum(L, L)
