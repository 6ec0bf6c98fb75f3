import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from superschur import (
    GradedSubspace,
    SuperDim,
    Superalgebra,
    abelian,
    bracket,
    center,
    component_series,
    derived_subspace,
    direct_sum,
    get,
    heisenberg3,
    is_nilpotent,
    lower_central_series,
    names,
    nilpotent_by_components,
    product_subspace,
    quotient,
    validate,
)
from superschur import algebra
from superschur.algebra import complete_table
from superschur.errors import (
    ConflictingEntry,
    EvenDiagonal,
    FieldMismatch,
    GradingViolation,
    NotAnIdeal,
    NotGraded,
)
from superschur.verifier import ScanConfig, generate_nilpotent
from superschur.fields import Field, RATIONALS

from helpers import reference_bracket, subspace_sum

D22 = SuperDim(2, 2)


def _vec(total, **at):
    v = [Fraction(0)] * total
    for k, c in at.items():
        v[int(k[1:])] = Fraction(c)
    return v


# --- complete_table -------------------------------------------------------

def test_odd_odd_reversal_is_symmetric():
    # [f2, f1] = e1 canonicalizes to (f1, f2) -> +e1
    t = complete_table(RATIONALS, D22, [((3, 2), _vec(4, i0=1))])
    assert t.get((2, 3)) == (1, 0, 0, 0)


def test_even_odd_reversal_flips_sign():
    # [f1, e1] = f2 canonicalizes to (e1, f1) -> -f2
    t = complete_table(RATIONALS, D22, [((2, 0), _vec(4, i3=1))])
    assert t.get((0, 2)) == (0, 0, 0, -1)


def test_even_even_reversal_flips_sign():
    t = complete_table(RATIONALS, SuperDim(3, 0), [((1, 0), _vec(3, i2=1))])
    assert t.get((0, 1)) == (0, 0, -1)


def test_catalog_2_3_22_has_three_entries():
    assert len(get("(2|3)_22").table) == 3


def test_even_diagonal_rejected():
    with pytest.raises(EvenDiagonal):
        complete_table(RATIONALS, D22, [((0, 0), _vec(4, i1=1))])


def test_grading_violation_rejected():
    # [f1, f2] is even, so an odd target is rejected
    with pytest.raises(GradingViolation):
        complete_table(RATIONALS, D22, [((2, 3), _vec(4, i2=1))])


def test_conflicting_entry_rejected():
    with pytest.raises(ConflictingEntry):
        complete_table(RATIONALS, D22, [
            ((2, 3), _vec(4, i0=1)),
            ((3, 2), _vec(4, i0=2)),
        ])


def test_consistent_duplicate_allowed():
    t = complete_table(RATIONALS, D22, [
        ((2, 3), _vec(4, i0=1)),
        ((3, 2), _vec(4, i0=1)),  # same value through the symmetric flip
    ])
    assert len(t) == 1


def test_completion_is_involutive():
    t1 = complete_table(RATIONALS, D22, [((3, 2), _vec(4, i0=1))])
    t2 = complete_table(RATIONALS, D22, list(t1.items()))
    assert t1 == t2


# --- validate -------------------------------------------------------------

def test_catalog_entries_all_validate():
    for name in names():
        assert validate(get(name)).ok, name


def test_violating_presentation_reports_witness():
    # <e1; f1 | [f1,f1] = e1, [e1,f1] = f1> breaks Jacobi at (f1, f1, f1)
    bad = Superalgebra.from_entries(RATIONALS, SuperDim(1, 1), [
        ((1, 1), _vec(2, i0=1)),
        ((0, 1), _vec(2, i1=1)),
    ])
    rep = validate(bad)
    assert not rep.ok
    assert any(v.triple == (1, 1, 1) for v in rep.violations)
    viol = next(v for v in rep.violations if v.triple == (1, 1, 1))
    # [f1,[f1,f1]] = [f1, e1] = -f1
    assert list(viol.lhs) == [0, -1]


def test_abelian_validates():
    assert validate(abelian(3, 3)).ok


# --- bracket --------------------------------------------------------------

def test_bracket_catalog_values():
    L = get("(2|3)_22")
    e1 = _vec(5, i0=1)
    f3 = _vec(5, i4=1)
    assert bracket(L, e1, f3) == _vec(5, i3=1)  # f2


def test_bracket_even_square_is_zero():
    L = heisenberg3()
    x = _vec(3, i0=2, i1=3, i2=1)
    assert bracket(L, x, x) == [0, 0, 0]


def test_bracket_bilinear_expansion_odd():
    # (2|2)_4: [f1+f2, f1+f2] = 2[f1,f2] + [f2,f2] = 2e1 + e2
    L = get("(2|2)_4")
    x = _vec(4, i2=1, i3=1)
    assert bracket(L, x, x) == _vec(4, i0=2, i1=1)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_bracket_super_skew_on_random_vectors(seed):
    rng = random.Random(seed)
    L = get(rng.choice(names()))
    total = L.dims.total
    m = L.dims.even

    def rand_hom(parity):
        v = [Fraction(0)] * total
        lo, hi = (0, m) if parity == 0 else (m, total)
        for i in range(lo, hi):
            v[i] = Fraction(rng.randint(-3, 3))
        return v

    for px in (0, 1):
        for py in (0, 1):
            x, y = rand_hom(px), rand_hom(py)
            lhs = bracket(L, x, y)
            rhs = bracket(L, y, x)
            sign = 1 if (px and py) else -1
            assert lhs == [sign * c for c in rhs]
            # grading: homogeneous brackets land in the right block
            block = (px + py) % 2
            for k, c in enumerate(lhs):
                if c:
                    assert L.parity(k) == block


@pytest.fixture(scope="module")
def bracket_pool():
    """Per field Q, F_5 and F_7: the catalog and a short scan stream."""
    pool = []
    for fld in (RATIONALS, Field(5), Field(7)):
        pool += [get(name, fld) for name in names()]
        pool += generate_nilpotent(ScanConfig(field=fld, samples=12, seed=31))
    return pool


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_bracket_matches_dense_reference(bracket_pool, data):
    L = data.draw(st.sampled_from(bracket_pool))
    m, total = L.dims.even, L.dims.total

    def vector():
        lo, hi = data.draw(st.sampled_from([(0, m), (m, total), (0, total)]))
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=total, max_size=total))
        return [L.field.of(c if lo <= k < hi else 0) for k, c in enumerate(coeffs)]

    x, y = vector(), vector()
    assert bracket(L, x, y) == reference_bracket(L, x, y)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_odd_cube_identity(seed):
    rng = random.Random(seed)
    L = get(rng.choice(names()))
    total, m = L.dims.total, L.dims.even
    x = [Fraction(0)] * total
    for i in range(m, total):
        x[i] = Fraction(rng.randint(-3, 3))
    assert bracket(L, x, bracket(L, x, x)) == [Fraction(0)] * total


# --- graded subspaces -----------------------------------------------------

def test_graded_subspace_rejects_mixed_vectors():
    with pytest.raises(NotGraded):
        GradedSubspace.from_vectors(RATIONALS, D22, [_vec(4, i0=1, i2=1)])


def test_renamed_copy_shares_facts(monkeypatch):
    import superschur.algebra as algebra
    from superschur import serialize

    calls = []
    real = algebra.center.__wrapped__
    monkeypatch.setattr(algebra.center, "__wrapped__", lambda L: calls.append(L) or real(L))
    L = heisenberg3()
    x = L.renamed("x")
    assert x.name == "x" and L.name == "heisenberg3"
    head, _, body = serialize(x).partition("\n")
    assert head == "superalgebra x"
    assert body == serialize(L).partition("\n")[2]
    assert x._facts is L._facts
    assert center(x) == center(L)
    assert len(calls) == 1


def test_subspace_equality_is_canonical():
    a = GradedSubspace.from_vectors(RATIONALS, D22, [_vec(4, i0=2), _vec(4, i1=1)])
    b = GradedSubspace.from_vectors(RATIONALS, D22, [_vec(4, i0=1, i1=5), _vec(4, i1=-1)])
    assert a == b
    assert a.dim == SuperDim(2, 0)


def test_subspace_sum_and_membership():
    a = GradedSubspace.from_vectors(RATIONALS, D22, [_vec(4, i0=1)])
    b = GradedSubspace.from_vectors(RATIONALS, D22, [_vec(4, i2=1)])
    s = subspace_sum(a, b)
    assert s.dim == SuperDim(1, 1)
    assert s.contains_vector(_vec(4, i0=3))
    assert not s.contains_vector(_vec(4, i1=1))


def _sympy_rank(rows, field):
    import sympy as sp
    from sympy.polys.domains import GF
    from sympy.polys.matrices import DomainMatrix

    if not rows:
        return 0
    mat = sp.Matrix(rows)
    return mat.rank() if field.is_rational else \
        DomainMatrix.from_Matrix(mat).convert_to(GF(field.p)).rank()


@st.composite
def _homogeneous_spans(draw):
    """(field, dims, spanning vectors, probe vector), vectors as int lists.

    The spanning set mixes random homogeneous vectors with zero vectors,
    duplicates and linear combinations of two vectors of one block; the
    probe is a zero vector, a combination of the span or a random one.
    """
    field = draw(st.sampled_from([RATIONALS, Field(5)]))
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    if m + n == 0:
        m = 1
    total = m + n
    blocks = [b for b in (range(m), range(m, total)) if b]
    coeff = st.integers(-3, 3)

    def homogeneous():
        block = draw(st.sampled_from(blocks))
        v = [0] * total
        for k in block:
            v[k] = draw(coeff)
        return v

    def parity(v):
        return 0 if any(v[:m]) else 1 if any(v[m:]) else None

    def combination(vecs):
        u = draw(st.sampled_from(vecs))
        w = draw(st.sampled_from([w for w in vecs
                                  if None in (parity(u), parity(w)) or parity(u) == parity(w)]))
        a, b = draw(coeff), draw(coeff)
        return [a * x + b * y for x, y in zip(u, w)]

    vecs = [homogeneous() for _ in range(draw(st.integers(0, 5)))]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "duplicate", "combination"]))
        if kind == "zero" or not vecs:
            vecs.append([0] * total)
        elif kind == "duplicate":
            vecs.append(list(draw(st.sampled_from(vecs))))
        else:
            vecs.append(combination(vecs))
    kind = draw(st.sampled_from(["zero", "combination", "random"]))
    if kind == "zero":
        probe = [0] * total
    elif kind == "combination" and vecs:
        probe = combination(vecs)
    else:
        probe = homogeneous()
    return field, SuperDim(m, n), vecs, probe


@settings(max_examples=200, deadline=None)
@given(_homogeneous_spans(), st.randoms(use_true_random=False))
def test_graded_subspace_matches_sympy(case, rng):
    field, dims, vecs, probe = case
    m = dims.even
    lift = [[field.of(x) for x in v] for v in vecs]
    sub = GradedSubspace.from_vectors(field, dims, lift)
    # each parity block has the sympy rank of its coordinates
    assert sub.dim.even == _sympy_rank([v[:m] for v in vecs], field)
    assert sub.dim.odd == _sympy_rank([v[m:] for v in vecs], field)
    assert GradedSubspace.from_vectors(field, dims, sub.full_vectors()) == sub
    # a shuffled, rescaled spanning set spans the same subspace
    units = [1, 2, -1, -3, Fraction(1, 2)] if field.is_rational else [1, 2, 3, 4]
    scales = [field.of(rng.choice(units)) for _ in lift]
    moved = [[s * x for x in v] for s, v in zip(scales, lift)]
    rng.shuffle(moved)
    assert GradedSubspace.from_vectors(field, dims, moved) == sub
    # membership is exactly "appending the vector keeps the rank"
    keeps_rank = _sympy_rank(vecs + [probe], field) == _sympy_rank(vecs, field)
    assert sub.contains_vector([field.of(x) for x in probe]) == keeps_rank
    # a vector with entries in both blocks is rejected
    if m and dims.odd:
        mixed = [field.zero] * dims.total
        mixed[rng.randrange(m)] = field.one
        mixed[rng.randrange(m, dims.total)] = field.of(rng.choice(units))
        with pytest.raises(NotGraded):
            GradedSubspace.from_vectors(field, dims, lift + [mixed])


# --- derived subalgebra, series, center ------------------------------------

def test_derived_of_2_3_22():
    d = derived_subspace(get("(2|3)_22"))
    assert d.dim == SuperDim(1, 2)
    assert d.contains_vector(_vec(5, i1=1))  # e2


def test_product_with_zero_is_zero():
    L = get("(2|2)_4")
    z = GradedSubspace(RATIONALS, D22, {})
    assert product_subspace(L, GradedSubspace.full(RATIONALS, D22), z).is_zero()


def test_abelian_products_vanish():
    L = abelian(2, 2)
    full = GradedSubspace.full(RATIONALS, D22)
    assert product_subspace(L, full, full).is_zero()


def test_lower_central_series_1_3_1():
    L = get("(1|3)_1")
    series = lower_central_series(L)
    assert [t.dim.total for t in series] == [4, 2, 1, 0]
    assert is_nilpotent(L)


def test_lower_central_series_abelian():
    series = lower_central_series(abelian(2, 1))
    assert len(series) == 2 and series[-1].is_zero()


def test_non_nilpotent_detected():
    L = Superalgebra.from_entries(RATIONALS, SuperDim(1, 1),
                                  [((0, 1), _vec(2, i1=1))])  # [e1, f1] = f1
    assert validate(L).ok
    series = lower_central_series(L)
    assert series[-1].dim == SuperDim(0, 1)
    assert not is_nilpotent(L)
    assert not nilpotent_by_components(L)


@pytest.mark.parametrize("fld", [RATIONALS, Field(5)], ids=str)
def test_perfect_algebra_series_stop_at_the_first_term(fld):
    # sl2 = <e, h, f> as e1, e2, e3 is perfect, L^2 = L, in characteristic != 2
    L = Superalgebra.from_entries(fld, SuperDim(3, 0), [
        ((0, 1), [-2, 0, 0]), ((0, 2), [0, 1, 0]), ((1, 2), [0, 0, -2])])
    assert validate(L).ok
    full = GradedSubspace.full(fld, L.dims)
    assert lower_central_series(L) == (full,)
    assert component_series(L) == ([full], [GradedSubspace(fld, L.dims, {})])
    assert not is_nilpotent(L)
    assert not nilpotent_by_components(L)


def test_component_series_1_3_1():
    L = get("(1|3)_1")
    ev, od = component_series(L)
    assert [t.dim.total for t in od] == [3, 2, 1, 0]
    assert [t.dim.total for t in ev] == [1, 0]
    assert nilpotent_by_components(L)


def test_component_agreement_on_catalog():
    for name in names():
        L = get(name)
        assert nilpotent_by_components(L) == is_nilpotent(L) == True  # noqa: E712


def test_series_terms_are_graded_ideals_and_nested():
    for name in names():
        L = get(name)
        full = GradedSubspace.full(L.field, L.dims)
        series = lower_central_series(L)
        for prev, cur in zip(series, series[1:]):
            assert prev.contains(cur)
            assert cur.contains(product_subspace(L, full, cur))


def test_center_catalog_values():
    assert center(get("(2|2)_4")).dim == SuperDim(2, 0)
    z22 = center(get("(2|3)_22"))
    assert z22.dim == SuperDim(1, 1)
    assert z22.contains_vector(_vec(5, i1=1))  # e2
    assert z22.contains_vector(_vec(5, i2=1))  # f1
    assert center(get("(2|3)_18")).dim == SuperDim(0, 1)
    L = abelian(2, 3)
    assert center(L).dim == SuperDim(2, 3)


def test_center_equals_derived_for_2_2_4():
    L = get("(2|2)_4")
    assert center(L) == derived_subspace(L)


def test_center_brackets_to_zero_exactly():
    for name in names():
        L = get(name)
        zc = center(L)
        full = GradedSubspace.full(L.field, L.dims)
        assert product_subspace(L, zc, full).is_zero()
        # maximality: no basis vector outside the center is central
        for i in range(L.dims.total):
            v = [Fraction(0)] * L.dims.total
            v[i] = Fraction(1)
            if zc.contains_vector(v):
                continue
            assert any(any(bracket(L, v, w)) for w in full.full_vectors())


# --- quotient and direct sum ----------------------------------------------

def test_quotient_by_whole_algebra():
    L = abelian(1, 0)
    q = quotient(L, GradedSubspace.full(RATIONALS, SuperDim(1, 0)))
    assert q.dims.total == 0


def test_quotient_2_2_4_by_e2():
    L = get("(2|2)_4")
    k = GradedSubspace.from_vectors(RATIONALS, D22, [_vec(4, i1=1)])
    q = quotient(L, k)
    assert q.dims == SuperDim(1, 2)
    assert list(q.labels) == ["e1", "f1", "f2"]
    assert q.table == {(1, 2): (Fraction(1), Fraction(0), Fraction(0))}
    assert validate(q).ok


def test_quotient_requires_ideal():
    L = get("(2|2)_6")  # [e2, f2] = f1: span(f2) is not an ideal
    bad = GradedSubspace.from_vectors(RATIONALS, D22, [_vec(4, i3=1)])
    with pytest.raises(NotAnIdeal):
        quotient(L, bad)


def test_quotient_rejects_an_image_combining_two_active_indices():
    L = get("(2|3)_23")  # [e1, f2] = f1, [e1, f3] = f2: both f2 and f3 are active
    v = _vec(5, i3=1, i4=1)
    assert bracket(L, v, _vec(5, i0=1)) == _vec(5, i2=-1, i3=-1)
    bad = GradedSubspace.from_vectors(RATIONALS, L.dims, [v])
    with pytest.raises(NotAnIdeal):
        quotient(L, bad)


@pytest.mark.parametrize("field", [RATIONALS, Field(5)])
def test_quotient_accepts_a_non_central_ideal(field):
    L = get("(2|3)_22", field)  # L^2 = <e2, f1, f2>, and [e1, f2] = f1
    k = derived_subspace(L)
    assert not center(L).contains(k)
    q = quotient(L, k)
    assert q.dims == SuperDim(1, 1) and q.is_abelian()


@st.composite
def _candidate_subspace(draw, L):
    """A random graded span of 1-3 homogeneous vectors, an LCS term, L^2 or Z(L)."""
    kind = draw(st.sampled_from(["span", "span", "lcs", "derived", "center"]))
    if kind == "lcs":
        return draw(st.sampled_from(lower_central_series(L)))
    if kind == "derived":
        return derived_subspace(L)
    if kind == "center":
        return center(L)
    m, total = L.dims.even, L.dims.total
    blocks = [b for b in ((0, m), (m, total)) if b[0] < b[1]]
    vecs = []
    for _ in range(draw(st.integers(1, 3))):
        lo, hi = draw(st.sampled_from(blocks))
        coeffs = draw(st.lists(st.sampled_from([0, 0, 1, -1, 2]),
                               min_size=hi - lo, max_size=hi - lo))
        v = [L.field.zero] * total
        for k, c in enumerate(coeffs):
            v[lo + k] = L.field.of(c)
        vecs.append(v)
    return GradedSubspace.from_vectors(L.field, L.dims, vecs)


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_quotient_closure_matches_the_product_rule(three_field_sources, data):
    inputs = [L for instances in three_field_sources.values() for L in instances]
    L = inputs[data.draw(st.integers(0, len(inputs) - 1))]
    k = data.draw(_candidate_subspace(L))
    full = GradedSubspace.full(L.field, L.dims)
    if not k.contains(product_subspace(L, full, k)):
        event("rejected")
        with pytest.raises(NotAnIdeal):
            quotient(L, k)
        return
    event("central" if center(L).contains(k) else "non-central ideal")
    q = quotient(L, k)
    assert validate(q).ok
    assert q.dims.total == L.dims.total - k.dim.total


def _inherits_its_series(L, v):
    """Whether L/<v> holds, before anything asks for them, the lower central
    series and the derived subspace that the bracket route and the table's
    values give in the quotient itself."""
    _, h = algebra._line_quotient(L, v)
    return all(h._facts.get((fact.__name__,)) == fact.__wrapped__(h)
               for fact in (lower_central_series, derived_subspace))


@pytest.fixture(scope="module")
def central_basis_lines(three_field_sources):
    """(L, v) for every central basis line of the catalog and the scan
    streams over Q, F_5 and F_7."""
    return [(L, v) for instances in three_field_sources.values() for L in instances
            for v in center(L).full_vectors()]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_line_quotients_inherit_the_lower_central_series(central_basis_lines, data):
    L, v = data.draw(st.sampled_from(central_basis_lines))
    event(f"{L.field}, series of length {len(lower_central_series(L))}")
    assert _inherits_its_series(L, v)


@pytest.mark.parametrize("L", [abelian(1, 0), abelian(0, 1), abelian(2, 1),
                               heisenberg3(), heisenberg3(Field(5))], ids=str)
def test_abelian_and_empty_line_quotients_inherit_the_series(L):
    # abelian(1|0) and abelian(0|1) have quotients of total dimension 0
    for v in center(L).full_vectors():
        assert _inherits_its_series(L, v)


def test_quotient_validates_for_catalog_central_lines():
    for name in names():
        L = get(name)
        for v in center(L).full_vectors():
            k = GradedSubspace.from_vectors(L.field, L.dims, [v])
            assert validate(quotient(L, k)).ok


def test_direct_sum_of_abelians():
    s = direct_sum(abelian(1, 2), abelian(2, 1))
    assert s.dims == SuperDim(3, 3)
    assert s.is_abelian()


def test_direct_sum_field_mismatch():
    with pytest.raises(FieldMismatch):
        direct_sum(abelian(1, 0), abelian(1, 0, Field(5)))


def test_direct_sum_derived_splits():
    a, b = get("(2|2)_4"), heisenberg3()
    s = direct_sum(a, b)
    assert validate(s).ok
    da, db, ds = (derived_subspace(x).dim for x in (a, b, s))
    assert ds.even == da.even + db.even and ds.odd == da.odd + db.odd


def test_works_over_prime_field():
    f5 = Field(5)
    L = get("(3|2)_13", f5)
    assert validate(L).ok and is_nilpotent(L)
    assert derived_subspace(L).dim.total == 3
