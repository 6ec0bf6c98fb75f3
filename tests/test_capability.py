from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

from superschur import (
    GradedSubspace,
    SuperDim,
    Superalgebra,
    abelian,
    center,
    epicenter,
    gamma,
    get,
    heisenberg3,
    load,
    mono_criterion,
    names,
    multiplier_dimension,
    verify_no_low_gamma,
)
from superschur import algebra, capability, homology
from superschur.capability import fingerprint
from superschur.errors import NotCentral, NotNilpotent, WrongDimension
from superschur.fields import RATIONALS

from helpers import chain, shear
from oracles import oracle_center, oracle_epicenter, same_span


def _line(L, index):
    v = [Fraction(0)] * L.dims.total
    v[index] = Fraction(1)
    return GradedSubspace.from_vectors(L.field, L.dims, [v])


# --- mono criterion ---------------------------------------------------------

def test_mono_abelian_2_0():
    # M(L) = 1, M(L/K) = 0, K not in L^2: 1 != 0 so K escapes the epicenter
    L = abelian(2, 0)
    assert mono_criterion(L, _line(L, 1)) is False


def test_mono_abelian_1_0_whole():
    L = abelian(1, 0)
    assert mono_criterion(L, _line(L, 0)) is True


def test_mono_2_2_4_e1():
    L = get("(2|2)_4")
    assert mono_criterion(L, _line(L, 0)) is False


def test_mono_rejects_non_central():
    L = get("(2|2)_4")
    with pytest.raises(NotCentral):
        mono_criterion(L, _line(L, 2))  # f1 is not central here


def test_mono_rejects_wrong_dimension():
    L = abelian(2, 0)
    with pytest.raises(WrongDimension):
        mono_criterion(L, GradedSubspace.full(RATIONALS, L.dims))


# --- each fact once per algebra ---------------------------------------------

def test_each_fact_is_computed_once_per_algebra(monkeypatch):
    L = get("(2|3)_23")
    built = Counter()

    def count(owner, attr, key):
        inner = getattr(owner, attr)

        def counting(A, *args, **kwargs):
            if A is L:  # not the quotients that mono_criterion makes
                built[key] += 1
            return inner(A, *args, **kwargs)
        monkeypatch.setattr(owner, attr, counting)

    # a memoized fact is computed by its `__wrapped__`; relations3 is not memoized
    for fn in (algebra.lower_central_series, algebra.derived_subspace, algebra.center,
               homology.multiplier_dimension):
        count(fn, "__wrapped__", fn.__name__)
    count(homology, "relations3", "relations3")

    multiplier_dimension(L)
    assert epicenter(L).per_generator  # (2|3)_23 has central lines to cross-check
    gamma(L)
    assert built.pop("relations3") <= 2  # the multiplier and the epicenter
    assert built == {"lower_central_series": 1, "derived_subspace": 1, "center": 1,
                     "multiplier_dimension": 1}


@pytest.mark.parametrize("make", [lambda: chain(10, RATIONALS), lambda: get("(2|3)_23")],
                         ids=["chain10", "(2|3)_23"])
def test_epicenter_brackets_only_for_the_algebras_own_series(monkeypatch, make):
    # the line quotients take their lower central series from L's
    L = make()
    algebras = []
    real = algebra.product_subspace
    monkeypatch.setattr(algebra, "product_subspace",
                        lambda A, a, b: algebras.append(A) or real(A, a, b))
    assert epicenter(L).per_generator
    assert len(algebras) == len(algebra.lower_central_series(L)) - 1
    assert all(A is L for A in algebras)


# --- epicenter --------------------------------------------------------------

def test_epicenter_abelian_1_0_is_everything():
    rep = epicenter(abelian(1, 0))
    assert not rep.capable
    assert rep.epicenter.dim == SuperDim(1, 0)


def test_epicenter_abelian_2_0_is_zero():
    rep = epicenter(abelian(2, 0))
    assert rep.capable and rep.epicenter.is_zero()


def test_epicenter_abelian_0_1_is_zero():
    # capable: the (1|1) algebra [f,f] = e has center <e> and quotient (0|1)
    rep = epicenter(abelian(0, 1))
    assert rep.capable


@pytest.mark.parametrize("m,n", [(2, 0), (0, 2), (1, 1), (2, 2), (3, 1)])
def test_epicenter_abelian_total_at_least_2_capable(m, n):
    assert epicenter(abelian(m, n)).capable


@pytest.mark.parametrize("name", names("gamma2-list"))
def test_named_gamma2_algebras_are_capable(name):
    rep = epicenter(get(name))
    assert rep.capable and rep.epicenter.is_zero()


def test_epicenter_2_3_23_not_capable():
    rep = epicenter(get("(2|3)_23"))
    assert not rep.capable
    assert rep.epicenter.dim == SuperDim(1, 0)
    # the epicenter is the central line <e2>
    v = [Fraction(0)] * 5
    v[1] = Fraction(1)
    assert rep.epicenter.contains_vector(v)


def test_epicenter_2_2_1_not_capable():
    rep = epicenter(get("(2|2)_1"))
    assert not rep.capable
    assert rep.epicenter.dim == SuperDim(2, 0)


def test_epicenter_inside_center_everywhere():
    for name in names():
        L = get(name)
        rep = epicenter(L)
        assert center(L).contains(rep.epicenter)


def test_cross_check_runs_on_every_center_line():
    for name in names():
        L = get(name)
        rep = epicenter(L)  # raises CrossCheckError on any disagreement
        assert len(rep.per_generator) == center(L).dim.total
        for chk in rep.per_generator:
            assert chk.mono == chk.in_epicenter


@pytest.fixture(scope="module")
def wide_center_blocks(three_field_sources):
    """Per field (the catalog and a scan stream over Q, F_5 and F_7), the
    pairs (L, rows) for every parity block of Z(L) of dim >= 2."""
    out = []
    for instances in three_field_sources.values():
        out.append([])
        for L in instances:
            rows, even = center(L).full_vectors(), center(L).dim.even
            out[-1] += [(L, block) for block in (rows[:even], rows[even:]) if len(block) >= 2]
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_central_lines_agree_with_the_epicenter(wide_center_blocks, data):
    # homogeneous central lines that are not basis-aligned: F_5 and F_7
    # projective points, small integer combinations over Q
    L, block = data.draw(st.sampled_from(data.draw(st.sampled_from(wide_center_blocks))))
    fld = L.field
    scalars = st.integers(-3, 3) if fld.is_rational else st.integers(0, fld.p - 1)
    coeffs = data.draw(st.lists(scalars, min_size=len(block), max_size=len(block))
                       .filter(lambda cs: sum(1 for c in cs if c) >= 2))
    v = [sum((fld.of(c) * row[k] for c, row in zip(coeffs, block)), fld.zero)
         for k in range(L.dims.total)]
    scale = fld.of(data.draw(scalars.filter(lambda c: c not in (0, 1))))
    fresh = Superalgebra(L.field, L.dims, L.labels, L.table, L.name)  # no facts yet
    computed = []
    real = algebra._line_quotient.__wrapped__
    with mock.patch.object(algebra._line_quotient, "__wrapped__",
                           lambda A, row: computed.append(row) or real(A, row)):
        mono = mono_criterion(fresh, GradedSubspace.from_vectors(fld, L.dims, [v]))
        scaled = GradedSubspace.from_vectors(fld, L.dims, [[scale * x for x in v]])
        assert mono_criterion(fresh, scaled) == mono
    assert len(computed) == 1  # both scalings of the line read one quotient
    assert epicenter(fresh).epicenter.contains_vector(v) == mono


@pytest.mark.parametrize("name", names())
def test_catalog_epicenter_and_center_match_the_oracle(name):
    L = get(name)
    assert same_span(L, center(L).full_vectors(), oracle_center(L))
    assert same_span(L, epicenter(L).epicenter.full_vectors(), oracle_epicenter(L))


# Sheared scan instances whose centers are not basis-aligned, found by
# search: each epicenter (over F_5 <e1 + 4e3>, over Q <e1 - e3>, over F_7
# <e1 + 3e3>) is lost when the lift condition ignores the sign of
# s(j, i) = -s(i, j). Each case: text, epicenter dim, center dim.
SIGN_SENSITIVE = {
    "F5": ("""superalgebra sheared
field F 5
even e1 e2 e3
odd f1 f2 f3
[e1, f1] = f3
[e3, f1] = f3
[f1, f1] = e1 + 4e3
[f1, f2] = e2
[f2, f2] = 4e1 + e3
""", SuperDim(1, 0), SuperDim(2, 1)),
    "Q": ("""superalgebra sheared
field Q
even e1 e2 e3
odd f1 f2
[e1, e2] = -2e1 + 2e3
[e2, e3] = 2e1 - 2e3
[f1, f2] = -e1 + e3
""", SuperDim(1, 0), SuperDim(1, 0)),
    "F7": ("""superalgebra sheared
field F 7
even e1 e2 e3
odd f1 f2
[f1, f1] = 6e1 + 4e3
[f1, f2] = 6e1 + 4e3
[f2, f2] = 5e1 + e3
""", SuperDim(1, 0), SuperDim(3, 0)),
}


@pytest.mark.parametrize("text, epi_dim, center_dim", SIGN_SENSITIVE.values(),
                         ids=SIGN_SENSITIVE)
def test_epicenter_matches_the_oracle_where_the_tail_sign_matters(text, epi_dim, center_dim):
    L = load(text)
    epi = capability._epicenter_subspace(L)
    assert same_span(L, epi.full_vectors(), oracle_epicenter(L))
    assert epi.dim == epi_dim and center(L).dim == center_dim
    assert epicenter(L).epicenter == epi  # and the mono criterion agrees


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_epicenter_and_center_match_the_oracle(three_field_sources, data):
    # up to three shears b_a -> b_a + t b_b move the center off the basis
    fld = data.draw(st.sampled_from(sorted(three_field_sources, key=str)))
    L = data.draw(st.sampled_from(three_field_sources[fld]))
    m, total = L.dims.even, L.dims.total
    blocks = [b for b in (range(m), range(m, total)) if len(b) >= 2]
    for _ in range(data.draw(st.integers(0, 3)) if blocks else 0):
        a, b = data.draw(st.permutations(data.draw(st.sampled_from(blocks))))[:2]
        L = shear(L, a, b, data.draw(st.sampled_from([1, 2, -1])))
    epi = epicenter(L).epicenter
    event(f"{fld}, epicenter of dim {epi.dim.total}")
    assert same_span(L, center(L).full_vectors(), oracle_center(L))
    assert same_span(L, epi.full_vectors(), oracle_epicenter(L))


def test_epicenter_requires_nilpotent():
    L = Superalgebra.from_entries(RATIONALS, SuperDim(1, 1),
                                  [((0, 1), [Fraction(0), Fraction(1)])])
    with pytest.raises(NotNilpotent):
        epicenter(L)


# --- gamma ------------------------------------------------------------------

GAMMA_GOLDEN = {
    "(2|2)_1": 3, "(2|2)_4": 2, "(2|2)_6": 2, "(1|3)_1": 2, "(1|4)_7": 4,
    "(3|2)_5": 3, "(3|2)_13": 2, "(2|3)_18": 4, "(2|3)_19": 4,
    "(2|3)_22": 3, "(2|3)_23": 4,
}


def test_gamma_catalog_values():
    for name, g in GAMMA_GOLDEN.items():
        v = gamma(get(name))
        assert v.in_scope, name
        assert v.gamma == g, name
        m, n = get(name).dims.even, get(name).dims.odd
        assert v.gamma == m + 2 * n - 2 - v.report.dim_multiplier


def test_gamma_class_match_positive():
    for name in ("(2|2)_4", "(2|2)_6", "(1|3)_1", "(3|2)_13"):
        v = gamma(get(name))
        assert v.gamma == 2 and v.class_match == name


def test_gamma_class_match_none_for_2_3_22():
    v = gamma(get("(2|3)_22"))
    assert v.gamma == 3 and v.class_match is None


def test_gamma_18_matches_itself():
    v = gamma(get("(2|3)_18"))
    assert v.gamma == 4 and v.class_match == "(2|3)_18"


def test_gamma_19_matches_18_fingerprint():
    # the printed rows are the same algebra up to basis permutation
    v = gamma(get("(2|3)_19"))
    assert v.class_match == "(2|3)_18"
    assert fingerprint(get("(2|3)_19")) == fingerprint(get("(2|3)_18"))


def test_gamma_out_of_scope():
    v = gamma(abelian(2, 2))
    assert not v.in_scope and v.gamma is None and v.class_match is None
    v = gamma(heisenberg3())  # n = 0
    assert not v.in_scope


def test_gamma_never_negative_in_scope():
    for name in names():
        v = gamma(get(name))
        assert v.gamma is None or v.gamma >= 0


# --- low-gamma sweep --------------------------------------------------------

def test_verify_no_low_gamma_on_catalog():
    scanrep = verify_no_low_gamma([get(name) for name in names()])
    assert scanrep.offenders == ()
    assert scanrep.checked == len(names())  # all rows are in scope


def test_verify_no_low_gamma_skips_out_of_scope():
    scanrep = verify_no_low_gamma([abelian(2, 2), get("(2|2)_4")])
    assert scanrep.checked == 1
    assert scanrep.entries[0].skipped is not None
    assert "out of scope" in scanrep.entries[0].skipped
