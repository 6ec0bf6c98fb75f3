import hashlib
import warnings
from fractions import Fraction

import pytest

from superschur import (
    SuperDim,
    abelian,
    derived_subspace,
    family_4_2,
    get,
    heisenberg3,
    is_nilpotent,
    multiplier_dimension,
    names,
    serialize,
    validate,
)
from superschur.catalog import TABLE1_ORDER, data_path, entry
from superschur.errors import ScopeWarning, UnknownName
from superschur.fields import Field, RATIONALS

from oracles import oracle_multiplier


def test_table_order_complete():
    assert names() == list(TABLE1_ORDER) == [
        "(2|2)_1", "(2|2)_4", "(2|2)_6", "(1|3)_1", "(1|4)_7", "(3|2)_5",
        "(3|2)_13", "(2|3)_18", "(2|3)_19", "(2|3)_22", "(2|3)_23"]
    assert names("gamma2-list") == [
        "(2|2)_4", "(2|2)_6", "(1|3)_1", "(3|2)_13", "(2|3)_18"]


def test_unknown_name():
    with pytest.raises(UnknownName):
        get("bogus")


def test_every_entry_valid_and_nilpotent():
    for name in names():
        L = get(name)
        assert validate(L).ok and is_nilpotent(L), name


def test_expected_multiplier_dims_present_and_correct():
    for name in names():
        e = entry(name)
        assert multiplier_dimension(get(name)).dim_multiplier == e.expected_multiplier_dim


def test_printed_value_differs_only_for_2_3_19():
    for name in names():
        e = entry(name)
        if name == "(2|3)_19":
            assert (e.expected_multiplier_dim, e.printed_multiplier_dim) == (2, 3)
        else:
            assert e.expected_multiplier_dim == e.printed_multiplier_dim


def test_specific_brackets_2_2_1():
    L = get("(2|2)_1")
    assert L.table == {
        (2, 2): (Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
        (3, 3): (Fraction(0), Fraction(1), Fraction(0), Fraction(0)),
    }


def test_specific_brackets_2_3_18():
    L = get("(2|3)_18")
    t = L.table
    assert t[(0, 4)][2] == 1      # [e1, f3] = f1
    assert t[(1, 3)][2] == 1      # [e2, f2] = f1
    assert t[(3, 3)][0] == 2      # [f2, f2] = 2e1
    assert t[(3, 4)][1] == -1     # [f2, f3] = -e2
    assert len(t) == 4


def test_specific_brackets_3_2_13():
    L = get("(3|2)_13")
    t = L.table
    assert t[(0, 1)][2] == 1      # [e1, e2] = e3
    assert t[(0, 4)][3] == 1      # [e1, f2] = f1
    assert t[(3, 4)][2] == 1      # [f1, f2] = e3
    assert t[(4, 4)][1] == 2      # [f2, f2] = 2e2


def test_abelian_and_heisenberg_fixtures():
    assert abelian(2, 2).is_abelian()
    assert multiplier_dimension(abelian(2, 2)).dim_multiplier == 8
    assert multiplier_dimension(abelian(0, 0)).dim_multiplier == 0
    h = heisenberg3()
    assert h.dims == SuperDim(3, 0)
    assert multiplier_dimension(h).dim_multiplier == 2


def test_data_files_exist_for_all_entries():
    for name in names():
        assert data_path(name).is_file(), name


# --- the (4|2) family -------------------------------------------------------

@pytest.mark.parametrize("a2,a4", [(1, 0), (1, 1), (2, -3), (3, 5),
                                   (Fraction(1, 2), Fraction(-1, 3))])
def test_family_in_scope(a2, a4):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        L = family_4_2(a2, a4)
    assert validate(L).ok and is_nilpotent(L)
    assert L.dims == SuperDim(4, 2)
    assert derived_subspace(L).dim.total == 4
    assert multiplier_dimension(L).dim_multiplier == 2


@pytest.mark.parametrize("a2,a4", [(0, 0), (0, 1), (0, -2)])
def test_family_degenerate_warns(a2, a4):
    with pytest.warns(ScopeWarning):
        L = family_4_2(a2, a4)
    assert validate(L).ok and is_nilpotent(L)
    assert derived_subspace(L).dim.total == 3


def test_family_matches_oracle():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for a2, a4 in [(1, 0), (0, 1), (1, 1)]:
            L = family_4_2(a2, a4)
            assert multiplier_dimension(L).dim_multiplier == oracle_multiplier(L)


def test_family_over_prime_field():
    L = family_4_2(1, 1, Field(7))
    assert validate(L).ok
    assert multiplier_dimension(L).dim_multiplier == 2


# --- the catalog's answers, pinned ------------------------------------------

CATALOG_SHA256 = "b2da0c85383b2d6e8d7f71c2f1057df767b468b20ad1763e4df6d29acf2bce84"


def test_catalog_tables_pinned():
    """Every entry and the Heisenberg fixture, over Q, F_5 and F_7, serialize
    to the same text as when this digest was taken."""
    fields = (RATIONALS, Field(5), Field(7))
    text = "".join(serialize(get(n, f)) for f in fields for n in names())
    text += "".join(serialize(heisenberg3(f)) for f in fields)
    assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_SHA256
