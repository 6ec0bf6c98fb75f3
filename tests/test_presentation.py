import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superschur import (
    abelian,
    emit_report,
    epicenter,
    gamma,
    get,
    load,
    multiplier_dimension,
    names,
    parse,
    serialize,
)
from superschur.catalog import data_path
from superschur.errors import (
    BadField,
    JacobiViolationError,
    PresentationSyntaxError,
    SuperschurError,
    UndeclaredLabel,
)
from superschur.fields import Field
from superschur.presentation import lower

SAMPLE = """\
# a catalog row
superalgebra (2|3)_22
field Q
even e1 e2
odd f1 f2 f3
[e1, f2] = f1
[e1, f3] = f2
[f3, f3] = e2
"""


def test_parse_sample():
    ast = parse(SAMPLE)
    assert ast.name == "(2|3)_22"
    assert ast.even_labels == ("e1", "e2")
    assert ast.odd_labels == ("f1", "f2", "f3")
    assert len(ast.brackets) == 3
    assert ast.field.is_rational


def test_lower_matches_catalog():
    L = load(SAMPLE)
    assert L.table == get("(2|3)_22").table


def test_parse_coefficients():
    ast = parse("superalgebra x\neven e1\nodd f1 f2\n[f2, f2] = 2e1\n")
    assert ast.brackets[0].terms == ((Fraction(2), "e1"),)
    ast = parse("superalgebra x\neven e1 e2\nodd f1\n[f1, f1] = -e2 + 1/2e1\n")
    assert ast.brackets[0].terms == ((Fraction(-1), "e2"), (Fraction(1, 2), "e1"))


def test_parse_minus_separator():
    ast = parse("superalgebra x\neven e1 e2\nodd f1\n[f1, f1] = e1 - 2e2\n")
    assert ast.brackets[0].terms == ((Fraction(1), "e1"), (Fraction(-2), "e2"))


def test_field_f5_accepted_and_lowered():
    text = "superalgebra y\nfield F 5\nodd f1\n[f1, f1] = 0f1\n"
    # coefficient 0 gives the zero bracket; table stays empty
    with pytest.raises(PresentationSyntaxError):
        parse("superalgebra y\nfield F 5\nfield Q\n")
    ast = parse(text)
    assert ast.field == Field(5)


def test_bad_field_rejected():
    with pytest.raises(BadField):
        parse("superalgebra z\nfield F 3\n")
    with pytest.raises(BadField):
        parse("superalgebra z\nfield F 9\n")


def test_undeclared_label():
    with pytest.raises(UndeclaredLabel):
        parse("superalgebra z\neven e1\n[e1, f1] = e1\n")


def test_syntax_error_positions():
    with pytest.raises(PresentationSyntaxError) as exc:
        parse("superalgebra z\neven e1\nnonsense here\n")
    assert exc.value.line == 3


def test_missing_header():
    with pytest.raises(PresentationSyntaxError):
        parse("even e1\n")
    with pytest.raises(PresentationSyntaxError):
        parse("# only a comment\n")


def test_duplicate_labels_rejected():
    with pytest.raises(PresentationSyntaxError):
        parse("superalgebra z\neven a b\nodd a\n")


def test_jacobi_violation_carries_witness():
    text = ("superalgebra broken\neven e1\nodd f1\n"
            "[f1, f1] = e1\n[e1, f1] = f1\n")
    with pytest.raises(JacobiViolationError) as exc:
        load(text)
    assert any(v.labels == ("f1", "f1", "f1") for v in exc.value.report.violations)


def test_empty_bracket_list_is_abelian():
    L = load("superalgebra nothing\neven e1 e2\nodd f1\n")
    assert L.is_abelian() and L.dims.total == 3


def test_field_override_at_lowering():
    ast = parse(SAMPLE)
    L = lower(ast, Field(7))
    assert L.field == Field(7)
    assert multiplier_dimension(L).dim_multiplier == 3


# --- round trips ------------------------------------------------------------

def test_round_trip_catalog_files_byte_identical():
    for name in names():
        text = data_path(name).read_text(encoding="utf-8")
        once = serialize(load(text))
        assert once == text, name
        assert serialize(load(once)) == once, name


def test_serialize_lower_parse_fixpoint_over_f5():
    L = get("(2|3)_18", Field(5))
    text = serialize(L)
    assert "field F 5" in text
    assert serialize(load(text)) == text
    # -e2 became 4e2 in F5
    assert "4e2" in text


@settings(max_examples=120, deadline=None)
@given(st.text(max_size=160))
def test_parse_never_panics(text):
    try:
        load(text)
    except (PresentationSyntaxError, UndeclaredLabel, BadField,
            JacobiViolationError, SuperschurError):
        pass


# --- reports ----------------------------------------------------------------

JSON_KEYS = {"dimC2", "dimDerived", "rankRelations", "dimMultiplier",
             "gamma", "capable", "epicenterDim"}


def test_emit_multiplier_json_schema():
    doc = json.loads(emit_report(multiplier_dimension(get("(2|2)_1")), "json"))
    assert set(doc) == JSON_KEYS
    assert doc["dimMultiplier"] == 1
    assert doc["capable"] is None


def test_emit_epicenter_json():
    doc = json.loads(emit_report(epicenter(abelian(1, 0)), "json"))
    assert set(doc) == JSON_KEYS
    assert doc["capable"] is False
    assert doc["epicenterDim"] == 1


def test_emit_gamma_json():
    doc = json.loads(emit_report(gamma(get("(3|2)_13")), "json"))
    assert set(doc) == JSON_KEYS
    assert doc["gamma"] == 2


def test_emit_human_formats():
    text = emit_report(multiplier_dimension(get("(2|2)_1")), "human")
    assert "dim multiplier" in text
    text = emit_report(epicenter(get("(2|2)_4")), "human")
    assert "capable" in text and "true" in text
    text = emit_report(gamma(get("(2|3)_22")), "human")
    assert "class match" in text and "none" in text
