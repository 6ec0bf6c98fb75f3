import hashlib
import json
import re

import pytest

from superschur.catalog import data_path, names
from superschur.cli import main

BROKEN = """\
superalgebra broken
even e1
odd f1
[f1, f1] = e1
[e1, f1] = f1
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_multiplier_catalog_json(capsys):
    code, out, _ = run(capsys, "multiplier", "--catalog", "(2|3)_22", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimMultiplier"] == 3


def test_multiplier_human(capsys):
    code, out, _ = run(capsys, "multiplier", "--catalog", "(2|2)_1")
    assert code == 0
    assert "dim multiplier" in out and " 1" in out


def test_capability_catalog(capsys):
    code, out, _ = run(capsys, "capability", "--catalog", "(3|2)_13")
    assert code == 0
    assert "capable" in out and "true" in out


def test_capability_json_capable_flag(capsys):
    code, out, _ = run(capsys, "capability", "--catalog", "(2|3)_23", "--json")
    assert code == 0
    assert json.loads(out)["capable"] is False


def test_gamma_catalog(capsys):
    code, out, _ = run(capsys, "gamma", "--catalog", "(3|2)_13", "--json")
    assert code == 0
    assert json.loads(out)["gamma"] == 2


def test_validate_good_file(capsys):
    path = str(data_path("(2|3)_22"))
    code, out, _ = run(capsys, "validate", path)
    assert code == 0 and "ok" in out


def test_validate_broken_file(tmp_path, capsys):
    f = tmp_path / "broken.lsa"
    f.write_text(BROKEN, encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(f))
    assert code == 1
    assert "INVALID" in out
    assert "f1" in out  # the Jacobi witness triple is printed


def test_validate_multiple_files(tmp_path, capsys):
    f = tmp_path / "broken.lsa"
    f.write_text(BROKEN, encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(data_path("(2|2)_1")), str(f))
    assert code == 1


BROKEN_F5 = """\
superalgebra broken2
field F 5
even e1 e2
odd f1 f2
[e1, f1] = f2
[f1, f1] = e2
[f1, f2] = e1
[e1, e2] = 2e2
"""

# every violating triple in order, with its dense lhs and rhs
WITNESSES = {
    "broken.lsa": [
        "Jacobi fails at (e1, f1, f1): [e1,[f1,f1]] = [Fraction(0, 1), Fraction(0, 1)] but [[e1,f1],f1] + sign*[f1,[e1,f1]] = [Fraction(2, 1), Fraction(0, 1)]",
        "Jacobi fails at (f1, e1, f1): [f1,[e1,f1]] = [Fraction(1, 1), Fraction(0, 1)] but [[f1,e1],f1] + sign*[e1,[f1,f1]] = [Fraction(-1, 1), Fraction(0, 1)]",
        "Jacobi fails at (f1, f1, e1): [f1,[f1,e1]] = [Fraction(-1, 1), Fraction(0, 1)] but [[f1,f1],e1] + sign*[f1,[f1,e1]] = [Fraction(1, 1), Fraction(0, 1)]",
        "Jacobi fails at (f1, f1, f1): [f1,[f1,f1]] = [Fraction(0, 1), Fraction(-1, 1)] but [[f1,f1],f1] + sign*[f1,[f1,f1]] = [Fraction(0, 1), Fraction(2, 1)]",
    ],
    "broken2.lsa": [
        "Jacobi fails at (e1, f1, f1): [e1,[f1,f1]] = [0, 2, 0, 0] but [[e1,f1],f1] + sign*[f1,[e1,f1]] = [2, 0, 0, 0]",
        "Jacobi fails at (e2, f1, f2): [e2,[f1,f2]] = [0, 3, 0, 0] but [[e2,f1],f2] + sign*[f1,[e2,f2]] = [0, 0, 0, 0]",
        "Jacobi fails at (e2, f2, f1): [e2,[f2,f1]] = [0, 3, 0, 0] but [[e2,f2],f1] + sign*[f2,[e2,f1]] = [0, 0, 0, 0]",
        "Jacobi fails at (f1, e1, f1): [f1,[e1,f1]] = [1, 0, 0, 0] but [[f1,e1],f1] + sign*[e1,[f1,f1]] = [4, 2, 0, 0]",
        "Jacobi fails at (f1, e2, f2): [f1,[e2,f2]] = [0, 0, 0, 0] but [[f1,e2],f2] + sign*[e2,[f1,f2]] = [0, 3, 0, 0]",
        "Jacobi fails at (f1, f1, e1): [f1,[f1,e1]] = [4, 0, 0, 0] but [[f1,f1],e1] + sign*[f1,[f1,e1]] = [1, 3, 0, 0]",
        "Jacobi fails at (f1, f1, f2): [f1,[f1,f2]] = [0, 0, 0, 4] but [[f1,f1],f2] + sign*[f1,[f1,f2]] = [0, 0, 0, 1]",
        "Jacobi fails at (f1, f2, e2): [f1,[f2,e2]] = [0, 0, 0, 0] but [[f1,f2],e2] + sign*[f2,[f1,e2]] = [0, 2, 0, 0]",
        "Jacobi fails at (f1, f2, f1): [f1,[f2,f1]] = [0, 0, 0, 4] but [[f1,f2],f1] + sign*[f2,[f1,f1]] = [0, 0, 0, 1]",
        "Jacobi fails at (f2, e2, f1): [f2,[e2,f1]] = [0, 0, 0, 0] but [[f2,e2],f1] + sign*[e2,[f2,f1]] = [0, 3, 0, 0]",
        "Jacobi fails at (f2, f1, e2): [f2,[f1,e2]] = [0, 0, 0, 0] but [[f2,f1],e2] + sign*[f1,[f2,e2]] = [0, 2, 0, 0]",
        "Jacobi fails at (f2, f1, f1): [f2,[f1,f1]] = [0, 0, 0, 0] but [[f2,f1],f1] + sign*[f1,[f2,f1]] = [0, 0, 0, 2]",
    ],
}


def test_validate_witness_output_is_pinned(tmp_path, capsys):
    files = {}
    for name, text in (("broken.lsa", BROKEN), ("broken2.lsa", BROKEN_F5)):
        f = tmp_path / name
        f.write_text(text, encoding="utf-8")
        files[str(f)] = WITNESSES[name]
    code, out, _ = run(capsys, "validate", *files)
    assert code == 1
    assert out == "".join(f"{p}: INVALID\n" + "".join(f"  {w}\n" for w in ws)
                          for p, ws in files.items())
    code, out, _ = run(capsys, "validate", "--json", *files)
    assert code == 1
    doc = {"files": [{"path": p, "ok": False, "violations": ws} for p, ws in files.items()]}
    assert out == json.dumps(doc, indent=2) + "\n"


def test_invariants(capsys):
    path = str(data_path("(1|3)_1"))
    code, out, _ = run(capsys, "invariants", path)
    assert code == 0
    assert "(1|3)" in out and "nilpotent" in out


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert len(out.strip().splitlines()) == 11
    code, out, _ = run(capsys, "catalog", "--tag", "gamma2-list")
    assert len(out.strip().splitlines()) == 5


def test_unknown_catalog_name_exits_1(capsys):
    code, _, err = run(capsys, "multiplier", "--catalog", "bogus")
    assert code == 1 and "bogus" in err


def test_syntax_error_exits_2(tmp_path, capsys):
    f = tmp_path / "bad.lsa"
    f.write_text("not a presentation\n", encoding="utf-8")
    code, _, err = run(capsys, "validate", str(f))
    assert code == 2 and "error" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["multiplier", "--nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["multiplier", "capability", "gamma"])
def test_report_without_input_is_usage_error(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    assert "FILE" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["multiplier", "capability", "gamma"])
def test_report_with_file_and_catalog_is_usage_error(command, capsys):
    path = str(data_path("(2|3)_22"))
    for argv in ([command, path, "--catalog", "(2|2)_1"],
                 [command, "--catalog", "(2|2)_1", path]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["F4", "F3", "F9"])
def test_excluded_field_is_usage_error(field, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["multiplier", "--catalog", "(2|2)_1", "--field", field])
    assert exc.value.code == 2
    assert "field" in capsys.readouterr().err


@pytest.mark.parametrize("dims", [("-1", "2"), ("2", "-1")])
def test_negative_max_dim_is_usage_error(dims, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--max-dim", *dims])
    assert exc.value.code == 2
    assert "negative" in capsys.readouterr().err


@pytest.mark.parametrize("option,value", [("--samples", "-3"), ("--depth", "-2")])
def test_negative_scan_count_is_usage_error(option, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", option, value])
    assert exc.value.code == 2
    assert "negative" in capsys.readouterr().err


# sha256 of every report command's output on every catalog entry, human and
# --json, then `invariants` on every shipped data file, each block headed by
# its command line and exit code, with the `time (s)` value masked.
REPORTS_SHA256 = "378967b91dc63a7b38ca660037cdf69634f4c8e784d6d4e5573b54221c1a7906"


def test_report_output_bytes_are_pinned(capsys):
    blocks = []
    for argv in ([cmd, "--catalog", n, *fmt] for cmd in ("multiplier", "capability", "gamma")
                 for n in names() for fmt in ((), ("--json",))):
        code, out, _ = run(capsys, *argv)
        blocks.append(f"$ {' '.join(argv)} -> {code}\n{out}")
    for n in names():
        path = data_path(n)
        code, out, _ = run(capsys, "invariants", str(path))
        blocks.append(f"$ invariants {path.name} -> {code}\n{out}")
    text = re.sub(r"(?m)^(time \(s\)\s+)\S+$", r"\1*", "".join(blocks))
    assert hashlib.sha256(text.encode()).hexdigest() == REPORTS_SHA256


def test_verify_table1(capsys):
    code, out, _ = run(capsys, "verify-table1")
    assert code == 0
    assert out.count("pass") == 11
    assert "finding" in out


def test_verify_table1_json(capsys):
    code, out, _ = run(capsys, "verify-table1", "--json")
    doc = json.loads(out)
    assert code == 0
    assert len(doc["rows"]) == 11
    assert {f["claim"] for f in doc["findings"]} == {"Table1", "Thm2.6(iii)"}


def test_scan_small(capsys):
    code, out, _ = run(capsys, "scan", "--samples", "15", "--seed", "5")
    assert code == 0
    assert "findings              0" in out


def test_scan_json_deterministic(capsys):
    code, a, _ = run(capsys, "scan", "--samples", "10", "--seed", "3", "--json")
    assert code == 0
    code, b, _ = run(capsys, "scan", "--samples", "10", "--seed", "3", "--json")
    assert json.loads(a)["findings"] == json.loads(b)["findings"]


def test_scan_json_reports_evaluated_per_claim(capsys):
    code, out, _ = run(capsys, "scan", "--samples", "10", "--seed", "3", "--json")
    doc = json.loads(out)
    assert code == 0
    assert list(doc) == ["summary", "evaluated", "findings"]
    assert doc["evaluated"]["Thm1.2"] == 10


def test_scan_empty_budget_exits_1(capsys):
    code, out, err = run(capsys, "scan", "--max-dim", "0", "0")
    assert code == 1 and not out and "(0|0)" in err


def test_field_override(capsys):
    code, out, _ = run(capsys, "multiplier", "--catalog", "(2|2)_4",
                       "--field", "F5", "--json")
    assert code == 0
    assert json.loads(out)["dimMultiplier"] == 2


def test_gamma_from_file(capsys):
    code, out, _ = run(capsys, "gamma", str(data_path("(2|3)_22")), "--json")
    assert code == 0
    assert json.loads(out)["gamma"] == 3
