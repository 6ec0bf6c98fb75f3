"""Presentation files (.lsa): parse, lower, serialize, and report emission.

Format, one statement per line, '#' comments:

    superalgebra (2|3)_22
    field Q                 # or: field F 5
    even e1 e2
    odd f1 f2 f3
    [e1, f2] = f1
    [f3, f3] = e2
    [f2, f3] = -e2 + 1/2e1  # integer or fraction coefficients

Unlisted brackets are zero; mirror brackets are completed with the super
sign rule at lowering time. serialize(lower(parse(t))) is idempotent.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra import SuperDim, Superalgebra, validate
from .capability import EpicenterReport, GammaVerdict
from .errors import (
    JacobiViolationError,
    PresentationSyntaxError,
    UndeclaredLabel,
)
from .fields import Field, RATIONALS
from .homology import MultiplierReport

_LABEL = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")
_TERM = re.compile(
    r"(?P<sign>[+-])?\s*(?P<num>\d+)?(?:/(?P<den>\d+))?\s*(?P<label>[A-Za-z][A-Za-z0-9_]*)$"
)
_BRACKET = re.compile(
    r"\[\s*(?P<a>[A-Za-z][A-Za-z0-9_]*)\s*,\s*(?P<b>[A-Za-z][A-Za-z0-9_]*)\s*\]\s*=\s*(?P<rhs>.*)$"
)


@dataclass(frozen=True)
class BracketStatement:
    left: str
    right: str
    terms: tuple  # (Fraction coefficient, label)
    line: int


@dataclass(frozen=True)
class PresentationAST:
    name: str
    field: Field
    even_labels: tuple
    odd_labels: tuple
    brackets: tuple


def _split_terms(rhs: str, lineno: int):
    """Split a right-hand side on top-level +/- while keeping signs."""
    parts = []
    cur = ""
    for ch in rhs:
        if ch in "+-" and cur.strip():
            parts.append(cur.strip())
            cur = ch
        else:
            cur += ch
    if cur.strip():
        parts.append(cur.strip())
    if not parts:
        raise PresentationSyntaxError("empty bracket right-hand side", lineno, 1,
                                      ("term",))
    return parts


def parse(text: str) -> PresentationAST:
    """Parse presentation text into an AST; never raises anything but the
    documented presentation errors on malformed input."""
    name = None
    field = None
    even: list | None = None
    odd: list | None = None
    brackets: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if name is None:
            if not line.startswith("superalgebra"):
                raise PresentationSyntaxError(
                    f"first statement must declare the name, got {line!r}",
                    lineno, 1, ("superalgebra NAME",))
            name = line[len("superalgebra"):].strip()
            if not name:
                raise PresentationSyntaxError("missing name", lineno,
                                              len("superalgebra") + 1, ("NAME",))
            continue
        head = line.split(None, 1)[0]
        rest = line[len(head):].strip()
        if head == "field":
            if field is not None:
                raise PresentationSyntaxError("duplicate field declaration",
                                              lineno, 1, ())
            field = _parse_field(rest, lineno)
        elif head in ("even", "odd"):
            labels = rest.split()
            for lbl in labels:
                if not _LABEL.match(lbl):
                    raise PresentationSyntaxError(f"bad label {lbl!r}", lineno, 1,
                                                  ("identifier",))
            if head == "even":
                if even is not None:
                    raise PresentationSyntaxError("duplicate even declaration",
                                                  lineno, 1, ())
                even = labels
            else:
                if odd is not None:
                    raise PresentationSyntaxError("duplicate odd declaration",
                                                  lineno, 1, ())
                odd = labels
        elif line.startswith("["):
            m = _BRACKET.match(line)
            if not m:
                raise PresentationSyntaxError("malformed bracket statement",
                                              lineno, 1, ("[a, b] = terms",))
            terms = []
            for part in _split_terms(m.group("rhs"), lineno):
                tm = _TERM.match(part)
                if not tm:
                    raise PresentationSyntaxError(f"malformed term {part!r}",
                                                  lineno, line.index("=") + 2,
                                                  ("coefficient label",))
                num = int(tm.group("num")) if tm.group("num") else 1
                den = int(tm.group("den")) if tm.group("den") else 1
                if den == 0:
                    raise PresentationSyntaxError("zero denominator", lineno, 1, ())
                coeff = Fraction(num, den)
                if tm.group("sign") == "-":
                    coeff = -coeff
                terms.append((coeff, tm.group("label")))
            brackets.append(BracketStatement(m.group("a"), m.group("b"),
                                             tuple(terms), lineno))
        else:
            raise PresentationSyntaxError(
                f"unrecognized statement {head!r}", lineno, 1,
                ("field", "even", "odd", "[a, b] = ..."))
    if name is None:
        raise PresentationSyntaxError("empty presentation", 1, 1,
                                      ("superalgebra NAME",))
    even = even or []
    odd = odd or []
    dup = {lbl for lbl in even + odd if (even + odd).count(lbl) > 1}
    if dup:
        raise PresentationSyntaxError(f"duplicate labels {sorted(dup)}", 1, 1, ())
    declared = set(even) | set(odd)
    for st in brackets:
        for lbl in (st.left, st.right, *(t[1] for t in st.terms)):
            if lbl not in declared:
                raise UndeclaredLabel(f"label {lbl!r} (line {st.line}) was never declared")
    return PresentationAST(name, field or RATIONALS, tuple(even), tuple(odd),
                           tuple(brackets))


def _parse_field(rest: str, lineno: int) -> Field:
    tokens = rest.split()
    if tokens == ["Q"]:
        return RATIONALS
    if len(tokens) == 2 and tokens[0] == "F" and tokens[1].isdigit():
        return Field(int(tokens[1]))
    if len(tokens) == 1 and tokens[0].startswith("F") and tokens[0][1:].isdigit():
        return Field(int(tokens[0][1:]))
    raise PresentationSyntaxError(f"bad field spec {rest!r}", lineno, 7,
                                  ("Q", "F p"))


def _lower_unchecked(ast: PresentationAST, field: Field | None = None) -> Superalgebra:
    """AST to superalgebra, without checking the graded Jacobi identity."""
    fld = field or ast.field
    labels = list(ast.even_labels) + list(ast.odd_labels)
    dims = SuperDim(len(ast.even_labels), len(ast.odd_labels))
    pos = {lbl: i for i, lbl in enumerate(labels)}
    entries = []
    for st in ast.brackets:
        vec = [Fraction(0)] * dims.total
        for coeff, lbl in st.terms:
            vec[pos[lbl]] += coeff
        entries.append(((pos[st.left], pos[st.right]), [fld.of(c) for c in vec]))
    return Superalgebra.from_entries(fld, dims, entries, name=ast.name, labels=labels)


def lower(ast: PresentationAST, field: Field | None = None) -> Superalgebra:
    """AST to validated superalgebra; raises JacobiViolationError with a
    witness triple when the presentation fails the graded Jacobi identity."""
    alg = _lower_unchecked(ast, field)
    report = validate(alg)
    if not report.ok:
        raise JacobiViolationError(report)
    return alg


def load(text: str, field: Field | None = None) -> Superalgebra:
    return lower(parse(text), field)


def _format_term(L: Superalgebra, k: int, c, first: bool) -> str:
    mag = c
    neg = False
    if str(c).startswith("-"):
        neg = True
        mag = -c
    ms = str(mag)
    body = L.label(k) if ms == "1" else f"{ms}{L.label(k)}"
    if first:
        return f"-{body}" if neg else body
    return f" - {body}" if neg else f" + {body}"


def serialize(L: Superalgebra) -> str:
    """Canonical presentation text; a fixpoint of load followed by serialize."""
    lines = [f"superalgebra {L.name or 'unnamed'}"]
    lines.append("field Q" if L.field.is_rational else f"field F {L.field.p}")
    lines.append(("even " + " ".join(L.label(i) for i in range(L.dims.even))).rstrip())
    lines.append(("odd " + " ".join(L.label(i) for i in range(L.dims.even, L.dims.total))).rstrip())
    for (i, j) in sorted(L.table):
        coords = L.table.get((i, j))
        parts = ""
        first = True
        for k, c in enumerate(coords):
            if c:
                parts += _format_term(L, k, c, first)
                first = False
        lines.append(f"[{L.label(i)}, {L.label(j)}] = {parts}")
    return "\n".join(lines) + "\n"


_JSON_KEYS = ("dimC2", "dimDerived", "rankRelations", "dimMultiplier",
              "gamma", "capable", "epicenterDim")


def _multiplier_fields(rep: MultiplierReport) -> dict:
    return dict(dimC2=rep.dim_c2, dimDerived=rep.dim_derived,
                rankRelations=rep.rank_relations, dimMultiplier=rep.dim_multiplier,
                gamma=rep.gamma)


def _aligned(rows) -> str:
    """(key, value) rows as text, values aligned in one column."""
    rows = list(rows)
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def emit_report(report, format: str = "human") -> str:
    """Render a report: aligned key/value text, or one stable JSON document
    with every key of `_JSON_KEYS`, null where the report has no value."""
    if isinstance(report, MultiplierReport):
        fields = _multiplier_fields(report)
        rows = [("dim C2", report.dim_c2), ("dim L^2", report.dim_derived),
                ("rank relations", report.rank_relations),
                ("dim multiplier", report.dim_multiplier),
                ("gamma", "undefined" if report.gamma is None else report.gamma),
                ("time (s)", f"{report.timing:.4f}")]
    elif isinstance(report, EpicenterReport):
        fields = dict(capable=report.capable, epicenterDim=report.epicenter.dim.total)
        rows = [("epicenter dim", str(report.epicenter.dim)),
                ("capable", str(report.capable).lower())]
        for chk in report.per_generator:
            rows.append((f"  {chk.description}",
                         f"mono={chk.mono} epicenter={chk.in_epicenter}"))
    elif isinstance(report, GammaVerdict):
        fields = _multiplier_fields(report.report)
        rows = [("in scope", str(report.in_scope).lower()),
                ("gamma", "undefined" if report.gamma is None else report.gamma),
                ("class match", report.class_match or "none"),
                ("dim multiplier", report.report.dim_multiplier)]
    else:
        raise TypeError(f"cannot emit report of type {type(report).__name__}")
    if format == "json":
        doc = dict.fromkeys(_JSON_KEYS) | fields
        return json.dumps(doc, indent=2)
    return _aligned(rows)
