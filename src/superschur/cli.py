"""Command-line front end.

Exit codes: 0 success, 1 computation-scope errors (validation failures,
unknown catalog names, non-nilpotent inputs), 2 usage or syntax errors.
All results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import catalog
from .algebra import (
    center,
    component_series,
    derived_subspace,
    is_nilpotent,
    lower_central_series,
    nilpotent_by_components,
    validate,
)
from .capability import epicenter, gamma
from .errors import (
    BadField,
    PresentationSyntaxError,
    SuperschurError,
    UndeclaredLabel,
)
from .fields import Field, RATIONALS
from .homology import multiplier_dimension
from .presentation import _aligned, emit_report, load
from .verifier import ScanConfig, reproduce_table1, scan


def _parse_field_flag(text: str) -> Field:
    t = text.strip()
    if t in ("Q", "q"):
        return RATIONALS
    digits = t[1:] if t.lower().startswith("f") else t
    if digits.isdigit():
        try:
            return Field(int(digits))
        except BadField as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError(f"bad field {text!r} (use Q or Fp)")


def _nonnegative(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"{text} is negative")
    return int(text)


def _common() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON document")
    common.add_argument("--field", type=_parse_field_flag, default=None,
                        help="override the field (Q or Fp, p prime >= 5)")
    common.add_argument("--quiet", action="store_true", help="suppress informational output")
    return common


def _build_parser() -> argparse.ArgumentParser:
    common = _common()
    p = argparse.ArgumentParser(prog="superschur",
                                description="Exact invariants of nilpotent Lie superalgebras")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", parents=[common],
                        help="check the graded Jacobi identity of presentation files")
    sp.add_argument("files", nargs="+", metavar="FILE")
    sp.set_defaults(run=_cmd_validate)

    sp = sub.add_parser("invariants", parents=[common],
                        help="dims, derived subalgebra, series, center, nilpotency")
    sp.add_argument("file", metavar="FILE")
    sp.set_defaults(run=_cmd_invariants)

    for name, desc, compute in (
            ("multiplier", "Schur multiplier dimension report", multiplier_dimension),
            ("capability", "epicenter and capability verdict", epicenter),
            ("gamma", "gamma defect and class match", gamma)):
        sp = sub.add_parser(name, parents=[common], help=desc)
        source = sp.add_mutually_exclusive_group(required=True)
        source.add_argument("file", nargs="?", metavar="FILE")
        source.add_argument("--catalog", dest="catalog_name", metavar="NAME",
                            help="use a built-in catalog entry")
        sp.set_defaults(run=functools.partial(_cmd_report, compute=compute))

    sp = sub.add_parser("catalog", parents=[common], help="list catalog entries")
    sp.add_argument("--tag", default=None)
    sp.set_defaults(run=_cmd_catalog)

    sp = sub.add_parser("verify-table1", parents=[common],
                        help="recompute all named multiplier dimensions")
    sp.set_defaults(run=_cmd_verify_table1)

    sp = sub.add_parser("scan", parents=[common],
                        help="stress-test the dimension bounds on generated instances")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--samples", type=_nonnegative, default=None)
    sp.add_argument("--max-dim", type=_nonnegative, nargs=2, metavar=("M", "N"), default=None)
    sp.add_argument("--depth", type=_nonnegative, default=None)
    sp.set_defaults(run=_cmd_scan)
    return p


def _load_input(args) -> "object":
    if getattr(args, "catalog_name", None):
        return catalog.get(args.catalog_name, args.field or RATIONALS)
    with open(args.file, encoding="utf-8") as fh:
        return load(fh.read(), args.field)


def _cmd_validate(args) -> int:
    results = []
    ok_all = True
    for path in args.files:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        try:
            load(text, args.field)
            results.append((path, True, []))
        except (PresentationSyntaxError, UndeclaredLabel):
            raise  # parse errors are usage-level, exit code 2
        except SuperschurError as exc:
            ok_all = False
            report = getattr(exc, "report", None)
            witnesses = [str(v) for v in report.violations] if report else [str(exc)]
            results.append((path, False, witnesses))
    if args.json:
        print(json.dumps({"files": [
            {"path": p, "ok": ok, "violations": viol} for p, ok, viol in results
        ]}, indent=2))
    else:
        for path, ok, viol in results:
            print(f"{path}: {'ok' if ok else 'INVALID'}")
            for w in viol:
                print(f"  {w}")
    return 0 if ok_all else 1


def _cmd_invariants(args) -> int:
    L = _load_input(args)
    lcs = lower_central_series(L)
    ev, od = component_series(L)
    doc = {
        "name": L.name,
        "field": str(L.field),
        "dims": str(L.dims),
        "derived": str(derived_subspace(L).dim),
        "lower central series": " > ".join(str(t.dim) for t in lcs),
        "center": str(center(L).dim),
        "nilpotent": is_nilpotent(L),
        "nilpotent by components": nilpotent_by_components(L),
        "component series lengths": f"even {len(ev)}, odd {len(od)}",
    }
    print(json.dumps(doc, indent=2) if args.json else _aligned(doc.items()))
    return 0


def _cmd_report(args, compute) -> int:
    L = _load_input(args)
    report = compute(L)
    if not args.quiet and not args.json:
        print(f"# {L.name or 'input'} {L.dims} over {L.field}")
    print(emit_report(report, "json" if args.json else "human"))
    return 0


def _cmd_catalog(args) -> int:
    entries = catalog.names(args.tag)
    if args.json:
        print(json.dumps({"names": entries}, indent=2))
    else:
        for name in entries:
            print(name)
    return 0


def _cmd_verify_table1(args) -> int:
    report = reproduce_table1()
    if args.json:
        print(json.dumps({
            "rows": [{"name": r.name, "expected": r.expected, "printed": r.printed,
                      "computed": r.computed, "passed": r.passed} for r in report.rows],
            "findings": [json.loads(f.to_json()) for f in report.findings],
        }, indent=2))
    else:
        for r in report.rows:
            mark = "pass" if r.passed else "FAIL"
            extra = "" if r.printed == r.expected else f" (printed value {r.printed})"
            print(f"{r.name:10s} computed {r.computed} expected {r.expected}"
                  f"{extra}: {mark}")
        for f in report.findings:
            print(f"finding: {f.to_json()}")
    return 0 if report.all_passed else 1


def _cmd_scan(args) -> int:
    given = {"field": args.field, "seed": args.seed, "samples": args.samples, "depth": args.depth}
    if args.max_dim:
        given["max_even"], given["max_odd"] = args.max_dim
    report = scan(ScanConfig(**{k: v for k, v in given.items() if v is not None}))
    if args.json:
        print(json.dumps({
            "summary": report.summary_lines(),
            "evaluated": report.evaluated,
            "findings": [json.loads(f.to_json()) for f in report.findings],
        }, indent=2))
    else:
        for line in report.summary_lines():
            print(line)
        for f in report.findings:
            print(f.to_json())
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (PresentationSyntaxError, UndeclaredLabel) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SuperschurError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
