"""Reproduce the quantitative catalog claims and stress-test the dimension
bounds on generated nilpotent superalgebras over F_5.

Instances are generated only by iterated central extension: start from an
abelian seed, build the tail extension, and quotient its central kernel by
a random graded complement. Every output is a nilpotent Lie superalgebra
by construction, so the scan never wastes samples on invalid tables.
"""

from __future__ import annotations

import json
import random
import time
from collections import namedtuple
from dataclasses import dataclass, field as dc_field
from types import SimpleNamespace

from .algebra import (
    GradedSubspace,
    Superalgebra,
    _line_quotient,
    center,
    derived_subspace,
    is_nilpotent,
    quotient,
    validate,
)
from .catalog import TABLE1_ORDER, abelian, entry, get
from .errors import SuperschurError
from .fields import Field
from .homology import multiplier_dimension, tail_extension
from .linalg import rref
from .presentation import load, serialize

DEFAULT_SEED = 1729


@dataclass(frozen=True)
class ScanConfig:
    field: Field = Field(5)
    max_even: int = 3
    max_odd: int = 3
    samples: int = 200
    seed: int = DEFAULT_SEED
    depth: int = 2


@dataclass(frozen=True)
class Finding:
    """A reproducible counterexample or documented discrepancy."""

    claim: str
    instance: str  # presentation text, replayable
    expected: str
    observed: str
    details: dict = dc_field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({
            "claim": self.claim, "instance": self.instance,
            "expected": self.expected, "observed": self.observed,
            "details": self.details,
        }, sort_keys=True)


def _rand_scalar(rng, fld: Field):
    if fld.is_rational:
        return fld.of(rng.randint(-3, 3))
    return fld.of(rng.randrange(fld.p))


def _kill_block(rng, fld: Field, tails: list, keep: int) -> dict:
    """Reduced echelon of a random span of all but `keep` of the unit tails.

    Rows are drawn row-major over `tails`, redrawn up to 24 times while
    their rank is short, with unit rows as the last resort.
    """
    target = len(tails) - keep
    if target == 0:
        return {}
    for _ in range(24):
        rows = [{t: _rand_scalar(rng, fld) for t in tails} for _ in range(target)]
        rr, pivots = rref(rows)
        if len(rr) == target:
            return dict(zip(pivots, rr))
    return {t: {t: fld.one} for t in tails[:target]}


def _intern(algebras: dict, L: Superalgebra) -> Superalgebra:
    """The stream's one algebra with L's content."""
    return algebras.setdefault((L.dims, L.labels, tuple(sorted(L.table.items()))), L)


def _extend_once(rng, L: Superalgebra, max_even: int, max_odd: int,
                 algebras: dict) -> Superalgebra:
    """A random central quotient of L's tail extension, interned in
    `algebras`; L itself when every tail is killed."""
    ext = tail_extension(L)
    w = ext.kernel.dim
    room0 = max_even - L.dims.even
    room1 = max_odd - L.dims.odd
    keep0 = rng.randint(0, min(w.even, room0)) if min(w.even, room0) > 0 else 0
    keep1 = rng.randint(0, min(w.odd, room1)) if min(w.odd, room1) > 0 else 0
    # the tail kernel is spanned by unit vectors at the tail coordinates
    tails = sorted(ext.kernel.echelon)
    kill = (_kill_block(rng, L.field, tails[: w.even], keep0)
            | _kill_block(rng, L.field, tails[w.even:], keep1))
    if not keep0 and not keep1:
        return L  # E modulo every tail is L again; the draws above keep rng in step
    return _intern(algebras, quotient(ext.algebra,
                                      GradedSubspace(L.field, ext.algebra.dims, kill)))


def generate_nilpotent(config: ScanConfig):
    """Deterministic stream of validated nilpotent instances within budget;
    instances of one content are renamed copies sharing one algebra's facts."""
    if config.max_even + config.max_odd == 0:
        raise SuperschurError("the dimension budget (0|0) admits no nonzero algebra")
    algebras = {}  # content -> algebra, for this stream only
    for index in range(config.samples):
        rng = random.Random(f"{config.seed}:{index}")
        m0 = rng.randint(0, config.max_even)
        n0 = rng.randint(0, config.max_odd)
        if m0 + n0 == 0:  # seed one basis vector, inside the budget
            m0, n0 = (0, 1) if config.max_odd else (1, 0)
        L = _intern(algebras, abelian(m0, n0, config.field))
        for _ in range(config.depth):
            L = _extend_once(rng, L, config.max_even, config.max_odd, algebras)
        rep = validate(L)
        if not rep.ok or not is_nilpotent(L):
            raise SuperschurError(
                f"generator produced an invalid instance at index {index}: {rep}")
        yield L.renamed(f"scan{config.seed}n{index}")


@dataclass(frozen=True)
class Table1Row:
    name: str
    expected: int
    printed: int
    computed: int
    passed: bool


@dataclass(frozen=True)
class Table1Report:
    rows: tuple
    findings: tuple

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)


def reproduce_table1() -> Table1Report:
    """Recompute every named multiplier dimension and surface the documented
    discrepancies between the printed table and the classification list."""
    rows = []
    findings = []
    for name in TABLE1_ORDER:
        e = entry(name)
        L = get(name)
        computed = multiplier_dimension(L).dim_multiplier
        if name == "(2|3)_18":
            l18, computed18 = L, computed
        rows.append(Table1Row(name, e.expected_multiplier_dim,
                              e.printed_multiplier_dim, computed,
                              computed == e.expected_multiplier_dim))
        if computed != e.printed_multiplier_dim:
            findings.append(Finding(
                claim="Table1",
                instance=serialize(L),
                expected=f"dim M = {e.printed_multiplier_dim} (printed table value)",
                observed=str(computed),
                details={
                    "name": name,
                    "note": "as printed, (2|3)_19 is mapped onto (2|3)_18 by the "
                            "basis permutation e1<->e2, f2<->f3, f1->f1, so the "
                            "two rows are isomorphic and share multiplier dimension 2",
                },
            ))
    # the gamma = 2 classification list includes (2|3)_18, which would force
    # dim M = m + 2n - 4 = 4; the computed value is 2 (matching the table)
    findings.append(Finding(
        claim="Thm2.6(iii)",
        instance=serialize(l18),
        expected="dim M = 4 (required for membership in the gamma = 2 list)",
        observed=str(computed18),
        details={"name": "(2|3)_18",
                 "note": "printed table value 2 matches the computation; the "
                         "classification-list membership is what is contradicted"},
    ))
    return Table1Report(tuple(rows), tuple(findings))


_ABELIAN_FORMULA = "(1/2)((m+n)^2 + (n-m))"

# A bound is one inequality. `holds` and `expected` read `_facts`, and a
# violation reports the fact named by `observed` (and `part`, if it has one).
Bound = namedtuple("Bound", "holds expected observed part", defaults=("dim_m", None))
# A claim is evaluated where `scope` holds, or everywhere if it is None.
Claim = namedtuple("Claim", "desc scope bounds per_line", defaults=(None, (), False))
_PRINTED = [Bound(None, None)]  # checked by reproduce_table1 against the catalog


def _gamma_scope(min_total):
    return lambda f: f.gamma is not None and f.m + f.n >= min_total


def _gamma_at_least_3(f):  # Thm 2.4 and Cor 2.7 share this inequality
    return f.gamma >= 3


# Lem 2.2 (even K) and Lem 2.3 (odd K) cap dim M(L/K) at m+2n-3-dim M(K).
_LEM = [
    Bound(lambda f: f.h2 == f.m + f.n - 3, lambda f: f"dim (L/K)^2 = {f.m + f.n - 3}",
          "h2", lambda f: "derived"),
    Bound(lambda f: (f.dim_mh in (1, 2) if f.m + f.n == 4
                     else f.dim_mh <= f.m + 2 * f.n - 3 - f.dim_mk),
          lambda f: ("dim M(L/K) in {1, 2}" if f.m + f.n == 4
                     else f"dim M(L/K) <= {f.m + 2 * f.n - 3 - f.dim_mk}"), "dim_mh",
          lambda f: ("m+n=4" if f.m + f.n == 4 else "m+n>=5" if f.even
                     else "n=1" if f.n == 1 else "n>=2")),
]

# In gamma scope (derived codim 2, m+n >= 4, n >= 1) every instance-level
# bound is a threshold on gamma = m+2n-2-dim M.
_TABLE = {
    "Thm1.2": Claim("abelian iff the multiplier reaches " + _ABELIAN_FORMULA, None, [Bound(
        lambda f: f.dim_m == f.cap if f.abelian else f.dim_m < f.cap,
        lambda f: f"dim M {'=' if f.abelian else '<'} {f.cap}")]),
    "Thm1.4": Claim(
        "dim M <= m+2n-2, i.e. gamma >= 0 (dim M in {1,2} when m+n = 3) at derived codim 2",
        lambda f: f.gamma is not None or f.m + f.n == 3 and f.d2 == 1, [Bound(
            lambda f: f.dim_m in (1, 2) if f.m + f.n == 3 else f.gamma >= 0,
            lambda f: "dim M in {1, 2}" if f.m + f.n == 3 else f"dim M <= {f.m + 2 * f.n - 2}")]),
    "Thm2.3": Claim("dim M < m+2n-3 at derived codim 2, m+n >= 4, n >= 1, i.e. gamma >= 2",
                    _gamma_scope(4), [Bound(lambda f: f.gamma >= 2,
                                            lambda f: f"dim M < {f.m + 2 * f.n - 3}")]),
    "Thm2.6(i)": Claim("no instance in scope has gamma = 0", _gamma_scope(4),
                       [Bound(lambda f: f.gamma != 0, lambda f: "gamma >= 2", "gamma")]),
    "Thm2.6(ii)": Claim("no instance in scope has gamma = 1", _gamma_scope(4),
                        [Bound(lambda f: f.gamma != 1, lambda f: "gamma >= 2", "gamma")]),
    "Thm2.4": Claim("dim M < m+2n-4 at derived codim 2, m+n >= 6, n >= 1; as Cor2.7: gamma >= 3",
                    _gamma_scope(6), [Bound(_gamma_at_least_3,
                                            lambda f: f"dim M < {f.m + 2 * f.n - 4}")]),
    "Cor2.7": Claim("dim M <= m+2n-5 at derived codim 2, m+n >= 6, n >= 1; as Thm2.4: gamma >= 3",
                    _gamma_scope(6), [Bound(_gamma_at_least_3,
                                            lambda f: f"dim M <= {f.m + 2 * f.n - 5}")]),
    "Thm1.3i": Claim(
        "dim M(L) + dim(L^2 meet K) <= dim M(L/K) + dim M(K) + dim(H/H^2 x K)", None, [Bound(
            lambda f: f.lhs <= f.dim_mh + f.dim_mk + f.tensor,
            lambda f: (f"{f.lhs} <= dim M(L/K) + dim M(K) + dim tensor "
                       f"= {f.dim_mh} + {f.dim_mk} + {f.tensor}"), "lhs")], per_line=True),
    "Thm1.3ii": Claim("dim M(L) + dim(L^2 meet K) <= " + _ABELIAN_FORMULA, None, [Bound(
        lambda f: f.lhs <= f.cap, lambda f: f"{f.lhs} <= {f.cap}", "lhs")], per_line=True),
    "Lem2.2": Claim("quotient bounds for a (1|0) central line inside L^2",
                    lambda f: f.gamma is not None and f.in_l2 and f.even, _LEM, per_line=True),
    "Lem2.3": Claim("quotient bounds for a (0|1) central line inside L^2",
                    lambda f: f.gamma is not None and f.in_l2 and not f.even, _LEM, per_line=True),
    "Table1": Claim("printed multiplier dimension of a named catalog row", bounds=_PRINTED),
    "Thm2.6(iii)": Claim("membership in the printed gamma = 2 classification list",
                         bounds=_PRINTED),
}

_SCANNED = [(claim, c) for claim, c in _TABLE.items() if c.bounds is not _PRINTED]


def _facts(L: Superalgebra, v=None) -> SimpleNamespace:
    """What the claims read of L, and of its central line K = <v> if given,
    v a reduced echelon row of the center."""
    rep = multiplier_dimension(L)
    m, n = L.dims.even, L.dims.odd
    f = SimpleNamespace(m=m, n=n, d2=rep.dim_derived, dim_m=rep.dim_multiplier,
                        gamma=rep.gamma, abelian=L.is_abelian(),
                        cap=((m + n) ** 2 + (n - m)) // 2, details={})
    if v is not None:
        f.even, h = _line_quotient(L, tuple(v))
        f.in_l2 = 1 if derived_subspace(L).contains_vector(v) else 0
        f.h2 = derived_subspace(h).dim.total
        f.dim_mh = multiplier_dimension(h).dim_multiplier
        f.dim_mk = 0 if f.even else 1
        f.tensor = h.dims.total - f.h2
        f.lhs = f.dim_m + f.in_l2
        f.details = {"kernel": [str(c) for c in v],
                     "kernel_parity": "even" if f.even else "odd"}
    return f


def _check(instances) -> tuple[list, dict]:
    """Findings, and per claim the instances (or central lines) in scope.
    Each distinct inequality is evaluated once per instance or line, and
    reported under every claim in scope that it settles."""
    findings = []
    evaluated = {claim: 0 for claim, _ in _SCANNED}
    for L in instances:
        failed = []
        for g in [_facts(L)] + [_facts(L, v) for v in center(L).full_vectors()]:
            verdicts = {}
            for claim, c in _SCANNED:
                if c.per_line != ("kernel" in g.details) or c.scope and not c.scope(g):
                    continue
                evaluated[claim] += 1
                for b in c.bounds:
                    if b.holds not in verdicts:
                        verdicts[b.holds] = b.holds(g)
                    if not verdicts[b.holds]:
                        failed.append((g, claim, b))
        ser = serialize(L) if failed else None
        for g, claim, b in failed:
            details = g.details | ({"part": b.part(g)} if b.part else {})
            findings.append(Finding(claim, ser, b.expected(g),
                                    str(getattr(g, b.observed)), details))
    return findings, evaluated


def check_bounds(instances) -> list[Finding]:
    """Evaluate every applicable bound on each instance; violations only."""
    return _check(instances)[0]


@dataclass(frozen=True)
class ScanReport:
    config: ScanConfig
    instance_count: int
    gamma_checked: int
    gamma_skipped: int
    findings: tuple
    elapsed: float
    evaluated: dict  # claim -> instances (central lines, if per line) in scope

    def summary_lines(self) -> list[str]:
        cfg = self.config
        return [
            f"scan over {cfg.field}, {cfg.samples} samples, "
            f"dims <= ({cfg.max_even}|{cfg.max_odd}), seed {cfg.seed}, depth {cfg.depth}",
            f"instances generated   {self.instance_count}",
            f"gamma in scope        {self.gamma_checked}",
            f"gamma out of scope    {self.gamma_skipped}",
            f"findings              {len(self.findings)}",
            f"elapsed (s)           {self.elapsed:.2f}",
        ]


def scan(config: ScanConfig | None = None) -> ScanReport:
    """Check every claim's bounds on the generated instances."""
    cfg = config or ScanConfig()
    t0 = time.perf_counter()
    findings, evaluated = _check(generate_nilpotent(cfg))
    # Thm 1.2 is evaluated on every instance, Thm 2.3 on the gamma scope
    count, checked = evaluated["Thm1.2"], evaluated["Thm2.3"]
    return ScanReport(cfg, count, checked, count - checked,
                      tuple(findings), time.perf_counter() - t0, evaluated)


def replay(finding: Finding) -> str:
    """Recompute the observed value of a Finding from its serialized instance."""
    c = _TABLE.get(finding.claim)
    if c is None:
        raise SuperschurError(f"cannot replay claim {finding.claim!r}")
    L = load(finding.instance)
    v = [L.field.of(x) for x in finding.details["kernel"]] if c.per_line else None
    f = _facts(L, v)
    part = finding.details.get("part")
    for b in c.bounds:
        if (b.part(f) if b.part else None) == part:
            return str(getattr(f, b.observed))
    raise SuperschurError(f"cannot replay part {part!r} of claim {finding.claim!r}")
