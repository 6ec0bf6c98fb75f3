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
from dataclasses import dataclass, field as dc_field

from .algebra import (
    GradedSubspace,
    Superalgebra,
    center,
    derived_subspace,
    is_nilpotent,
    quotient,
    validate,
)
from .capability import verify_no_low_gamma
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


def _random_full_rank(rng, fld: Field, ambient: int, target: int):
    """target x ambient rref rows spanning a random target-dim subspace."""
    if target == 0:
        return []
    for _ in range(24):
        rows = [[_rand_scalar(rng, fld) for _ in range(ambient)] for _ in range(target)]
        rr, _ = rref(rows)
        if len(rr) == target:
            return list(rr)
    one, z = fld.one, fld.zero
    return [[one if c == r else z for c in range(ambient)] for r in range(target)]


def _extend_once(rng, L: Superalgebra, max_even: int, max_odd: int) -> Superalgebra:
    ext = tail_extension(L)
    E = ext.algebra
    w = ext.kernel.dim
    room0 = max_even - L.dims.even
    room1 = max_odd - L.dims.odd
    keep0 = rng.randint(0, min(w.even, room0)) if min(w.even, room0) > 0 else 0
    keep1 = rng.randint(0, min(w.odd, room1)) if min(w.odd, room1) > 0 else 0
    kill_even = _random_full_rank(rng, L.field, w.even, w.even - keep0)
    kill_odd = _random_full_rank(rng, L.field, w.odd, w.odd - keep1)
    # the tail kernel is spanned by unit vectors at the tail coordinates
    tails = sorted(ext.kernel.echelon)
    vecs = []
    for kill, block in ((kill_even, tails[: w.even]), (kill_odd, tails[w.even:])):
        for row in kill:
            v = [L.field.zero] * E.dims.total
            for coeff, k in zip(row, block):
                v[k] = coeff
            vecs.append(v)
    return quotient(E, GradedSubspace.from_vectors(L.field, E.dims, vecs))


def generate_nilpotent(config: ScanConfig):
    """Deterministic stream of validated nilpotent instances within budget."""
    for index in range(config.samples):
        rng = random.Random(f"{config.seed}:{index}")
        m0 = rng.randint(0, config.max_even)
        n0 = rng.randint(0, config.max_odd)
        if m0 + n0 == 0:
            n0 = 1
        L = abelian(m0, n0, config.field)
        for _ in range(config.depth):
            L = _extend_once(rng, L, config.max_even, config.max_odd)
        L = Superalgebra(L.field, L.dims, L.labels, L.table,
                         name=f"scan{config.seed}n{index}")
        rep = validate(L)
        if not rep.ok or not is_nilpotent(L):
            raise SuperschurError(
                f"generator produced an invalid instance at index {index}: {rep}")
        yield L


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
    l18 = get("(2|3)_18")
    computed18 = multiplier_dimension(l18).dim_multiplier
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


def _center_lines(L: Superalgebra):
    zc = center(L)
    for v in zc.full_vectors():
        yield GradedSubspace.from_vectors(L.field, L.dims, [v]), v


_ABELIAN_FORMULA = "(1/2)((m+n)^2 + (n-m))"

CLAIMS = {
    "Thm1.2": "abelian iff the multiplier reaches " + _ABELIAN_FORMULA,
    "Thm1.4": "dim M <= m+2n-2 (and in {1,2} when m+n = 3) at derived codim 2",
    "Thm2.3": "dim M < m+2n-3 at derived codim 2, m+n >= 4, n >= 1",
    "Thm2.4": "dim M < m+2n-4 at derived codim 2, m+n >= 6, n >= 1",
    "Cor2.7": "dim M <= m+2n-5 at derived codim 2, m+n >= 6, n >= 1",
    "Thm1.3i": "dim M(L) + dim(L^2 meet K) <= dim M(L/K) + dim M(K) + dim(H/H^2 x K)",
    "Thm1.3ii": "dim M(L) + dim(L^2 meet K) <= " + _ABELIAN_FORMULA,
    "Lem2.2": "quotient bounds for a (1|0) central line inside L^2",
    "Lem2.3": "quotient bounds for a (0|1) central line inside L^2",
    "Thm2.6(i)": "no instance in scope has gamma = 0",
    "Thm2.6(ii)": "no instance in scope has gamma = 1",
    "Table1": "printed multiplier dimension of a named catalog row",
    "Thm2.6(iii)": "membership in the printed gamma = 2 classification list",
}


def check_bounds(instances) -> list[Finding]:
    """Evaluate every applicable bound on each instance; violations only."""
    findings = []
    for L in instances:
        findings.extend(_check_one(L))
    return findings


def _check_one(L: Superalgebra) -> list[Finding]:
    out = []
    m, n = L.dims.even, L.dims.odd
    rep = multiplier_dimension(L)
    dim_m = rep.dim_multiplier
    d2 = rep.dim_derived
    abelian_cap = ((m + n) ** 2 + (n - m)) // 2
    ser = None

    def emit(claim, expected, observed, **details):
        nonlocal ser
        if ser is None:
            ser = serialize(L)
        out.append(Finding(claim=claim, instance=ser, expected=expected,
                           observed=str(observed), details=details))

    if L.is_abelian():
        if dim_m != abelian_cap:
            emit("Thm1.2", f"dim M = {abelian_cap}", dim_m)
    elif dim_m >= abelian_cap:
        emit("Thm1.2", f"dim M < {abelian_cap}", dim_m)

    codim2 = d2 == m + n - 2
    if not L.is_abelian() and codim2:
        if m + n == 3 and dim_m not in (1, 2):
            emit("Thm1.4", "dim M in {1, 2}", dim_m)
        if m + n >= 4 and n >= 1 and dim_m > m + 2 * n - 2:
            emit("Thm1.4", f"dim M <= {m + 2 * n - 2}", dim_m)
    if codim2 and m + n >= 4 and n >= 1 and dim_m >= m + 2 * n - 3:
        emit("Thm2.3", f"dim M < {m + 2 * n - 3}", dim_m)
    if codim2 and m + n >= 6 and n >= 1:
        if dim_m >= m + 2 * n - 4:
            emit("Thm2.4", f"dim M < {m + 2 * n - 4}", dim_m)
        if dim_m > m + 2 * n - 5:
            emit("Cor2.7", f"dim M <= {m + 2 * n - 5}", dim_m)

    l2 = derived_subspace(L)
    for k_sub, k_vec in _center_lines(L):
        k_par = "even" if k_sub.dim.even == 1 else "odd"
        k_coords = [str(c) for c in k_vec]
        h = quotient(L, k_sub)
        rep_h = multiplier_dimension(h)
        dim_mh = rep_h.dim_multiplier
        k_in_l2 = 1 if l2.contains_vector(k_vec) else 0
        dim_mk = 0 if k_par == "even" else 1
        h2 = derived_subspace(h).dim.total
        tensor = (h.dims.total - h2) * 1
        lhs = dim_m + k_in_l2
        if lhs > dim_mh + dim_mk + tensor:
            emit("Thm1.3i", f"{lhs} <= dim M(L/K) + dim M(K) + dim tensor "
                            f"= {dim_mh} + {dim_mk} + {tensor}", lhs,
                 kernel=k_coords, kernel_parity=k_par)
        if lhs > abelian_cap:
            emit("Thm1.3ii", f"{lhs} <= {abelian_cap}", lhs,
                 kernel=k_coords, kernel_parity=k_par)
        if codim2 and m + n >= 4 and n >= 1 and k_in_l2:
            claim = "Lem2.2" if k_par == "even" else "Lem2.3"
            if h2 != m + n - 3:
                emit(claim, f"dim (L/K)^2 = {m + n - 3}", h2,
                     kernel=k_coords, kernel_parity=k_par, part="derived")
            if m + n == 4:
                if dim_mh not in (1, 2):
                    emit(claim, "dim M(L/K) in {1, 2}", dim_mh,
                         kernel=k_coords, kernel_parity=k_par, part="m+n=4")
            elif k_par == "even":
                if dim_mh > m + 2 * n - 3:
                    emit(claim, f"dim M(L/K) <= {m + 2 * n - 3}", dim_mh,
                         kernel=k_coords, kernel_parity=k_par, part="m+n>=5")
            elif n == 1:
                if dim_mh > m - 2:
                    emit(claim, f"dim M(L/K) <= {m - 2}", dim_mh,
                         kernel=k_coords, kernel_parity=k_par, part="n=1")
            else:
                if dim_mh > m + 2 * n - 4:
                    emit(claim, f"dim M(L/K) <= {m + 2 * n - 4}", dim_mh,
                         kernel=k_coords, kernel_parity=k_par, part="n>=2")
    return out


@dataclass(frozen=True)
class ScanReport:
    config: ScanConfig
    instance_count: int
    gamma_checked: int
    gamma_skipped: int
    findings: tuple
    elapsed: float

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
    """Run the default stress scan: bounds plus the low-gamma sweep."""
    cfg = config or ScanConfig()
    t0 = time.perf_counter()
    instances = list(generate_nilpotent(cfg))
    findings = check_bounds(instances)
    low = verify_no_low_gamma(instances)
    for name, g in low.offenders:
        inst = next(x for x in instances if x.name == name)
        findings.append(Finding(
            claim="Thm2.6(i)" if g == 0 else "Thm2.6(ii)",
            instance=serialize(inst),
            expected="gamma >= 2", observed=str(g),
        ))
    skipped = sum(1 for e in low.entries if e.skipped is not None)
    return ScanReport(cfg, len(instances), low.checked, skipped,
                      tuple(findings), time.perf_counter() - t0)


def replay(finding: Finding) -> str:
    """Recompute the observed value of a Finding from its serialized instance."""
    L = load(finding.instance)
    claim = finding.claim
    if claim in ("Table1", "Thm2.6(iii)", "Thm1.2", "Thm1.4", "Thm2.3", "Thm2.4", "Cor2.7"):
        return str(multiplier_dimension(L).dim_multiplier)
    if claim in ("Thm2.6(i)", "Thm2.6(ii)"):
        return str(multiplier_dimension(L).gamma)
    if claim in ("Thm1.3i", "Thm1.3ii"):
        k = _kernel_from_details(L, finding)
        rep = multiplier_dimension(L)
        k_in = 1 if derived_subspace(L).contains_vector(k.full_vectors()[0]) else 0
        return str(rep.dim_multiplier + k_in)
    if claim in ("Lem2.2", "Lem2.3"):
        k = _kernel_from_details(L, finding)
        h = quotient(L, k)
        if finding.details.get("part") == "derived":
            return str(derived_subspace(h).dim.total)
        return str(multiplier_dimension(h).dim_multiplier)
    raise SuperschurError(f"cannot replay claim {claim!r}")


def _kernel_from_details(L: Superalgebra, finding: Finding) -> GradedSubspace:
    coords = [L.field.of(c) for c in finding.details["kernel"]]
    return GradedSubspace.from_vectors(L.field, L.dims, [coords])
