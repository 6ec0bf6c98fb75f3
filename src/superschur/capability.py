"""Capability via the epicenter of the tail extension, the monomorphism
dimension criterion, and the gamma defect invariant.

A central element x lies in the epicenter exactly when its canonical lift
commutes with the whole tail extension, i.e. when for every basis index j
the tail vector sum_i x_i s(i, j) falls inside the relation span. Every
verdict is cross-checked against the independent dimension criterion

    K inside Z*(L)  <=>  dim M(L) = dim M(L/K) - dim(K meet L^2)

on each basis-aligned central line; any disagreement raises CrossCheckError.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .algebra import (
    GradedSubspace,
    Superalgebra,
    _line_quotient,
    center,
    derived_subspace,
    is_nilpotent,
)
from .errors import CrossCheckError, NotCentral, NotNilpotent, WrongDimension
from .homology import (
    MultiplierReport,
    PairSpace,
    _tail_residues,
    multiplier_dimension,
)
from .linalg import nullspace


def mono_criterion(L: Superalgebra, K: GradedSubspace) -> bool:
    """Dimension form of the monomorphism test for a central graded line K.

    True means K sits inside the epicenter (the multiplier survives the
    quotient by K unchanged up to the K-part of L^2).
    """
    if K.dim.total != 1:
        raise WrongDimension(f"K must be one-dimensional, got {K.dim}")
    if not center(L).contains(K):
        raise NotCentral("K is not contained in the center")
    m_l = multiplier_dimension(L).dim_multiplier
    _, h = _line_quotient(L, K.full_vectors()[0])
    m_h = multiplier_dimension(h).dim_multiplier
    k_in_sq = 1 if derived_subspace(L).contains(K) else 0
    return m_l == m_h - k_in_sq


@dataclass(frozen=True)
class GeneratorCheck:
    """Cross-check record for one basis-aligned central line."""

    description: str
    mono: bool
    in_epicenter: bool


@dataclass(frozen=True)
class EpicenterReport:
    epicenter: GradedSubspace
    capable: bool
    per_generator: tuple


def _epicenter_subspace(L: Superalgebra) -> GradedSubspace:
    """Solved on the center: x = sum_z c_z z over Z(L)'s echelon rows, so
    only the lift condition is imposed, on c. Each row of it involves one
    parity block of Z(L), so each kernel vector maps to a homogeneous x."""
    ps = PairSpace.of(L)
    _, residues = _tail_residues(L)
    zs = list(center(L).echelon.values())
    rows = []
    # lift condition: sum_i x_i s(i, j) reduces to zero modulo the relations,
    # one equation in c per free tail, each j
    for j in range(L.dims.total):
        by_tail = {}
        for z, row in enumerate(zs):
            for i, x in row.items():
                t = ps.signed_tail(L, i, j)
                if t is not None:
                    idx, s = t
                    for k, c in residues[idx].items():
                        eq = by_tail.setdefault(k, {})
                        eq[z] = eq.get(z, L.field.zero) + (x * c if s == 1 else -(x * c))
        rows.extend(by_tail.values())
    basis = [[sum((c * row[k] for c, row in zip(cs, zs) if c and k in row), L.field.zero)
              for k in range(L.dims.total)] for cs in nullspace(rows, len(zs), L.field)]
    return GradedSubspace.from_vectors(L.field, L.dims, basis)


def epicenter(L: Superalgebra) -> EpicenterReport:
    """Epicenter with built-in double reporting.

    Each homogeneous basis vector of the center spans a graded central
    line; for each one the monomorphism criterion must match membership in
    the computed epicenter, otherwise CrossCheckError is raised.
    """
    if not is_nilpotent(L):
        raise NotNilpotent(f"{L} is not nilpotent")
    epi = _epicenter_subspace(L)
    zc = center(L)
    checks = []
    for v in zc.full_vectors():
        k = GradedSubspace.from_vectors(L.field, L.dims, [v])
        mono = mono_criterion(L, k)
        member = epi.contains_vector(v)
        desc = _describe_line(L, v)
        if mono != member:
            raise CrossCheckError(
                f"criteria disagree on {desc} of {L.name or L}: "
                f"mono={mono}, epicenter membership={member}"
            )
        checks.append(GeneratorCheck(desc, mono, member))
    return EpicenterReport(epi, epi.dim.total == 0, tuple(checks))


def _describe_line(L: Superalgebra, v) -> str:
    terms = []
    for i, c in enumerate(v):
        if c:
            terms.append(L.label(i) if c == L.field.one else f"{c}*{L.label(i)}")
    return "<" + " + ".join(terms) + ">"


@dataclass(frozen=True)
class GammaVerdict:
    class_match: str | None
    report: MultiplierReport

    @property
    def gamma(self) -> int | None:
        return self.report.gamma

    @property
    def in_scope(self) -> bool:
        return self.report.gamma is not None


def fingerprint(L: Superalgebra) -> tuple:
    """Invariant fingerprint: superdims of L, L^2 and Z(L), dim M, gamma."""
    rep = multiplier_dimension(L)
    d = derived_subspace(L).dim
    zc = center(L).dim
    return (L.dims.even, L.dims.odd, d.even, d.odd, zc.even, zc.odd,
            rep.dim_multiplier, rep.gamma)


@functools.cache
def _class_fingerprints() -> dict:
    from .catalog import get, names

    return {name: fingerprint(get(name)) for name in names("gamma2-list")}


def gamma(L: Superalgebra) -> GammaVerdict:
    """Gamma defect with a fingerprint match against the named gamma = 2 list."""
    if not is_nilpotent(L):
        raise NotNilpotent(f"{L} is not nilpotent")
    rep = multiplier_dimension(L)
    match = None
    if rep.gamma is not None:
        fp = fingerprint(L)
        for name, ref in _class_fingerprints().items():
            if fp == ref:
                match = name
                break
    return GammaVerdict(match, rep)


@dataclass(frozen=True)
class LowGammaEntry:
    name: str
    gamma: int | None
    skipped: str | None


@dataclass(frozen=True)
class LowGammaScan:
    entries: tuple
    offenders: tuple  # (name, gamma) with gamma in {0, 1}

    @property
    def checked(self) -> int:
        return sum(1 for e in self.entries if e.skipped is None)


def verify_no_low_gamma(instances) -> LowGammaScan:
    """Assert gamma >= 2 over the given instances.

    Out-of-scope instances are recorded as skipped with a reason; gamma in
    {0, 1} occurrences are collected as offenders (findings against the
    classification statements), never raised.
    """
    entries = []
    offenders = []
    for L in instances:
        name = L.name or str(L)
        if not is_nilpotent(L):
            entries.append(LowGammaEntry(name, None, "not nilpotent"))
            continue
        rep = multiplier_dimension(L)
        if rep.gamma is None:
            m, n = L.dims.even, L.dims.odd
            reason = (f"out of scope: dim L^2 = {rep.dim_derived} != {m + n - 2}"
                      if m + n >= 4 and n >= 1 else
                      f"out of scope: total dim {m + n} < 4 or no odd part")
            entries.append(LowGammaEntry(name, None, reason))
            continue
        entries.append(LowGammaEntry(name, rep.gamma, None))
        if rep.gamma in (0, 1):
            offenders.append((name, rep.gamma))
    return LowGammaScan(tuple(entries), tuple(offenders))
