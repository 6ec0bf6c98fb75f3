"""Lie superalgebras by graded structure constants, with exact arithmetic.

A superalgebra here is a finite homogeneous basis (even vectors first,
then odd), together with a table of brackets on canonical index pairs:

    even-even  (i, j) with i < j        target in the even block
    even-odd   (i, j), i even, j odd    target in the odd block
    odd-odd    (i, j) with i <= j       target in the even block

The full bilinear bracket is the super-skew completion,
[y, x] = -(-1)^{|x||y|} [x, y]; odd-odd brackets are symmetric and the
even diagonal is forced to zero. The graded Jacobi identity is used in
its adjoint-derivation form

    [x, [y, z]] = [[x, y], z] + (-1)^{|x||y|} [y, [x, z]].
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field

from .errors import (
    ConflictingEntry,
    DimensionMismatch,
    EvenDiagonal,
    FieldMismatch,
    GradingViolation,
    NotAnIdeal,
    NotGraded,
)
from .fields import Field
from .linalg import _sparse, nullspace, reduce_vector, rref, zero_vector

EVEN = 0
ODD = 1


@dataclass(frozen=True)
class SuperDim:
    even: int
    odd: int

    @property
    def total(self) -> int:
        return self.even + self.odd

    def __str__(self):
        return f"({self.even}|{self.odd})"


def default_labels(dims: SuperDim) -> list[str]:
    return [f"e{i + 1}" for i in range(dims.even)] + [f"f{j + 1}" for j in range(dims.odd)]


def _sign(pi: int, pj: int) -> int:
    """Super-skew flip sign: [y,x] = sign * [x,y] for |x| = pi, |y| = pj."""
    return 1 if (pi and pj) else -1


def complete_table(field: Field, dims: SuperDim, entries) -> dict:
    """Canonicalize sparse bracket input into the table of nonzero
    canonical entries, pair (i, j) -> coordinate tuple.

    Pairs listed in the wrong order are rewritten with the super-skew
    sign; duplicates must agree; targets must respect the grading.
    """
    m, total = dims.even, dims.total

    def parity(i):
        return EVEN if i < m else ODD

    seen: dict = {}
    for (i, j), coords in entries:
        if not (0 <= i < total and 0 <= j < total):
            raise DimensionMismatch(f"basis index out of range in pair ({i}, {j})")
        coords = tuple(field.of(c) for c in coords)
        if len(coords) != total:
            raise DimensionMismatch(f"target vector for ({i}, {j}) has length {len(coords)}")
        pi, pj = parity(i), parity(j)
        if i == j and pi == EVEN:
            if any(coords):
                raise EvenDiagonal(f"[{i}, {i}] must vanish for an even basis vector")
            continue
        if i > j:  # evens come first, so index order is canonical order
            s = field.of(_sign(pi, pj))
            i, j = j, i
            coords = tuple(s * c for c in coords)
        block = (pi + pj) % 2
        for k, c in enumerate(coords):
            if c and parity(k) != block:
                raise GradingViolation(
                    f"[{i}, {j}] has parity-{block} defect at coordinate {k}"
                )
        if (i, j) in seen:
            if seen[(i, j)] != coords:
                raise ConflictingEntry(f"pair ({i}, {j}) given twice with different values")
            continue
        seen[(i, j)] = coords
    return {p: v for p, v in seen.items() if any(v)}


@dataclass(frozen=True)
class Superalgebra:
    """A Lie superalgebra by its bracket table and its basis labels.

    Invariants are memoized on the instance (see `_per_algebra`), so the
    table must never be mutated after construction.
    """

    field: Field
    dims: SuperDim
    labels: tuple
    table: dict
    name: str = ""
    _facts: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_entries(cls, field, dims, entries, name="", labels=None) -> "Superalgebra":
        labels = list(labels) if labels is not None else default_labels(dims)
        if len(labels) != dims.total or len(set(labels)) != dims.total:
            raise DimensionMismatch("need one distinct label per basis vector")
        return cls(field, dims, tuple(labels), complete_table(field, dims, entries), name)

    def parity(self, i: int) -> int:
        return EVEN if i < self.dims.even else ODD

    def label(self, i: int) -> str:
        return self.labels[i]

    def bracket_basis(self, i: int, j: int):
        """[b_i, b_j] as a dense coordinate tuple (signed canonical lookup)."""
        if i > j:
            entry = self.table.get((j, i))
            if entry is None:
                return None
            s = self.field.of(_sign(self.parity(i), self.parity(j)))
            return tuple(s * c for c in entry)
        return self.table.get((i, j))

    def active_indices(self) -> list[int]:
        """Indices whose adjoint action is not identically zero."""
        act = set()
        for (i, j) in self.table:
            act.add(i)
            act.add(j)
        return sorted(act)

    def is_abelian(self) -> bool:
        return len(self.table) == 0

    def renamed(self, name: str) -> "Superalgebra":
        """This algebra under another name, sharing its memoized facts,
        which depend on the content alone."""
        twin = Superalgebra(self.field, self.dims, self.labels, self.table, name)
        object.__setattr__(twin, "_facts", self._facts)
        return twin

    def __str__(self):
        return f"{self.name or 'superalgebra'} {self.dims} over {self.field}"


def _per_algebra(fn):
    """Memoize fn(L, *key) on L itself, so the result lives exactly as long
    as L; the extra arguments must be hashable.

    This is the only cache of facts about an algebra. Each miss calls the
    wrapper's `__wrapped__`, looked up at call time, so a test can count
    how often a fact is actually computed.
    """
    @functools.wraps(fn)
    def cached(L, *key):
        facts, key = L._facts, (fn.__name__, *key)
        if key not in facts:
            facts[key] = cached.__wrapped__(L, *key[1:])
        return facts[key]
    return cached


def bracket(L: Superalgebra, x, y) -> list:
    """Bilinear super-skew extension of the table to coordinate vectors."""
    total = L.dims.total
    if len(x) != total or len(y) != total:
        raise DimensionMismatch("bracket arguments must have full length")
    out = zero_vector(L.field, total)
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            t = L.bracket_basis(i, j)
            if t is None:
                continue
            c = xi * yj
            for k, v in enumerate(t):
                if v:
                    out[k] = out[k] + c * v
    return out


@dataclass(frozen=True)
class JacobiViolation:
    triple: tuple
    labels: tuple
    lhs: tuple
    rhs: tuple

    def __str__(self):
        x, y, z = self.labels
        return (f"Jacobi fails at ({x}, {y}, {z}): "
                f"[{x},[{y},{z}]] = {list(self.lhs)} but "
                f"[[{x},{y}],{z}] + sign*[{y},[{x},{z}]] = {list(self.rhs)}")


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple

    def __str__(self):
        if self.ok:
            return "ok"
        return "; ".join(str(v) for v in self.violations)


@_per_algebra
def validate(L: Superalgebra) -> ValidationReport:
    """Check the graded Jacobi identity on all basis triples.

    Triples containing an index with identically zero adjoint action are
    skipped: every term of the defect then contains a vanishing bracket.
    """
    act = L.active_indices()
    total = L.dims.total
    violations = []
    zero = L.field.zero

    def term(acc, inner, outer, left, sgn=None):
        """acc += sgn * [outer, inner] if `left`, else sgn * [inner, outer],
        summed over the coordinates b_l of the inner bracket's value."""
        for l, c in enumerate(inner or ()):
            if c:
                u = L.bracket_basis(outer, l) if left else L.bracket_basis(l, outer)
                if u is not None:
                    if sgn is not None:
                        c = sgn * c
                    for k, v in enumerate(u):
                        if v:
                            acc[k] = acc[k] + c * v

    for x in act:
        px = L.parity(x)
        for y in act:
            sgn = L.field.of(-1) if (px and L.parity(y)) else L.field.one
            xy = L.bracket_basis(x, y)
            for z in act:
                lhs, rhs = [zero] * total, [zero] * total
                term(lhs, L.bracket_basis(y, z), x, True)
                term(rhs, xy, z, False)
                term(rhs, L.bracket_basis(x, z), y, True, sgn)
                if lhs != rhs:
                    violations.append(JacobiViolation(
                        (x, y, z),
                        (L.label(x), L.label(y), L.label(z)),
                        tuple(lhs), tuple(rhs),
                    ))
    return ValidationReport(not violations, tuple(violations))


@dataclass(frozen=True)
class GradedSubspace:
    """A graded subspace in canonical form: its reduced row echelon basis
    {pivot column: {column: scalar}} over all m+n coordinates.

    Every spanning vector is homogeneous, so no row mixes the even and odd
    blocks. Reduced form is unique, so equality of subspaces is dataclass
    equality.
    """

    field: Field
    dims: SuperDim
    echelon: dict

    @classmethod
    def from_vectors(cls, field, dims, vectors) -> "GradedSubspace":
        m = dims.even
        rows = []
        for v in vectors:
            if len(v) != dims.total:
                raise DimensionMismatch("subspace vector has wrong length")
            row = _sparse(v)
            if row and (min(row) < m) != (max(row) < m):
                raise NotGraded(f"vector {list(v)} is not parity homogeneous")
            rows.append(row)
        return cls._span(field, dims, rows)

    @classmethod
    def _span(cls, field, dims, rows) -> "GradedSubspace":
        """The span of homogeneous sparse rows."""
        pivot_rows, pivots = rref(rows)
        return cls(field, dims, dict(zip(pivots, pivot_rows)))

    @classmethod
    def full(cls, field, dims) -> "GradedSubspace":
        return cls(field, dims, {k: {k: field.one} for k in range(dims.total)})

    @property
    def dim(self) -> SuperDim:
        even = sum(1 for c in self.echelon if c < self.dims.even)
        return SuperDim(even, len(self.echelon) - even)

    def is_zero(self) -> bool:
        return not self.echelon

    def full_vectors(self) -> list[tuple]:
        """Basis vectors in full (m+n)-coordinates, in pivot order (evens first)."""
        z = self.field.zero
        return [tuple(self.echelon[c].get(k, z) for k in range(self.dims.total))
                for c in sorted(self.echelon)]

    def contains_vector(self, v) -> bool:
        return not reduce_vector(v, self.echelon)

    def contains(self, other: "GradedSubspace") -> bool:
        return all(self.contains_vector(row) for row in other.echelon.values())


def product_subspace(L: Superalgebra, a: GradedSubspace, b: GradedSubspace) -> GradedSubspace:
    """Span of all brackets [a_i, b_j]; the square bracket on subspaces."""
    if a.dims != L.dims or b.dims != L.dims:
        raise DimensionMismatch("subspace does not live in this superalgebra")
    vecs = []
    bv = b.full_vectors()
    for u in a.full_vectors():
        for v in bv:
            w = bracket(L, u, v)
            if any(w):
                vecs.append(w)
    return GradedSubspace.from_vectors(L.field, L.dims, vecs)


@_per_algebra
def derived_subspace(L: Superalgebra) -> GradedSubspace:
    """L^2, the span of the table's values (each one is homogeneous)."""
    return GradedSubspace.from_vectors(L.field, L.dims, L.table.values())


def _descending(L: Superalgebra, acting: GradedSubspace, series: list) -> list:
    """`series` extended by [acting, last term] until two terms agree."""
    while (nxt := product_subspace(L, acting, series[-1])) != series[-1]:
        series.append(nxt)
    return series


@_per_algebra
def lower_central_series(L: Superalgebra) -> tuple[GradedSubspace, ...]:
    """C^0 = L, C^1 = L^2, C^{i+1} = [L, C^i]; stops when two consecutive
    terms agree."""
    full = GradedSubspace.full(L.field, L.dims)
    d = derived_subspace(L)
    return (full,) if d == full else tuple(_descending(L, full, [full, d]))


def is_nilpotent(L: Superalgebra) -> bool:
    return lower_central_series(L)[-1].is_zero()


def component_series(L: Superalgebra):
    """The two descending component sequences, each driven by ad of the even part."""
    m, one = L.dims.even, L.field.one
    even_part, odd_part = (
        GradedSubspace(L.field, L.dims, {k: {k: one} for k in block})
        for block in (range(m), range(m, L.dims.total)))
    return _descending(L, even_part, [even_part]), _descending(L, even_part, [odd_part])


def nilpotent_by_components(L: Superalgebra) -> bool:
    ev, od = component_series(L)
    return ev[-1].is_zero() and od[-1].is_zero()


def _ad_rows(L: Superalgebra) -> list[dict]:
    """Nonzero rows of the linear system [x, b_j] = 0 for all j, in x,
    each a sparse {i: scalar} dict."""
    total = L.dims.total
    rows = []
    for j in range(total):
        by_coord = {}
        for i in range(total):
            for k, c in enumerate(L.bracket_basis(i, j) or ()):
                if c:
                    by_coord.setdefault(k, {})[i] = c
        rows.extend(by_coord.values())
    return rows


@_per_algebra
def center(L: Superalgebra) -> GradedSubspace:
    """Joint kernel of all adjoint maps ad(b_j)."""
    basis = nullspace(_ad_rows(L), L.dims.total, L.field)
    return GradedSubspace.from_vectors(L.field, L.dims, basis)


def quotient(L: Superalgebra, ideal: GradedSubspace) -> Superalgebra:
    """Quotient by a graded ideal, on the complement of its pivot coordinates.

    K is an ideal when [v, b_j] lies in K for every rref basis vector v of
    K and every basis vector b_j, since these span [L, K]; otherwise
    NotAnIdeal is raised. Each [v, b_j] is summed over v's support, and
    membership is tested only when it is nonzero, so a central K needs no
    elimination. Each table value is reduced modulo K's echelon, which
    leaves it on the surviving coordinates; they keep their labels.
    """
    if ideal.dims != L.dims:
        raise DimensionMismatch("ideal does not live in this superalgebra")
    act = L.active_indices()
    zero = L.field.zero
    for row in ideal.echelon.values():
        support = [(i, row[i]) for i in act if i in row]  # an index with zero adjoint adds nothing
        if not support:
            continue
        for j in act:
            img = [zero] * L.dims.total
            for i, c in support:
                for k, x in enumerate(L.bracket_basis(i, j) or ()):
                    if x:
                        img[k] = img[k] + c * x
            if any(img) and not ideal.contains_vector(img):
                raise NotAnIdeal("subspace is not closed under bracketing with the algebra")
    m = L.dims.even
    keep = sorted(set(range(L.dims.total)) - set(ideal.echelon))
    pos = {b: t for t, b in enumerate(keep)}
    new_m = sum(1 for i in keep if i < m)
    new_dims = SuperDim(new_m, len(keep) - new_m)
    entries = []
    for (i, j), t in sorted(L.table.items()):
        if i in pos and j in pos:
            red = reduce_vector(t, ideal.echelon)
            if red:
                img = [zero] * len(keep)
                for k, x in red.items():
                    img[pos[k]] = x
                entries.append(((pos[i], pos[j]), img))
    return Superalgebra.from_entries(
        L.field, new_dims, entries,
        name=f"{L.name}/K" if L.name else "quotient",
        labels=[L.label(i) for i in keep],
    )


@_per_algebra
def _line_quotient(L: Superalgebra, v: tuple) -> tuple[bool, Superalgebra]:
    """(even, L/<v>) for a central line; v is its reduced echelon row, so
    every scaling of one line shares this fact.

    The quotient h inherits its lower central series from L, since
    C^i(h) = (C^i(L) + K)/K: each term's rows are reduced modulo K and kept
    on h's coordinates, so h's nilpotency never brackets in h. Its second
    term, or its only one when h is zero, is h^2 = (L^2 + K)/K.
    """
    k = GradedSubspace.from_vectors(L.field, L.dims, [v])
    h = quotient(L, k)
    pos = {b: t for t, b in enumerate(sorted(set(range(L.dims.total)) - set(k.echelon)))}
    series = [GradedSubspace.full(h.field, h.dims)]
    for term in lower_central_series(L)[1:]:
        rows = [{pos[c]: x for c, x in reduce_vector(row, k.echelon).items()}
                for row in term.echelon.values()]
        nxt = GradedSubspace._span(h.field, h.dims, rows)
        if nxt == series[-1]:
            break
        series.append(nxt)
    h._facts[(lower_central_series.__name__,)] = tuple(series)
    h._facts[(derived_subspace.__name__,)] = series[min(1, len(series) - 1)]
    return k.dim.even == 1, h


def direct_sum(a: Superalgebra, b: Superalgebra) -> Superalgebra:
    """Block-diagonal sum; basis vectors are relabeled canonically."""
    if a.field != b.field:
        raise FieldMismatch(f"{a.field} vs {b.field}")
    dims = SuperDim(a.dims.even + b.dims.even, a.dims.odd + b.dims.odd)

    def embed(src: Superalgebra, offset_even: int, offset_odd: int):
        def conv(i):
            if i < src.dims.even:
                return offset_even + i
            return dims.even + offset_odd + (i - src.dims.even)
        return conv

    ca = embed(a, 0, 0)
    cb = embed(b, a.dims.even, a.dims.odd)
    entries = []
    for src, conv in ((a, ca), (b, cb)):
        for (i, j), coords in src.table.items():
            vec = zero_vector(a.field, dims.total)
            for k, c in enumerate(coords):
                if c:
                    vec[conv(k)] = c
            entries.append(((conv(i), conv(j)), vec))
    name = f"{a.name or 'A'}+{b.name or 'B'}"
    return Superalgebra.from_entries(a.field, dims, entries, name=name)
