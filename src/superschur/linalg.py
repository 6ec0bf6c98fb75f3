"""Exact dense linear algebra over Q and F_p.

Vectors are tuples (or lists) of field scalars, matrices are sequences of
row sequences. Rank, nullspaces and reduction all rest on one primitive,
exact Gauss-Jordan elimination (`rref`), which is valid over any field.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch
from .fields import Field


def zero_vector(field: Field, n: int) -> list:
    z = field.zero
    return [z] * n


def vec_is_zero(u) -> bool:
    return not any(u)


def rref(rows):
    """Reduced row echelon form.

    Returns (pivot_rows, pivot_columns); zero rows are dropped, leading
    entries are 1 and pivot columns are cleared above and below, so the
    result is the canonical representation of the row space.
    """
    work = [list(r) for r in rows if any(r)]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        lead = work[r][c]
        if lead != 1:
            work[r] = [x / lead for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return [tuple(row) for row in work[:r]], pivots


def mat_rank(rows) -> int:
    """Exact rank, over any field."""
    return len(rref(rows)[0])


def nullspace(rows, ncols: int, field: Field) -> list[tuple]:
    """Basis of the right kernel, one vector per free column."""
    rr, piv = rref(rows)
    pivset = set(piv)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = zero_vector(field, ncols)
        v[f] = field.one
        for row, p in zip(rr, piv):
            v[p] = -row[f]
        basis.append(tuple(v))
    return basis


def reduce_vector(vec, pivot_rows, pivots):
    """Reduce vec modulo the row space given by an rref basis."""
    v = list(vec)
    for row, p in zip(pivot_rows, pivots):
        if v[p]:
            f = v[p]
            v = [a - f * b for a, b in zip(v, row)]
    return v


@dataclass(frozen=True)
class LinearMap:
    """A matrix acting on coordinate columns: (codomain dim) x (domain dim)."""

    field: Field
    rows: tuple  # tuple of row tuples, len(rows) = codomain dim

    @property
    def codomain_dim(self) -> int:
        return len(self.rows)

    @property
    def domain_dim(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def apply(self, vec):
        if len(vec) != self.domain_dim:
            raise DimensionMismatch(
                f"vector of length {len(vec)} fed to map with domain {self.domain_dim}"
            )
        return [sum((r[j] * vec[j] for j in range(len(vec)) if vec[j]), self.field.zero)
                for r in self.rows]

    def column(self, j: int) -> list:
        return [r[j] for r in self.rows]

    def rank(self) -> int:
        return mat_rank(self.rows)

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other."""
        if other.codomain_dim != self.domain_dim:
            raise DimensionMismatch("composition shape mismatch")
        z = self.field.zero
        out = []
        for r in self.rows:
            nz = [j for j, x in enumerate(r) if x]
            out.append(tuple(
                sum((r[j] * other.rows[j][c] for j in nz), z)
                for c in range(other.domain_dim)
            ))
        return LinearMap(self.field, tuple(out))

    def is_zero(self) -> bool:
        return all(vec_is_zero(r) for r in self.rows)
