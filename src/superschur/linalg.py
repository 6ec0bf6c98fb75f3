"""Exact sparse linear algebra over Q and F_p.

A row is either a dense sequence of field scalars or a sparse
`{column: scalar}` dict. Rank, reduced row echelon form and nullspaces rest
on one primitive, an exact sparse echelon valid over any field: forward
elimination on leading columns, with back-substitution to the canonical
form only where the reduced rows are asked for. Reducing a vector modulo
an echelon is the same `_reduce` that elimination runs on every row. The
matrices this package eliminates (Jacobi relations, adjoint systems) are
almost empty, so the work follows their nonzeros, never their shape.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass

from .fields import Field


def zero_vector(field: Field, n: int) -> list:
    z = field.zero
    return [z] * n


def _sparse(row) -> dict:
    """A dense or sparse row as a fresh {column: scalar} dict without zeros."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return {c: x for c, x in items if x}


def _reduce(row: dict, echelon: dict) -> dict:
    """Clear `row` in place at every pivot column of `echelon` and return it.

    Each pivot row has a leading 1 and no entries left of it, so subtracting
    the pivot row of column c only touches columns after c: the pivot
    columns are cleared in increasing order, off a heap.
    """
    todo = [c for c in row if c in echelon]
    heapq.heapify(todo)
    while todo:
        c = heapq.heappop(todo)
        f = row.pop(c, None)
        if f is None:  # cancelled already, or queued twice
            continue
        for k, x in echelon[c].items():
            if k == c:
                continue
            if k in row:
                v = row[k] - f * x
                if v:
                    row[k] = v
                else:
                    del row[k]
            else:
                row[k] = -(f * x)
                if k in echelon:
                    heapq.heappush(todo, k)
    return row


def _echelon(rows, reduced: bool = False) -> dict:
    """{pivot column: sparse row with a leading 1} spanning the row space.

    Rows are taken sparsest first and reduced by the pivots found so far; a
    nonzero remainder becomes the pivot of its leading column, so no row is
    ever swapped or revisited (the pivot handling of Faugere-Lachartre).
    With `reduced`, back-substitution from the last pivot clears every
    pivot column above and below, giving the canonical form.
    """
    echelon = {}
    for row in sorted(map(_sparse, rows), key=len):
        row = _reduce(row, echelon)
        if row:
            c = min(row)
            lead = row[c]
            echelon[c] = {k: x / lead for k, x in row.items()}
    if reduced:
        for c in sorted(echelon, reverse=True):
            row = echelon[c]
            lead = row.pop(c)
            echelon[c] = {c: lead, **_reduce(row, echelon)}
    return echelon


def rref(rows):
    """Reduced row echelon form: (pivot rows, pivot columns).

    Zero rows are dropped, leading entries are 1 and pivot columns are
    cleared above and below, so the result is the canonical representation
    of the row space. Pivot rows are {column: scalar} dicts.
    """
    echelon = _echelon(rows, reduced=True)
    pivots = sorted(echelon)
    return [echelon[c] for c in pivots], pivots


def mat_rank(rows) -> int:
    """Exact rank, over any field."""
    return len(_echelon(rows))


def nullspace(rows, ncols: int, field: Field) -> list[tuple]:
    """Basis of the right kernel, one vector per free column."""
    echelon = _echelon(rows, reduced=True)
    basis = {}
    for f in range(ncols):
        if f not in echelon:
            basis[f] = zero_vector(field, ncols)
            basis[f][f] = field.one
    for p, row in echelon.items():
        for f, x in row.items():
            if f != p:
                basis[f][p] = -x
    return [tuple(v) for v in basis.values()]


def reduce_vector(vec, echelon: dict) -> dict:
    """A dense or sparse vector modulo an echelon {pivot column: row with a
    leading 1}, as a fresh sparse remainder without pivot columns; it is
    empty exactly when the vector lies in the row space."""
    return _reduce(_sparse(vec), echelon)


@dataclass(frozen=True)
class LinearMap:
    """A (codomain dim) x (domain dim) matrix as a column container: one
    sparse column per domain basis vector, a {row: scalar} dict without
    zeros; `rows` is a dense view built on use.
    """

    field: Field
    codomain_dim: int
    columns: tuple

    @property
    def domain_dim(self) -> int:
        return len(self.columns)

    @functools.cached_property
    def rows(self) -> tuple:
        z = self.field.zero
        return tuple(tuple(col.get(r, z) for col in self.columns)
                     for r in range(self.codomain_dim))
