"""Schur multiplier dimension and the explicit tail (central) extension.

Adjoin one central tail generator s(i, j) per canonical bracket pair and
impose the graded Jacobi identity on all canonical triples. The defect of
each triple is a linear combination of tails (the relation map); the
multiplier is the quotient of the pair space by the brackets themselves
and by those relations:

    dim M(L) = dim C2 - dim L^2 - rank(relations).

The same data yields a concrete central extension E of L by the surviving
tails W with [b_i, b_j]_E = [b_i, b_j]_L + s(i, j) mod relations; then
E/W is L again, W is central, and E^2 meets W in a copy of M(L).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .algebra import (
    EVEN,
    GradedSubspace,
    SuperDim,
    Superalgebra,
    _per_algebra,
    derived_subspace,
    is_nilpotent,
)
from .errors import NotNilpotent
from .linalg import LinearMap, mat_rank, rref, zero_vector


@dataclass(frozen=True)
class PairSpace:
    """Indexed basis of the degree-2 graded chain space.

    Pairs are ordered: even-even (i < j), even-odd (all), odd-odd (i <= j).
    The dimension is C(m,2) + mn + C(n+1,2) = ((m+n)^2 + n - m) / 2, which
    is exactly the multiplier dimension of the abelian (m|n) superalgebra.
    """

    pairs: tuple
    index: dict
    parities: tuple

    @classmethod
    def of(cls, L: Superalgebra) -> "PairSpace":
        m, total = L.dims.even, L.dims.total
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        pairs += [(i, j) for i in range(m) for j in range(m, total)]
        pairs += [(i, j) for i in range(m, total) for j in range(i, total)]
        index = {p: t for t, p in enumerate(pairs)}
        parities = tuple((L.parity(i) + L.parity(j)) % 2 for i, j in pairs)
        mt, n = L.dims.even, L.dims.odd
        assert len(pairs) == ((mt + n) ** 2 + (n - mt)) // 2
        return cls(tuple(pairs), index, parities)

    @property
    def dim(self) -> int:
        return len(self.pairs)

    def signed_tail(self, L: Superalgebra, i: int, j: int):
        """Tail index and sign for the ordered pair (i, j); None on the even diagonal."""
        if i == j and L.parity(i) == EVEN:
            return None
        if (i, j) in self.index:
            return self.index[(i, j)], 1
        return self.index[(j, i)], (1 if (L.parity(i) and L.parity(j)) else -1)


def boundary2(L: Superalgebra) -> LinearMap:
    """Pair (i, j) -> [b_i, b_j]; its rank is dim L^2."""
    cols = []
    for (i, j) in PairSpace.of(L).pairs:
        t = L.bracket_basis(i, j) or ()
        cols.append({k: c for k, c in enumerate(t) if c})
    return LinearMap(L.field, L.dims.total, tuple(cols))


def relations3(L: Superalgebra) -> LinearMap:
    """Jacobi-defect tail vectors, one sparse column per canonical triple.

    The canonical triples have strictly increasing even indices and weakly
    increasing odd indices; they span all Jacobi relations because the
    defect is super-alternating in its three slots. For the triple
    (x, y, z) the column collects the tails of
    [x,[y,z]] - [[x,y],z] - (-1)^{|x||y|}[y,[x,z]] in the tail extension,
    writing s(b, a) = -(-1)^{|a||b|} s(a, b). Composing with boundary2
    gives zero exactly, because L itself satisfies the Jacobi identity.
    """
    ps = PairSpace.of(L)
    zero = L.field.zero
    ev, od = range(L.dims.even), range(L.dims.even, L.dims.total)
    triples = [(i, j, k) for i in ev for j in ev if j > i for k in ev if k > j]
    triples += [(i, j, k) for i in ev for j in ev if j > i for k in od]
    triples += [(i, j, k) for i in ev for j in od for k in od if k >= j]
    triples += [(i, j, k) for i in od for j in od if j >= i for k in od if k >= j]

    def add_tails(col, t, sign, fixed, fixed_first):
        """col += sign * sum_l t_l s(fixed, l), or s(l, fixed), for a bracket t of L."""
        if t is None:
            return
        for l, c in enumerate(t):
            if c:
                st = ps.signed_tail(L, fixed, l) if fixed_first else ps.signed_tail(L, l, fixed)
                if st is not None:
                    idx, s = st
                    prev = col.get(idx, zero)
                    col[idx] = prev + c if s * sign == 1 else prev - c

    cols = []
    for (x, y, z) in triples:
        col = {}
        add_tails(col, L.bracket_basis(y, z), 1, x, True)
        add_tails(col, L.bracket_basis(x, y), -1, z, False)
        add_tails(col, L.bracket_basis(x, z), 1 if (L.parity(x) and L.parity(y)) else -1, y, True)
        cols.append({idx: v for idx, v in col.items() if v})
    return LinearMap(L.field, ps.dim, tuple(cols))


@_per_algebra
def _tail_residues(L: Superalgebra) -> tuple[list, list]:
    """Each tail unit vector e_t modulo the relation span, read off its RREF.

    The residue of e_t is e_t itself for a free column t and e_t minus its
    pivot row otherwise; either way it lives on the free columns. Returns
    (free columns, residues), residues[t] a {free column: scalar} dict,
    with t indexing `PairSpace.of(L).pairs`.
    """
    rel = relations3(L)
    rows, pivots = rref(rel.columns)
    residues = [{t: L.field.one} for t in range(rel.codomain_dim)]
    for row, p in zip(rows, pivots):
        residues[p] = {k: -x for k, x in row.items() if k != p}
    free = sorted(set(range(rel.codomain_dim)).difference(pivots))
    return free, residues


@_per_algebra
def _tail_layout(L: Superalgebra) -> tuple[SuperDim, dict, dict]:
    """E's dimensions and where E puts each free tail: its even and its odd
    tails as {free column: coordinate in E}, in increasing order. E's basis
    is L's evens, the even tails, L's odds, then the odd tails."""
    parities = PairSpace.of(L).parities
    free, _ = _tail_residues(L)
    even = [t for t in free if parities[t] == EVEN]
    odd = [t for t in free if parities[t] != EVEN]
    m, n = L.dims.even, L.dims.odd
    dims_e = SuperDim(m + len(even), n + len(odd))
    return (dims_e, {t: m + k for k, t in enumerate(even)},
            {t: dims_e.even + n + k for k, t in enumerate(odd)})


def gamma_in_scope(L: Superalgebra, dim_derived: int) -> bool:
    """The defect invariant is defined for derived codimension 2,
    total dimension at least 4 and at least one odd direction."""
    m, n = L.dims.even, L.dims.odd
    return dim_derived == m + n - 2 and m + n >= 4 and n >= 1


@dataclass(frozen=True)
class MultiplierReport:
    dim_c2: int
    dim_derived: int
    rank_relations: int
    dim_multiplier: int
    gamma: int | None
    timing: float


@_per_algebra
def multiplier_dimension(L: Superalgebra) -> MultiplierReport:
    """Multiplier dimension by exact rank arithmetic (nilpotent L only)."""
    if not is_nilpotent(L):
        raise NotNilpotent(f"{L} is not nilpotent")
    t0 = time.perf_counter()
    dim_derived = derived_subspace(L).dim.total
    rel = relations3(L)
    rank_rel = mat_rank(rel.columns)
    dim_mult = rel.codomain_dim - dim_derived - rank_rel
    m, n = L.dims.even, L.dims.odd
    gamma = m + 2 * n - 2 - dim_mult if gamma_in_scope(L, dim_derived) else None
    return MultiplierReport(rel.codomain_dim, dim_derived, rank_rel, dim_mult, gamma,
                            time.perf_counter() - t0)


@dataclass(frozen=True)
class TailExtension:
    """Central extension E of L by the surviving tails W.

    E/W is L again, and E^2 intersects W in a copy of the multiplier of L.
    """

    algebra: Superalgebra
    kernel: GradedSubspace


def _fresh_labels(existing, count):
    out = []
    k = 1
    used = set(existing)
    while len(out) < count:
        cand = f"t{k}"
        if cand not in used:
            out.append(cand)
            used.add(cand)
        k += 1
    return out


@_per_algebra
def tail_extension(L: Superalgebra) -> TailExtension:
    """Build E = L + tails with [b_i, b_j]_E = [b_i, b_j]_L + s(i, j) mod relations."""
    if not is_nilpotent(L):
        raise NotNilpotent(f"{L} is not nilpotent")
    ps = PairSpace.of(L)
    _, residues = _tail_residues(L)
    dims_e, even_pos, odd_pos = _tail_layout(L)
    tail_pos = even_pos | odd_pos
    m, n, w0 = L.dims.even, L.dims.odd, len(even_pos)

    def embed_l(idx):
        return idx if idx < m else dims_e.even + (idx - m)

    entries = []
    for t_idx, (i, j) in enumerate(ps.pairs):
        vec = zero_vector(L.field, dims_e.total)
        tl = L.bracket_basis(i, j)
        if tl is not None:
            for k, c in enumerate(tl):
                if c:
                    vec[embed_l(k)] = c
        for t, c in residues[t_idx].items():
            vec[tail_pos[t]] = c
        if any(vec):
            entries.append(((embed_l(i), embed_l(j)), vec))

    l_labels = [L.label(i) for i in range(L.dims.total)]
    t_labels = _fresh_labels(l_labels, len(tail_pos))
    labels = ([l_labels[i] for i in range(m)] + t_labels[:w0]
              + [l_labels[m + j] for j in range(n)] + t_labels[w0:])
    ext = Superalgebra.from_entries(
        L.field, dims_e, entries,
        name=f"E({L.name})" if L.name else "tail extension", labels=labels,
    )
    kernel = {p: {p: L.field.one} for p in sorted(tail_pos.values())}
    return TailExtension(ext, GradedSubspace(L.field, dims_e, kernel))
