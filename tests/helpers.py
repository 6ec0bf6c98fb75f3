"""Shared test utilities."""

from superschur import GradedSubspace, SuperDim, Superalgebra, bracket, quotient
from superschur.homology import _tail_layout, tail_extension
from superschur.linalg import LinearMap
from superschur.verifier import _intern, _kill_block
from superschur.errors import DimensionMismatch


def change_basis(L, perm, scales):
    """Rebuild the table for b'_i = scales[i] * b_perm[i].

    perm must preserve parity blocks (evens to evens, odds to odds);
    scales are nonzero scalars of L's field.
    """
    total = L.dims.total
    inv = {perm[i]: i for i in range(total)}
    unit = [[L.field.of(int(k == i)) for k in range(total)] for i in range(total)]
    entries = []
    for i in range(total):
        for j in range(i, total):
            t = bracket(L, unit[perm[i]], unit[perm[j]])
            if not any(t):
                continue
            vec = [L.field.zero] * total
            for k, c in enumerate(t):
                if c:
                    vec[inv[k]] = scales[i] * scales[j] / scales[inv[k]] * c
            entries.append(((i, j), vec))
    return Superalgebra.from_entries(L.field, L.dims, entries, name=L.name + "~")


def chain(n, field):
    """The (1|n) chain [e1, f_{k+1}] = f_k, k = 1..n-1."""
    entries = []
    for k in range(1, n):
        target = [0] * (1 + n)
        target[k] = 1
        entries.append(((0, 1 + k), target))
    return Superalgebra.from_entries(field, SuperDim(1, n), entries, name=f"chain{n}")


def reference_bracket(L, x, y):
    """[x, y] by a dense double loop over `L.table`: the pair (i, j) with
    i > j reads the canonical entry (j, i) times the super-skew sign
    -(-1)^{|b_i||b_j|}. An independent reference for `bracket`."""
    total = L.dims.total
    out = [L.field.zero] * total
    for i in range(total):
        for j in range(total):
            if i <= j:
                t, s = L.table.get((i, j)), 1
            else:
                t, s = L.table.get((j, i)), (1 if L.parity(i) and L.parity(j) else -1)
            if t is not None:
                c = L.field.of(s) * x[i] * y[j]
                out = [o + c * v for o, v in zip(out, t)]
    return out


def shear(L, a, b, t):
    """L in the basis b'_a = b_a + t * b_b (a != b of one parity), every
    other b'_i = b_i; so a vector w has the coordinate w_b - t * w_a at b."""
    total = L.dims.total
    unit = [[L.field.of(int(k == i)) for k in range(total)] for i in range(total)]
    unit[a] = [u + L.field.of(t) * v for u, v in zip(unit[a], unit[b])]
    entries = []
    for i in range(total):
        for j in range(i, total):
            w = bracket(L, unit[i], unit[j])
            w[b] = w[b] - L.field.of(t) * w[a]
            if any(w):
                entries.append(((i, j), w))
    return Superalgebra.from_entries(L.field, L.dims, entries, name=L.name + "~")


def random_parity_basis_change(rng, L):
    """A random in-parity permutation and random nonzero scales."""
    m, total = L.dims.even, L.dims.total
    perm = list(range(m))
    rng.shuffle(perm)
    podd = list(range(m, total))
    rng.shuffle(podd)
    perm += podd
    if L.field.is_rational:
        pool = [1, 2, 3, 5, -1, -2, -3]
    else:
        pool = list(range(1, L.field.p))
    scales = [L.field.of(rng.choice(pool)) for _ in range(total)]
    return perm, scales


def subspace_sum(a, b):
    """The sum of two graded subspaces of one ambient space."""
    if a.dims != b.dims:
        raise DimensionMismatch("subspaces of different ambient spaces")
    return GradedSubspace.from_vectors(a.field, a.dims, a.full_vectors() + b.full_vectors())


def intersection_dim(a, b):
    """dim (a meet b) = dim a + dim b - dim (a + b)."""
    return a.dim.total + b.dim.total - subspace_sum(a, b).dim.total


def compose(a, b):
    """The LinearMap a after b."""
    if b.codomain_dim != a.domain_dim:
        raise DimensionMismatch("composition shape mismatch")
    cols = []
    for col in b.columns:
        out = {}
        for j, x in col.items():
            for r, c in a.columns[j].items():
                out[r] = out[r] + c * x if r in out else c * x
        cols.append({r: v for r, v in out.items() if v})
    return LinearMap(a.field, a.codomain_dim, tuple(cols))


def reference_extend_once(rng, L, max_even, max_odd, algebras, last):
    """One extension step with no shortcut, an independent reference for
    `verifier._extend_once`: it always reads L's tail layout, draws both
    kill blocks whatever `last` says, and only then returns L when both
    blocks keep nothing."""
    _, even, odd = _tail_layout(L)
    keeps = []
    for block, room in ((even, max_even - L.dims.even), (odd, max_odd - L.dims.odd)):
        cap = min(len(block), room)
        keeps.append(rng.randint(0, cap) if cap > 0 else 0)
    kill = {}
    for block, keep in zip((even, odd), keeps):
        kill |= _kill_block(rng, L.field, list(block.values()), keep)
    if not any(keeps):
        return L
    ext = tail_extension(L)
    return _intern(algebras, quotient(ext.algebra, GradedSubspace(L.field, ext.algebra.dims, kill)))
