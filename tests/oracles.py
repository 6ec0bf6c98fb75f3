"""Independent brute-force oracle used to cross-check the package.

Deliberately naive and structurally different from the implementation:
sympy rational matrices, Jacobi relation columns enumerated over ALL
ordered basis triples (the package enumerates canonical triples only),
ranks via sympy. The center and the epicenter are nullspaces of the
adjoint system of L and of its central extension by C2 / im d3, taken over
Q or, with the integer matrices reduced mod p, over F_p. Agreement between
the two routes is the point.
"""

from itertools import product

import sympy as sp
from sympy import GF, QQ
from sympy.polys.matrices import DomainMatrix


def _sign(pi, pj):
    return -((-1) ** (pi * pj))


class OracleAlgebra:
    def __init__(self, m, n, brackets):
        # brackets: {(i, j): {k: Rational}} on canonical pairs
        self.m, self.n = m, n
        self.N = m + n
        self.par = [0] * m + [1] * n
        full = {}
        for (i, j), tgt in brackets.items():
            v = {k: sp.Rational(c) for k, c in tgt.items() if c != 0}
            full[(i, j)] = v
            if i != j:
                full[(j, i)] = {k: _sign(self.par[i], self.par[j]) * c
                                for k, c in v.items()}
        self.full = full

    @classmethod
    def from_superalgebra(cls, L):
        brackets = {}
        for (i, j), coords in L.table.items():
            brackets[(i, j)] = {k: sp.Rational(str(c)) for k, c in enumerate(coords) if c}
        return cls(L.dims.even, L.dims.odd, brackets)

    def br(self, i, j):
        return self.full.get((i, j), {})

    def pairs(self):
        m, N = self.m, self.N
        out = [(i, j) for i in range(m) for j in range(i + 1, m)]
        out += [(i, j) for i in range(m) for j in range(m, N)]
        out += [(i, j) for i in range(m, N) for j in range(i, N)]
        return out

    def _tail(self, i, j, pidx):
        if i == j and self.par[i] == 0:
            return None
        if (i, j) in pidx:
            return pidx[(i, j)], sp.Integer(1)
        return pidx[(j, i)], sp.Integer(_sign(self.par[i], self.par[j]))

    def d2(self):
        P = self.pairs()
        M = sp.zeros(self.N, len(P))
        for c, (i, j) in enumerate(P):
            for k, v in self.br(i, j).items():
                M[k, c] = v
        return M

    def d3_all_ordered(self):
        P = self.pairs()
        pidx = {p: t for t, p in enumerate(P)}
        cols = []
        for x, y, z in product(range(self.N), repeat=3):
            col = [sp.Integer(0)] * len(P)

            def add(i, l, coeff):
                t = self._tail(i, l, pidx)
                if t is not None:
                    col[t[0]] += coeff * t[1]

            for l, c in self.br(y, z).items():
                add(x, l, c)
            for l, c in self.br(x, y).items():
                t = self._tail(l, z, pidx)
                if t is not None:
                    col[t[0]] -= c * t[1]
            s = -_sign(self.par[x], self.par[y])
            for l, c in self.br(x, z).items():
                t = self._tail(y, l, pidx)
                if t is not None:
                    col[t[0]] -= s * c * t[1]
            if any(v != 0 for v in col):
                cols.append(col)
        if not cols:
            return sp.zeros(len(P), 1)
        return sp.Matrix(cols).T

    def central_part(self, ann, p=None):
        """The L-parts of Z(E) for E = L + V, V = C2 / im d3 in the
        coordinates v -> (a . v for a in ann), with [x, y]_E = [x, y]_L + x^y
        and V central: one nullspace of x -> ([x, b_j]_E)_j, then projected
        to L. An empty `ann` gives E = L and so Z(L)."""
        N, q = self.N, len(ann)
        pidx = {pair: t for t, pair in enumerate(self.pairs())}
        width = N + q
        M = sp.zeros(N * width, width)  # row (j, k): coordinate k of [x, b_j]_E
        for j in range(N):
            for i in range(N):
                for k, c in self.br(i, j).items():
                    M[j * width + k, i] += c
                t = self._tail(i, j, pidx)
                if t is not None:
                    for r in range(q):
                        M[j * width + N + r, i] += ann[r][t[0]] * t[1]
        return [v[:N] for v in kernel(M, p) if any(x != 0 for x in v[:N])]

    def multiplier(self):
        d2 = self.d2()
        d3 = self.d3_all_ordered()
        assert (d2 * d3).is_zero_matrix
        return len(self.pairs()) - d2.rank() - d3.rank()


def oracle_multiplier(L) -> int:
    """Brute-force multiplier dimension of a rational superalgebra."""
    return OracleAlgebra.from_superalgebra(L).multiplier()


def kernel(M, p=None):
    """Basis of the right kernel of a sympy matrix over Q (p None) or F_p,
    as lists of integers or rationals."""
    if M.rows == 0 or M.cols == 0:
        return [[int(i == j) for j in range(M.cols)] for i in range(M.cols)]
    dm = DomainMatrix.from_Matrix(M).convert_to(QQ if p is None else GF(p))
    basis = dm.nullspace().to_Matrix()
    return [list(basis.row(r)) for r in range(basis.rows)]


def oracle_center(L) -> list:
    """Spanning vectors of Z(L), over L's field."""
    return OracleAlgebra.from_superalgebra(L).central_part([], L.field.p)


def oracle_epicenter(L) -> list:
    """Spanning vectors of the epicenter Z*(L) = pi(Z(E)), E the central
    extension of L by C2 / im d3 (every central extension of L receives a
    map from E). The kernel of d3 transposed spans the annihilator of im d3,
    so it gives coordinates on C2 / im d3; d3 is the oracle's own, over all
    ordered triples, reduced mod p over F_p."""
    o = OracleAlgebra.from_superalgebra(L)
    return o.central_part(kernel(o.d3_all_ordered().T, L.field.p), L.field.p)


def same_span(L, a, b) -> bool:
    """Whether two lists of vectors over L's field span one subspace."""
    def rank(vectors):
        if not vectors:
            return 0
        m = sp.Matrix([[sp.Rational(str(x)) for x in v] for v in vectors])
        domain = QQ if L.field.p is None else GF(L.field.p)
        return DomainMatrix.from_Matrix(m).convert_to(domain).rank()
    return rank(list(a)) == rank(list(b)) == rank(list(a) + list(b))
