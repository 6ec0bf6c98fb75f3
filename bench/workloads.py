"""The three benchmark workloads: their inputs, one closed-loop instance
each, and the correctness gate that checks every answer after timing.

The package is imported from `src/` of the checkout this file lives in and
is reached only through its public API. Inputs depend on the seed alone.
"""

from __future__ import annotations

import importlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ORACLE_DIR = ROOT / "tests"

# workload -> field characteristic (None is Q)
FIELD_OF = {"scan-f5": 5, "ladder-q": None, "ladder-f5": 5}

# One scan-f5 pass is one default-sized `superschur scan` batch.
SCAN_BATCH = 200
SUM_PARTS = ("(3|2)_13", "(2|3)_23", "(2|3)_23")
# A catalog instance takes milliseconds, the other rungs up to seconds. Each
# pass asks every catalog entry this many times, in rounds spread between
# the other rungs, so that its timings sample more than one stretch of the
# host's speed per pass.
CATALOG_COPIES = 5
CHAINS = {"ladder-q": (10, 14), "ladder-f5": (10, 14, 20)}

# Answers of the non-catalog rungs: (dim L^2, dim M, epicenter dim).
# dim L^2 and dim M are confirmed by the sympy oracle in test_bench.py.
# The epicenter dimension is the package's own verdict at the commit that
# added the benchmark; `epicenter` cross-checks it by the mono criterion.
PINNED = {
    "sum7_8": (9, 19, 2),
    "chain10": (9, 6, 0),
    "chain14": (13, 8, 0),
    "chain20": (19, 11, None),
}
# Catalog entries: (dim L^2, epicenter dim over Q); dim M comes from
# `catalog.entry(name).expected_multiplier_dim`.
CATALOG_PINNED = {
    "(2|2)_1": (2, 2), "(2|2)_4": (2, 0), "(2|2)_6": (2, 0),
    "(1|3)_1": (2, 0), "(1|4)_7": (3, 0), "(3|2)_5": (3, 0),
    "(3|2)_13": (3, 0), "(2|3)_18": (3, 0), "(2|3)_19": (3, 0),
    "(2|3)_22": (3, 0), "(2|3)_23": (3, 1),
}


def import_package():
    """Import `superschur` afresh from this checkout's `src/`."""
    if not (SRC / "superschur" / "__init__.py").is_file():
        raise SystemExit(f"error: no superschur package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "superschur" or n.startswith("superschur.")]:
        del sys.modules[name]
    return importlib.import_module("superschur")


def chain(S, n, field):
    """The (1|n) chain [e1, f_{k+1}] = f_k, k = 1..n-1."""
    entries = []
    for k in range(1, n):
        target = [0] * (1 + n)
        target[k] = 1
        entries.append(((0, 1 + k), target))
    return S.Superalgebra.from_entries(field, S.SuperDim(1, n), entries, name=f"chain{n}")


def flip_signs(S, L, rng):
    """An isomorphic copy under b_i -> s_i b_i with random signs s_i.

    Every pass gets fresh copies, so no work is shared across passes while
    the matrix shapes, nonzeros and answers stay those of the rung.
    """
    s = [rng.choice((1, -1)) for _ in range(L.dims.total)]
    entries = [((i, j), [s[i] * s[j] * s[k] * c for k, c in enumerate(v)])
               for (i, j), v in L.table.items()]
    return S.Superalgebra.from_entries(L.field, L.dims, entries, name=L.name,
                                       labels=[L.label(i) for i in range(L.dims.total)])


def gamma_expected(m, n, dim_derived, dim_m):
    in_scope = dim_derived == m + n - 2 and m + n >= 4 and n >= 1
    return m + 2 * n - 2 - dim_m if in_scope else None


def compact(L):
    """(p, m, n, table): small, hashable, and all that the oracle reads of L.

    Coordinates are Fractions over Q and plain ints mod p over F_p.
    """
    def plain(c):
        return c if L.field.p is None else c.val
    table = tuple(sorted((ij, tuple(plain(c) for c in v)) for ij, v in L.table.items()))
    return L.field.p, L.dims.even, L.dims.odd, table


class Oracle:
    """(dim L^2, dim M) from the independent sympy oracle in tests/oracles.py.

    The oracle's relation columns have integer entries (polynomials in the
    lifted structure constants), so ranks over F_p are taken after reducing
    its matrices mod p. Answers are memoized per `compact` algebra.
    """

    def __init__(self):
        sys.path.insert(0, str(ORACLE_DIR))
        from oracles import OracleAlgebra
        from sympy import GF, QQ
        from sympy.polys.matrices import DomainMatrix
        self._algebra, self._matrix, self._gf, self._qq = OracleAlgebra, DomainMatrix, GF, QQ
        self._seen = {}

    def dims(self, algebra):
        if algebra not in self._seen:
            p, m, n, table = algebra
            o = self._algebra(m, n, {ij: {k: c for k, c in enumerate(v) if c}
                                     for ij, v in table})
            domain = self._qq if p is None else self._gf(p)
            rank2 = self._matrix.from_Matrix(o.d2()).convert_to(domain).rank()
            rank3 = self._matrix.from_Matrix(o.d3_all_ordered()).convert_to(domain).rank()
            self._seen[algebra] = (rank2, len(o.pairs()) - rank2 - rank3)
        return self._seen[algebra]


class Ladder:
    """ladder-q / ladder-f5: one presentation text per instance, CLI style.

    ladder-q asks multiplier_dimension, epicenter and gamma of each loaded
    algebra; ladder-f5 asks multiplier_dimension only.
    """

    def __init__(self, S, name, seed):
        self.S, self.seed = S, seed
        self.field = S.Field(FIELD_OF[name])
        self.full_query = name == "ladder-q"
        f = self.field
        self.rungs = [("catalog", n, S.get(n, f)) for n in S.names()]
        parts = [S.get(n, f) for n in SUM_PARTS]
        self.rungs.append(("sum7_8", "sum7_8",
                           S.direct_sum(S.direct_sum(parts[0], parts[1]), parts[2])))
        self.rungs += [(f"chain{n}", f"chain{n}", chain(S, n, f)) for n in CHAINS[name]]

    def prepare(self, k):
        """Serialized, sign-flipped copies of every rung for pass k: a round
        of the catalog before each other rung, the rest of the rounds last."""
        rng = random.Random(f"{self.seed}:{k}")
        catalog = [r for r in self.rungs if r[0] == "catalog"]
        others = [r for r in self.rungs if r[0] != "catalog"]
        order = []
        for c in range(max(CATALOG_COPIES, len(others))):
            if c < CATALOG_COPIES:
                order += catalog
            order += others[c:c + 1]
        return [(rung, key, self.S.serialize(flip_signs(self.S, L, rng)))
                for rung, key, L in order]

    def instances(self, prepared):
        for rung, key, text in prepared:
            yield rung, key, lambda text=text: self._query(text)

    def _query(self, text):
        S = self.S
        L = S.load(text)
        rep = S.multiplier_dimension(L)
        answer = {"dims": (L.dims.even, L.dims.odd), "derived": rep.dim_derived,
                  "multiplier": rep.dim_multiplier, "gamma": rep.gamma}
        if self.full_query:
            epi = S.epicenter(L)
            verdict = S.gamma(L)
            answer.update(epicenter=epi.epicenter.dim.total, capable=epi.capable,
                          verdict_gamma=verdict.gamma)
        return answer

    def check(self, key, answer):
        """None if the answer matches the pinned one, else what differs."""
        if key in CATALOG_PINNED:
            derived, epi = CATALOG_PINNED[key]
            dim_m = self.S.catalog.entry(key).expected_multiplier_dim
        else:
            derived, dim_m, epi = PINNED[key]
        m, n = answer["dims"]
        want = {"derived": derived, "multiplier": dim_m,
                "gamma": gamma_expected(m, n, derived, dim_m)}
        if self.full_query:
            want.update(epicenter=epi, capable=epi == 0, verdict_gamma=want["gamma"])
        bad = {k: (answer[k], v) for k, v in want.items() if answer[k] != v}
        return f"{key}: (got, want) {bad}" if bad else None


class Scan:
    """scan-f5: generate_nilpotent -> check_bounds -> verify_no_low_gamma,
    one generated instance per closed-loop request."""

    def __init__(self, S, name, seed):
        self.S, self.seed = S, seed
        self.field = S.Field(FIELD_OF[name])
        self.oracle = None

    def prepare(self, k):
        return self.S.ScanConfig(field=self.field, max_even=3, max_odd=3,
                                 samples=SCAN_BATCH, seed=self.seed * 1000 + k, depth=2)

    def instances(self, config):
        stream = self.S.generate_nilpotent(config)
        for _ in range(config.samples):
            yield "scan", None, lambda: self._step(stream)

    def _step(self, stream):
        L = next(stream)
        findings = self.S.check_bounds([L])
        low = self.S.verify_no_low_gamma([L])
        return {"algebra": L, "findings": findings, "low": low}

    def check(self, key, answer):
        """No bound may be violated, and the gamma sweep must agree with the
        oracle on scope (dim L^2) and on gamma (dim M)."""
        L, low = answer["algebra"], answer["low"]
        problems = [f"finding {f.claim}" for f in answer["findings"]]
        problems += [f"low gamma {g}" for _, g in low.offenders]
        if self.oracle is None:
            self.oracle = Oracle()
        derived, dim_m = self.oracle.dims(compact(L))
        want = gamma_expected(L.dims.even, L.dims.odd, derived, dim_m)
        entry = low.entries[0]
        if entry.gamma != want or (want is None) != (entry.skipped is not None):
            problems.append(f"gamma {entry.gamma} (skipped: {entry.skipped}), oracle {want}")
        return f"{L.name}: {'; '.join(problems)}" if problems else None


def make(S, name, seed):
    return Scan(S, name, seed) if name == "scan-f5" else Ladder(S, name, seed)
