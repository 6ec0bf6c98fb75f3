"""Built-in catalog of named small nilpotent Lie superalgebras.

Each entry's brackets live only in its presentation file under `data/`,
transcribed verbatim from the source table, coefficients included; `get`
reads that file. This module keeps the metadata. `expected_multiplier_dim`
carries the resolved golden value (confirmed by an independent
brute-force oracle); where that differs from the printed table value,
`printed_multiplier_dim` keeps the printed number so the verifier can
surface the discrepancy.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from pathlib import Path

from .algebra import SuperDim, Superalgebra, default_labels, derived_subspace
from .errors import ScopeWarning, UnknownName
from .fields import Field, RATIONALS
from .presentation import _lower_unchecked, parse


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    expected_multiplier_dim: int
    printed_multiplier_dim: int
    tags: tuple


def _entry(name, expected, printed=None, tags=("table1",)):
    return CatalogEntry(name, expected, printed if printed is not None else expected,
                        tuple(tags))


_GAMMA2_TAGS = ("table1", "gamma2-list")

_ENTRIES = {
    e.name: e for e in (
        _entry("(2|2)_1", 1),
        _entry("(2|2)_4", 2, tags=_GAMMA2_TAGS),
        _entry("(2|2)_6", 2, tags=_GAMMA2_TAGS),
        _entry("(1|3)_1", 3, tags=_GAMMA2_TAGS),
        _entry("(1|4)_7", 3),
        _entry("(3|2)_5", 2),
        _entry("(3|2)_13", 3, tags=_GAMMA2_TAGS),
        _entry("(2|3)_18", 2, tags=_GAMMA2_TAGS),
        # As printed, (2|3)_19 is carried onto (2|3)_18 by the basis
        # permutation e1<->e2, f2<->f3, so its true multiplier dimension
        # is 2 even though the printed table says 3.
        _entry("(2|3)_19", 2, printed=3),
        _entry("(2|3)_22", 3),
        _entry("(2|3)_23", 2),
    )
}

TABLE1_ORDER = tuple(_ENTRIES)


def names(tag: str | None = None) -> list[str]:
    """Catalog names, optionally filtered by tag, in table order."""
    return [n for n in TABLE1_ORDER if tag is None or tag in _ENTRIES[n].tags]


def entry(name: str) -> CatalogEntry:
    try:
        return _ENTRIES[name]
    except KeyError:
        raise UnknownName(f"no catalog entry named {name!r}") from None


def get(name: str, field: Field = RATIONALS) -> Superalgebra:
    """Instantiate a catalog entry over the given field from its data file;
    the test suite validates every file, so `get` does not."""
    return _lower_unchecked(parse(data_path(name).read_text(encoding="utf-8")), field)


def data_path(name: str) -> Path:
    """Path of the shipped presentation file for a catalog entry."""
    m = re.match(r"\((\d+)\|(\d+)\)_(\d+)$", entry(name).name)
    return Path(__file__).parent / "data" / f"{m.group(1)}_{m.group(2)}_{m.group(3)}.lsa"


def abelian(m: int, n: int, field: Field = RATIONALS) -> Superalgebra:
    return Superalgebra.from_entries(field, SuperDim(m, n), [],
                                     name=f"abelian({m}|{n})")


def heisenberg3(field: Field = RATIONALS) -> Superalgebra:
    """The (3|0) Heisenberg algebra, a classical sanity fixture."""
    e3 = [field.zero, field.zero, field.one]
    return Superalgebra.from_entries(field, SuperDim(3, 0), [((0, 1), e3)],
                                     name="heisenberg3")


def family_4_2(alpha2, alpha4, field: Field = RATIONALS) -> Superalgebra:
    """Two-parameter (4|2) central extensions of (3|2)_13 by a line <e4>.

    The graded Jacobi identity on (e1, f2, f2) forces the e4-corrections
    of [e1, e2] and [f1, f2] to coincide, so both carry alpha4 here. In
    the valid family e4 lands in the derived subalgebra exactly when
    alpha2 is nonzero; otherwise the instance degenerates (derived
    dimension 3) and a ScopeWarning is emitted.
    """
    a2 = field.of(alpha2)
    a4 = field.of(alpha4)
    dims = SuperDim(4, 2)
    labels = default_labels(dims)
    z = field.zero
    e3 = labels.index("e3")
    e4 = labels.index("e4")
    e2 = labels.index("e2")
    f1 = labels.index("f1")

    def vec(*pairs):
        v = [z] * dims.total
        for idx, c in pairs:
            v[idx] = v[idx] + c
        return v

    entries = [
        ((0, 1), vec((e3, field.one), (e4, a4))),          # [e1, e2]
        ((0, e3), vec((e4, a2))),                          # [e1, e3]
        ((f1, f1), vec((e4, a2))),                         # [f1, f1]
        ((0, labels.index("f2")), vec((f1, field.one))),   # [e1, f2]
        ((f1, labels.index("f2")), vec((e3, field.one), (e4, a4))),  # [f1, f2]
        ((labels.index("f2"), labels.index("f2")), vec((e2, field.of(2)))),  # [f2, f2]
    ]
    L = Superalgebra.from_entries(field, dims, entries,
                                  name=f"(4|2)[{alpha2},{alpha4}]", labels=labels)
    if derived_subspace(L).dim.total < 4:
        warnings.warn(
            f"(4|2) family parameters ({alpha2}, {alpha4}) fall outside the "
            f"derived-codimension-2 scope (dim L^2 < 4)",
            ScopeWarning, stacklevel=2,
        )
    return L
