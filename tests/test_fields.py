import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, strategies as st

import superschur
from superschur.errors import BadField
from superschur.fields import MR_LIMIT, Field, Mod, RATIONALS, _is_prime


def test_rationals_basics():
    assert RATIONALS.is_rational
    assert RATIONALS.characteristic == 0
    assert RATIONALS.of(3) == Fraction(3)
    assert RATIONALS.of("3/2") == Fraction(3, 2)
    assert RATIONALS.zero == 0 and RATIONALS.one == 1


INT_SAMPLES = [*range(-50, 51), 2 ** 70, -2 ** 70, True, False]


@pytest.mark.parametrize("p", [5, 7, 2 ** 61 - 1])
def test_of_int_is_a_mod_equal_to_the_fraction_path(p):
    F = Field(p)
    for k in INT_SAMPLES:
        x = F.of(k)
        assert type(x) is Mod and x.p == p and type(x.val) is int
        assert x == F.of(Fraction(k)) and x.val == k % p


def test_rationals_of_int_is_a_fraction():
    for k in INT_SAMPLES:
        x = RATIONALS.of(k)
        assert type(x) is Fraction and x == k


@pytest.mark.parametrize("p", [2, 3, 4, 6, 9, 15])
def test_bad_characteristic_rejected(p):
    with pytest.raises(BadField):
        Field(p)


@pytest.mark.parametrize("p", [5, 7, 11, 101])
def test_prime_fields_accepted(p):
    f = Field(p)
    assert f.characteristic == p
    assert str(f) == f"F{p}"


def test_mod_arithmetic():
    f = Field(7)
    a, b = f.of(3), f.of(5)
    assert a + b == f.of(1)
    assert a - b == f.of(-2) == f.of(5)
    assert a * b == f.of(15)
    assert (a / b) * b == a
    assert -a == f.of(4)
    assert bool(f.zero) is False and bool(a) is True
    assert 2 * a == f.of(6)
    with pytest.raises(ZeroDivisionError):
        a / f.zero


def test_mod_mixed_moduli_rejected():
    with pytest.raises(ValueError):
        Field(5).of(1) + Field(7).of(1)


def test_fraction_coercion_into_prime_field():
    f = Field(5)
    assert f.of(Fraction(1, 2)) == f.of(3)  # 1/2 = 3 mod 5
    with pytest.raises(BadField):
        f.of(Fraction(1, 5))


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_mod_ring_axioms(a, b, c):
    f = Field(11)
    x, y, z = f.of(a), f.of(b), f.of(c)
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    if y:
        assert (x / y) * y == x


def test_mod_hash_and_repr():
    assert hash(Mod(3, 5)) == hash(Mod(8, 5))
    assert repr(Mod(8, 5)) == "3"


def test_mod_hashes_like_the_int_it_equals():
    assert Mod(1, 5) == 1
    assert {Mod(1, 5): 0}[1] == 0
    assert {1: 0}[Mod(6, 5)] == 0


def test_mod_equals_an_int_only_at_its_canonical_residue():
    four = Mod(4, 5)
    assert four == 4 and four != -1 and four != 9
    assert -1 not in {four} and 9 not in {four} and 4 in {four}


@given(st.integers(0, 12), st.integers(-30, 30), st.sampled_from([5, 7, 11]))
def test_mod_int_equality_keeps_the_hash_contract(r, a, p):
    x = Mod(r, p)
    assert (x == a) == (a == r % p)
    assert (x == a) == (a in {x}) == (x in {a})
    if x == a:
        assert hash(x) == hash(a)


def test_is_prime_matches_sympy():
    assert [n for n in range(10**4) if _is_prime(n)] == list(sympy.primerange(10**4))


@pytest.mark.parametrize("n", [561, 41041, 825265, 3215031751,
                               318665857834031151167461])
def test_pseudoprimes_rejected(n):
    # Carmichael numbers, the least strong pseudoprime to bases 2..7, and
    # the least one to bases 2..37
    assert not _is_prime(n)
    with pytest.raises(BadField, match="not prime"):
        Field(n)


def test_primality_beyond_the_exact_range_is_refused():
    q = sympy.nextprime(MR_LIMIT)
    with pytest.raises(BadField, match=str(MR_LIMIT)):
        Field(q)


def test_large_prime_field_is_quick():
    src = str(Path(superschur.__file__).resolve().parents[1])
    code = "from superschur.fields import Field; assert Field(2**61 - 1).p == 2**61 - 1"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=10,
                   env={**os.environ, "PYTHONPATH": src})
