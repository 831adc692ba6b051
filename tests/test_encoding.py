import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import primecavity.encoding as encoding
from primecavity import (
    MAX_COMPOSED,
    OccupationVector,
    Units,
    build_basis,
    compose,
    factorize,
    format_occupation,
    is_prime,
    level_energy,
    occupation_strings,
    upper_gap,
)

from helpers import naive_factor

# frozen to 40 decimal digits and rounded to the nearest double
LN2 = 0.6931471805599453
LN_3_OVER_2 = 0.4054651081081644
GAP_AT_1000 = 9.995003330835331e-4


def test_is_prime_spot_checks():
    assert is_prime(2) and is_prime(97) and is_prime(7919)
    assert not is_prime(1) and not is_prime(0) and not is_prime(91)


def test_factorize_360():
    occ = factorize(360)
    assert dict(occ.entries) == {2: 3, 3: 2, 5: 1}
    assert compose(occ) == 360


def test_factorize_vacuum():
    occ = factorize(1)
    assert occ.is_vacuum
    assert occ.entries == ()
    assert compose(occ) == 1


def test_factorize_prime():
    assert dict(factorize(97).entries) == {97: 1}


def test_factorize_rejects_zero_and_negative():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-12)


def test_integer_labels_only():
    with pytest.raises(TypeError):
        factorize(2.5)
    with pytest.raises(TypeError):
        level_energy(math.e)
    with pytest.raises(TypeError):
        occupation_strings(10.0)


def test_compose_examples():
    assert compose(OccupationVector()) == 1
    assert compose(OccupationVector(((2, 2), (3, 1)))) == 12


def test_compose_overflow_rejected_at_construction():
    OccupationVector(((2, 62),))  # 2^62 still fits
    with pytest.raises(OverflowError):
        OccupationVector(((2, 64),))
    with pytest.raises(OverflowError):
        factorize(MAX_COMPOSED + 1)


def test_occupation_vector_validation():
    with pytest.raises(ValueError):
        OccupationVector(((4, 1),))  # not prime
    with pytest.raises(ValueError):
        OccupationVector(((3, 1), (2, 1)))  # out of order
    with pytest.raises(ValueError):
        OccupationVector(((2, 0),))  # empty mode must be omitted


def test_factorize_equals_the_validated_vector_it_skips():
    # factorize builds its vector without the constructor's checks, which
    # outside input still meets: 2047 = 23*89 is a strong pseudoprime to base 2
    for entries in (((2047, 1),), ((5, 1), (3, 2)), ((3, 0),)):
        with pytest.raises(ValueError):
            OccupationVector(entries)
    for n in range(1, 2001):
        validated = OccupationVector(tuple(naive_factor(n)))
        assert factorize(n) == validated and hash(factorize(n)) == hash(validated)


def test_roundtrip_against_naive_oracle():
    for n in range(1, 2001):
        occ = factorize(n)
        assert compose(occ) == n
        assert list(occ.entries) == naive_factor(n)


def test_format_occupation():
    assert format_occupation(factorize(12)) == "2^2*3"
    assert format_occupation(factorize(1)) == "1"
    assert format_occupation(factorize(97)) == "97"
    assert format_occupation(factorize(360)) == "2^3*3^2*5"
    assert format_occupation(factorize(15)) == "3*5"


def test_level_energy_values():
    assert level_energy(1) == 0.0  # exactly
    assert math.isclose(level_energy(2), LN2, rel_tol=1e-15)
    assert math.isclose(level_energy(8, Units(hbar=2.0, omega=3.0)), 6 * math.log(8),
                        rel_tol=1e-15)
    with pytest.raises(ValueError):
        level_energy(0)


def test_level_spacing_values():
    assert math.isclose(upper_gap(1000), GAP_AT_1000, rel_tol=1e-14)
    assert math.isclose(upper_gap(2), LN_3_OVER_2, rel_tol=1e-14)


def test_upper_gap_rejects_labels_below_1():
    with pytest.raises(ValueError, match=r"labels start at 1 \(got 0\)"):
        upper_gap(0)


def test_level_spacing_is_upper_gap():
    # the nearest-neighbour spacing of N >= 2 is its upper gap: the lower gap
    # is always the larger of the two
    for n in (2, 3, 10, 999):
        assert upper_gap(n) < math.log(n) - math.log(n - 1)


def test_scaled_spacing_bounds():
    n = np.arange(2, 10_001, dtype=float)
    scaled = n * np.log1p(1.0 / n)
    assert np.all(scaled < 1.0)
    assert np.all(scaled > 1.0 - 1.0 / n)
    # and |N*spacing - 1| <= 1/N
    assert np.all(np.abs(scaled - 1.0) <= 1.0 / n)


def test_occupation_energy_identity():
    for n in range(2, 10_001):
        occ = factorize(n)
        total = math.fsum(m * math.log(q) for q, m in occ.entries)
        assert abs(total - math.log(n)) <= 1e-12 * math.log(n)


def test_spectrum_table():
    basis = build_basis(5000)
    assert basis.energy_vector[0] == 0.0  # vacuum exactly at zero
    assert len(basis.energy_vector) == 5000  # no padding slot
    assert np.all(np.diff(basis.energy_vector) > 0)
    assert basis.energy_vector[1] == pytest.approx(LN2, rel=1e-15)
    with pytest.raises(ValueError):
        build_basis(0)


def test_spectrum_table_is_readonly():
    basis = build_basis(10)
    with pytest.raises(ValueError):
        basis.energy_vector[3] = 0.0


def test_spectrum_units_scaling():
    basis = build_basis(100, Units(hbar=2.0, omega=0.5))
    assert basis.energy_vector[9] == pytest.approx(math.log(10), rel=1e-15)


def test_spf_table_holds_smallest_prime_factors():
    spf = encoding._sieve(5000)
    assert spf.dtype == np.int32 and len(spf) == 5001  # sieved to its limit, no further
    assert spf[0] == 0 and spf[1] == 1
    for n in range(2, 5001):
        assert spf[n] == naive_factor(n)[0][0]


def test_sieve_rejects_limits_past_int32_entries():
    assert encoding._sieve(1).tolist() == [0, 1]
    with pytest.raises(MemoryError, match="stops at 2147483647"):
        encoding._sieve(2**31)  # rejected before any allocation


def test_is_prime_agrees_with_spf_table_to_a_million():
    table = encoding._sieve(10**6)
    labels = np.arange(2, 10**6 + 1)
    expected = (table[2:] == labels).tolist()
    assert [is_prime(n) for n in range(2, 10**6 + 1)] == expected


# smallest strong pseudoprime to the first k prime bases, k = 1, 2, 3, 4, 5, 6, 7, 9
# (OEIS A014233): each sits exactly at a bound where one more base takes over
STRONG_PSEUDOPRIMES = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
)


def test_is_prime_rejects_pseudoprimes():
    assert not is_prime(561)  # Carmichael number
    for n in STRONG_PSEUDOPRIMES:
        assert not is_prime(n), n
    assert is_prime(2**31 - 1) and is_prime(1000003)
    assert not is_prime(1000003 * 1000033)
    assert is_prime(MAX_COMPOSED - 24)  # the largest prime below 2^63


def test_occupation_strings_rejects_empty_range():
    for bad in (0, -3):
        with pytest.raises(ValueError):
            occupation_strings(bad)


def test_is_prime_rejects_labels_past_the_width():
    with pytest.raises(OverflowError):
        is_prime(MAX_COMPOSED + 2)


def test_is_prime_mersenne_61_is_fast():
    start = time.perf_counter()
    assert is_prime(2**61 - 1)
    assert dict(OccupationVector(((2**61 - 1, 1),)).entries) == {2**61 - 1: 1}
    assert time.perf_counter() - start < 0.5


def test_occupation_strings_match_per_label_formatting():
    assert occupation_strings(1) == ["1"]
    assert occupation_strings(12)[-1] == "2^2*3"
    strings = occupation_strings(20_000)
    assert strings == [format_occupation(factorize(n)) for n in range(1, 20_001)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_occupation_strings_around_prime_squares(p):
    for n_max in (p * p - 1, p * p, p * p + 1):
        expected = [format_occupation(factorize(n)) for n in range(1, n_max + 1)]
        assert occupation_strings(n_max) == expected


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3000))
def test_occupation_strings_prefix_property(n_max):
    strings = occupation_strings(n_max)
    assert len(strings) == n_max
    assert strings == [format_occupation(factorize(n)) for n in range(1, n_max + 1)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10**6))
def test_spf_chain_and_trial_division_agree_with_oracle(n):
    spf, chained, rest = encoding._sieve(n), {}, n
    while rest > 1:  # follow the sieve's smallest-prime-factor chain
        q = int(spf[rest])
        chained[q] = chained.get(q, 0) + 1
        rest //= q
    assert list(chained.items()) == naive_factor(n)  # naive trial division
    occ = factorize(n)
    assert dict(occ.entries) == chained and compose(occ) == n


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 10**12))
def test_factorize_compose_roundtrip_large(n):
    occ = factorize(n)
    assert compose(occ) == n
    assert list(occ.entries) == naive_factor(n)
    assert is_prime(n) == (occ.entries == ((n, 1),))


# 2^63 - 1 = 7^2 * 73 * 127 * 337 * 92737 * 649657, two prime squares, balanced
# semiprimes near 2^62 and 2^63, and the prime 2^62 + 135, where a sqrt(n) table ran out
LARGE_FACTORIZATIONS = {
    MAX_COMPOSED: {7: 2, 73: 1, 127: 1, 337: 1, 92737: 1, 649657: 1},
    99999989**2: {99999989: 2},
    2147483647**2: {2147483647: 2},
    2147483587 * 2147483629: {2147483587: 1, 2147483629: 1},
    2147483647 * 2147483659: {2147483647: 1, 2147483659: 1},
    3037000453 * 3037000493: {3037000453: 1, 3037000493: 1},
    2**62 + 135: {2**62 + 135: 1},
}


@pytest.mark.parametrize("n", LARGE_FACTORIZATIONS)
def test_factorize_large_labels_exactly(n):
    occ = factorize(n)
    assert dict(occ.entries) == LARGE_FACTORIZATIONS[n]
    assert compose(occ) == n
    assert all(is_prime(q) for q, _ in occ.entries)


def _prime_at_or_below(x: int) -> int:
    return next(q for q in range(x, 1, -1) if is_prime(q))


ROOT_OF_MAX = math.isqrt(MAX_COMPOSED)  # about 2^31.5: a product of two such primes fits


@settings(max_examples=40, deadline=None)
@given(st.integers(2, ROOT_OF_MAX), st.integers(2, ROOT_OF_MAX))
def test_factorize_products_of_found_primes(x, y):
    p, q = _prime_at_or_below(x), _prime_at_or_below(y)
    for n, expected in ((p * q, {p: 1} | {q: 1 + (p == q)}), (p * p, {p: 2}), (q * q, {q: 2})):
        occ = factorize(n)
        assert compose(occ) == n
        assert dict(occ.entries) == expected, n


@pytest.mark.parametrize("n", [10**16, MAX_COMPOSED - 24, MAX_COMPOSED])
def test_factorize_peak_memory_does_not_grow_with_n(n):  # a sqrt(n) table took 400 MB at 10^16
    tracemalloc.start()
    try:
        factorize(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32_000, peak


def test_broken_rho_raises_instead_of_hanging():
    # a gcd that never finds a factor: the step bound must end the search with
    # an error naming the label, where an unbounded search would never return
    script = ("import math\nmath.gcd = lambda a, b: 1\n"
              "import primecavity\nprimecavity.factorize(10403)")
    env = {**os.environ, "PYTHONPATH": str(Path(encoding.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=env, check=False)
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1].startswith("ArithmeticError: ")
    assert "10403" in proc.stderr.splitlines()[-1]
