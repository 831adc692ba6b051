import math
import time
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import primecavity.encoding as encoding
from primecavity import (
    MAX_COMPOSED,
    OccupationVector,
    SpectrumTable,
    Units,
    compose,
    factorize,
    format_occupation,
    is_prime,
    level_energy,
    level_spacing,
    occupation_strings,
    sieve_primes,
    upper_gap,
)

from helpers import naive_factor

# frozen to 40 decimal digits and rounded to the nearest double
LN2 = 0.6931471805599453
LN_3_OVER_2 = 0.4054651081081644
GAP_AT_1000 = 9.995003330835331e-4


@contextmanager
def empty_spf_table():
    """Run with an empty smallest-prime-factor table; the cached one comes back after."""
    saved = encoding._spf
    encoding._spf = np.arange(2, dtype=np.int32)
    try:
        yield
    finally:
        encoding._spf = saved


def test_sieve_small_examples():
    assert sieve_primes(13) == [2, 3, 5, 7, 11, 13]
    assert sieve_primes(2) == [2]
    assert sieve_primes(3) == [2, 3]


def test_sieve_hundred_has_25_primes():
    primes = sieve_primes(100)
    assert len(primes) == 25
    oracle = [n for n in range(2, 101) if all(n % d for d in range(2, n))]
    assert primes == oracle


def test_sieve_empty_domain():
    for bad in (1, 0, -7):
        with pytest.raises(ValueError):
            sieve_primes(bad)


def test_sieve_matches_oracle_up_to_500():
    oracle = [n for n in range(2, 501) if all(n % d for d in range(2, int(n**0.5) + 1))]
    assert sieve_primes(500) == oracle


def test_is_prime_spot_checks():
    assert is_prime(2) and is_prime(97) and is_prime(7919)
    assert not is_prime(1) and not is_prime(0) and not is_prime(91)


def test_factorize_360():
    occ = factorize(360)
    assert occ.as_dict() == {2: 3, 3: 2, 5: 1}
    assert compose(occ) == 360


def test_factorize_vacuum():
    occ = factorize(1)
    assert occ.is_vacuum
    assert occ.entries == ()
    assert compose(occ) == 1


def test_factorize_prime():
    assert factorize(97).as_dict() == {97: 1}


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
        sieve_primes(10.0)


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
    assert str(factorize(15)) == "3*5"


def test_level_energy_values():
    assert level_energy(1) == 0.0  # exactly
    assert math.isclose(level_energy(2), LN2, rel_tol=1e-15)
    assert math.isclose(level_energy(8, Units(hbar=2.0, omega=3.0)), 6 * math.log(8),
                        rel_tol=1e-15)
    with pytest.raises(ValueError):
        level_energy(0)


def test_level_spacing_values():
    assert math.isclose(level_spacing(1000), GAP_AT_1000, rel_tol=1e-14)
    assert math.isclose(level_spacing(2), LN_3_OVER_2, rel_tol=1e-14)
    with pytest.raises(ValueError):
        level_spacing(1)


def test_level_spacing_is_upper_gap():
    for n in (2, 3, 10, 999):
        assert level_spacing(n) == upper_gap(n)
        # the lower gap is always the larger of the two
        assert level_spacing(n) < math.log(n) - math.log(n - 1)


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
    table = SpectrumTable.build(5000)
    assert table.energies[1] == 0.0  # vacuum exactly at zero
    assert np.isnan(table.energies[0])  # slot 0 is padding
    assert np.all(np.diff(table.energies[1:]) > 0)
    assert table.energy(2) == pytest.approx(LN2, rel=1e-15)
    with pytest.raises(ValueError):
        table.energy(5001)
    with pytest.raises(ValueError):
        SpectrumTable.build(0)


def test_spectrum_table_is_readonly():
    table = SpectrumTable.build(10)
    with pytest.raises(ValueError):
        table.energies[3] = 0.0


def test_spectrum_units_scaling():
    table = SpectrumTable.build(100, Units(hbar=2.0, omega=0.5))
    assert table.energy(10) == pytest.approx(math.log(10), rel=1e-15)


def test_spf_table_holds_smallest_prime_factors():
    spf = encoding._spf_table(5000)
    assert spf.dtype == np.int32
    assert spf[0] == 0 and spf[1] == 1
    for n in range(2, 5001):
        assert spf[n] == naive_factor(n)[0][0]


def test_spf_table_growth():
    with empty_spf_table():
        assert len(encoding._spf_table(5)) == 1025  # never smaller than 1024
        sieve_primes(5000)
        assert len(encoding._spf) == 5001  # sieve_primes fills to its limit
        sieve_primes(6000)
        assert len(encoding._spf) == 10001  # growth is geometric
        factorize(10**7 + 19)
        assert len(encoding._spf) == 10001  # factorize needs only sqrt(n)
        factorize(10**10 + 19)
        assert len(encoding._spf) == 100_001
        assert is_prime(10**12 + 39) and len(encoding._spf) == 100_001  # is_prime never grows it


def test_is_prime_agrees_with_spf_table_to_a_million():
    table = encoding._spf_table(10**6)
    labels = np.arange(2, 10**6 + 1)
    expected = (table[2 : 10**6 + 1] == labels).tolist()
    with empty_spf_table():  # every n lies above the table: Miller-Rabin
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


@pytest.mark.parametrize("table", ["cached", "empty"])
def test_is_prime_rejects_pseudoprimes(table):
    encoding._spf_table(5000)
    with empty_spf_table() if table == "empty" else nullcontext():
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
    assert OccupationVector(((2**61 - 1, 1),)).as_dict() == {2**61 - 1: 1}
    assert time.perf_counter() - start < 0.5


def test_occupation_strings_match_per_label_formatting():
    assert occupation_strings(1) == ["1"]
    assert occupation_strings(12)[-1] == "2^2*3"
    strings = occupation_strings(20_000)
    assert strings == [format_occupation(factorize(n)) for n in range(1, 20_001)]


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3000))
def test_occupation_strings_prefix_property(n_max):
    encoding._spf_table(3000)  # a table longer than n_max must not leak into the result
    strings = occupation_strings(n_max)
    assert len(strings) == n_max
    assert strings == [format_occupation(factorize(n)) for n in range(1, n_max + 1)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10**6))
def test_spf_chain_and_trial_division_agree_with_oracle(n):
    encoding._spf_table(10**6)
    chained = factorize(n)  # n lies inside the table
    with empty_spf_table():
        divided = factorize(n)  # the table grows only to sqrt(n), so n > 1024 lies above it
    assert chained == divided
    assert list(chained.entries) == naive_factor(n)
    assert compose(chained) == n


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 10**12))
def test_factorize_compose_roundtrip_large(n):
    occ = factorize(n)
    assert compose(occ) == n
    assert list(occ.entries) == naive_factor(n)
    assert is_prime(n) == (occ.entries == ((n, 1),))
