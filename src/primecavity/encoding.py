"""Integers as photon occupations of prime-indexed modes.

The mode labeled by a prime q oscillates at omega*log(q), so the state that
encodes N = q1^m1 * q2^m2 * ... carries m_i photons in mode q_i and has
energy hbar*omega*log(N). Unique factorization makes the level ladder
non-degenerate: one level per natural number, with the vacuum encoding 1.
Natural logarithms throughout; omega is a free scale, so the log base only
rescales it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .units import Units

# Largest integer an occupation vector may compose to. Python ints are
# unbounded, but everything downstream treats labels as machine integers.
MAX_COMPOSED = 2**63 - 1

# Smallest prime factor of 0..len-1 (spf[0] = 0, spf[1] = 1, spf[p] = p for a
# prime p); grown geometrically and shared by every lookup below. int32 holds
# every entry up to _SPF_CAP.
_spf = np.arange(2, dtype=np.int32)
_SPF_CAP = 2**31 - 1
_DIVISOR_BLOCK = 4096

# Miller-Rabin with the first 12 primes as bases is exact below
# 318665857834031151167461 (about 3.2e23), far above MAX_COMPOSED. Smaller n
# need fewer of them: the first k bases are exact below bound (OEIS A014233).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_BASES_PRODUCT = math.prod(_MILLER_RABIN_BASES)
_MILLER_RABIN_BOUNDS = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
)


def _as_label(n) -> int:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise TypeError(f"labels are positive integers, got {n!r}")
    return int(n)


def _spf_table(limit: int) -> np.ndarray:
    """The cached smallest-prime-factor table, grown to cover 0..limit at least."""
    global _spf
    if limit >= len(_spf):
        if limit > _SPF_CAP:
            raise MemoryError(f"the smallest-prime-factor table stops at {_SPF_CAP}")
        size = min(max(limit, 2 * (len(_spf) - 1), 1024), _SPF_CAP) + 1
        spf = np.zeros(size, dtype=np.int32)
        for p in range(2, math.isqrt(size - 1) + 1):
            if not spf[p]:  # no smaller prime divides p
                multiples = spf[p * p :: p]
                multiples[multiples == 0] = p
        unmarked = np.flatnonzero(spf == 0)
        spf[unmarked] = unmarked  # the primes, plus 0 and 1
        _spf = spf
    return _spf


def _miller_rabin(n: int) -> bool:
    """Deterministic primality for n > 37 coprime to every base, n <= MAX_COMPOSED."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    k = next((k for bound, k in _MILLER_RABIN_BOUNDS if n < bound), 12)
    for a in _MILLER_RABIN_BASES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Table lookup inside the smallest-prime-factor table, Miller-Rabin above it."""
    n = _as_label(n)
    if n < 2:
        return False
    if n < len(_spf):
        return int(_spf[n]) == n
    if n > MAX_COMPOSED:
        raise OverflowError(f"{n} exceeds the supported width ({MAX_COMPOSED})")
    if math.gcd(n, _BASES_PRODUCT) != 1:
        return n in _MILLER_RABIN_BASES
    return _miller_rabin(n)


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit, ascending."""
    limit = _as_label(limit)
    if limit < 2:
        raise ValueError(f"no primes exist below 2 (got limit={limit})")
    return _primes_in(_spf_table(limit), 2, limit)


def _primes_in(spf: np.ndarray, lo: int, hi: int) -> list[int]:
    """Primes in lo..hi (lo >= 2), ascending, read off the table."""
    candidates = np.arange(lo, hi + 1, dtype=spf.dtype)
    return candidates[spf[lo : hi + 1] == candidates].tolist()


def _trial_divisors(spf: np.ndarray, limit: int):
    """Primes <= limit, read a block at a time: trial division mostly stops early."""
    for lo in range(2, limit + 1, _DIVISOR_BLOCK):
        yield from _primes_in(spf, lo, min(lo + _DIVISOR_BLOCK - 1, limit))


@dataclass(frozen=True)
class OccupationVector:
    """Photon count per prime mode, as ((prime, exponent), ...) with primes ascending.

    The empty vector is the vacuum and composes to 1. Construction rejects
    non-primes, zero exponents, unordered entries, and anything composing
    past MAX_COMPOSED.
    """

    entries: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        prev = 1
        for q, m in self.entries:
            if q <= prev:
                raise ValueError("mode primes must be strictly increasing")
            if not is_prime(q):
                raise ValueError(f"mode index {q} is not prime")
            if m < 1:
                raise ValueError("exponents must be >= 1; omit empty modes")
            prev = q
        compose(self)  # overflow guard

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)

    @property
    def is_vacuum(self) -> bool:
        return not self.entries

    def __str__(self) -> str:
        return format_occupation(self)


def compose(occ: OccupationVector) -> int:
    """Multiply the prime powers back into the encoded integer."""
    value = 1
    for q, m in occ.entries:
        for _ in range(m):
            value *= q
            if value > MAX_COMPOSED:
                raise OverflowError(
                    f"occupation composes past the supported width ({MAX_COMPOSED})"
                )
    return value


def factorize(n: int) -> OccupationVector:
    """Prime factorization of n as an occupation vector.

    Grows the smallest-prime-factor table to sqrt(n); follows its chain when n
    lies inside the table and trial-divides by the primes up to sqrt(n) otherwise.
    """
    n = _as_label(n)
    if n < 1:
        raise ValueError(f"only positive integers encode cavity states (got {n})")
    if n > MAX_COMPOSED:
        raise OverflowError(f"{n} exceeds the supported width ({MAX_COMPOSED})")
    root = math.isqrt(n)
    spf = _spf_table(root)
    entries = []
    rest = n
    if n < len(spf):
        while rest > 1:
            q, m = int(spf[rest]), 0
            while rest % q == 0:
                rest //= q
                m += 1
            entries.append((q, m))
    else:
        for q in _trial_divisors(spf, root):
            if q * q > rest:
                break
            m = 0
            while rest % q == 0:
                rest //= q
                m += 1
            if m:
                entries.append((q, m))
        if rest > 1:
            entries.append((rest, 1))
    return OccupationVector(tuple(entries))


def format_occupation(occ: OccupationVector) -> str:
    """Render like 360 -> '2^3*3^2*5'; the vacuum renders as '1'."""
    if occ.is_vacuum:
        return "1"
    return "*".join(f"{q}^{m}" if m > 1 else str(q) for q, m in occ.entries)


def occupation_strings(n_max: int) -> list[str]:
    """format_occupation(factorize(n)) for n = 1..n_max, at position n - 1.

    One pass over the smallest-prime-factor table: with q = spf[n] and q^m the
    full power of q in n, s[n] = head(q^m) + "*" + s[n / q^m].
    """
    n_max = _as_label(n_max)
    if n_max < 1:
        raise ValueError(f"labels start at 1 (got n_max={n_max})")
    spf = _spf_table(n_max)[: n_max + 1].tolist()
    strings = ["", "1"]  # slot 0 is padding
    power = [0, 0]  # exponent m of spf[n] in n
    cofactor = [0, 1]  # n / spf[n]^m
    for n in range(2, n_max + 1):
        q = spf[n]
        r = n // q
        if spf[r] == q:
            m, c = power[r] + 1, cofactor[r]
        else:
            m, c = 1, r
        power.append(m)
        cofactor.append(c)
        head = f"{q}^{m}" if m > 1 else str(q)
        strings.append(head if c == 1 else f"{head}*{strings[c]}")
    return strings[1 : n_max + 1]


def level_energy(n: int, units: Units = Units()) -> float:
    """E_N = hbar*omega*log(N); the vacuum sits exactly at zero."""
    n = _as_label(n)
    if n < 1:
        raise ValueError(f"labels start at 1 (got {n})")
    return units.energy_scale * math.log(n)


def upper_gap(n: int, units: Units = Units()) -> float:
    """E_{N+1} - E_N = hbar*omega*log((N+1)/N), via log1p to keep full precision."""
    n = _as_label(n)
    if n < 1:
        raise ValueError(f"labels start at 1 (got {n})")
    return units.energy_scale * math.log1p(1.0 / n)


def level_spacing(n: int, units: Units = Units()) -> float:
    """Distance from E_N to its nearest neighbor, about hbar*omega/N.

    The upper gap log((N+1)/N) is always smaller than the lower one, so the
    minimum is closed-form. N*level_spacing(N)/(hbar*omega) -> 1 from below.
    Requires N >= 2: the vacuum has no lower neighbor.
    """
    n = _as_label(n)
    if n < 2:
        raise ValueError("level spacing needs both neighbors; the vacuum has none below")
    return upper_gap(n, units)


@dataclass(frozen=True)
class SpectrumTable:
    """Level energies for N = 1..n_max; energies[N] holds E_N (slot 0 is NaN padding).

    Strictly increasing by unique factorization; degeneracy questions are
    integer questions about the labels, never float comparisons.
    """

    n_max: int
    units: Units
    energies: np.ndarray

    @classmethod
    def build(cls, n_max: int, units: Units = Units()) -> "SpectrumTable":
        n_max = _as_label(n_max)
        if n_max < 1:
            raise ValueError(f"spectrum needs at least the vacuum (got n_max={n_max})")
        e = np.empty(n_max + 1)
        e[0] = np.nan
        e[1:] = units.energy_scale * np.log(np.arange(1, n_max + 1, dtype=float))
        e.setflags(write=False)
        return cls(n_max=n_max, units=units, energies=e)

    def energy(self, n: int) -> float:
        n = _as_label(n)
        if not 1 <= n <= self.n_max:
            raise ValueError(f"label {n} outside 1..{self.n_max}")
        return float(self.energies[n])
