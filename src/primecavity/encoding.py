"""Integers as photon occupations of prime-indexed modes.

The mode labeled by a prime q oscillates at omega*log(q), so the state that
encodes N = q1^m1 * q2^m2 * ... carries m_i photons in mode q_i and has
energy hbar*omega*log(N). Unique factorization makes the level ladder
non-degenerate: one level per natural number, with the vacuum encoding 1.
Natural logarithms throughout; omega is a free scale, so the log base only
rescales it. Nothing here keeps state between calls: every function is safe
to call from several threads at once.
"""

import math
from dataclasses import dataclass

import numpy as np

from .units import Units

# Largest integer an occupation vector may compose to. Python ints are
# unbounded, but everything downstream treats labels as machine integers.
MAX_COMPOSED = 2**63 - 1

# A smallest-prime-factor array stores int32 entries, so a sieve stops here.
_SPF_CAP = 2**31 - 1

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
_LEAST_COPRIME_COMPOSITE = 41 * 41  # 41 is the next prime after the bases


def _as_label(n) -> int:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise TypeError(f"labels are positive integers, got {n!r}")
    return int(n)


def _sieve(limit: int) -> np.ndarray:
    """Smallest prime factor of 0..limit: spf[0] = 0, spf[1] = 1, spf[p] = p for a prime p."""
    if limit > _SPF_CAP:
        raise MemoryError(f"the smallest-prime-factor sieve stops at {_SPF_CAP}")
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if not spf[p]:  # no smaller prime divides p
            multiples = spf[p * p :: p]
            multiples[multiples == 0] = p
    unmarked = np.flatnonzero(spf == 0)
    spf[unmarked] = unmarked  # the primes, plus 0 and 1
    return spf


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


def _rho_divisor(n: int) -> int:
    """A proper divisor of a composite n coprime to every base (Pollard-Brent rho).

    Brent's cycle search on y -> y*y + c (mod n) from y = 2: each round skips r
    steps, then takes the gcd of n with the product of x - y over r more, and
    r doubles. A round that collects all of n at once is retraced a step at a
    time; if that also gives n, c = 1, 2, ... moves on to the next polynomial.
    The search meets a factor p <= sqrt(n) after O(sqrt(p)) = O(n^(1/4)) steps
    (Brent 1980). Rounds stop at r = 2^(4 + bits(n)//4) > 9 n^(1/4), past which a
    random map mod p still lacks a collision with probability below e^-45, and c
    at bits(n)//4 + 2; a search that passes either bound is broken and raises.
    """
    bits = n.bit_length()
    r_max = 1 << (4 + bits // 4)
    for c in range(1, bits // 4 + 3):
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and r <= r_max:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            ys = y
            for _ in range(r):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = math.gcd(q, n)
            r *= 2
        if g == n:
            for _ in range(r):
                ys = (ys * ys + c) % n
                if (g := math.gcd(x - ys, n)) != 1:
                    break
        if 1 < g < n:
            return g
    raise ArithmeticError(f"Pollard-Brent rho found no divisor of {n} within its step bound")


def is_prime(n: int) -> bool:
    """Deterministic primality, exact up to MAX_COMPOSED.

    An n sharing a factor with the Miller-Rabin bases is prime only if it is one
    of them; any other n is prime below 41^2, and Miller-Rabin decides above.
    """
    n = _as_label(n)
    if n < 2:
        return False
    if n > MAX_COMPOSED:
        raise OverflowError(f"{n} exceeds the supported width ({MAX_COMPOSED})")
    if math.gcd(n, _BASES_PRODUCT) != 1:
        return n in _MILLER_RABIN_BASES
    return n < _LEAST_COPRIME_COMPOSITE or _miller_rabin(n)


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

    @classmethod
    def _proven(cls, entries: tuple[tuple[int, int], ...]) -> "OccupationVector":
        """A vector of ascending proven primes composing to a label: no second proof."""
        occ = object.__new__(cls)
        object.__setattr__(occ, "entries", entries)
        return occ

    @property
    def is_vacuum(self) -> bool:
        return not self.entries


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

    Divides out the Miller-Rabin bases, then splits each composite part with
    Pollard-Brent rho until Miller-Rabin proves every part prime, so the
    vector skips the constructor's checks. No table: memory stays a few
    integers whatever n is.
    """
    n = _as_label(n)
    if n < 1:
        raise ValueError(f"only positive integers encode cavity states (got {n})")
    if n > MAX_COMPOSED:
        raise OverflowError(f"{n} exceeds the supported width ({MAX_COMPOSED})")
    powers = {}
    for q in _MILLER_RABIN_BASES:
        while n % q == 0:
            n //= q
            powers[q] = powers.get(q, 0) + 1
    parts = [n] if n > 1 else []
    while parts:  # every part is coprime to the bases
        part = parts.pop()
        if part < _LEAST_COPRIME_COMPOSITE or _miller_rabin(part):
            powers[part] = powers.get(part, 0) + 1
        else:
            d = _rho_divisor(part)
            parts += [d, part // d]
    return OccupationVector._proven(tuple(sorted(powers.items())))


def format_occupation(occ: OccupationVector) -> str:
    """Render like 360 -> '2^3*3^2*5'; the vacuum renders as '1'."""
    if occ.is_vacuum:
        return "1"
    return "*".join(f"{q}^{m}" if m > 1 else str(q) for q, m in occ.entries)


def occupation_strings(n_max: int) -> list[str]:
    """format_occupation(factorize(n)) for n = 1..n_max, at position n - 1.

    Built one prime power at a time over a smallest-prime-factor sieve. Every
    prime p renders as str(p); then, for p <= sqrt(n_max) in descending order
    and each power p^m, s[p^m] = head(p^m) and every cofactor c > 1 whose
    smallest prime factor exceeds p gets s[p^m * c] = head(p^m) + "*" + s[c]
    in one vectorised add.
    s[c] only holds primes above p, so it is complete when it is read.
    """
    n_max = _as_label(n_max)
    if n_max < 1:
        raise ValueError(f"labels start at 1 (got n_max={n_max})")
    spf = _sieve(n_max)
    strings = np.empty(n_max + 1, dtype=object)  # slot 0 is padding
    strings[1] = "1"
    primes = np.flatnonzero(spf == np.arange(n_max + 1))[2:]  # spf[0] = 0 and spf[1] = 1
    strings[primes] = list(map(str, primes.tolist()))
    for p in reversed(primes[: np.searchsorted(primes, math.isqrt(n_max), "right")].tolist()):
        power, m = p, 1
        while power <= n_max:
            head = f"{p}^{m}" if m > 1 else str(p)
            strings[power] = head
            cofactors = np.flatnonzero(spf[2 : n_max // power + 1] > p) + 2
            strings[power * cofactors] = head + "*" + strings[cofactors]
            power, m = power * p, m + 1
    return strings[1:].tolist()


def level_energy(n: int, units: Units = Units()) -> float:
    """E_N = hbar*omega*log(N); the vacuum sits exactly at zero."""
    n = _as_label(n)
    if n < 1:
        raise ValueError(f"labels start at 1 (got {n})")
    return units.energy_scale * math.log(n)


def upper_gap(n: int, units: Units = Units()) -> float:
    """E_{N+1} - E_N = hbar*omega*log((N+1)/N), via log1p to keep full precision.

    For N >= 2 this is also the distance to the nearest neighbour, since the
    lower gap is always the larger; N*upper_gap(N)/(hbar*omega) -> 1 from below.
    """
    n = _as_label(n)
    if n < 1:
        raise ValueError(f"labels start at 1 (got {n})")
    return units.energy_scale * math.log1p(1.0 / n)
