"""Reference answers written independently of the primecavity package.

Nothing here imports the package: factorization is naive trial division,
closed forms are evaluated with the math module, and the reference
wave function comes from a separately written dense-matrix RK4.
"""

import math

import numpy as np


def naive_factors(n: int) -> str:
    """Factorization rendered like '2^3*3^2*5' (vacuum '1'), by trial division."""
    parts = []
    rest = n
    d = 2
    while d * d <= rest:
        m = 0
        while rest % d == 0:
            rest //= d
            m += 1
        if m:
            parts.append(f"{d}^{m}" if m > 1 else str(d))
        d += 1 if d == 2 else 2
    if rest > 1:
        parts.append(str(rest))
    return "*".join(parts) or "1"


def uniform_envelope_time(target: int, kappa: float, omega: float = 1.0) -> float:
    """Envelope discrimination time of the uniform star: 2*sqrt(kappa)/(omega*log1p(1/N))."""
    return 2.0 * math.sqrt(kappa) / (omega * math.log1p(1.0 / target))


def decay_envelope_time(target: int, n_max: int, kappa: float, omega: float = 1.0) -> float:
    """Envelope discrimination time of the 1/sqrt(M) star, by a plain loop over competitors."""
    worst = 0.0
    log_target = math.log(target)
    for m in range(2, n_max + 1):
        if m != target:
            worst = max(worst, 1.0 / (math.sqrt(m) * abs(omega * (math.log(m) - log_target))))
    return 2.0 * math.sqrt(kappa) * worst * math.sqrt(target)


def reference_state(n_max, strength, drive_freq, t_final, steps, hbar=1.0, omega=1.0):
    """Lab-frame RK4 from the vacuum with the full cosine drive, dense Hamiltonian.

    H(t) = diag(hbar*omega*log N) + cos(drive_freq*t) * W, where W couples the
    vacuum to every excited level with the given strength.
    """
    h0 = np.diag(hbar * omega * np.log(np.arange(1, n_max + 1, dtype=float))).astype(complex)
    w = np.zeros((n_max, n_max), dtype=complex)
    w[0, 1:] = strength
    w[1:, 0] = strength
    psi = np.zeros(n_max, dtype=complex)
    psi[0] = 1.0
    h = t_final / steps

    def rhs(t, y):
        return (-1j / hbar) * ((h0 + math.cos(drive_freq * t) * w) @ y)

    for k in range(steps):
        t = k * h
        k1 = rhs(t, psi)
        k2 = rhs(t + h / 2, psi + (h / 2) * k1)
        k3 = rhs(t + h / 2, psi + (h / 2) * k2)
        k4 = rhs(t + h, psi + h * k3)
        psi = psi + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return psi
