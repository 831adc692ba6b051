"""Independent oracles shared by the test modules.

These deliberately avoid the package's own code paths: factorization by
naive trial division, and a separately written dense-matrix RK4 integrator
for cross-checking the production propagator. The one exception is the
unpruned discrimination scan, which must repeat the package's arithmetic
expression for expression to serve as a bit-for-bit reference.
"""

import math

import numpy as np


def naive_factor(n: int) -> list[tuple[int, int]]:
    """Trial division by 2 and then every odd integer; no sieve, no cache."""
    out = []
    rest = n
    m = 0
    while rest % 2 == 0:
        rest //= 2
        m += 1
    if m:
        out.append((2, m))
    d = 3
    while d * d <= rest:
        m = 0
        while rest % d == 0:
            rest //= d
            m += 1
        if m:
            out.append((d, m))
        d += 2
    if rest > 1:
        out.append((rest, 1))
    return out


def oracle_rk4(n_max, lam, drive_freq, t_final, dt, hbar=1.0, omega=1.0):
    """Dense-matrix RK4 for the star-driven cavity, written independently.

    Builds the full Hamiltonian H(t) = diag(E) + cos(drive_freq*t)*W each
    evaluation instead of exploiting the star structure.
    """
    energies = hbar * omega * np.log(np.arange(1, n_max + 1, dtype=float))
    w = np.zeros((n_max, n_max), dtype=complex)
    w[0, 1:] = lam
    w[1:, 0] = lam
    h0 = np.diag(energies).astype(complex)

    def hmat(t):
        return h0 + np.cos(drive_freq * t) * w

    psi = np.zeros(n_max, dtype=complex)
    psi[0] = 1.0
    steps = int(round(t_final / dt))
    h = t_final / steps
    t = 0.0
    for _ in range(steps):
        k1 = -1j / hbar * (hmat(t) @ psi)
        k2 = -1j / hbar * (hmat(t + h / 2) @ (psi + h / 2 * k1))
        k3 = -1j / hbar * (hmat(t + h / 2) @ (psi + h / 2 * k2))
        k4 = -1j / hbar * (hmat(t + h) @ (psi + h * k3))
        psi = psi + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return psi


def unpruned_instantaneous_time(target, basis, coupling, kappa):
    """The instantaneous discrimination scan over every competitor, unpruned.

    Same detunings, grid, half-beat floor and one-period window as
    perturbation.discrimination_time, written out in full so that the
    package's competitor pruning can be checked against it bit for bit.
    """
    hbar, omega = basis.units.hbar, basis.units.omega
    labels = np.arange(2, basis.n_max + 1)
    labels = labels[labels != target]
    gap = labels - target
    delta = omega * np.sign(gap) * np.log1p(np.abs(gap) / np.minimum(labels, target))
    mags = np.abs(coupling.vacuum_row[labels - 1])
    w_target = abs(complex(coupling.vacuum_row[target - 1]))
    t_envelope = 2.0 * math.sqrt(kappa) * float(np.max(mags / np.abs(delta))) / w_target

    period = 2.0 * math.pi / (omega * math.log1p(1.0 / target))
    step = period / 64
    times = np.arange(0.0, t_envelope + period + 2 * step, step)
    worst_p = np.zeros_like(times)
    for lo in range(0, len(delta), 1024):
        d = delta[lo : lo + 1024, None]
        w = mags[lo : lo + 1024, None]
        comp = (w / hbar) ** 2 * np.sin(0.5 * (d * times)) ** 2 / d**2
        np.maximum(worst_p, comp.max(axis=0), out=worst_p)
    p_target = (w_target * times / (2.0 * hbar)) ** 2
    ok = (p_target >= kappa * worst_p) & (p_target > 0.0)
    ok[:32] = False
    for i in np.flatnonzero(ok):
        if i + 65 > len(ok):
            break
        if ok[i : i + 65].all():
            return float(times[i])
    return t_envelope
