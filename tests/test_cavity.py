import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import primecavity.encoding
from primecavity import (
    ConfigurationError,
    CouplingOperator,
    DriveConfig,
    Units,
    build_basis,
    build_coupling,
    factorize,
    level_energy,
    run_prepare,
    run_scaling,
    verify_reachability,
)


def test_build_basis_four_levels():
    basis = build_basis(4)
    assert basis.n_max == 4
    assert list(basis.labels) == [1, 2, 3, 4]
    expected = [0.0, math.log(2), math.log(3), math.log(4)]
    assert np.allclose(basis.energy_vector, expected, rtol=1e-15, atol=0)
    assert dict(factorize(4).entries) == {2: 2}
    assert factorize(1).is_vacuum


def test_basis_equality_follows_size_and_units():
    units = Units(hbar=1.3, omega=0.7)
    assert build_basis(10, units) == build_basis(10, units)
    assert hash(build_basis(10, units)) == hash(build_basis(10, units))
    assert build_basis(10, units) != build_basis(11, units)
    assert build_basis(10, units) != build_basis(10)


def test_build_basis_rejects_tiny():
    with pytest.raises(ValueError):
        build_basis(1)


@pytest.mark.parametrize("hbar, omega", [(1e-300, 1e-300), (1e-160, 1e-160), (1e-154, 1e-154),
                                         (2.3e-308, 0.5), (sys.float_info.min, 0.999)])
def test_units_reject_a_subnormal_energy_scale_naming_both(hbar, omega):
    # each is a normal float; their product is subnormal or zero, and every energy with it
    with pytest.raises(ValueError, match=f"^hbar={hbar:g} and omega={omega:g} are too small: "
                                         r"hbar\*omega=.* is below the smallest normal float$"):
        Units(hbar=hbar, omega=omega)


@pytest.mark.parametrize("hbar, omega", [(sys.float_info.min, 1.0), (1e-154, 1e-154 * 2.3),
                                         (1e-300, 1e300), (1e300, 1e-300)])
def test_units_accept_a_normal_energy_scale(hbar, omega):
    assert Units(hbar=hbar, omega=omega).energy_scale >= sys.float_info.min


def test_build_basis_rejects_an_energy_scale_whose_level_energy_overflows():
    with pytest.raises(ValueError, match=r"hbar\*omega=inf is too large: the energy of level 10"):
        build_basis(10, Units(hbar=1e300, omega=1e300))


def test_scaling_sweep_and_prepare_never_sieve(monkeypatch):
    def no_sieve(limit):
        raise AssertionError(f"sieved to {limit}")

    monkeypatch.setattr(primecavity.encoding, "_sieve", no_sieve)
    run_scaling([8, 16, 10**6])
    run_scaling([8, 16, 32], mode="instantaneous")
    assert run_prepare(6, strength=0.0138, shots=500, seed=1).status == "pass"


def test_basis_energies_match_level_energy():
    units = Units(hbar=1.5, omega=2.0)
    basis = build_basis(30, units)
    for n in basis.labels:  # np.log and math.log may round apart by one ulp
        expected = level_energy(n, units)
        assert abs(basis.energy_vector[n - 1] - expected) <= math.ulp(expected)
    # Hamiltonian is diagonal by construction: its only data is this vector
    assert np.all(np.diff(basis.energy_vector) > 0)


def test_star_uniform_matrix_entries():
    basis = build_basis(3)
    w = build_coupling(basis, "star-uniform", 0.01)
    m = w.matrix
    nonzero = {(i, j) for i, j in zip(*np.nonzero(m))}
    assert nonzero == {(0, 1), (1, 0), (0, 2), (2, 0)}
    assert m[0, 1] == m[0, 2] == 0.01
    assert w.vacuum_row[1] == 0.01


def test_star_decay_matrix_entries():
    basis = build_basis(6)
    lam = 0.02
    w = build_coupling(basis, "star-decay", lam)
    assert w.matrix[0, 3] == pytest.approx(lam / 2.0, rel=1e-15)  # label 4 = 1/sqrt(4)
    for n in range(2, 7):
        assert abs(w.vacuum_row[n - 1]) == pytest.approx(lam / math.sqrt(n), rel=1e-15)


def test_coupling_is_exactly_hermitian_with_zero_diagonal():
    basis = build_basis(17)
    for model in ("star-uniform", "star-decay"):
        m = build_coupling(basis, model, 1e-3).matrix
        assert np.array_equal(m, m.conj().T)
        assert not np.any(m.diagonal())


def test_coupling_matrix_is_readonly():
    basis = build_basis(5)
    w = build_coupling(basis, "star-uniform", 1e-3)
    with pytest.raises(ValueError):
        w.matrix[0, 1] = 0.0


def test_coupling_stores_only_its_vacuum_row():
    basis = build_basis(10**6)
    w = build_coupling(basis, "star-decay", 1e-3)
    held = sum(v.nbytes for v in vars(w).values() if hasattr(v, "nbytes"))
    assert held == 16 * 10**6
    assert w.n_max == 10**6
    assert w.vacuum_row[-1] == pytest.approx(1e-3 / 1000.0, rel=1e-15)


def test_coupling_copies_the_callers_row():
    row = np.array([0, 1e-3, 2e-3], dtype=complex)
    coupling = CouplingOperator("x", 1e-3, row)
    assert row.flags.writeable and coupling.vacuum_row is not row
    row[1] = 5.0
    assert coupling.vacuum_row.tolist() == [0, 1e-3, 2e-3]
    assert not coupling.vacuum_row.flags.writeable


def test_coupling_matrix_roundtrip():
    basis = build_basis(9)
    for model in ("star-uniform", "star-decay"):
        w = build_coupling(basis, model, 1e-3)
        rebuilt = CouplingOperator(model=model, strength=1e-3, matrix=w.matrix)
        assert np.array_equal(rebuilt.vacuum_row, w.vacuum_row)
        assert np.array_equal(rebuilt.matrix, w.matrix)
        assert not rebuilt.vacuum_row.flags.writeable


def test_coupling_needs_exactly_one_representation():
    row = np.zeros(3, dtype=complex)
    with pytest.raises(ValueError):
        CouplingOperator(model="x", strength=1.0)
    with pytest.raises(ValueError):
        CouplingOperator(model="x", strength=1.0, vacuum_row=row,
                         matrix=np.zeros((3, 3), dtype=complex))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_coupling_rejected(bad):
    basis = build_basis(4)
    with pytest.raises(ValueError, match="coupling strength"):
        build_coupling(basis, "star-uniform", bad)
    with pytest.raises(ValueError, match="coupling strength"):
        CouplingOperator(model="x", strength=bad, vacuum_row=np.zeros(4, dtype=complex))

    row = np.full(4, 1e-3, dtype=complex)
    row[0] = 0.0
    row[2] = bad
    with pytest.raises(ValueError, match="finite"):
        CouplingOperator(model="x", strength=1e-3, vacuum_row=row)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 2] = m[2, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        CouplingOperator(model="x", strength=1e-3, matrix=m)


@settings(max_examples=80, deadline=None)
@given(
    strength=st.one_of(st.floats(0.0, 1.0), st.floats()),
    row=st.one_of(  # a finite 1-d row, or any shape with any entries
        hnp.arrays(np.complex128, st.integers(1, 4), elements=st.complex_numbers(max_magnitude=1)),
        hnp.arrays(np.complex128, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4),
                   elements=st.complex_numbers(allow_nan=True, allow_infinity=True)),
    ),
    zero_first=st.booleans(),
)
def test_coupling_accepts_exactly_finite_strengths_and_finite_star_rows(strength, row, zero_first):
    if zero_first and row.ndim == 1 and row.size:
        row[0] = 0
    valid = (math.isfinite(strength) and strength >= 0 and row.ndim == 1 and row.size > 0
             and row[0] == 0 and bool(np.all(np.isfinite(row))))
    if not valid:
        with pytest.raises(ValueError):
            CouplingOperator("x", strength, row)
        return
    coupling = CouplingOperator("x", strength, row)
    assert coupling.strength == strength and coupling.n_max == row.size
    assert np.array_equal(coupling.vacuum_row, row) and not coupling.vacuum_row.flags.writeable


@pytest.mark.parametrize("n_max", [2**62, 2**63 - 1, 10**20])
def test_basis_numpy_cannot_size_is_a_memory_error(n_max):
    # numpy refuses the first and the last; the second's length it would wrap to 0
    with pytest.raises(MemoryError, match=f"numpy cannot hold a basis of {n_max} levels"):
        build_basis(n_max)


@pytest.mark.parametrize("model,strength,n_max,level", [
    ("star-uniform", 5e-324, 8, 8),
    ("star-uniform", 2e-308, 8, 8),
    ("star-decay", 1e-320, 1001, 1001),
    ("star-decay", 2.3e-307, 1001, 1001),  # normal, but lambda/sqrt(1001) is not
])
def test_subnormal_coupling_entries_name_lambda(model, strength, n_max, level):
    with pytest.raises(ValueError, match=f"^lambda={strength:g} is too small: the coupling "
                                         f"to level {level} is"):
        build_coupling(build_basis(n_max), model, strength)


def test_smallest_normal_coupling_is_accepted():
    tiny = sys.float_info.min
    assert build_coupling(build_basis(8), "star-uniform", tiny).vacuum_row[-1] == tiny
    decay = build_coupling(build_basis(100), "star-decay", 10 * tiny)
    assert abs(decay.vacuum_row[-1]) >= tiny


def test_unknown_model_is_configuration_error():
    basis = build_basis(4)
    with pytest.raises(ConfigurationError):
        build_coupling(basis, "ring", 1e-3)


def test_nonpositive_strength_rejected():
    basis = build_basis(4)
    for bad in (0.0, -1e-3):
        with pytest.raises(ValueError):
            build_coupling(basis, "star-uniform", bad)


def test_reachability_both_models():
    for n_max in (8, 64, 257):
        basis = build_basis(n_max)
        for model in ("star-uniform", "star-decay"):
            assert verify_reachability(build_coupling(basis, model, 1e-3))


def test_reachability_fails_for_zeroed_row():
    n = 6
    m = np.zeros((n, n), dtype=complex)
    m[0, 1:] = 1e-3
    m[1:, 0] = 1e-3
    m[0, 3] = 0.0
    m[3, 0] = 0.0
    broken = CouplingOperator(model="star-uniform", strength=1e-3, matrix=m)
    assert not verify_reachability(broken)
    fully_zero = CouplingOperator(
        model="star-uniform", strength=0.0, matrix=np.zeros((n, n), dtype=complex)
    )
    assert not verify_reachability(fully_zero)


def test_coupling_structural_validation():
    bad = np.zeros((3, 3), dtype=complex)
    bad[0, 1] = 1.0
    bad[1, 0] = 2.0  # not Hermitian
    with pytest.raises(ValueError):
        CouplingOperator(model="x", strength=1.0, matrix=bad)

    diag = np.zeros((3, 3), dtype=complex)
    diag[1, 1] = 1.0
    with pytest.raises(ValueError):
        CouplingOperator(model="x", strength=1.0, matrix=diag)

    with pytest.raises(ValueError):
        CouplingOperator(model="x", strength=1.0, matrix=np.zeros((2, 3), dtype=complex))

    row = np.full(3, 1e-3, dtype=complex)  # nonzero diagonal element at the vacuum
    with pytest.raises(ValueError):
        CouplingOperator(model="x", strength=1.0, vacuum_row=row)
    with pytest.raises(ValueError):
        CouplingOperator(model="x", strength=1.0, vacuum_row=np.zeros((2, 2), dtype=complex))


def test_drive_config_resonant():
    basis = build_basis(12)
    drive = DriveConfig.resonant(basis, 6)
    assert drive.frequency == pytest.approx(math.log(6), rel=1e-15)

    doubled = build_basis(12, Units(omega=2.0))
    assert DriveConfig.resonant(doubled, 6).frequency == pytest.approx(2 * math.log(6),
                                                                       rel=1e-15)
    with pytest.raises(ValueError):
        DriveConfig.resonant(basis, 1)
    with pytest.raises(ValueError):
        DriveConfig.resonant(basis, 13)
    with pytest.raises(ValueError):
        DriveConfig(frequency=-1.0)
    for frequency in (math.inf, math.nan):
        with pytest.raises(ValueError, match="drive frequency must be finite and positive"):
            DriveConfig(frequency=frequency)
