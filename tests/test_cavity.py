import csv
import math

import numpy as np
import pytest

import primecavity.cavity
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
    run_scaling,
    verify_reachability,
    write_matrix_csv,
)


def test_build_basis_four_levels():
    basis = build_basis(4)
    assert basis.dimension == 4
    assert list(basis.labels) == [1, 2, 3, 4]
    expected = [0.0, math.log(2), math.log(3), math.log(4)]
    assert np.allclose(basis.energy_vector, expected, rtol=1e-15, atol=0)
    assert basis.occupation(4).as_dict() == {2: 2}
    assert basis.occupation(1).is_vacuum


def test_build_basis_rejects_tiny():
    with pytest.raises(ValueError):
        build_basis(1)


def test_basis_occupations_match_factorize():
    basis = build_basis(50)
    for n in basis.labels:
        assert basis.occupation(n) == factorize(n)
    with pytest.raises(ValueError):
        basis.occupation(51)


def test_basis_factors_labels_only_on_demand(monkeypatch):
    calls = []

    def counting_factorize(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(primecavity.cavity, "factorize", counting_factorize)
    basis = build_basis(10**5)
    assert calls == []
    assert basis.occupation(12).as_dict() == {2: 2, 3: 1}
    assert calls == [12]


def test_scaling_sweep_leaves_the_factor_table_alone(monkeypatch):
    empty = np.arange(2, dtype=np.int32)
    monkeypatch.setattr(primecavity.encoding, "_spf", empty)
    run_scaling([8, 16, 10**6])
    assert primecavity.encoding._spf is empty


def test_basis_energies_match_level_energy():
    units = Units(hbar=1.5, omega=2.0)
    basis = build_basis(30, units)
    for n in basis.labels:
        assert basis.energy(n) == pytest.approx(level_energy(n, units), rel=1e-15)
    # Hamiltonian is diagonal by construction: its only data is this vector
    assert np.all(np.diff(basis.energy_vector) > 0)


def test_star_uniform_matrix_entries():
    basis = build_basis(3)
    w = build_coupling(basis, "star-uniform", 0.01)
    m = w.matrix
    nonzero = {(i, j) for i, j in zip(*np.nonzero(m))}
    assert nonzero == {(0, 1), (1, 0), (0, 2), (2, 0)}
    assert m[0, 1] == m[0, 2] == 0.01
    assert w.vacuum_coupling(2) == 0.01


def test_star_decay_matrix_entries():
    basis = build_basis(6)
    lam = 0.02
    w = build_coupling(basis, "star-decay", lam)
    assert w.matrix[0, 3] == pytest.approx(lam / 2.0, rel=1e-15)  # label 4 = 1/sqrt(4)
    for n in range(2, 7):
        assert abs(w.vacuum_coupling(n)) == pytest.approx(lam / math.sqrt(n), rel=1e-15)


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
    assert w.vacuum_coupling(10**6) == pytest.approx(1e-3 / 1000.0, rel=1e-15)


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
    assert drive.target == 6

    doubled = build_basis(12, Units(omega=2.0))
    assert DriveConfig.resonant(doubled, 6).frequency == pytest.approx(2 * math.log(6),
                                                                       rel=1e-15)
    with pytest.raises(ValueError):
        DriveConfig.resonant(basis, 1)
    with pytest.raises(ValueError):
        DriveConfig.resonant(basis, 13)
    with pytest.raises(ValueError):
        DriveConfig(frequency=-1.0, target=3)


def test_write_matrix_csv_roundtrip(tmp_path):
    basis = build_basis(3)
    w = build_coupling(basis, "star-uniform", 0.25)
    path = tmp_path / "w.csv"
    write_matrix_csv(w.matrix, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    assert all(len(r) == 6 for r in rows)  # re,im per entry
    rebuilt = np.array(
        [[complex(float(r[2 * j]), float(r[2 * j + 1])) for j in range(3)] for r in rows]
    )
    assert np.array_equal(rebuilt, w.matrix)


def test_coupling_equality_and_hash():
    basis = build_basis(16)
    a = build_coupling(basis, "star-uniform", 1e-3)
    b = build_coupling(basis, "star-uniform", 1e-3)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != build_coupling(basis, "star-uniform", 2e-3)
    assert a != build_coupling(basis, "star-decay", 1e-3)
    assert a != build_coupling(build_basis(17), "star-uniform", 1e-3)
    assert a != CouplingOperator("star-decay", 1e-3, a.vacuum_row)  # same row, other model
    assert a != "star-uniform"


def test_coupling_hash_ignores_the_sign_of_zero():
    row = np.array([0, 0.5, 0.25], dtype=complex)
    signed = row.copy()
    signed[0] = complex(-0.0, -0.0)
    a = CouplingOperator("custom", 0.5, row)
    b = CouplingOperator("custom", 0.5, signed)
    assert a == b
    assert hash(a) == hash(b)
