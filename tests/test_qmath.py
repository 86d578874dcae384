import numpy as np
import pytest

from qcausal import qmath
from qcausal.errors import ValidationError

SQ2 = np.sqrt(2.0)


def random_matrix(rng, dim=2):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


class TestConstants:
    def test_pauli_entries(self):
        np.testing.assert_array_equal(qmath.pauli(0), np.eye(2))
        np.testing.assert_array_equal(qmath.pauli(2), [[0, -1j], [1j, 0]])
        np.testing.assert_array_equal(qmath.pauli(3), [[1, 0], [0, -1]])

    def test_pauli_unitary_and_involutive(self):
        for i in range(4):
            s = qmath.pauli(i)
            assert qmath.is_unitary(s, tol=1e-14)
            np.testing.assert_allclose(s @ s, np.eye(2), atol=1e-14)

    def test_pauli_index_error(self):
        with pytest.raises(ValidationError):
            qmath.pauli(4)

    def test_bell_vectors(self):
        np.testing.assert_allclose(qmath.bell(1), np.array([1, 0, 0, 1]) / SQ2)
        np.testing.assert_allclose(qmath.bell(4), np.array([0, 1, -1, 0]) / SQ2)

    def test_bell_orthonormal(self):
        for i in range(1, 5):
            for j in range(1, 5):
                overlap = np.vdot(qmath.bell(i), qmath.bell(j))
                expected = 1.0 if i == j else 0.0
                assert abs(overlap - expected) <= 1e-14

    def test_bell_index_error(self):
        with pytest.raises(ValidationError):
            qmath.bell(0)

    def test_constants_are_read_only(self):
        with pytest.raises(ValueError):
            qmath.pauli(1)[0, 0] = 5.0


class TestEigenbasis:
    def test_x_eigenvectors(self):
        plus, minus = qmath.pauli_eigenbasis(1)
        np.testing.assert_allclose(plus, np.array([1, 1]) / SQ2)
        np.testing.assert_allclose(minus, np.array([1, -1]) / SQ2)

    def test_y_eigenvectors(self):
        plus, minus = qmath.pauli_eigenbasis(2)
        np.testing.assert_allclose(plus, np.array([1, 1j]) / SQ2)
        np.testing.assert_allclose(minus, np.array([1, -1j]) / SQ2)

    def test_z_eigenvectors(self):
        plus, minus = qmath.pauli_eigenbasis(3)
        np.testing.assert_allclose(plus, [1, 0])
        np.testing.assert_allclose(minus, [0, 1])

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_eigenvalue_equations_and_phase(self, i):
        plus, minus = qmath.pauli_eigenbasis(i)
        s = qmath.pauli(i)
        np.testing.assert_allclose(s @ plus, plus, atol=1e-15)
        np.testing.assert_allclose(s @ minus, -minus, atol=1e-15)
        assert abs(np.vdot(plus, minus)) <= 1e-15
        for vec in (plus, minus):
            first = vec[np.nonzero(np.abs(vec) > 1e-12)[0][0]]
            assert first.imag == 0 and first.real > 0


class TestTensorProduct:
    def test_identity_case(self):
        np.testing.assert_array_equal(
            qmath.tensor_product(qmath.pauli(0), qmath.pauli(0)), np.eye(4)
        )

    def test_basis_case(self):
        zero = np.array([1, 0], dtype=complex)
        np.testing.assert_array_equal(qmath.tensor_product(zero, zero), [1, 0, 0, 0])

    def test_xx_flips_both_bits(self):
        xx = qmath.tensor_product(qmath.pauli(1), qmath.pauli(1))
        np.testing.assert_allclose(xx @ np.array([1, 0, 0, 0]), [0, 0, 0, 1])

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            qmath.tensor_product(np.eye(4), np.eye(2))
        with pytest.raises(ValidationError):
            qmath.tensor_product(np.eye(2), np.array([1, 0]))

    def test_mixed_product_rule(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b, c, d = (random_matrix(rng) for _ in range(4))
            lhs = qmath.tensor_product(a, b) @ qmath.tensor_product(c, d)
            rhs = qmath.tensor_product(a @ c, b @ d)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestPredicates:
    def test_pauli_z_unitary(self):
        assert qmath.is_unitary(qmath.pauli(3), tol=1e-14)

    def test_parameterized_unitary(self):
        # sphere-parameterized matrix with alpha = 0.7 is exactly unitary
        rng = np.random.default_rng(5)
        v = rng.standard_normal(4)
        a1, a2, b1, b2 = v / np.linalg.norm(v)
        phase = np.exp(0.7j)
        u = np.array(
            [[a1 + 1j * a2, b1 + 1j * b2],
             [-phase * (b1 - 1j * b2), phase * (a1 - 1j * a2)]]
        )
        assert qmath.is_unitary(u, tol=1e-12)

    def test_diag_1_2_not_unitary(self):
        assert not qmath.is_unitary(np.diag([1.0, 2.0]), tol=1e-10)

    def test_bell_projector_is_density(self):
        assert qmath.is_density(qmath.projector(qmath.bell(1)), tol=1e-12)

    def test_classical_mixture_is_density(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 0.5
        rho[3, 3] = 0.5
        assert qmath.is_density(rho, tol=1e-12)

    def test_xx_not_density(self):
        xx = qmath.tensor_product(qmath.pauli(1), qmath.pauli(1))
        assert not qmath.is_density(xx, tol=1e-9)

    def test_negative_eigenvalue_rejected(self):
        m = np.diag([0.75, 0.75, -0.25, -0.25]).astype(complex)
        assert not qmath.is_density(m, tol=1e-9)

    def test_nonfinite_rejected(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 0] = np.inf
        assert not qmath.is_density(m)
        assert not qmath.is_unitary(np.array([[np.nan, 0], [0, 1]], dtype=complex))

    def test_require_helpers_raise(self):
        with pytest.raises(ValidationError):
            qmath.require_density(np.eye(2, dtype=complex))
        with pytest.raises(ValidationError):
            qmath.require_unitary(np.diag([1.0, 2.0]))
