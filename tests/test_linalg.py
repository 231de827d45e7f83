import math

import numpy as np
import pytest
import scipy.linalg

from divdiff.errors import FactorizationError, InvalidInputError
from divdiff.linalg import cholesky_logdet, softmax_rows, softmax_vjp, spd_inverse

# frozen high-precision evaluation of exp/sum for logits (1, 2, 3)
SOFTMAX_123 = (0.090030573170380457, 0.244728471054797652, 0.665240955774821889)


def fd_softmax_jacobian_vjp(logits, upstream, h=1e-5):
    """Central-difference oracle for the softmax vector-Jacobian product."""
    z = np.asarray(logits, dtype=np.float64)
    u = np.asarray(upstream, dtype=np.float64)
    out = np.zeros_like(z)
    for i in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        out[i] = np.dot(u, softmax_rows(zp) - softmax_rows(zm)) / (2 * h)
    return out


class TestSoftmaxRow:
    def test_uniform(self):
        np.testing.assert_allclose(softmax_rows([0.0, 0.0, 0.0]), np.full(3, 1 / 3))

    def test_shift_invariance(self):
        base = softmax_rows([0.0, 1.3, -0.4, 2.2])
        shifted = softmax_rows(np.array([0.0, 1.3, -0.4, 2.2]) + 17.5)
        np.testing.assert_allclose(shifted, base, rtol=0, atol=1e-14)

    def test_frozen_value(self):
        np.testing.assert_allclose(softmax_rows([1.0, 2.0, 3.0]), SOFTMAX_123, atol=1e-15)

    def test_sums_to_one_and_order_preserving(self, rng):
        for _ in range(50):
            v = rng.normal(0, 10, size=rng.integers(1, 40))
            p = softmax_rows(v)
            assert abs(p.sum() - 1.0) <= 1e-12
            assert np.argmax(p) == np.argmax(v)

    def test_extreme_magnitudes(self):
        for scale in (1e4, -1e4):
            p = softmax_rows(np.array([scale, 0.0, -scale]))
            assert np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            softmax_rows([0.0, np.inf])
        with pytest.raises(InvalidInputError):
            softmax_rows(np.array([[0.0, np.nan]]))

    def test_row_max_is_inverse_normalizer(self, rng):
        p, sums = softmax_rows(rng.normal(0, 5, size=(50, 17)), return_sums=True)
        np.testing.assert_array_equal(p.max(axis=-1), 1.0 / sums)


class TestSoftmaxVjp:
    def test_uniform_basis_vector(self):
        got = softmax_vjp([1 / 3] * 3, [1.0, 0.0, 0.0])
        np.testing.assert_allclose(got, [2 / 9, -1 / 9, -1 / 9], atol=1e-15)
        fd = fd_softmax_jacobian_vjp([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        np.testing.assert_allclose(got, fd, atol=1e-9)

    def test_constant_upstream_is_null(self, rng):
        p = softmax_rows(rng.normal(size=6))
        np.testing.assert_allclose(softmax_vjp(p, np.full(6, 3.7)), np.zeros(6), atol=1e-15)

    def test_one_hot_probs_saturate(self):
        p = np.array([0.0, 1.0, 0.0])
        np.testing.assert_allclose(softmax_vjp(p, [5.0, -2.0, 9.0]), np.zeros(3), atol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            softmax_vjp([0.5, 0.5], [1.0, 2.0, 3.0])

    def test_batched_rows_match_single_rows(self, rng):
        p = softmax_rows(rng.normal(size=(4, 3, 9)))
        u = rng.normal(size=(4, 3, 9))
        batched = softmax_vjp(p, u)
        for idx in np.ndindex(4, 3):
            np.testing.assert_array_equal(batched[idx], softmax_vjp(p[idx], u[idx]))

    def test_out_may_be_the_upstream(self, rng):
        p = softmax_rows(rng.normal(size=(3, 64, 48)))
        u = rng.normal(size=(3, 64, 48))
        expected = softmax_vjp(p, u)
        got = softmax_vjp(p, u, out=u)
        assert got is u
        np.testing.assert_array_equal(got, expected)

    def test_out_shape_mismatch(self, rng):
        p = softmax_rows(rng.normal(size=(2, 5)))
        with pytest.raises(InvalidInputError, match="out"):
            softmax_vjp(p, p, out=np.empty((1, 5)))

    def test_matches_finite_differences(self):
        # 1000 random vectors, lengths 2..64, relative error <= 1e-6
        gen = np.random.default_rng(42)
        worst = 0.0
        for _ in range(1000):
            n = int(gen.integers(2, 65))
            z = gen.normal(0, 2, size=n)
            u = gen.normal(0, 1, size=n)
            analytic = softmax_vjp(softmax_rows(z), u)
            fd = fd_softmax_jacobian_vjp(z, u)
            scale = max(np.abs(fd).max(), 1e-9)
            worst = max(worst, np.abs(analytic - fd).max() / scale)
        assert worst <= 1e-6


def random_spd(gen, n, cond=100.0):
    q, _ = np.linalg.qr(gen.normal(size=(n, n)))
    eigs = np.geomspace(1.0, cond, n)
    return (q * eigs) @ q.T


class TestCholeskyLogdet:
    def test_identity(self):
        assert cholesky_logdet(np.eye(3)) == pytest.approx(0.0, abs=1e-15)

    def test_diagonal(self):
        assert cholesky_logdet(np.diag([2.0, 2.0])) == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_two_by_two(self):
        # det [[2,1],[1,2]] = 3 by the 2x2 formula
        assert cholesky_logdet([[2.0, 1.0], [1.0, 2.0]]) == pytest.approx(math.log(3), abs=1e-12)

    def test_inverse_cancellation(self):
        gen = np.random.default_rng(7)
        for n in (2, 5, 16):
            a = random_spd(gen, n)
            total = cholesky_logdet(a) + cholesky_logdet(np.linalg.inv(a))
            assert abs(total) <= 1e-7

    def test_not_positive_definite(self):
        with pytest.raises(FactorizationError):
            cholesky_logdet([[1.0, 2.0], [2.0, 1.0]])

    def test_asymmetry_rejected(self):
        with pytest.raises(InvalidInputError):
            cholesky_logdet([[1.0, 0.5], [0.1, 1.0]])


class TestSpdInverse:
    def test_identity(self):
        np.testing.assert_allclose(spd_inverse(np.eye(4)), np.eye(4), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(spd_inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_adjugate_two_by_two(self):
        got = spd_inverse([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(got, np.array([[2, -1], [-1, 2]]) / 3.0, atol=1e-12)

    def test_round_trip(self):
        gen = np.random.default_rng(11)
        for n in (2, 6, 12):
            a = random_spd(gen, n, cond=1e6)
            err = np.abs(a @ spd_inverse(a) - np.eye(n)).max()
            assert err <= 1e-8


def random_stack(gen, k, n):
    """k symmetrized random SPD matrices of shape (n, n), as one (k, n, n) array."""
    a = np.stack([random_spd(gen, n, cond=1e4) for _ in range(k)])
    return 0.5 * (a + a.swapaxes(1, 2))


class TestSpdInverseStack:
    @pytest.mark.parametrize("k, n", [(1, 1), (2, 3), (5, 16), (3, 32)])
    def test_each_matrix_as_alone(self, k, n):
        gen = np.random.default_rng(100 * k + n)
        stack = random_stack(gen, k, n)
        stack[-1] = stack[0]  # an exact repeat inside the stack
        got = spd_inverse(stack)
        assert got.shape == stack.shape
        for matrix, inverse in zip(stack, got):
            np.testing.assert_array_equal(inverse, spd_inverse(matrix))
            inv = scipy.linalg.cho_solve(scipy.linalg.cho_factor(matrix, lower=True), np.eye(n))
            np.testing.assert_array_equal(inverse, 0.5 * (inv + inv.T))

    def test_nested_stack(self):
        stack = random_stack(np.random.default_rng(5), 6, 4)
        np.testing.assert_array_equal(spd_inverse(stack.reshape(2, 3, 4, 4)),
                                      spd_inverse(stack).reshape(2, 3, 4, 4))

    @pytest.mark.parametrize("bad, error", [
        ([[1.0, 0.5], [0.1, 1.0]], InvalidInputError),  # asymmetric
        ([[1.0, np.nan], [np.nan, 1.0]], InvalidInputError),
        ([[1.0, 2.0], [2.0, 1.0]], FactorizationError),  # indefinite
    ])
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_one_bad_matrix_fails_the_stack_as_alone(self, bad, error, where):
        with pytest.raises(error):
            spd_inverse(bad)
        stack = random_stack(np.random.default_rng(9), 3, 2)
        stack[where] = bad
        with pytest.raises(error):
            spd_inverse(stack)

    def test_symmetry_tolerance_is_per_matrix(self):
        # asymmetry of 1e-8 fails a unit-scale matrix even next to a 1e4-scale one
        stack = np.stack([1e4 * np.eye(2), np.eye(2)])
        stack[1, 0, 1] += 1e-8
        for m in (stack, stack[1]):
            with pytest.raises(InvalidInputError, match="symmetric"):
                spd_inverse(m)

    @pytest.mark.parametrize("shape", [(0, 3, 3), (2, 0, 0), (3,), (2, 3, 4)])
    def test_empty_flat_or_non_square_rejected(self, shape):
        with pytest.raises(InvalidInputError):
            spd_inverse(np.ones(shape))


class TestCholeskyLogdetStack:
    @pytest.mark.parametrize("k, n", [(1, 1), (2, 2), (3, 5), (4, 16), (3, 32)])
    def test_each_logdet_as_alone(self, k, n):
        gen = np.random.default_rng(200 * k + n)
        stack = random_stack(gen, k, n)
        stack[-1] = stack[0]  # an exact repeat inside the stack
        got = cholesky_logdet(stack)
        assert isinstance(got, np.ndarray) and got.shape == (k,)
        assert isinstance(cholesky_logdet(stack[0]), float)
        for matrix, logdet in zip(stack, got):
            assert logdet == cholesky_logdet(matrix)  # bit for bit
        nested = cholesky_logdet(np.stack([stack, stack]))
        np.testing.assert_array_equal(nested, [got, got])

    @pytest.mark.parametrize("bad, error", [
        ([[1.0, 0.5], [0.1, 1.0]], InvalidInputError),  # asymmetric
        ([[1.0, 2.0], [2.0, 1.0]], FactorizationError),  # indefinite
    ])
    def test_one_bad_matrix_fails_the_stack(self, bad, error):
        stack = random_stack(np.random.default_rng(9), 3, 2)
        stack[1] = bad
        with pytest.raises(error):
            cholesky_logdet(stack)
