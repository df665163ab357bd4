import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgkls.errors import InputError
from fgkls.numerics import (
    Inconsistent,
    SolutionFamily,
    UniqueSolution,
    cubic_roots,
    det3,
    schur2,
    solve3,
    solve_pivoted3,
)

EPS = np.finfo(float).eps
finite_floats = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
finite_complex = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)


def poly(s, p2, p1, p0):
    return ((s + p2) * s + p1) * s + p0


def vieta(roots):
    """Coefficients (p2, p1, p0) of prod (s - r) over three roots."""
    a, b, c = roots
    return -(a + b + c), a * b + a * c + b * c, -(a * b * c)


class TestCubicRoots:
    def test_double_root_case(self):
        # s^3 + 2 s^2 + 5/4 s + 1/4 = (s + 1)(s + 1/2)^2 by synthetic
        # division by (s + 1), then a perfect square.  The double root is
        # conditioned as sqrt(eps).
        r = cubic_roots(2.0, 1.25, 0.25)
        assert [z.real for z in r] == pytest.approx([-1.0, -0.5, -0.5], abs=1e-7)
        assert r[0] == pytest.approx(-1.0, abs=1e-12)

    def test_triple_zero(self):
        assert cubic_roots(0.0, 0.0, 0.0) == [0.0, 0.0, 0.0]

    def test_zero_root_with_complex_pair(self):
        # s (s^2 + s + 5/4) = 0: roots 0 and -1/2 +/- i.
        vals = cubic_roots(1.0, 1.25, 0.0)
        assert repr(vals[2]) == "0j"  # exact zero kept exact
        assert vals[0] == pytest.approx(-0.5 - 1.0j, abs=1e-12)
        assert vals[1] == pytest.approx(-0.5 + 1.0j, abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            cubic_roots(float("nan"), 0.0, 0.0)
        with pytest.raises(InputError):
            cubic_roots(0.0, complex(0, float("inf")), 0.0)

    @pytest.mark.parametrize("coeffs", [(1j, 0.0, 0.0), (0.0, 1.0 + 1e-300j, 0.0), (1.0, 2.0, 3.0 - 1e-20j)])
    def test_rejects_non_real_coefficients(self, coeffs):
        with pytest.raises(InputError, match="non-real"):
            cubic_roots(*coeffs)

    @given(p2=finite_floats, p1=finite_floats, p0=finite_floats)
    @settings(max_examples=150, deadline=None)
    def test_real_coefficients_roots_pair_and_satisfy_poly(self, p2, p1, p0):
        vals = cubic_roots(p2, p1, p0)
        assert len(vals) == 3
        for v in vals:
            assert abs(poly(v, p2, p1, p0)) < 1e-9 * max(1.0, abs(v) ** 3)
        nonreal = [v for v in vals if v.imag != 0.0]
        assert len(nonreal) in (0, 2)
        if nonreal:
            a, b = nonreal
            assert a == b.conjugate()

    @given(p2=finite_floats, p1=finite_floats, p0=finite_floats)
    @settings(max_examples=150, deadline=None)
    def test_vieta_residuals(self, p2, p1, p0):
        s2, s1, s0 = vieta(cubic_roots(p2, p1, p0))
        scale = max(1.0, abs(p2), abs(p1), abs(p0))
        assert abs(s2 - p2) < 1e-10 * scale
        assert abs(s1 - p1) < 1e-10 * scale * 3
        assert abs(s0 - p0) < 1e-10 * scale * 3

    def test_constructed_double_roots_are_found_to_half_precision(self):
        # (s - r)^2 (s - q) for representable r, q: the simple root to full
        # precision, the double one to sqrt(eps), and never merged here.
        for r0, q in [(-0.75, -0.5), (0.25, -1.5), (1.5, 1.0)]:
            p2 = -(2 * r0 + q)
            p1 = r0 * r0 + 2 * r0 * q
            p0 = -r0 * r0 * q
            vals = cubic_roots(p2, p1, p0)
            simple = min(vals, key=lambda z: abs(z - q))
            assert simple == pytest.approx(q, abs=1e-14)
            pair = [z for z in vals if z is not simple]
            assert pair == pytest.approx([r0, r0], abs=1e-7)


def identity_cases(rng, count):
    """Random and near-multiple monic cubics with real coefficients."""
    for i in range(count):
        kind = i % 4
        if kind == 0:
            yield tuple(rng.normal(size=3) * 10 ** rng.uniform(-3, 3, size=3))
        elif kind in (1, 2):
            # A real double (kind 1) or triple (kind 2) root, split by eps.
            a, b = rng.normal(size=2)
            eps = 10 ** rng.uniform(-16, -4)
            roots = [a, a + eps * rng.normal(), a if kind == 2 else b]
            yield tuple(np.poly(roots)[1:])
        else:
            # A conjugate pair close to the real axis and to a real root.
            a, w = rng.normal(), 10 ** rng.uniform(-9, 0)
            roots = [a + 1j * w, a - 1j * w, a + rng.normal() * 10 ** rng.uniform(-8, 0)]
            yield tuple(np.poly(roots).real[1:])


def test_cubic_roots_is_backward_stable():
    """The roots are those of a cubic within 16 eps R^k of the given one,
    R the largest |root|, coefficient by coefficient, near coinciding roots
    too."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for coeffs in identity_cases(rng, 12_000):
        roots = cubic_roots(*coeffs)
        radius = max(map(abs, roots))
        for k, (got, want) in enumerate(zip(vieta(roots), coeffs), 1):
            worst = max(worst, abs(got - want) / (EPS * radius**k))
    assert worst <= 16.0


class TestSolve3:
    def test_identity(self):
        res = solve3(np.eye(3), [1.0, 2.0, 3.0])
        assert isinstance(res, UniqueSolution)
        assert np.allclose(res.x, [1, 2, 3], atol=1e-14)

    def test_zero_matrix_full_nullspace(self):
        res = solve3(np.zeros((3, 3)), np.zeros(3))
        assert isinstance(res, SolutionFamily)
        assert len(res.nullspace) == 3
        assert np.allclose(res.particular, 0.0)

    def test_stationary_system_hand_elimination(self):
        # Decoupled system: diag(-1, -1/2, -1/2) x = (-1, 0, 0) gives (1, 0, 0).
        m = np.diag([-1.0, -0.5, -0.5]).astype(complex)
        res = solve3(m, [-1.0, 0.0, 0.0])
        assert isinstance(res, UniqueSolution)
        assert np.allclose(res.x, [1.0, 0.0, 0.0], atol=1e-14)

    def test_inconsistent(self):
        m = np.zeros((3, 3))
        res = solve3(m, [1.0, 0.0, 0.0])
        assert isinstance(res, Inconsistent)

    def test_rank_two_family(self):
        m = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 0]], dtype=complex)
        res = solve3(m, [2.0, 3.0, 0.0])
        assert isinstance(res, SolutionFamily)
        assert len(res.nullspace) == 1
        assert abs(abs(res.nullspace[0][2]) - 1.0) < 1e-12

    def test_full_rank_behind_small_determinant(self):
        # |det| = 2e-10 sends the solve to its SVD branch, where every
        # singular value clears the rank threshold: the solution is unique.
        m = np.diag([1.0, 1.0, 2e-10]).astype(complex)
        res = solve3(m, [1.0, 2.0, 2e-10])
        assert isinstance(res, UniqueSolution)
        assert np.allclose(res.x, [1.0, 2.0, 1.0], atol=1e-9)

    @given(
        data=st.lists(finite_complex, min_size=12, max_size=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_residuals(self, data):
        m = np.array(data[:9], dtype=complex).reshape(3, 3)
        b = np.array(data[9:], dtype=complex)
        res = solve3(m, b)
        mn = np.linalg.norm(m)
        if isinstance(res, UniqueSolution):
            x = res.x
            assert np.linalg.norm(m @ x - b) < 1e-10 * (
                mn * np.linalg.norm(x) + np.linalg.norm(b)
            ) + 1e-12
        elif isinstance(res, SolutionFamily):
            x = res.particular
            assert np.linalg.norm(m @ x - b) < 1e-10 * (
                mn * np.linalg.norm(x) + np.linalg.norm(b)
            ) + 1e-12
            for v in res.nullspace:
                assert np.linalg.norm(m @ v) < 1e-10 * mn * np.linalg.norm(v) + 1e-12


class TestSolvePivoted3:
    @staticmethod
    def check(m, b):
        x = np.array(solve_pivoted3(m.tolist(), b.tolist()))
        want = np.linalg.solve(m, b)
        err = np.linalg.norm(x - want) / np.linalg.norm(want)
        assert err <= 50.0 * np.finfo(float).eps * np.linalg.cond(m)

    def test_random_matrices(self, rng):
        for _ in range(200):
            m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            self.check(m, rng.normal(size=3) + 1j * rng.normal(size=3))

    def test_near_singular_matrices(self, rng):
        for delta in (1e-6, 1e-9, 1e-12, 1e-14):
            for _ in range(20):
                u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
                v, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
                m = u @ np.diag([1.0, 0.5, delta]) @ v
                self.check(m, rng.normal(size=3) + 1j * rng.normal(size=3))

    def test_needs_a_row_exchange(self):
        m = [[0j, 1, 0], [2, 0, 0], [0, 0, 4]]
        assert solve_pivoted3(m, [1, 2, 8]) == [1, 1, 2]

    def test_singular(self):
        assert solve_pivoted3([[1, 2, 3], [2, 4, 6], [0, 0, 1]], [1, 2, 3]) is None
        assert solve_pivoted3([[0j] * 3] * 3, [1, 0, 0]) is None


class TestSchur2:
    def test_upper_triangular_passthrough(self):
        m = np.array([[1.0, 2.0], [0.0, 3.0]], dtype=complex)
        u, t = schur2(m)
        assert np.allclose(u, np.eye(2))
        assert np.allclose(t, m)

    def test_nilpotent(self):
        m = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        u, t = schur2(m)
        assert t[1, 0] == 0.0
        assert abs(t[0, 0]) < 1e-14 and abs(t[1, 1]) < 1e-14
        assert abs(abs(t[0, 1]) - 1.0) < 1e-14
        assert np.allclose(u @ t @ u.conj().T, m, atol=1e-14)

    def test_rank_one_projector(self):
        # Hermitian [[1,1],[1,1]] has spectrum {2, 0}.
        m = np.ones((2, 2), dtype=complex)
        _, t = schur2(m)
        assert t[0, 0] == pytest.approx(2.0, abs=1e-12)
        assert t[1, 1] == pytest.approx(0.0, abs=1e-12)
        assert abs(t[0, 1]) < 1e-12

    @given(data=st.lists(finite_complex, min_size=4, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_unitary_and_roundtrip(self, data):
        m = np.array(data, dtype=complex).reshape(2, 2)
        u, t = schur2(m)
        assert np.linalg.norm(u.conj().T @ u - np.eye(2)) < 1e-12
        assert t[1, 0] == 0.0
        assert np.linalg.norm(u @ t @ u.conj().T - m) < 1e-12 * max(
            1.0, np.linalg.norm(m)
        )

    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e150, 1e200])
    def test_extreme_scales(self, rng, scale):
        for _ in range(50):
            m = scale * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            u, t = schur2(m)
            assert np.linalg.norm(u.conj().T @ u - np.eye(2)) < 1e-14
            assert t[1, 0] == 0.0
            assert np.max(np.abs(u @ t @ u.conj().T - m)) < 1e-13 * np.max(np.abs(m))


def test_det3_matches_numpy(rng):
    for _ in range(20):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert det3(m) == pytest.approx(complex(np.linalg.det(m)), rel=1e-10)
