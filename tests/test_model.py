import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgkls.errors import ContractError, InputError
from fgkls.model import (
    DiagonalL,
    GeneralL,
    Hamiltonian,
    JordanL,
    SystemSpec,
    as_density,
    det2,
    gauge_shift,
    min_eig2,
    validate_density,
)
from fgkls.oracle import IntegratorConfig, integrate
from frames import basis_matrix, from_frame, to_frame

small_complex = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


class TestHamiltonian:
    def test_symmetrized_and_frozen(self):
        h = Hamiltonian([[1.0, 0.5 + 0.25j], [0.5 - 0.25j, -0.5]])
        assert np.allclose(h.matrix, h.matrix.conj().T)
        with pytest.raises(ValueError):
            h.matrix[0, 0] = 2.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(InputError):
            Hamiltonian([[0.0, 1.0], [0.5, 0.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            Hamiltonian([[float("inf"), 0.0], [0.0, 0.0]])

    def test_gap(self):
        assert Hamiltonian.diagonal(1.5, 0.5).gap == pytest.approx(1.0)

    def test_scalar_entries_equal_the_matrix_and_are_read_only(self, rng):
        for _ in range(20):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            # Hermitian up to rounding, so symmetrization has work to do.
            h = Hamiltonian(a + a.conj().T + 1e-16 * rng.normal(size=(2, 2)))
            entries = h.entries
            assert type(entries) is tuple and all(type(row) is tuple for row in entries)
            assert all(type(z) is complex for row in entries for z in row)
            assert np.array_equal(np.array(entries), h.matrix)
            assert h.gap == entries[0][0].real - entries[1][1].real
            with pytest.raises(TypeError):
                entries[0][0] = 0j
            with pytest.raises(AttributeError):
                h.entries = ((0j, 0j), (0j, 0j))


class TestLindbladForms:
    def test_coupling_must_be_nonnegative(self):
        with pytest.raises(InputError):
            JordanL(0.0, -0.1)

    def test_small_l_shapes(self):
        assert np.allclose(DiagonalL(2.0, 3.0, 1.0).small_l(), np.diag([2.0, 3.0]))
        assert np.allclose(JordanL(5.0, 1.0).small_l(), [[5.0, 1.0], [0.0, 5.0]])

    def test_entries_are_the_small_l_scalars(self):
        l = np.array([[0.3 + 0.1j, -1.2], [0.4j, 2.0]])
        for form in (DiagonalL(2.0, 3.0 - 1j, 1.0), JordanL(5.0 + 2j, 1.0), GeneralL(l, 0.5)):
            entries = form.entries
            assert all(type(z) is complex for row in entries for z in row)
            assert np.array_equal(np.array(entries), form.small_l())


def canonical_system(spec):
    """The canonical system (H', c' [[x, t], [0, -x]]) of a spec as a spec
    of its own, in the frame U: H' is U^dag H U plus the gauge term."""
    canon = spec.canonical
    u = basis_matrix(canon)
    g0, k0 = canon.gauge
    gauge = canon.c**2 * np.array([[g0 / 2, k0], [np.conj(k0), -g0 / 2]])
    h = Hamiltonian(to_frame(spec.hamiltonian.matrix, u) + gauge)
    return SystemSpec(h, GeneralL([[canon.x, canon.t], [0.0, -canon.x]], canon.c))


def canonical(l_raw, c, h):
    return SystemSpec(h, GeneralL(l_raw, c)).canonical


class TestCanonicalize:
    def test_already_jordan(self):
        lam = 0.3 - 0.7j
        h = Hamiltonian.diagonal(1.0, 0.0)
        res = canonical([[lam, 1.0], [0.0, lam]], 1.0, h)
        assert (res.x, res.t, res.c) == (0.0, 1.0, 1.0)
        assert np.allclose(basis_matrix(res), np.eye(2))  # already canonical
        assert (res.gap, res.h01) == (1.0, 0.0)
        # The scalar part moves into H' = H + (i c^2 / 2)(conj(lam) s+ - lam s-).
        assert res.gauge[0] == 0.0 and res.gauge[1] == pytest.approx(0.5j * np.conj(lam), abs=1e-15)
        jordan = SystemSpec(h, JordanL(lam, 1.0)).canonical
        assert jordan.basis is None and jordan.scaled == pytest.approx(res.scaled, abs=1e-15)

    def test_defective_lower_triangular(self):
        # [[1,0],[2,1]] is defective; Schur swaps the basis and the
        # off-diagonal magnitude 2 rescales the coupling.
        h = Hamiltonian.diagonal(0.4, -0.2)
        res = canonical([[1.0, 0.0], [2.0, 1.0]], 0.7, h)
        assert (res.x, res.t) == (0.0, 1.0)
        assert res.c == pytest.approx(1.4, abs=1e-12)
        # lambda' = lambda / 2 = 0.5 enters the gauge term as (i / 2) conj(lambda').
        assert res.gauge[1] == pytest.approx(0.25j, abs=1e-15)
        assert res.gap == pytest.approx(-0.6, abs=1e-15)

    def test_non_normal_distinct_eigenvalues(self):
        # l0 = [[-1/2, 1], [0, 1/2]]: x = 1/2 and t = 1 before folding
        # sqrt(x^2 + t^2) into the coupling.
        res = canonical([[1.0, 1.0], [0.0, 2.0]], 1.0, Hamiltonian.zero())
        assert res.x == pytest.approx(1.0 / math.sqrt(5.0), abs=1e-15)
        assert res.t == pytest.approx(2.0 / math.sqrt(5.0), abs=1e-15)
        assert res.c == pytest.approx(math.sqrt(1.25), abs=1e-15)
        assert res.x * res.x + res.t * res.t == pytest.approx(1.0, abs=1e-15)

    def test_normal_diagonalized(self, rng):
        # A random normal matrix: unitary conjugation of a diagonal.
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        lam = np.diag([0.4 + 0.2j, -1.1 + 0.9j])
        l_raw = q @ lam @ q.conj().T
        spec = SystemSpec(Hamiltonian.diagonal(1.0, -1.0), GeneralL(l_raw, 1.0))
        res = spec.canonical
        assert (res.x, res.t) == (1.0, 0.0)
        assert res.c == pytest.approx(abs(1.5 - 0.7j) / 2.0, abs=1e-12)
        back = to_frame(l_raw, res.basis)
        assert abs(back[0, 1]) < 1e-14 and abs(back[1, 0]) < 1e-14
        h_frame = Hamiltonian(to_frame(spec.hamiltonian.matrix, res.basis))
        diag = SystemSpec(h_frame, DiagonalL(*np.diag(back), 1.0)).canonical
        assert diag.scaled == pytest.approx(res.scaled, abs=1e-12)

    def test_scalar_l_stays_diagonal(self):
        res = canonical(np.eye(2) * (0.5 + 0.5j), 2.0, Hamiltonian.zero())
        assert (res.x, res.t, res.c, res.gauge) == (0.0, 0.0, 2.0, (0.0, 0j))

    @pytest.mark.parametrize("scale", [1.0, 1e-200, 1e150])
    def test_rotated_jordan_blocks_across_scales(self, rng, scale):
        # Rotation rounds a Jordan block's eigenvalues apart by about
        # sqrt(eps); the discriminant stays at rounding level and decides
        # the shape.
        for _ in range(300):
            q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            u = q * (np.diag(r) / np.abs(np.diag(r)))
            lam = 10.0 ** rng.uniform(-3.0, 3.0) * np.exp(2j * np.pi * rng.uniform())
            l_raw = scale * (u @ np.array([[lam, 1.0], [0.0, lam]]) @ u.conj().T)
            res = canonical(l_raw, 0.8 / scale, Hamiltonian.zero())
            assert (res.x, res.t) == (0.0, 1.0)
            assert res.c == pytest.approx(0.8, rel=1e-12)
            assert res.gauge[1] == pytest.approx(0.5j * np.conj(lam), rel=1e-12)
            u = basis_matrix(res)
            assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-14)
            back = to_frame(l_raw / scale, res.basis) - lam * np.eye(2)
            assert np.max(np.abs(back - [[0.0, 1.0], [0.0, 0.0]])) < 1e-12 * abs(lam) + 1e-13

    @pytest.mark.parametrize("kind", ["normal", "defective", "non-normal"])
    def test_frame_equivalence_of_trajectories(self, rng, kind):
        # Evolving in the original frame and conjugating the canonical-frame
        # trajectory back must agree pointwise.
        if kind == "normal":
            q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            l_raw = q @ np.diag([0.8, 0.2 + 0.6j]) @ q.conj().T
        elif kind == "defective":
            # Exactly representable defective matrix: conjugating the block
            # by the dyadic [[1, 0], [i/2, 1]] keeps all entries exact, so
            # the eigenvalue gap cancels exactly instead of to sqrt(eps).
            lam = 0.5 - 0.25j
            l_raw = np.array([[lam - 0.5j, 1.0], [0.25, lam + 0.5j]], dtype=complex)
            gap_sq = (l_raw[0, 0] - l_raw[1, 1]) ** 2 + 4 * l_raw[0, 1] * l_raw[1, 0]
            assert gap_sq == 0.0
        else:
            l_raw = np.array([[0.3 + 0.4j, -0.7 + 0.1j], [0.2j, -0.5 + 0.2j]])
        c = 0.8
        h = Hamiltonian([[0.9, 0.2 - 0.1j], [0.2 + 0.1j, -0.3]])
        spec = SystemSpec(h, GeneralL(l_raw, c))
        res = spec.canonical
        shape = {"normal": res.t == 0.0, "defective": res.x == 0.0, "non-normal": res.x * res.t > 0.0}
        assert shape[kind]

        rho0 = as_density([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
        cfg = IntegratorConfig(dt=5e-4, t_end=2.0, record_stride=200)
        ts, raw_traj = integrate(spec, rho0, cfg)
        u = basis_matrix(res)
        _, canon_traj = integrate(canonical_system(spec), to_frame(rho0, u), cfg)
        back = np.array([from_frame(r, u) for r in canon_traj])
        assert np.max(np.abs(back - raw_traj)) < 1e-9

    @pytest.mark.parametrize("c", [1e-150, 1e-160, 1e-200])
    def test_tiny_coupling_is_a_contract_error(self, c):
        # c'^2 underflows, or H' / c'^2 is beyond the range of the closed
        # forms: a typed error rather than a division by zero or overflow.
        h = Hamiltonian([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, -0.4]])
        for form in (JordanL(0.3, c), DiagonalL(0.3, -0.2j, c), GeneralL([[0.3, 1.0], [0.5j, 0.1]], c)):
            with pytest.raises(ContractError):
                SystemSpec(h, form).canonical


class TestGaugeShift:
    def test_zero_lambda_is_identity(self):
        h = Hamiltonian([[1.0, 0.3j], [-0.3j, 0.5]])
        assert np.allclose(gauge_shift(h, 0.0, 1.3).matrix, h.matrix)

    def test_unit_case(self):
        # H = 0, lambda = 1, c = 1 shifts onto [[0, i/2], [-i/2, 0]].
        shifted = gauge_shift(Hamiltonian.zero(), 1.0, 1.0)
        assert np.allclose(shifted.matrix, [[0.0, 0.5j], [-0.5j, 0.0]], atol=1e-15)

    @given(lam=small_complex, c=st.floats(0.0, 2.0))
    @settings(max_examples=80, deadline=None)
    def test_output_hermitian(self, lam, c):
        h = Hamiltonian([[0.2, 0.1 - 0.4j], [0.1 + 0.4j, -0.9]])
        out = gauge_shift(h, lam, c).matrix
        assert np.linalg.norm(out - out.conj().T) == 0.0


class TestValidateDensity:
    def test_maximally_mixed(self):
        rep = validate_density(np.eye(2) / 2.0)
        assert rep.hermitian
        assert rep.trace_dev == 0.0
        assert rep.min_eigenvalue == pytest.approx(0.5, abs=1e-15)

    def test_pure_state_boundary(self):
        rep = validate_density([[1.0, 0.0], [0.0, 0.0]])
        assert rep.hermitian
        assert rep.trace_dev == 0.0
        assert rep.min_eigenvalue == pytest.approx(0.0, abs=1e-15)

    def test_negative_determinant_detected(self):
        rep = validate_density([[0.6, 0.5], [0.5, 0.4]])
        assert rep.hermitian
        assert rep.min_eigenvalue < 0.0
        # det = 0.24 - 0.25 = -0.01 puts the smaller eigenvalue below zero.

    def test_min_eig_near_maximally_mixed(self, rng):
        # tr^2 - 4 det cancels near I/2; the discriminant form does not.
        for _ in range(2000):
            a, x, y = rng.normal(size=3) * 10.0 ** rng.uniform(-9.0, -2.0)
            rho = np.array([[0.5 + a, x + 1j * y], [x - 1j * y, 0.5 - a]])
            assert abs(min_eig2(rho) - np.linalg.eigvalsh(rho)[0]) < 1e-15

    def test_stack_matches_single_matrices(self, rng):
        # The CSV columns of evolve come from the stack form, every other
        # caller passes one matrix: both must give the same bits.
        n = 500
        a, x, y = rng.normal(size=(3, n)) * 10.0 ** rng.uniform(-9.0, 0.0, size=n)
        stack = np.empty((n, 2, 2), dtype=complex)
        stack[:, 0, 0] = 0.5 + a
        stack[:, 0, 1] = x + 1j * y
        stack[:, 1, 0] = x - 1j * y
        stack[:, 1, 1] = 0.5 - a
        dets, mins = det2(stack), min_eig2(stack)
        assert dets.shape == mins.shape == (n,)
        for k in range(n):
            assert isinstance(det2(stack[k]), float) and isinstance(min_eig2(stack[k]), float)
            assert dets[k] == det2(stack[k])
            assert mins[k] == min_eig2(stack[k])
        assert np.max(np.abs(mins - np.linalg.eigvalsh(stack)[:, 0])) < 1e-15

    def test_det_rounds_like_the_scalar_formula(self, rng):
        # Vectorised complex products may round differently in the last bit.
        stack = rng.normal(size=(500, 2, 2)) + 1j * rng.normal(size=(500, 2, 2))
        dets = det2(stack)
        for k, m in enumerate(stack.tolist()):
            assert dets[k] == (m[0][0] * m[1][1] - m[0][1] * m[1][0]).real

    def test_as_density_rejects_bad_trace(self):
        with pytest.raises(InputError):
            as_density([[1.0, 0.0], [0.0, 0.5]])
