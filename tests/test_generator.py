import dataclasses

import numpy as np
import pytest

from fgkls.generator import build_generator, coefficients, rhs
from fgkls.model import DiagonalL, Hamiltonian, JordanL, SystemSpec, coords
from fgkls.sampling import random_density, random_spec


def hamiltonian_generic():
    return Hamiltonian([[0.8, 0.3 - 0.2j], [0.3 + 0.2j, -0.4]])


class TestCoefficients:
    def test_jordan_form(self):
        h = hamiltonian_generic()
        lam, c = 0.6 + 0.4j, 1.3
        k = coefficients(SystemSpec(h, JordanL(lam, c)))
        c2 = c * c
        eps = h.matrix
        assert k.d11_22 == pytest.approx(c2)
        assert k.d11_12 == pytest.approx(1j * eps[1, 0] + 0.5 * c2 * lam)
        assert k.d12_21 == 0.0
        assert k.d12_12 == pytest.approx(-1j * h.gap - 0.5 * c2)

    def test_diagonal_form(self):
        h = hamiltonian_generic()
        l1, l2, c = 0.9 - 0.1j, -0.2 + 0.7j, 0.8
        k = coefficients(SystemSpec(h, DiagonalL(l1, l2, c)))
        eps = h.matrix
        assert k.d11_22 == 0.0
        assert k.d12_21 == 0.0
        assert k.d11_12 == pytest.approx(1j * eps[1, 0])
        expected_j = -1j * h.gap + c * c * (
            l1 * np.conj(l2) - 0.5 * abs(l1) ** 2 - 0.5 * abs(l2) ** 2
        )
        assert k.d12_12 == pytest.approx(expected_j)

    def test_closed_system(self):
        h = hamiltonian_generic()
        k = coefficients(SystemSpec(h, DiagonalL(0.7, 0.2, 0.0)))
        eps = h.matrix
        assert k.d11_11 == 0.0 and k.d11_22 == 0.0 and k.d12_21 == 0.0
        assert k.d11_12 == pytest.approx(1j * eps[1, 0])
        assert k.d12_11 == pytest.approx(1j * eps[0, 1])
        assert k.d12_22 == pytest.approx(-1j * eps[0, 1])
        assert k.d12_12 == pytest.approx(-1j * h.gap)


def reference_generator(spec):
    """The generator from the coefficients written out in one piece, as
    they were before the split into the closed system's and the
    dissipator's parts."""
    (e11, e12), (e21, e22) = spec.hamiltonian.entries
    (l11, l12), (l21, l22) = spec.lindblad.entries
    c2 = spec.c * spec.c
    d11_11 = -c2 * abs(l21) ** 2
    d11_22 = c2 * abs(l12) ** 2
    d11_12 = 1j * e21 + 0.5 * c2 * (l11 * l12.conjugate() - l22.conjugate() * l21)
    d12_11 = 1j * e12 + c2 * (
        l11 * l21.conjugate() - 0.5 * l11.conjugate() * l12 - 0.5 * l21.conjugate() * l22
    )
    d12_22 = -1j * e12 + c2 * (
        l22.conjugate() * l12 - 0.5 * l11.conjugate() * l12 - 0.5 * l21.conjugate() * l22
    )
    d12_12 = -1j * (e11 - e22) + c2 * (
        l11 * l22.conjugate() - 0.5 * (abs(l11) ** 2 + abs(l22) ** 2 + abs(l12) ** 2 + abs(l21) ** 2)
    )
    d12_21 = c2 * l12 * l21.conjugate()
    m10 = d12_11 - d12_22
    m = np.array(
        [
            [d11_11 - d11_22, d11_12, d11_12.conjugate()],
            [m10, d12_12, d12_21],
            [m10.conjugate(), d12_21.conjugate(), d12_12.conjugate()],
        ],
        dtype=complex,
    )
    return m, np.array([d11_22, d12_22, d12_22.conjugate()], dtype=complex)


class TestBuildGenerator:
    def test_split_keeps_every_bit(self, rng):
        # Summing the closed system's and the dissipator's parts changes no
        # bit of the generator, signs of zero included.
        for i in range(600):
            spec = random_spec(rng, form=("diagonal", "jordan", "general")[i % 3], c_range=(0.0, 2.0))
            if i % 5 == 0:
                spec = SystemSpec(spec.hamiltonian, dataclasses.replace(spec.lindblad, c=0.0))
            gen = build_generator(spec)
            for got, want in zip((gen.matrix, gen.inhom), reference_generator(spec)):
                assert np.array_equal(got.view(float), want.view(float))
                assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))

    def test_jordan_first_row(self):
        h = hamiltonian_generic()
        lam = 0.5 + 0.2j
        gen = build_generator(SystemSpec(h, JordanL(lam, 1.0)))
        eps = h.matrix
        expected = np.array(
            [-1.0, 1j * eps[1, 0] + 0.5 * lam, -1j * eps[0, 1] + 0.5 * np.conj(lam)]
        )
        assert np.allclose(gen.matrix[0], expected, atol=1e-14)
        assert gen.inhom[0] == pytest.approx(1.0)

    def test_diagonal_first_row(self):
        h = hamiltonian_generic()
        gen = build_generator(SystemSpec(h, DiagonalL(1.0, 0.5, 1.0)))
        eps = h.matrix
        assert np.allclose(
            gen.matrix[0], [0.0, 1j * eps[1, 0], -1j * eps[0, 1]], atol=1e-14
        )
        assert gen.inhom[0] == 0.0

    def test_liouville_limit(self):
        # c = 0 with diagonal H: pure rotation of the coherences.
        h = Hamiltonian.diagonal(1.25, 0.25)
        gen = build_generator(SystemSpec(h, DiagonalL(1.0, -2.0, 0.0)))
        assert np.allclose(gen.matrix, np.diag([0.0, -1j, 1j]), atol=1e-14)
        assert np.allclose(gen.inhom, 0.0)

    def test_real_characteristic_polynomial(self, rng):
        for _ in range(200):
            spec = random_spec(rng, form="general")
            m = build_generator(spec).matrix
            p2 = -np.trace(m)
            p1 = (
                m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
                + m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0]
                + m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1]
            )
            p0 = -np.linalg.det(m)
            scale = max(1.0, np.linalg.norm(m)) ** 3
            assert abs(p2.imag) < 1e-10 * scale
            assert abs(p1.imag) < 1e-10 * scale
            assert abs(p0.imag) < 1e-10 * scale


class TestRhs:
    def test_normal_l_fixes_maximally_mixed(self):
        h = Hamiltonian.diagonal(1.0, -1.0)
        spec = SystemSpec(h, DiagonalL(0.8, -0.3j, 1.1))
        out = rhs(spec, np.eye(2) / 2.0)
        assert np.max(np.abs(out)) < 1e-15

    def test_raising_coupling_pumps_population(self):
        # H proportional to I, pure raising coupling, ground state input:
        # population flows up at rate c^2.
        h = Hamiltonian.diagonal(0.3, 0.3)
        c = 1.4
        spec = SystemSpec(h, JordanL(0.0, c))
        out = rhs(spec, np.diag([0.0, 1.0]).astype(complex))
        assert np.allclose(out, c * c * np.diag([1.0, -1.0]), atol=1e-14)

    def test_trace_and_hermiticity_preserved(self, rng):
        for _ in range(300):
            spec = random_spec(rng, form="general")
            rho = random_density(rng)
            out = rhs(spec, rho)
            assert abs(np.trace(out)) < 1e-13 * (1.0 + np.linalg.norm(rho))
            assert np.linalg.norm(out - out.conj().T) < 1e-13

    def test_matches_affine_generator(self, rng):
        # 1000 random systems and states across all three shapes.
        for i in range(1000):
            form = ("diagonal", "jordan", "general")[i % 3]
            spec = random_spec(rng, form=form)
            rho = random_density(rng)
            gen = build_generator(spec)
            direct = rhs(spec, rho)
            flat = gen.matrix @ coords(rho) + gen.inhom
            assert abs(direct[0, 0] - flat[0]) < 1e-12
            assert abs(direct[0, 1] - flat[1]) < 1e-12
            assert abs(direct[1, 0] - flat[2]) < 1e-12
