import math

import numpy as np
import pytest

from fgkls.generator import build_generator
from fgkls.model import DiagonalL, GeneralL, Hamiltonian, JordanL, SystemSpec
from fgkls.numerics import cubic_roots
from fgkls.perturb import weak_rates
from fgkls.sampling import random_complex, random_hamiltonian, random_spec
from fgkls.spectral import (
    SpectrumStructure,
    StabilityVerdict,
    _canonical_cubic,
    _minus_rate,
    _largest_cross,
    _real_root_chains,
    _scaled_rows,
    assert_stability,
    char_cubic,
    diagonal_coincident_roots,
    jordan_coincident_roots,
    spectrum,
)
from test_acceptance import diagonal_double_root_spec, jordan_double_root_spec, jordan_triple_root_spec

DEGENERATE_H = Hamiltonian.diagonal(0.5, 0.5)


def vieta_residuals(svals, p2, p1, p0):
    s1 = sum(svals)
    s2 = svals[0] * svals[1] + svals[0] * svals[2] + svals[1] * svals[2]
    s3 = svals[0] * svals[1] * svals[2]
    return max(abs(s1 + p2), abs(s2 - p1), abs(s3 + p0))


def spectrum_svals(spec):
    md = spectrum(spec)
    out = []
    for s, mult in md.s_roots(spec.c):
        out.extend([s] * mult)
    return md, out


class TestCharCubic:
    def test_jordan_reference_point(self):
        spec = SystemSpec(DEGENERATE_H, JordanL(0.0, 1.0))
        assert char_cubic(spec) == (2.0, 1.25, 0.25)

    def test_diagonal_reference_point(self):
        # lambda1 = 1, lambda2 = 0, e12 = 0, scaled gap 1.
        spec = SystemSpec(Hamiltonian.diagonal(1.0, 0.0), DiagonalL(1.0, 0.0, 1.0))
        p2, p1, p0 = char_cubic(spec)
        assert (p2, p1, p0) == (1.0, 1.25, 0.0)

    def test_closed_system_cubic(self):
        spec = SystemSpec(Hamiltonian.diagonal(1.7, 0.2), DiagonalL(1.0, 0.0, 0.0))
        p2, p1, p0 = char_cubic(spec)
        assert abs(p2) < 1e-14
        assert p1 == pytest.approx(1.5**2, abs=1e-12)
        assert abs(p0) < 1e-14

    @pytest.mark.parametrize("form", ["diagonal", "jordan"])
    def test_closed_form_matches_direct_characteristic_polynomial(self, rng, form):
        for _ in range(100):
            spec = random_spec(rng, form=form, c_range=(0.3, 2.5))
            p2, p1, p0 = char_cubic(spec)
            m = build_generator(spec).matrix / spec.c**2
            assert abs(p2 - (-np.trace(m))) < 1e-10 * max(1.0, abs(p2))
            assert abs(p0 - (-np.linalg.det(m))) < 1e-9 * max(1.0, abs(p0))
            ws = np.linalg.eigvals(m)
            assert abs(p1 - (ws[0] * ws[1] + ws[0] * ws[2] + ws[1] * ws[2])) < 1e-8 * max(
                1.0, abs(p1)
            )


class TestCoincidentBranches:
    def test_jordan_origin_is_double_branch(self):
        # Both coupling invariants zero satisfies the two-root equality and
        # the positive sign test, giving s = -1/2 (double), -1.
        roots = jordan_coincident_roots(0.0, 0.0)
        assert roots == [(-0.5, 2), (-1.0, 1)]

    def test_jordan_known_double_family(self):
        # gap 0, coupling 1/64 solves the equality with the negative sign
        # test: s = -3/4 (double), -1/2 (checked via root sums/products).
        roots = jordan_coincident_roots(0.0, 1.0 / 64.0)
        assert roots == [(-0.75, 2), (-0.5, 1)]

    def test_jordan_triple(self):
        roots = jordan_coincident_roots(1.0 / 108.0, 1.0 / 54.0)
        assert roots == [(-2.0 / 3.0, 3)]

    def test_diagonal_double_family(self):
        # |mu|^2 = 1, |e12|^2 = 1/64, detune 0: s = -1/4 (double), -1/2.
        roots = diagonal_coincident_roots(1.0, 1.0 / 64.0, 0.0)
        assert roots == [(-0.25, 2), (-0.5, 1)]

    def test_diagonal_triple(self):
        roots = diagonal_coincident_roots(1.0, 1.0 / 54.0, 1.0 / 108.0)
        assert roots == [(-1.0 / 3.0, 3)]

    def test_generic_parameters_do_not_trigger(self, rng):
        for _ in range(50):
            e, k = rng.uniform(0.0, 0.5, size=2)
            out = jordan_coincident_roots(e, k)
            if out is not None:
                # Extremely unlikely; if it fires the roots must check out.
                svals = [s for s, m in out for _ in range(m)]
                assert vieta_residuals(
                    svals, 2.0, 1.25 + e + 4 * k, 0.25 + e + 2 * k
                ) < 1e-5

    def test_double_branch_agrees_with_raw_cubic(self):
        # Representable double case: raw cubic and branch formulas coincide.
        p2, p1, p0 = 2.0, 1.25 + 4.0 / 64.0, 0.25 + 2.0 / 64.0
        raw = sorted(cubic_roots(p2, p1, p0).values(), key=lambda z: z.real)
        branch = jordan_coincident_roots(0.0, 1.0 / 64.0)
        expanded = sorted([s for s, m in branch for _ in range(m)])
        for a, b in zip(raw, expanded):
            assert abs(a - b) < 1e-6

    def test_triple_branch_root_mean_matches_raw_cubic(self):
        # Cube-root conditioning spreads raw roots by ~(eps)^(1/3); their
        # mean is pinned by the exact root sum, so compare means tightly
        # and individuals loosely.
        e, k = 1.0 / 108.0, 1.0 / 54.0
        p2, p1, p0 = 2.0, 1.25 + e + 4 * k, 0.25 + e + 2 * k
        raw = cubic_roots(p2, p1, p0).values()
        assert abs(sum(raw) / 3.0 - (-2.0 / 3.0)) < 1e-6
        for r in raw:
            assert abs(r - (-2.0 / 3.0)) < 1e-4


class TestSpectrum:
    def test_jordan_origin_double_root(self):
        spec = SystemSpec(DEGENERATE_H, JordanL(0.0, 1.0))
        md, svals = spectrum_svals(spec)
        assert md.structure is SpectrumStructure.DOUBLE_ROOT
        assert sorted(s.real for s in svals) == pytest.approx([-1.0, -0.5, -0.5])
        # Diagonalizable double root: two simple modes, no chains.
        assert all(m.poly_degree == 0 for m in md.modes)

    def test_jordan_defective_double_has_chain(self):
        spec = SystemSpec(DEGENERATE_H, JordanL(0.25, 1.0))
        md = spectrum(spec)
        assert md.structure is SpectrumStructure.DOUBLE_ROOT
        degrees = sorted(m.poly_degree for m in md.modes)
        assert degrees == [0, 1]

    def test_jordan_triple_has_chain(self):
        h = Hamiltonian.diagonal(math.sqrt(1.0 / 108.0), 0.0)
        spec = SystemSpec(h, JordanL(2.0 / math.sqrt(54.0), 1.0))
        md = spectrum(spec)
        assert md.structure is SpectrumStructure.TRIPLE_ROOT
        assert [m.poly_degree for m in md.modes] == [2]
        assert md.modes[0].rate == pytest.approx(-2.0 / 3.0, abs=1e-9)

    def test_diagonal_zero_mode_case(self):
        spec = SystemSpec(Hamiltonian.diagonal(1.0, 0.0), DiagonalL(1.0, 0.0, 1.0))
        md, svals = spectrum_svals(spec)
        assert md.structure is SpectrumStructure.ZERO_MODE
        svals = sorted(svals, key=lambda z: (z.real, z.imag))
        assert svals[2] == 0.0
        assert svals[0] == pytest.approx(-0.5 - 1.0j, abs=1e-12)
        assert svals[1] == pytest.approx(-0.5 + 1.0j, abs=1e-12)

    def test_equal_couplings_oscillate(self):
        h = Hamiltonian([[1.0, 0.4], [0.4, 0.0]])
        spec = SystemSpec(h, DiagonalL(0.7j, 0.7j, 1.0))
        md, svals = spectrum_svals(spec)
        assert md.structure is SpectrumStructure.OSCILLATORY_UNDAMPED
        nonzero = [s for s in svals if abs(s) > 1e-12]
        assert len(nonzero) == 2
        for s in nonzero:
            assert s.real == 0.0

    def test_eigen_and_chain_residuals(self, rng):
        specs = [random_spec(rng, form=f, c_range=(0.3, 2.0)) for f in
                 ("diagonal", "jordan", "general") for _ in range(40)]
        specs.append(SystemSpec(DEGENERATE_H, JordanL(0.25, 1.0)))
        h = Hamiltonian.diagonal(math.sqrt(1.0 / 108.0), 0.0)
        specs.append(SystemSpec(h, JordanL(2.0 / math.sqrt(54.0), 1.0)))
        for spec in specs:
            m = build_generator(spec).matrix
            mn = max(1.0, np.linalg.norm(m))
            md = spectrum(spec)
            for mode in md.modes:
                b = m - mode.rate * np.eye(3)
                assert np.linalg.norm(b @ mode.vectors[0]) < 1e-9 * mn
                for j in range(1, len(mode.vectors)):
                    assert (
                        np.linalg.norm(b @ mode.vectors[j] - mode.vectors[j - 1])
                        < 1e-8 * mn
                    )

    def test_conjugation_pairing_of_mode_matrices(self, rng):
        for _ in range(60):
            spec = random_spec(rng, form="any", c_range=(0.3, 2.0))
            md = spectrum(spec)
            for mode in md.modes:
                if mode.rate.imag > 1e-10:
                    partners = [
                        other
                        for other in md.modes
                        if abs(other.rate - np.conj(mode.rate)) < 1e-9
                    ]
                    assert partners
                    diff = partners[0].matrices[0] - mode.matrices[0].conj().T
                    assert np.linalg.norm(diff) < 1e-9

    def test_vieta_on_scaled_roots(self, rng):
        for _ in range(200):
            spec = random_spec(rng, form="any", c_range=(0.2, 2.5))
            md, svals = spectrum_svals(spec)
            p2, p1, p0 = md.cubic
            assert vieta_residuals(svals, p2, p1, p0) < 1e-10 * max(
                1.0, abs(p2), abs(p1), abs(p0)
            )


class TestStability:
    def test_jordan_always_damped(self, rng):
        for _ in range(500):
            spec = random_spec(rng, form="jordan", c_range=(0.1, 3.0))
            md = spectrum(spec)
            assert assert_stability(md, spec) is StabilityVerdict.ALL_DAMPED

    def test_diagonal_mixed_coupling_damped(self, rng):
        for _ in range(200):
            spec = random_spec(rng, form="diagonal", c_range=(0.1, 3.0))
            md = spectrum(spec)
            # Generic draws have e12 != 0 and distinct couplings.
            assert assert_stability(md, spec) is StabilityVerdict.ALL_DAMPED

    def test_diagonal_no_mixing_gives_exactly_one_zero_root(self, rng):
        for _ in range(100):
            e1, e2 = rng.uniform(-2, 2, size=2)
            lam1 = complex(*rng.uniform(-2, 2, size=2))
            lam2 = complex(*rng.uniform(-2, 2, size=2))
            spec = SystemSpec(
                Hamiltonian.diagonal(e1, e2), DiagonalL(lam1, lam2, rng.uniform(0.1, 3.0))
            )
            md, svals = spectrum_svals(spec)
            zeros = [s for s in svals if abs(s.real) < 1e-12 and abs(s.imag) < 1e-12]
            assert len(zeros) == 1
            assert assert_stability(md, spec) is StabilityVerdict.ZERO_MODE_PRESENT

    def test_equal_couplings_undamped(self, rng):
        for _ in range(100):
            h = Hamiltonian(
                [[rng.uniform(-2, 2), 0.5 + 0.1j], [0.5 - 0.1j, rng.uniform(-2, 2)]]
            )
            lam = complex(*rng.uniform(-2, 2, size=2))
            spec = SystemSpec(h, DiagonalL(lam, lam, rng.uniform(0.1, 3.0)))
            md = spectrum(spec)
            assert assert_stability(md, spec) is StabilityVerdict.UNDAMPED

    def test_closed_system_undamped(self):
        spec = SystemSpec(Hamiltonian.diagonal(1.0, 0.0), DiagonalL(1.0, 0.0, 0.0))
        md, svals = spectrum_svals(spec)
        assert assert_stability(md, spec) is StabilityVerdict.UNDAMPED
        assert sorted(svals, key=lambda z: z.imag) == pytest.approx([-1j, 0.0, 1j])

    @pytest.mark.parametrize("scale", [1e4, 1e6, 1e8, 1e12])
    def test_closed_general_form_stays_undamped_at_large_h(self, rng, scale):
        # A closed system's rates have real parts exactly zero; a numeric
        # cubic's rounding of order eps |H| would read as growing modes.
        for _ in range(50):
            h = random_hamiltonian(rng, scale)
            l = np.array([[random_complex(rng) for _ in range(2)] for _ in range(2)])
            assert np.linalg.norm(l @ l.conj().T - l.conj().T @ l) > 1e-3
            spec = SystemSpec(h, GeneralL(l, 0.0))
            md = spectrum(spec)
            assert md.structure is SpectrumStructure.OSCILLATORY_UNDAMPED
            assert assert_stability(md, spec) is StabilityVerdict.UNDAMPED
            assert all(m.rate.real == 0.0 for m in md.modes)


def _triple_root_neighbour(eps):
    """A Jordan system whose level gap is off the triple-root value by the
    factor 1 + eps: three simple roots, nearly coinciding."""
    h = Hamiltonian.diagonal(math.sqrt(1.0 / 108.0) * (1.0 + eps), 0.0)
    return SystemSpec(h, JordanL((2.0 / math.sqrt(54.0)) * np.exp(0.7j), 1.0))


class TestCrossProductEigenvectors:
    @staticmethod
    def check_simple_roots(spec):
        canon = spec.canonical
        m = np.array(_scaled_rows(canon))
        for s, mult in cubic_roots(*_canonical_cubic(canon)).roots:
            assert mult == 1
            b = m - s * np.eye(3)
            _, _, n, n2 = _largest_cross(b.tolist())
            v = np.array(n) / np.sqrt(n2)
            _, sing, vh = np.linalg.svd(b)
            # The cross product's residual is at most sqrt(3) times the
            # smallest singular value, the best any unit vector achieves.
            assert np.linalg.norm(b @ v) <= 2.0 * sing[2] + 1e-14 * sing[0]
            assert abs(np.linalg.norm(v) - 1.0) < 1e-15
            # The SVD null vector, up to a phase.
            assert 1.0 - abs(np.vdot(vh[2].conj(), v)) < 1e-12

    def test_generic_roots(self, rng):
        for form in ("diagonal", "jordan", "general"):
            for _ in range(30):
                self.check_simple_roots(random_spec(rng, form=form, c_range=(0.3, 2.0)))

    def test_roots_near_the_triple_root(self):
        for eps in (1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 4e-4):
            spec = _triple_root_neighbour(eps)
            p2, p1, p0 = (p.real for p in char_cubic(spec))
            disc = 18 * p2 * p1 * p0 - 4 * p2**3 * p0 + p2**2 * p1**2 - 4 * p1**3 - 27 * p0**2
            assert 1e-10 < abs(disc) < 1e-4
            self.check_simple_roots(spec)

    def test_rank_one_roots_take_the_hermitian_null_space(self, monkeypatch):
        # Pure dephasing with degenerate levels: both coherences decay at
        # -|lambda1 - lambda2|^2 / 2, a diagonalizable double root, so
        # M - rate I has rank one: m10 = m01 = 0 and m11 is real.
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        spec = SystemSpec(DEGENERATE_H, DiagonalL(1.0, 0.3, 1.0))
        m = _scaled_rows(spec.canonical)
        b = _minus_rate(m, -2.0)
        chains = _real_root_chains(b, 2, 1e-8)
        assert not calls
        assert [len(c) for c in chains] == [1, 1]
        vs = np.array([c[0] for c in chains])
        assert np.max(np.abs(np.array(b) @ vs.T)) < 1e-15
        assert np.allclose(vs @ vs.conj().T, np.eye(2), atol=1e-15)
        for v in vs:
            assert v[0].imag == 0.0 and v[2] == np.conj(v[1])
        # The scalar l with degenerate levels: M = 0 and three simple modes.
        spec = SystemSpec(DEGENERATE_H, DiagonalL(0.9, 0.9, 1.3))
        md = spectrum(spec)
        assert [len(mode.vectors) for mode in md.modes] == [1, 1, 1]
        vs = np.array([mode.vectors[0] for mode in md.modes])
        assert np.allclose(vs @ vs.conj().T, np.eye(3), atol=1e-15)


# A level gap of 1e9 at c = 1e-5: the scaled gap |H| / c^2 is 1e19, so the
# pair |s| ~ 1e19 dwarfs the real root and the pair's real part.
LARGE_SCALED_GAP = SystemSpec(Hamiltonian.diagonal(1e9, 0.0), JordanL(0.3 + 0.2j, 1e-5))


def test_large_scaled_gap_keeps_the_real_parts():
    spec = LARGE_SCALED_GAP
    md = spectrum(spec)
    got = sorted(m.rate.real / spec.c**2 for m in md.modes)
    want = sorted(a1.real for _, a1 in weak_rates(spec).branches)
    assert got == pytest.approx(want, abs=1e-9)
    assert assert_stability(md, spec) is StabilityVerdict.ALL_DAMPED
    # Real parts are judged against the damping scale, not against |s|.
    assert md.structure is SpectrumStructure.COMPLEX_PAIR_PLUS_REAL


class TestChainsAreSolvedOnce:
    """Chains come from closed forms: no least-squares solve and no SVD, and
    two links for a triple root, one for a double root."""

    @pytest.mark.parametrize(
        "family, links",
        [
            (jordan_triple_root_spec, 2),
            (jordan_double_root_spec, 1),
            (diagonal_double_root_spec, 1),
        ],
    )
    def test_lstsq_calls(self, rng, monkeypatch, family, links):
        calls = []
        for name in ("lstsq", "svd"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name, lambda *a, _real=real, **k: calls.append(1) or _real(*a, **k)
            )
        for _ in range(5):
            md = spectrum(family(rng))
            assert sum(len(m.vectors) - 1 for m in md.modes) == links
        assert not calls
