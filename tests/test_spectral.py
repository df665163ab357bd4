import dataclasses
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from fgkls import spectral
from fgkls.errors import NotReducibleError
from fgkls.evolution import single_mode_reduction, solve_ivp, trajectory
from fgkls.generator import build_generator
from fgkls.model import DiagonalL, GeneralL, Hamiltonian, JordanL, SystemSpec
from fgkls.numerics import cubic_roots
from fgkls.perturb import weak_rates
from fgkls.pointer import DiagonalFamily, UniquePointer, compute_pointer
from fgkls.sampling import random_complex, random_density, random_hamiltonian, random_spec
from fgkls.spectral import (
    SpectrumStructure,
    StabilityVerdict,
    _canonical_cubic,
    _depressed,
    _minus_rate,
    _largest_cross,
    _rank_one,
    _semisimple_chains,
    assert_stability,
    char_cubic,
    rate_unit,
    scaled_rows,
    spectrum,
)
from test_acceptance import (
    diagonal_double_root_spec,
    haar_unitary,
    jordan_double_root_spec,
    jordan_triple_root_spec,
    rotated_general,
)
from test_evolution import NEAR_MANIFOLD, NEAR_MANIFOLD_DISTANCES
from test_invariance import CHAIN_RTOL, rank_one_double_root_spec
from test_scalar_pipeline import workload_ops

EPS = np.finfo(float).eps
DEGENERATE_H = Hamiltonian.diagonal(0.5, 0.5)


def vieta_residuals(svals, p2, p1, p0):
    s1 = sum(svals)
    s2 = svals[0] * svals[1] + svals[0] * svals[2] + svals[1] * svals[2]
    s3 = svals[0] * svals[1] * svals[2]
    return max(abs(s1 + p2), abs(s2 - p1), abs(s3 + p0))


def spectrum_svals(spec):
    md = spectrum(spec)
    return md, [r / rate_unit(spec.c) for r in md.rates]


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


def jordan_system(gap_sq, coupling_sq):
    """The Jordan shape at c = 1 with level gap^2 and |h01|^2 given."""
    g, h = math.sqrt(gap_sq), math.sqrt(coupling_sq)
    return SystemSpec(Hamiltonian([[g / 2, h], [h, -g / 2]]), JordanL(0.0, 1.0))


def diagonal_system(e12_sq, detune_sq):
    """The diagonal shape at c = 1 with |lambda1 - lambda2|^2 = 1, |e12|^2
    and the squared detuning given."""
    g, h = math.sqrt(detune_sq), math.sqrt(e12_sq)
    return SystemSpec(Hamiltonian([[g / 2, h], [h, -g / 2]]), DiagonalL(1.0, 0.0, 1.0))


def coinciding_roots(spec):
    """spectrum's structure and its roots in rate / c^2, each repeated by
    its algebraic multiplicity."""
    md = spectrum(spec)
    return md.structure, sorted(r.real / rate_unit(spec.c) for r in md.rates)


class TestCoincidentBranches:
    def test_jordan_origin_is_double_branch(self):
        # Both coupling invariants zero: s = -1/2 (double), -1.
        structure, roots = coinciding_roots(jordan_system(0.0, 0.0))
        assert structure is SpectrumStructure.DOUBLE_ROOT
        assert roots == pytest.approx([-1.0, -0.5, -0.5], abs=1e-15)

    def test_jordan_known_double_family(self):
        # gap 0, coupling 1/64: s = -3/4 (double), -1/2.
        structure, roots = coinciding_roots(jordan_system(0.0, 1.0 / 64.0))
        assert structure is SpectrumStructure.DOUBLE_ROOT
        assert roots == pytest.approx([-0.75, -0.75, -0.5], abs=1e-15)

    def test_jordan_triple(self):
        structure, roots = coinciding_roots(jordan_system(1.0 / 108.0, 1.0 / 54.0))
        assert structure is SpectrumStructure.TRIPLE_ROOT
        assert roots == pytest.approx([-2.0 / 3.0] * 3, abs=1e-15)

    def test_diagonal_double_family(self):
        # |mu|^2 = 1, |e12|^2 = 1/64, detune 0: s = -1/4 (double), -1/2.
        structure, roots = coinciding_roots(diagonal_system(1.0 / 64.0, 0.0))
        assert structure is SpectrumStructure.DOUBLE_ROOT
        assert roots == pytest.approx([-0.5, -0.25, -0.25], abs=1e-15)

    def test_diagonal_triple(self):
        structure, roots = coinciding_roots(diagonal_system(1.0 / 54.0, 1.0 / 108.0))
        assert structure is SpectrumStructure.TRIPLE_ROOT
        assert roots == pytest.approx([-1.0 / 3.0] * 3, abs=1e-15)

    def test_generic_parameters_do_not_trigger(self, rng):
        for _ in range(50):
            e, k = rng.uniform(0.0, 0.5, size=2)
            structure, roots = coinciding_roots(jordan_system(e, k))
            if structure in (SpectrumStructure.DOUBLE_ROOT, SpectrumStructure.TRIPLE_ROOT):
                # Extremely unlikely; if it fires the roots must check out.
                assert vieta_residuals(roots, 2.0, 1.25 + e + 4 * k, 0.25 + e + 2 * k) < 1e-5

    def test_double_branch_agrees_with_raw_cubic(self):
        # Representable double case: raw cubic and branch formulas coincide.
        p2, p1, p0 = 2.0, 1.25 + 4.0 / 64.0, 0.25 + 2.0 / 64.0
        raw = sorted(z.real for z in cubic_roots(p2, p1, p0))
        _, branch = coinciding_roots(jordan_system(0.0, 1.0 / 64.0))
        for a, b in zip(raw, branch):
            assert abs(a - b) < 1e-6

    def test_triple_branch_root_mean_matches_raw_cubic(self):
        # Cube-root conditioning spreads raw roots by ~(eps)^(1/3); their
        # mean is pinned by the exact root sum, so compare means tightly
        # and individuals loosely.
        e, k = 1.0 / 108.0, 1.0 / 54.0
        p2, p1, p0 = 2.0, 1.25 + e + 4 * k, 0.25 + e + 2 * k
        raw = cubic_roots(p2, p1, p0)
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
        m = np.array(scaled_rows(canon))
        for s in cubic_roots(*_canonical_cubic(canon)):
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
        m = scaled_rows(spec.canonical)
        b = _minus_rate(m, -2.0)
        assert _rank_one(spec.canonical)
        chains = _semisimple_chains(b, 2)
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
    # The structure comes from the canonical parameters, not from |s|.
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


class TestModesAreBuiltOnFirstRead:
    """A solve, its stability verdict, trajectory and single-mode reduction
    read the rates alone: no eigenvector or chain is built until ``modes``
    is first read, and a second read builds none."""

    @pytest.mark.parametrize(
        "family, builder",
        [
            (lambda rng: random_spec(rng, "any"), "_largest_cross"),
            (jordan_triple_root_spec, "_real_root_chains"),
            (jordan_double_root_spec, "_real_root_chains"),
            (rank_one_double_root_spec, "_semisimple_chains"),
        ],
    )
    def test_chain_calls(self, rng, monkeypatch, family, builder):
        calls = Counter()
        for name in ("_largest_cross", "_real_root_chains", "_semisimple_chains"):
            real = getattr(spectral, name)
            monkeypatch.setattr(spectral, name, lambda *a, _r=real, _n=name: calls.update([_n]) or _r(*a))
        for _ in range(5):
            spec = family(rng)
            sol = solve_ivp(spec, random_density(rng))
            assert_stability(sol.modes, spec)
            trajectory(sol, np.linspace(0.0, 1.0, 5))
            try:
                single_mode_reduction(sol)
            except NotReducibleError:
                pass
            assert not calls
            modes = sol.modes.modes
            assert calls[builder] > 0
            built = calls.copy()
            assert sol.modes.modes is modes and calls == built
            calls.clear()


@pytest.mark.parametrize("gap", [1.0, 1e-4, 1e-6, 1e-9, 1e-13, 0.0])
@pytest.mark.parametrize("lindblad", [DiagonalL(1.0, 0.0, 0.0), DiagonalL(1.0, 1.0, 1.0)], ids=["closed", "scalar"])
def test_closed_and_scalar_spectra_are_exact_at_any_gap(gap, lindblad):
    """A closed system and a scalar coupling have the rates 0 and +/- i gap
    whatever the gap's size: oscillating modes, or three zero modes at
    gap 0, with eigenvectors of full rank and an exact +0 zero rate."""
    spec = SystemSpec(Hamiltonian.diagonal(gap / 2, -gap / 2), lindblad)
    md = spectrum(spec)
    got = sorted((m.rate for m in md.modes), key=lambda z: z.imag)
    for r, want in zip(got, (-1j * gap, 0j, 1j * gap)):
        assert abs(r - want) <= 4 * EPS * gap
    assert math.copysign(1.0, got[1].real) == 1.0 and got[1] == 0
    if gap:
        assert md.structure is SpectrumStructure.OSCILLATORY_UNDAMPED
    else:
        assert md.structure is SpectrumStructure.ZERO_MODE
    assert np.linalg.matrix_rank(np.array([m.vectors[0] for m in md.modes])) == 3


def general_double_root_system(x, g, h):
    """H = [[g/2, h], [conj h, -g/2]] with l = [[x, t], [0, -x]], t^2 = 1 - x^2, at c = 1."""
    t = math.sqrt(1.0 - x * x)
    ham = Hamiltonian([[g / 2, h], [h.conjugate(), -g / 2]])
    return SystemSpec(ham, GeneralL([[x, t], [0.0, -x]], 1.0))


def cubic_discriminant(spec):
    """-4 p^3 - 27 q^2 of char_cubic in its depressed form."""
    a, b, c = (z.real for z in char_cubic(spec))
    p, q = b - a * a / 3, 2 * a**3 / 27 - a * b / 3 + c
    return -4 * p**3 - 27 * q * q


@pytest.fixture(scope="module")
def general_double_roots():
    """(x, g, h) of the 144 systems, out of 300 draws, with a non-normal l
    of distinct eigenvalues (x, t > 0) and a double root for some g in
    [0, 5]: g at the first sign change of the cubic's discriminant on a
    201-point grid, h scaled by 0.05, 0.2 and 1 in turn."""
    rng = np.random.default_rng(11)
    grid = np.linspace(0.0, 5.0, 201)
    out = []
    for i in range(300):
        x = rng.uniform(0.05, 0.95)
        h = complex(*rng.normal(size=2)) * (0.05, 0.2, 1.0)[i % 3]
        disc = lambda g: cubic_discriminant(general_double_root_system(x, g, h))
        signs = np.sign([disc(g) for g in grid])
        change = np.flatnonzero(signs[:-1] * signs[1:] <= 0)
        if len(change):
            lo, hi = grid[change[0]], grid[change[0] + 1]
            out.append((x, brentq(disc, lo, hi, xtol=1e-300, rtol=4 * EPS, maxiter=500), h))
    assert len(out) == 144
    return out


def test_general_double_roots_have_a_chain(general_double_roots):
    """Every point of the manifold, canonical and Haar-rotated, is a double
    root with a Jordan chain of the caller's generator; 1e-8 off it in g no
    root is multiple."""
    rng = np.random.default_rng(12)
    for x, g, h in general_double_roots:
        spec = general_double_root_system(x, g, h)
        for case in (spec, rotated_general(spec, haar_unitary(rng))):
            md = spectrum(case)
            assert md.structure is SpectrumStructure.DOUBLE_ROOT
            assert sorted(len(m.vectors) for m in md.modes) == [1, 2]
            m = build_generator(case).matrix
            bound = CHAIN_RTOL * max(1.0, float(np.linalg.norm(m)))
            for mode in md.modes:
                b = m - mode.rate * np.eye(3)
                vs = [np.array(v) for v in mode.vectors]
                assert np.linalg.norm(b @ vs[0]) <= bound
                for prev, link in zip(vs, vs[1:]):
                    assert np.linalg.norm(b @ link - prev) <= bound
        for off in (1e-8, -1e-8):
            md = spectrum(general_double_root_system(x, g + off, h))
            assert all(len(m.vectors) == 1 for m in md.modes)
            assert md.structure in (SpectrumStructure.DISTINCT, SpectrumStructure.COMPLEX_PAIR_PLUS_REAL)


def cubic_miss(spec):
    """Largest |e_k(rates) - cubic_k| / (eps R^k), R the largest |rate|, of
    spectrum's rates against char_cubic, in its variable."""
    md = spectrum(spec)
    r1, r2, r3 = [r / rate_unit(spec.c) for r in md.rates]
    radius = max(abs(r1), abs(r2), abs(r3))
    rebuilt = (-(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -(r1 * r2 * r3))
    return max(abs(e - p) / (EPS * radius**k) for k, (e, p) in enumerate(zip(rebuilt, md.cubic), 1))


def test_rates_rebuild_the_cubic(general_double_roots):
    """spectrum's rates, snapped onto a coinciding-root manifold or not,
    solve M's cubic to 64 eps R^k: on the benchmark systems (canonical, and
    120 of them rotated), towards each
    near-manifold family from either side, canonical and rotated, and
    10^-k off the general double-root manifold."""
    specs = [op.spec for op in workload_ops()]
    rng = np.random.default_rng(13)
    for family in NEAR_MANIFOLD.values():
        for d in NEAR_MANIFOLD_DISTANCES:
            for spec in (family(d), family(-d)):
                specs += [spec, rotated_general(spec, haar_unitary(rng))]
    for x, g, h in general_double_roots:
        specs += [general_double_root_system(x, g + s * 10.0**-k, h) for k in range(4, 17) for s in (1, -1)]
    assert max(map(cubic_miss, specs)) <= 64.0


def exact_depressed(canon):
    """p and q of the canonical cubic in exact rationals from the floats
    (x, t, g, h)."""
    x, t, g = map(Fraction, (canon.x, canon.t, canon.scaled[0]))
    re, im = Fraction(canon.scaled[1].real), Fraction(canon.scaled[1].imag)
    x2, t2, h2 = x * x, t * t, re * re + im * im
    half = 2 * x2 + t2 / 2
    a = 4 * x2 + 2 * t2
    b = half * half + g * g + 4 * h2 + t2 * t2 + 3 * x2 * t2
    c = half * t2 * (x2 + t2 / 2) + (t * g - 2 * x * re) ** 2 + 4 * x2 * (re * re + 2 * im * im) + 2 * t2 * h2
    return b - a * a / 3, 2 * a**3 / 27 - a * b / 3 + c


@pytest.mark.parametrize("shape", ["diagonal", "jordan", "general"])
def test_depressed_cubic_rounding_bound(shape, general_double_roots):
    """p, q and the discriminant -4 p^3 - 27 q^2 in floats are within their
    arithmetic rounding bounds of the exact values from the same canonical
    floats, on random systems and on the coinciding-root manifolds."""
    rng = np.random.default_rng(17)
    on_manifold = {
        "diagonal": [diagonal_double_root_spec(rng) for _ in range(500)],
        "jordan": [f(rng) for f in (jordan_double_root_spec, jordan_triple_root_spec) for _ in range(250)],
        "general": [general_double_root_system(*point) for point in general_double_roots],
    }[shape]
    specs = on_manifold + [random_spec(rng, shape) for _ in range(2000 - len(on_manifold))]
    for spec in specs:
        # No rounding of g and h: the bounds are those of the arithmetic.
        canon = dataclasses.replace(spec.canonical, err=0.0)
        p, q, dp, dq = _depressed(canon, *_canonical_cubic(canon))
        exact_p, exact_q = exact_depressed(canon)
        assert abs(Fraction(p) - exact_p) <= dp
        assert abs(Fraction(q) - exact_q) <= dq
        disc = -4.0 * p**3 - 27.0 * q * q
        # Propagated exactly to second and third order, plus the rounding
        # of evaluating disc from p and q.
        bound = (
            4 * dp * (3 * p * p + 3 * abs(p) * dp + dp * dp)
            + 27 * dq * (2 * abs(q) + dq)
            + 2 * EPS * (4 * abs(p) ** 3 + 27 * q * q)
        )
        assert abs(Fraction(disc) - (-4 * exact_p**3 - 27 * exact_q**2)) <= bound


@dataclasses.dataclass(frozen=True)
class ExactComplex:
    """h = re + i im with rational parts, for the exact cubic."""

    real: Fraction
    imag: Fraction


def test_no_undamped_oscillation_in_exact_arithmetic():
    """The paper's closing theorem for every non-scalar coupling, on the
    code's own cubic evaluated exactly: with (x, t) != 0, p2 > 0 and the
    Routh-Hurwitz determinant p1 p2 - p0 > 0, so no root is purely
    imaginary; p0 >= 0, and p0 = 0 exactly when t = 0 and (x = 0 or
    h = 0), the zero mode of ``Canonical.zero_mode``."""
    rng = np.random.default_rng(23)
    template = SystemSpec(DEGENERATE_H, JordanL(0.0, 1.0)).canonical

    def canonical_floats():
        x, t = rng.uniform(0.0, 1.0, 2) * 10.0 ** rng.uniform(-150, 0, 2)
        g, re, im = rng.normal(size=3) * 10.0 ** rng.uniform(-150, 150, 3)
        choice = rng.integers(8)
        x, t = (0.0 if choice == 0 else x), (0.0 if choice in (0, 1) else t)
        if choice == 2:
            re = im = 0.0
        return x, t, g, complex(re, 0.0 if choice == 3 else im)

    for _ in range(1000):
        x, t, g, h = canonical_floats()
        scaled = (Fraction(g), ExactComplex(Fraction(h.real), Fraction(h.imag)))
        exact = dataclasses.replace(template, x=Fraction(x), t=Fraction(t), scaled=scaled)
        p2, p1, p0 = _canonical_cubic(exact)
        assert all(isinstance(p, Fraction) for p in (p2, p1, p0))
        assert p0 >= 0
        assert (p0 == 0) == (t == 0 and (x == 0 or h == 0))
        if x or t:
            assert p2 > 0 and p1 * p2 - p0 > 0


@pytest.mark.parametrize("e", [10.0**-k for k in range(3, 13)] + [0.0])
def test_labels_agree_off_the_diagonal(e):
    """H = [[1/2, e], [e, -1/2]] with l = diag(1, -1): p0 = 8 e^2, so the
    pointer is unique, there is no zero mode and the slowest rate is
    negative for every e > 0, and all three labels flip together at e = 0."""
    spec = SystemSpec(Hamiltonian([[0.5, e], [e, -0.5]]), DiagonalL(1.0, -1.0, 1.0))
    md = spectrum(spec)
    slowest = max(m.rate.real for m in md.modes)
    verdict = assert_stability(md, spec)
    if e:
        assert isinstance(compute_pointer(spec), UniquePointer)
        assert md.structure is not SpectrumStructure.ZERO_MODE
        assert verdict is StabilityVerdict.ALL_DAMPED and slowest < 0.0
    else:
        assert isinstance(compute_pointer(spec), DiagonalFamily)
        assert md.structure is SpectrumStructure.ZERO_MODE
        assert verdict is StabilityVerdict.ZERO_MODE_PRESENT and slowest == 0.0
