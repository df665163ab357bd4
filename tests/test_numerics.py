import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgkls.errors import InputError
from fgkls.numerics import (
    _REFINE_BAND,
    COINCIDENCE_RTOL,
    CubicRoots,
    Inconsistent,
    RootPattern,
    SolutionFamily,
    UniqueSolution,
    cubic_roots,
    _complex_cubic,
    _newton_polish,
    _poly_eval,
    _real_cubic,
    _require_finite,
    det3,
    schur2,
    solve3,
    solve_pivoted3,
)

finite_floats = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
finite_complex = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)


def poly(s, p2, p1, p0):
    return ((s + p2) * s + p1) * s + p0


class TestCubicRoots:
    def test_double_root_case(self):
        # s^3 + 2 s^2 + 5/4 s + 1/4 = (s + 1)(s + 1/2)^2 by synthetic
        # division by (s + 1), then a perfect square.
        r = cubic_roots(2.0, 1.25, 0.25)
        assert r.classification is RootPattern.ONE_DOUBLE_ONE_SIMPLE
        by_mult = {m: v for v, m in r.roots}
        assert by_mult[1] == pytest.approx(-1.0, abs=1e-12)
        assert by_mult[2] == pytest.approx(-0.5, abs=1e-12)

    def test_triple_zero(self):
        r = cubic_roots(0.0, 0.0, 0.0)
        assert r.classification is RootPattern.TRIPLE
        assert r.roots == ((0j, 3),)

    def test_zero_root_with_complex_pair(self):
        # s (s^2 + s + 5/4) = 0: roots 0 and -1/2 +/- i.
        r = cubic_roots(1.0, 1.25, 0.0)
        vals = sorted(r.values(), key=lambda z: (z.real, z.imag))
        assert vals[2] == 0.0  # exact zero kept exact
        assert vals[0] == pytest.approx(-0.5 - 1.0j, abs=1e-12)
        assert vals[1] == pytest.approx(-0.5 + 1.0j, abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            cubic_roots(float("nan"), 0.0, 0.0)
        with pytest.raises(InputError):
            cubic_roots(0.0, complex(0, float("inf")), 0.0)

    @given(p2=finite_floats, p1=finite_floats, p0=finite_floats)
    @settings(max_examples=150, deadline=None)
    def test_real_coefficients_roots_pair_and_satisfy_poly(self, p2, p1, p0):
        r = cubic_roots(p2, p1, p0)
        vals = r.values()
        assert len(vals) == 3
        for v in vals:
            assert abs(poly(v, p2, p1, p0)) < 1e-9 * max(1.0, abs(v) ** 3)
        nonreal = [v for v in vals if v.imag != 0.0]
        assert len(nonreal) in (0, 2)
        if nonreal:
            a, b = nonreal
            assert abs(a - b.conjugate()) < 1e-10

    @given(p2=finite_complex, p1=finite_complex, p0=finite_complex)
    @settings(max_examples=150, deadline=None)
    def test_vieta_residuals(self, p2, p1, p0):
        vals = cubic_roots(p2, p1, p0).values()
        s1 = sum(vals)
        s2 = vals[0] * vals[1] + vals[0] * vals[2] + vals[1] * vals[2]
        s3 = vals[0] * vals[1] * vals[2]
        scale = max(1.0, abs(p2), abs(p1), abs(p0))
        assert abs(s1 + p2) < 1e-10 * scale
        assert abs(s2 - p1) < 1e-10 * scale * 3
        assert abs(s3 + p0) < 1e-10 * scale * 3

    def test_constructed_double_roots_merge(self):
        # (s - r)^2 (s - q) for representable r, q.
        for r0, q in [(-0.75, -0.5), (0.25, -1.5), (1.5, 1.0)]:
            p2 = -(2 * r0 + q)
            p1 = r0 * r0 + 2 * r0 * q
            p0 = -r0 * r0 * q
            res = cubic_roots(p2, p1, p0)
            assert res.classification is RootPattern.ONE_DOUBLE_ONE_SIMPLE
            by_mult = {m: v for v, m in res.roots}
            assert by_mult[2] == pytest.approx(r0, abs=1e-10)
            assert by_mult[1] == pytest.approx(q, abs=1e-10)


# A literal copy of ``cubic_roots``, docstring left out, as it was before
# its refinement and clustering tail took each |root| and each pair
# distance once.
def reference_cubic_roots(p2, p1, p0):
    p2, p1, p0 = complex(p2), complex(p1), complex(p0)
    _require_finite(p2, p1, p0)

    coeff_scale = max(1.0, abs(p2), abs(p1), abs(p0))
    is_real = max(abs(p2.imag), abs(p1.imag), abs(p0.imag)) < 1e-10 * coeff_scale
    if is_real:
        raw = _real_cubic(p2.real, p1.real, p0.real)
        rp2, rp1, rp0 = p2.real, p1.real, p0.real
        polished: list[complex] = []
        seen_pair = False
        for r in raw:
            if r.imag == 0.0:
                s = _newton_polish(complex(r.real), rp2, rp1, rp0)
                polished.append(complex(s.real))
            elif not seen_pair:
                s = _newton_polish(r, rp2, rp1, rp0)
                polished.append(s)
                polished.append(s.conjugate())
                seen_pair = True
        if seen_pair:
            # A dominant pair z, z* leaves r and Re z with an error of about
            # eps |z|; the identities r |z|^2 = -p0 and r + 2 Re z = -p2 give
            # both to full relative precision.
            r, z = polished[0].real, polished[1]
            mag = abs(z)
            if mag > abs(r):
                r = -(rp0 / mag) / mag
                re = (-rp2 - r) / 2.0
                polished = [complex(r), complex(re, z.imag), complex(re, -z.imag)]
        roots = polished
        p2u, p1u, p0u = complex(rp2), complex(rp1), complex(rp0)
    else:
        roots = [_newton_polish(r, p2, p1, p0) for r in _complex_cubic(p2, p1, p0)]
        p2u, p1u, p0u = p2, p1, p0

    # Critical-point refinement of the closest pair, if it is nearly double.
    pairs = [(0, 1), (0, 2), (1, 2)]
    dists = [abs(roots[a] - roots[b]) for a, b in pairs]
    kmin = min(range(3), key=dists.__getitem__)
    ia, ib = pairs[kmin]
    pair_scale = max(1.0, abs(roots[ia]), abs(roots[ib]))
    if 0.0 < dists[kmin] <= _REFINE_BAND * pair_scale:
        mid = (roots[ia] + roots[ib]) / 2.0
        disc = cmath.sqrt(p2u * p2u - 3.0 * p1u)
        crit = min(
            [(-p2u + disc) / 3.0, (-p2u - disc) / 3.0], key=lambda z: abs(z - mid)
        )
        curv = 6.0 * crit + 2.0 * p2u
        if abs(curv) > 1e-6 * max(1.0, abs(p2u)):
            val = _poly_eval(crit, p2u, p1u, p0u)
            delta = cmath.sqrt(-2.0 * val / curv)
            cand_pair = [crit + delta, crit - delta]
            cand_third = -p2u - 2.0 * crit
            old_res = max(
                abs(_poly_eval(roots[ia], p2u, p1u, p0u)),
                abs(_poly_eval(roots[ib], p2u, p1u, p0u)),
            )
            new_res = max(abs(_poly_eval(z, p2u, p1u, p0u)) for z in cand_pair)
            if new_res <= 10.0 * old_res + 1e-13 * coeff_scale:
                if is_real:
                    # Keep exact realness or exact conjugacy of the pair.
                    if abs(delta.imag) <= abs(delta.real):
                        cand_pair = [
                            complex(crit.real + abs(delta)),
                            complex(crit.real - abs(delta)),
                        ]
                    else:
                        cand_pair = [
                            complex(crit.real, abs(delta)),
                            complex(crit.real, -abs(delta)),
                        ]
                    cand_third = complex(cand_third.real)
                roots = cand_pair + [cand_third]

    # Cluster coincident roots: the union over the three pairs.  Two close
    # pairs share a root, so they join all three (near-triple cases merge).
    close = [
        (a, b)
        for a, b in pairs
        if abs(roots[a] - roots[b]) < COINCIDENCE_RTOL * max(1.0, abs(roots[a]), abs(roots[b]))
    ]
    if len(close) >= 2:
        groups = [roots]
    elif close:
        (a, b), = close
        groups = [[roots[a], roots[b]], [roots[3 - a - b]]]
    else:
        groups = [[r] for r in roots]

    entries = []
    for g in groups:
        mean = sum(g) / len(g)
        if is_real and abs(mean.imag) <= COINCIDENCE_RTOL * max(1.0, abs(mean)):
            mean = complex(mean.real)
        entries.append((mean, len(g)))
    entries.sort(key=lambda e: (e[0].real, e[0].imag))

    mults = sorted(m for _, m in entries)
    if mults == [3]:
        pattern = RootPattern.TRIPLE
    elif mults == [1, 2]:
        pattern = RootPattern.ONE_DOUBLE_ONE_SIMPLE
    else:
        pattern = RootPattern.THREE_DISTINCT
    return CubicRoots(roots=tuple(entries), classification=pattern)


def identity_cases(rng, count):
    """Random and near-multiple monic cubics, real and complex."""
    for i in range(count):
        kind = i % 6
        if kind == 0:
            yield tuple(complex(x) for x in rng.normal(size=3) * 10 ** rng.uniform(-3, 3, size=3))
        elif kind == 1:
            yield tuple(complex(x, y) for x, y in rng.normal(size=(3, 2)))
        elif kind in (2, 3):
            # A real double (kind 2) or triple (kind 3) root, split by eps.
            a, b = rng.normal(size=2)
            eps = 10 ** rng.uniform(-16, -4)
            roots = [a, a + eps * rng.normal(), a if kind == 3 else b]
            yield tuple(complex(x) for x in np.poly(roots)[1:])
        elif kind == 4:
            a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
            eps = 10 ** rng.uniform(-16, -4)
            roots = [a, a + eps * complex(*rng.normal(size=2)), b if rng.random() < 0.5 else a]
            yield tuple(complex(x) for x in np.poly(roots)[1:])
        else:
            # A conjugate pair close to the real axis and to a real root.
            a, w = rng.normal(), 10 ** rng.uniform(-9, 0)
            roots = [a + 1j * w, a - 1j * w, a + rng.normal() * 10 ** rng.uniform(-8, 0)]
            yield tuple(complex(x) for x in np.poly(roots).real[1:])


def test_cubic_roots_is_bit_identical_to_the_reference():
    rng = np.random.default_rng(11)
    kinds = set()
    for coeffs in identity_cases(rng, 12_000):
        got, want = cubic_roots(*coeffs), reference_cubic_roots(*coeffs)
        # repr tells signed zeros apart.
        assert repr(got.roots) == repr(want.roots), coeffs
        assert got.classification is want.classification
        kinds.add(got.classification)
    assert kinds == set(RootPattern)


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
