import numpy as np

from fgkls.generator import rhs
from fgkls.model import DiagonalL, GeneralL, Hamiltonian, JordanL, SystemSpec, lindblad_operator
from fgkls.oracle import IntegratorConfig, integrate
from fgkls.sampling import random_complex, random_density, random_hamiltonian
from fgkls.uniton import (
    AllStates,
    NoUnitons,
    StationaryPointerOnly,
    _numeric_verdict,
    classify_unitons,
    uniton_tensor,
)
from test_acceptance import haar_unitary, rotated_general

H_DIAG = Hamiltonian.diagonal(1.0, 0.0)


def dissipator_norm(form, rho):
    big_l = lindblad_operator(form)
    ldl = big_l.conj().T @ big_l
    out = big_l @ rho @ big_l.conj().T - 0.5 * (ldl @ rho + rho @ ldl)
    return float(np.linalg.norm(out))


def kernel_dim(form):
    t4 = uniton_tensor(form).reshape(4, 4)
    s = np.linalg.svd(t4, compute_uv=False)
    return int(np.sum(s <= 1e-10 * max(1.0, s[0])))


class TestUnitonTensor:
    def test_scalar_coupling_kills_tensor(self):
        form = DiagonalL(0.8 - 0.2j, 0.8 - 0.2j, 1.0)
        assert np.max(np.abs(uniton_tensor(form))) < 1e-14
        assert kernel_dim(form) == 4

    def test_pure_raising_kernel_is_upper_population(self):
        form = JordanL(0.0, 1.0)
        assert kernel_dim(form) == 1
        t4 = uniton_tensor(form).reshape(4, 4)
        # diag(1, 0) flattens to (1, 0, 0, 0).
        assert np.linalg.norm(t4 @ np.array([1.0, 0.0, 0.0, 0.0])) < 1e-14

    def test_distinct_diagonal_kernel_is_diagonal_matrices(self):
        form = DiagonalL(1.0, 0.3j, 1.0)
        assert kernel_dim(form) == 2
        t4 = uniton_tensor(form).reshape(4, 4)
        for vec in ([1.0, 0, 0, 0], [0, 0, 0, 1.0]):
            assert np.linalg.norm(t4 @ np.array(vec)) < 1e-14
        # Coherences pick up the dephasing eigenvalue
        # lam1 conj(lam2) - (|lam1|^2 + |lam2|^2)/2, real part -|lam1-lam2|^2/2.
        off = t4 @ np.array([0, 1.0, 0, 0])
        expected = 1.0 * np.conj(0.3j) - 0.5 * (1.0 + 0.09)
        assert abs(off[1] - expected) < 1e-12
        assert abs(expected.real + 0.5 * abs(1.0 - 0.3j) ** 2) < 1e-12

    def test_matches_dissipator_action(self, rng):
        for _ in range(50):
            m = np.array([[random_complex(rng), random_complex(rng)],
                          [random_complex(rng), random_complex(rng)]])
            form = GeneralL(m, 1.0)
            t4 = uniton_tensor(form).reshape(4, 4)
            rho = random_density(rng)
            flat = np.array([rho[0, 0], rho[0, 1], rho[1, 0], rho[1, 1]])
            direct = t4 @ flat
            big_l = form.small_l()
            ldl = big_l.conj().T @ big_l
            expect = big_l @ rho @ big_l.conj().T - 0.5 * (ldl @ rho + rho @ ldl)
            assert abs(direct[0] - expect[0, 0]) < 1e-12
            assert abs(direct[1] - expect[0, 1]) < 1e-12
            assert abs(direct[2] - expect[1, 0]) < 1e-12
            assert abs(direct[3] - expect[1, 1]) < 1e-12

    def test_coupling_factors_out(self):
        a = uniton_tensor(JordanL(0.5, 1.0))
        b = uniton_tensor(JordanL(0.5, 2.3))
        assert np.max(np.abs(a - b)) < 1e-14


class TestClassify:
    def test_equal_couplings_all_states(self, rng):
        for _ in range(10):
            lam = random_complex(rng)
            spec = SystemSpec(random_hamiltonian(rng), DiagonalL(lam, lam, 1.0))
            assert isinstance(classify_unitons(spec), AllStates)

    def test_zero_coupling_all_states(self):
        spec = SystemSpec(H_DIAG, JordanL(0.7, 0.0))
        assert isinstance(classify_unitons(spec), AllStates)

    def test_distinct_diagonal_none(self):
        spec = SystemSpec(H_DIAG, DiagonalL(1.0, 0.3j, 1.0))
        verdict = classify_unitons(spec)
        assert isinstance(verdict, NoUnitons)

    def test_jordan_candidate_value(self):
        spec = SystemSpec(H_DIAG, JordanL(1.0, 1.0))
        verdict = classify_unitons(spec)
        assert isinstance(verdict, NoUnitons)
        expected = np.array([[2.0, -1.0], [-1.0, 1.0]]) / 3.0
        assert np.max(np.abs(verdict.candidate - expected)) < 1e-10

    def test_jordan_general_candidate_formula(self, rng):
        for _ in range(20):
            lam = random_complex(rng, 2.0)
            spec = SystemSpec(random_hamiltonian(rng), JordanL(lam, 1.0))
            verdict = classify_unitons(spec)
            denom = 2.0 * abs(lam) ** 2 + 1.0
            expected = np.array(
                [[abs(lam) ** 2 + 1.0, -np.conj(lam)], [-lam, abs(lam) ** 2]]
            ) / denom
            candidate = (
                verdict.rho
                if isinstance(verdict, StationaryPointerOnly)
                else verdict.candidate
            )
            assert np.max(np.abs(candidate - expected)) < 1e-10

    def test_pure_raising_with_diagonal_h_is_stationary_uniton(self):
        spec = SystemSpec(H_DIAG, JordanL(0.0, 1.0))
        verdict = classify_unitons(spec)
        assert isinstance(verdict, StationaryPointerOnly)
        assert np.allclose(verdict.rho, np.diag([1.0, 0.0]), atol=1e-12)

    def test_degenerate_h_jordan_candidate_commutes(self):
        spec = SystemSpec(Hamiltonian.diagonal(0.4, 0.4), JordanL(1.0, 1.0))
        verdict = classify_unitons(spec)
        assert isinstance(verdict, StationaryPointerOnly)

    def test_reported_unitons_satisfy_both_conditions(self, rng):
        specs = [
            SystemSpec(H_DIAG, JordanL(0.0, 1.0)),
            SystemSpec(Hamiltonian.diagonal(0.4, 0.4), JordanL(1.0, 1.0)),
        ]
        for spec in specs:
            verdict = classify_unitons(spec)
            assert isinstance(verdict, StationaryPointerOnly)
            rho_u = verdict.rho
            assert dissipator_norm(spec.lindblad, rho_u) < 1e-10
            h = spec.hamiltonian.matrix
            hn = max(1.0, float(np.linalg.norm(h)))
            for t in np.linspace(0.0, 10.0 / hn, 7):
                w, v = np.linalg.eigh(h)
                u = v @ np.diag(np.exp(-1j * w * t)) @ v.conj().T
                rho_t = u @ rho_u @ u.conj().T
                flow = rhs(spec, rho_t) + 1j * (h @ rho_t - rho_t @ h)
                assert np.linalg.norm(flow) < 1e-10

    def test_verdict_table_random_sweep(self, rng):
        for _ in range(500):
            h = random_hamiltonian(rng)
            kind = rng.integers(0, 3)
            if kind == 0:
                lam = random_complex(rng)
                spec = SystemSpec(h, DiagonalL(lam, lam, 1.0))
                assert isinstance(classify_unitons(spec), AllStates)
            elif kind == 1:
                l1, l2 = random_complex(rng), random_complex(rng)
                spec = SystemSpec(h, DiagonalL(l1, l2, 1.0))
                verdict = classify_unitons(spec)
                if abs(l1 - l2) > 1e-6:
                    assert isinstance(verdict, (NoUnitons, StationaryPointerOnly))
                    assert not isinstance(verdict, AllStates)
            else:
                spec = SystemSpec(h, JordanL(random_complex(rng), 1.0))
                verdict = classify_unitons(spec)
                assert not isinstance(verdict, AllStates)

    def test_all_states_evolves_as_closed_system(self, rng):
        lam = 0.9 - 0.4j
        h = random_hamiltonian(rng)
        open_spec = SystemSpec(h, DiagonalL(lam, lam, 1.2))
        closed_spec = SystemSpec(h, DiagonalL(0.0, 0.0, 0.0))
        assert isinstance(classify_unitons(open_spec), AllStates)
        rho0 = random_density(rng)
        cfg = IntegratorConfig(dt=1e-3, t_end=4.0, record_stride=200)
        _, open_traj = integrate(open_spec, rho0, cfg)
        _, closed_traj = integrate(closed_spec, rho0, cfg)
        assert np.max(np.abs(open_traj - closed_traj)) < 1e-10


def _along(x, d):
    """Distance of the Hermitian matrix x from the real line through d."""
    coef = np.vdot(d, x).real / np.vdot(d, d).real
    return float(np.max(np.abs(x - coef * d)))


def assert_same_verdict(got, want):
    """Same verdict; a family is compared as the line it spans, whichever
    member and sign represent it."""
    assert type(got) is type(want)
    assert got.label == want.label
    if isinstance(want, StationaryPointerOnly):
        assert np.max(np.abs(got.rho - want.rho)) < 1e-12
    if isinstance(want, NoUnitons):
        assert got.reason == want.reason
        assert len(got.family) == len(want.family)
        if want.family:
            (d,) = got.family
            assert _along(want.family[0], d) < 1e-12
            assert _along(want.candidate - got.candidate, d) < 1e-12
        elif want.candidate is not None:
            assert np.max(np.abs(got.candidate - want.candidate)) < 1e-12


def _jordan_kernel(lam):
    n2 = abs(lam) ** 2
    return np.array([[1.0 + n2, -np.conj(lam)], [-lam, n2]]) / (1.0 + 2.0 * n2)


class TestClosedFormAgainstNumericKernel:
    """The closed-form kernels of the canonical shapes, reached directly or
    by canonicalizing a rotated general form, against the numeric kernel of
    the uniton tensor."""

    def _specs(self, rng):
        specs = []
        for _ in range(40):
            h = random_hamiltonian(rng)
            c = float(rng.uniform(0.2, 2.0))
            lam = random_complex(rng, 1.5)
            specs.append(SystemSpec(h, DiagonalL(random_complex(rng, 1.5), lam, c)))
            specs.append(SystemSpec(h, DiagonalL(lam, lam, c)))
            specs.append(SystemSpec(h, JordanL(lam, c)))
            # H commuting with the Jordan kernel: a stationary uniton.
            rho = _jordan_kernel(lam)
            h_comm = Hamiltonian(float(rng.uniform(-2, 2)) * rho + float(rng.uniform(-1, 1)) * np.eye(2))
            specs.append(SystemSpec(h_comm, JordanL(lam, c)))
        return specs

    def test_canonical_shapes(self, rng):
        labels = set()
        for spec in self._specs(rng):
            verdict = classify_unitons(spec)
            assert_same_verdict(verdict, _numeric_verdict(spec))
            labels.add(verdict.label)
        assert labels == {"AllStates", "StationaryPointerOnly", "None"}

    def test_rotated_into_general_form(self, rng):
        for spec in self._specs(rng):
            u = haar_unitary(rng)
            rot = rotated_general(spec, u)
            verdict = classify_unitons(rot)
            assert_same_verdict(verdict, _numeric_verdict(rot))
            if isinstance(verdict, StationaryPointerOnly):
                want = u @ classify_unitons(spec).rho @ u.conj().T
                assert np.max(np.abs(verdict.rho - want)) < 1e-12
                assert np.array_equal(verdict.rho, verdict.rho.conj().T)

    def test_dissipator_threshold(self):
        # |mu| = |lambda1 conj(lambda2) - (|lambda1|^2 + |lambda2|^2) / 2| is
        # about delta here; the dissipator vanishes for |mu| <= 1e-10.
        for delta, kind in ((0.5e-10, AllStates), (2e-10, NoUnitons)):
            spec = SystemSpec(H_DIAG, DiagonalL(1.0, 1.0 + 1j * delta, 1.0))
            assert isinstance(classify_unitons(spec), kind)
            assert isinstance(_numeric_verdict(spec), kind)
