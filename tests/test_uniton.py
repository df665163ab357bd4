import numpy as np

from fgkls.generator import rhs
from fgkls.model import DiagonalL, GeneralL, Hamiltonian, JordanL, SystemSpec, lindblad_operator
from fgkls.oracle import IntegratorConfig, integrate
from fgkls.sampling import random_complex, random_density, random_hamiltonian
from fgkls.pointer import (
    DiagonalFamily,
    FullFamily,
    LineFamily,
    UniquePointer,
    compute_pointer,
    pointer_residual,
)
from fgkls.uniton import AllStates, NoUnitons, StationaryPointerOnly, classify_unitons
from test_acceptance import haar_unitary, rotated_general

H_DIAG = Hamiltonian.diagonal(1.0, 0.0)


def dissipator_norm(form, rho):
    big_l = lindblad_operator(form)
    ldl = big_l.conj().T @ big_l
    out = big_l @ rho @ big_l.conj().T - 0.5 * (ldl @ rho + rho @ ldl)
    return float(np.linalg.norm(out))


def dissipator_matrix(form):
    """The dissipative-part-vanishes condition as a 4x4 matrix on the
    row-major flattened state, with the coupling factored out."""
    l = form.small_l()
    ldl = l.conj().T @ l
    eye = np.eye(2)
    return np.kron(l, l.conj()) - 0.5 * np.kron(ldl, eye) - 0.5 * np.kron(eye, ldl.T)


def kernel_dim(form):
    s = np.linalg.svd(dissipator_matrix(form), compute_uv=False)
    return int(np.sum(s <= 1e-10 * max(1.0, s[0])))


def candidate_of(verdict):
    return verdict.rho if isinstance(verdict, StationaryPointerOnly) else verdict.candidate


class TestUnitonTensor:
    """The kernel of the dissipative-part-vanishes condition (the uniton
    tensor) as ``classify_unitons`` reports it, against the numeric matrix."""

    def test_scalar_coupling_kills_tensor(self):
        form = DiagonalL(0.8 - 0.2j, 0.8 - 0.2j, 1.0)
        assert np.max(np.abs(dissipator_matrix(form))) < 1e-14
        assert kernel_dim(form) == 4
        assert isinstance(classify_unitons(SystemSpec(H_DIAG, form)), AllStates)

    def test_pure_raising_kernel_is_upper_population(self):
        form = JordanL(0.0, 1.0)
        assert kernel_dim(form) == 1
        rho = candidate_of(classify_unitons(SystemSpec(H_DIAG, form)))
        assert np.allclose(rho, np.diag([1.0, 0.0]), atol=1e-15)
        # diag(1, 0) flattens to (1, 0, 0, 0).
        assert np.linalg.norm(dissipator_matrix(form) @ rho.ravel()) < 1e-14

    def test_distinct_diagonal_kernel_is_diagonal_matrices(self):
        form = DiagonalL(1.0, 0.3j, 1.0)
        assert kernel_dim(form) == 2
        verdict = classify_unitons(SystemSpec(H_DIAG, form))
        assert isinstance(verdict, NoUnitons)
        for m in (verdict.candidate, *verdict.family):
            assert np.count_nonzero(m - np.diag(np.diag(m))) == 0
            assert np.linalg.norm(dissipator_matrix(form) @ m.ravel()) < 1e-14
        # Coherences pick up the dephasing eigenvalue
        # lam1 conj(lam2) - (|lam1|^2 + |lam2|^2)/2, real part -|lam1-lam2|^2/2.
        off = dissipator_matrix(form) @ np.array([0, 1.0, 0, 0])
        expected = 1.0 * np.conj(0.3j) - 0.5 * (1.0 + 0.09)
        assert abs(off[1] - expected) < 1e-12
        assert abs(expected.real + 0.5 * abs(1.0 - 0.3j) ** 2) < 1e-12

    def test_matches_dissipator_action(self, rng):
        for _ in range(50):
            m = np.array([[random_complex(rng), random_complex(rng)],
                          [random_complex(rng), random_complex(rng)]])
            form = GeneralL(m, 1.0)
            rho = candidate_of(classify_unitons(SystemSpec(random_hamiltonian(rng), form)))
            assert abs(np.trace(rho) - 1.0) < 1e-14
            assert dissipator_norm(form, rho) < 1e-12 * np.linalg.norm(m) ** 2

    def test_coupling_factors_out(self):
        a = classify_unitons(SystemSpec(H_DIAG, JordanL(0.5, 1.0)))
        b = classify_unitons(SystemSpec(H_DIAG, JordanL(0.5, 2.3)))
        assert np.max(np.abs(candidate_of(a) - candidate_of(b))) < 1e-14


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


def assert_matches_numeric_kernel(spec, verdict):
    """The verdict against the numeric kernel of the dissipator: its
    dimension, a candidate and family inside it, and the commutator."""
    dim = kernel_dim(spec.lindblad)
    d = dissipator_matrix(spec.lindblad)
    if dim == 4:
        assert isinstance(verdict, AllStates)
        return
    assert not isinstance(verdict, AllStates)
    rho = candidate_of(verdict)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    for m in (rho, *getattr(verdict, "family", ())):
        assert np.linalg.norm(d @ m.ravel()) < 1e-11
    assert len(getattr(verdict, "family", ())) == dim - 1
    h = spec.hamiltonian.matrix
    moves = np.linalg.norm(h @ rho - rho @ h) > 1e-8
    assert isinstance(verdict, NoUnitons if moves or dim > 1 else StationaryPointerOnly)


def _jordan_kernel(lam):
    n2 = abs(lam) ** 2
    return np.array([[1.0 + n2, -np.conj(lam)], [-lam, n2]]) / (1.0 + 2.0 * n2)


class TestClosedFormAgainstNumericKernel:
    """The closed-form kernels of the canonical shapes, reached directly or
    by canonicalizing a rotated general form, against the numeric kernel of
    the dissipator."""

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
            assert_matches_numeric_kernel(spec, verdict)
            labels.add(verdict.label)
        assert labels == {"AllStates", "StationaryPointerOnly", "None"}

    def test_rotated_into_general_form(self, rng):
        for spec in self._specs(rng):
            u = haar_unitary(rng)
            rot = rotated_general(spec, u)
            verdict = classify_unitons(rot)
            assert_matches_numeric_kernel(rot, verdict)
            assert verdict.label == classify_unitons(spec).label
            if isinstance(verdict, StationaryPointerOnly):
                want = u @ classify_unitons(spec).rho @ u.conj().T
                assert np.max(np.abs(verdict.rho - want)) < 1e-12
                assert np.array_equal(verdict.rho, verdict.rho.conj().T)

    def test_dissipator_threshold(self):
        # The dissipator of diag(1, 1 + i delta) vanishes only at delta = 0:
        # the decision is on lambda1 - lambda2, not on its square.
        for delta, kind in ((0.0, AllStates), (1e-12, NoUnitons), (2e-10, NoUnitons)):
            spec = SystemSpec(H_DIAG, DiagonalL(1.0, 1.0 + 1j * delta, 1.0))
            assert isinstance(classify_unitons(spec), kind)


class TestAgreesWithThePointerOfZeroHamiltonian:
    """The uniton candidates are the stationary states of (H = 0, l), for
    every input form, by construction."""

    @staticmethod
    def forms(rng):
        lam = random_complex(rng)
        u = haar_unitary(rng)
        out = [DiagonalL(1.0, 1.0 + delta, 1.3) for delta in (3e-5, 1e-4)]
        out += [DiagonalL(lam, lam, 0.7), JordanL(lam, 0.9), DiagonalL(lam, random_complex(rng), 1.1)]
        out += [GeneralL(u @ f.small_l() @ u.conj().T, f.c) for f in list(out)]
        out.append(GeneralL([[random_complex(rng) for _ in range(2)] for _ in range(2)], 0.8))
        return out

    def test_verdict_follows_the_pointer(self, rng):
        for _ in range(10):
            for form in self.forms(rng):
                ptr = compute_pointer(SystemSpec(Hamiltonian.zero(), form))
                verdict = classify_unitons(SystemSpec(random_hamiltonian(rng), form))
                if isinstance(ptr, FullFamily):
                    assert isinstance(verdict, AllStates)
                elif isinstance(ptr, UniquePointer):
                    assert np.max(np.abs(candidate_of(verdict) - ptr.rho)) < 1e-14
                else:
                    assert isinstance(ptr, (DiagonalFamily, LineFamily))
                    assert isinstance(verdict, NoUnitons) and len(verdict.family) == 1
                    assert pointer_residual(SystemSpec(Hamiltonian.zero(), form), verdict.candidate) < 1e-14

    def test_near_scalar_diagonal_coupling(self):
        # |lambda1 - lambda2|^2 is below 1e-8 here, but the dissipator is not zero.
        for delta in (3e-5, 1e-4):
            spec = SystemSpec(Hamiltonian.zero(), DiagonalL(1.0, 1.0 + delta, 1.0))
            assert isinstance(compute_pointer(spec), DiagonalFamily)
            assert isinstance(classify_unitons(spec), NoUnitons)


