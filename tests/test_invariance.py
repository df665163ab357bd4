"""Unitary covariance of the pipeline, and its time-rescaling symmetry.

A system rotated by a unitary U and passed in general form must give
U (result) U^dag of the unrotated system: the same pointer, rates,
trajectory and uniton verdict up to the change of basis.  Every input form
reaches the same canonical form, so this holds for non-normal l with
distinct eigenvalues as well.  Scaling H by a and c by sqrt(a) scales the
generator by a and changes nothing else; moving a factor from c into l
changes nothing at all.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgkls import generator, model, spectral
from fgkls.generator import build_generator
from fgkls.evolution import solve_ivp, trajectory
from fgkls.model import DiagonalL, GeneralL, Hamiltonian, JordanL, SystemSpec
from fgkls.oracle import IntegratorConfig, integrate
from fgkls.perturb import pointer_series, weak_rates
from fgkls.pointer import (
    FullFamily,
    LineFamily,
    UniquePointer,
    compute_pointer,
    pointer_residual,
    representative,
)
from fgkls.sampling import random_complex, random_density, random_hamiltonian, random_spec
from fgkls.spectral import SpectrumStructure, assert_stability, char_cubic, spectrum
from fgkls.uniton import NoUnitons, StationaryPointerOnly, classify_unitons
from frames import from_frame
from test_acceptance import (
    diagonal_double_root_spec,
    haar_unitary,
    jordan_double_root_spec,
    jordan_triple_root_spec,
    rotated_general,
)

FAMILIES = {
    "diagonal": lambda rng: random_spec(rng, "diagonal", c_range=(0.5, 1.5), scale=1.2),
    "jordan": lambda rng: random_spec(rng, "jordan", c_range=(0.5, 1.5), scale=1.2),
    "jordan double root": jordan_double_root_spec,
    "jordan triple root": jordan_triple_root_spec,
    "diagonal double root": diagonal_double_root_spec,
}


def rank_one_double_root_spec(rng):
    """Pure dephasing over degenerate levels: a diagonalizable double root,
    at which M - rate has rank one."""
    lambda1, lambda2, c = rng.uniform(0.5, 1.5, size=3).tolist()
    return SystemSpec(Hamiltonian.diagonal(0.5, 0.5), DiagonalL(lambda1, -lambda2, c))


# Residual allowed to eigenvectors and chain links, relative to max(1, ||M||).
CHAIN_RTOL = 1e-8


def rates(spec):
    return spectrum(spec).rates


def max_rate_mismatch(got, want):
    """Largest distance after pairing each rate with its nearest partner."""
    want = list(want)
    worst = 0.0
    for r in got:
        k = int(np.argmin([abs(r - w) for w in want]))
        worst = max(worst, abs(r - want.pop(k)))
    return worst


@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(sorted(FAMILIES)))
@settings(max_examples=40, deadline=None)
def test_rotated_general_form_is_the_frame_mapped_canonical_result(seed, family):
    rng = np.random.default_rng(seed)
    spec = FAMILIES[family](rng)
    u = haar_unitary(rng)
    # a != 1 makes the Jordan reduction rescale the coupling.
    a = float(rng.uniform(0.5, 2.0))
    rot = rotated_general(spec, u, a)
    # Rotation rounds l; its shape is still decided exactly.
    assert (rot.canonical.t if family.startswith("diagonal") else rot.canonical.x) == 0.0

    want, got = compute_pointer(spec), compute_pointer(rot)
    assert isinstance(want, UniquePointer) and isinstance(got, UniquePointer)
    assert np.max(np.abs(got.rho - from_frame(want.rho, u))) < 1e-9
    assert np.array_equal(got.rho, got.rho.conj().T)

    assert spectrum(rot).structure is spectrum(spec).structure
    assert max_rate_mismatch(rates(rot), rates(spec)) < 1e-9 * max(1.0, spec.c**2)
    # The cubic in s = rate / c^2 scales its roots by (c / c_rot)^2 = a^2.
    p2, p1, p0 = char_cubic(spec)
    scaled = (p2 * a**2, p1 * a**4, p0 * a**6)
    assert np.allclose(char_cubic(rot), scaled, rtol=1e-9, atol=1e-12)

    rho0 = random_density(rng)
    t_end = 4.0 / spec.c**2
    cfg = IntegratorConfig(dt=1e-3, t_end=t_end, record_stride=max(1, int(t_end / 1e-3) // 40))
    ts, oracle = integrate(rot, from_frame(rho0, u), cfg)
    traj = trajectory(solve_ivp(rot, from_frame(rho0, u)), ts)
    mapped = np.array([from_frame(r, u) for r in trajectory(solve_ivp(spec, rho0), ts)])
    assert np.max(np.abs(traj - mapped)) < 1e-9
    assert np.max(np.abs(traj - oracle)) < 1e-6


@pytest.mark.parametrize("seed", [109, 532, 592, 604, 662, 1004, 1458, 1633, 1953, 539739613])
def test_rotated_diagonal_double_roots_are_snapped(seed):
    """Draws of the property test above whose rotation leaves branch defects
    of up to about 1900 eps, which an absolute tolerance of 1024 eps missed:
    the branch tolerance is a bound on the rounding of its terms."""
    rng = np.random.default_rng(seed)
    spec = FAMILIES["diagonal double root"](rng)
    rot = rotated_general(spec, haar_unitary(rng), float(rng.uniform(0.5, 2.0)))
    md = spectrum(rot)
    assert md.structure is SpectrumStructure.DOUBLE_ROOT
    assert [len(m.vectors) for m in md.modes] == [len(m.vectors) for m in spectrum(spec).modes]


@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(sorted(FAMILIES) + ["rank one double root"]),
    rotated=st.booleans(),
    coupling=st.sampled_from(["as drawn", "scalar", "closed"]),
    degenerate=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_rates_are_the_mode_rates_by_chain_length(seed, family, rotated, coupling, degenerate):
    """``rates`` is each mode's rate repeated by its chain length, in the
    order of ``modes``, bit for bit: on every family, canonical and rotated,
    with the coupling as drawn, a scalar l or none (c = 0), over its H or a
    degenerate one."""
    rng = np.random.default_rng(seed)
    spec = FAMILIES.get(family, rank_one_double_root_spec)(rng)
    lind = spec.lindblad
    if coupling == "scalar":
        lam = random_complex(rng)
        lind = DiagonalL(lam, lam, lind.c)
    elif coupling == "closed":
        lind = dataclasses.replace(lind, c=0.0)
    spec = SystemSpec(Hamiltonian.diagonal(0.4, 0.4) if degenerate else spec.hamiltonian, lind)
    if rotated:
        spec = rotated_general(spec, haar_unitary(rng), float(rng.uniform(0.5, 2.0)))
    md = spectrum(spec)
    want = tuple(m.rate for m in md.modes for _ in m.vectors)
    assert md.rates == want
    assert np.array(md.rates).tobytes() == np.array(want).tobytes()


@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(sorted(FAMILIES)),
    rotated=st.booleans(),
    closed=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_modes_satisfy_the_generator(seed, family, rotated, closed):
    """Every eigenvector v0 and chain link v(j+1) solves (M - rate) v0 = 0 and
    (M - rate) v(j+1) = vj with M the generator in the caller's frame, in
    canonical and in rotated form, and for closed systems (c = 0)."""
    rng = np.random.default_rng(seed)
    spec = FAMILIES[family](rng)
    if closed:
        spec = SystemSpec(spec.hamiltonian, dataclasses.replace(spec.lindblad, c=0.0))
    if rotated:
        spec = rotated_general(spec, haar_unitary(rng), float(rng.uniform(0.5, 2.0)))
    m = build_generator(spec).matrix
    bound = CHAIN_RTOL * max(1.0, float(np.linalg.norm(m)))
    md = spectrum(spec)
    assert sum(len(mode.vectors) for mode in md.modes) == 3
    for mode in md.modes:
        b = m - mode.rate * np.eye(3)
        vs = [np.array(v) for v in mode.vectors]
        assert np.linalg.norm(b @ vs[0]) <= bound
        for prev, link in zip(vs, vs[1:]):
            assert np.linalg.norm(b @ link - prev) <= bound


@given(
    seed=st.integers(0, 2**32 - 1),
    form=st.sampled_from(["diagonal", "jordan", "general"]),
    log_alpha=st.floats(-12.0, 12.0),
)
@settings(max_examples=60, deadline=None)
def test_scaling_h_and_c_squared_together_only_rescales_time(seed, form, log_alpha):
    """(H, c) -> (a H, sqrt(a) c) takes M to a M: the structure, the
    stability verdict, the pointer and the uniton verdict stay, and every
    rate scales by a."""
    rng = np.random.default_rng(seed)
    spec = random_spec(rng, form, c_range=(0.3, 2.0))
    alpha = 10.0**log_alpha
    scaled = SystemSpec(
        Hamiltonian(alpha * spec.hamiltonian.matrix),
        dataclasses.replace(spec.lindblad, c=math.sqrt(alpha) * spec.c),
    )
    md, md_scaled = spectrum(spec), spectrum(scaled)
    assert md_scaled.structure is md.structure
    assert assert_stability(md_scaled, scaled) is assert_stability(md, spec)
    want = rates(spec)
    got = [r / alpha for r in rates(scaled)]
    assert max_rate_mismatch(got, want) <= 1e-9 * max(map(abs, want))

    ptr, ptr_scaled = compute_pointer(spec), compute_pointer(scaled)
    assert type(ptr_scaled) is type(ptr) and ptr_scaled.label == ptr.label
    assert np.max(np.abs(representative(ptr_scaled) - representative(ptr))) <= 1e-9
    assert classify_unitons(scaled).label == classify_unitons(spec).label


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(["jordan", "general"]),
    commuting=st.booleans(),
    log_alpha=st.floats(-12.0, 12.0),
)
@settings(max_examples=80, deadline=None)
def test_uniton_verdict_does_not_depend_on_the_size_of_h(seed, shape, commuting, log_alpha):
    """Whether the dissipation-free state commutes with H cannot depend on
    a > 0: (a H, l) has the verdict of (H, l), for a Jordan and a non-normal
    general coupling, with a random H and with one commuting with the state."""
    rng = np.random.default_rng(seed)
    l = JordanL(0.3 + 0.1j, 1.0) if shape == "jordan" else GeneralL([[0.3, 1.0], [0.2, 0.1]], 1.0)
    h = random_hamiltonian(rng, 1.0).matrix
    if commuting:
        h = compute_pointer(SystemSpec(Hamiltonian.zero(), l)).rho + rng.normal() * np.eye(2)
    want = classify_unitons(SystemSpec(Hamiltonian(h), l))
    assert isinstance(want, StationaryPointerOnly if commuting else NoUnitons)
    assert classify_unitons(SystemSpec(Hamiltonian(10.0**log_alpha * h), l)).label == want.label


@given(
    seed=st.integers(0, 2**32 - 1),
    form=st.sampled_from(["diagonal", "jordan", "general"]),
    log_beta=st.floats(-12.0, 12.0),
)
@settings(max_examples=60, deadline=None)
def test_moving_scale_from_c_to_l_changes_nothing(seed, form, log_beta):
    """(c, l) -> (c / b, b l) keeps L = c l: the structure, the stability
    verdict, the pointer and the rates stay, while the weak-coupling
    coefficients of c^(2k) scale by b^(2k)."""
    rng = np.random.default_rng(seed)
    spec = random_spec(rng, form, c_range=(0.3, 2.0))
    beta = 10.0**log_beta
    scaled = SystemSpec(spec.hamiltonian, GeneralL(beta * spec.lindblad.small_l(), spec.c / beta))
    if form == "diagonal":
        lind = DiagonalL(beta * spec.lindblad.lambda1, beta * spec.lindblad.lambda2, spec.c / beta)
        scaled = SystemSpec(spec.hamiltonian, lind)
    md, md_scaled = spectrum(spec), spectrum(scaled)
    assert md_scaled.structure is md.structure
    assert assert_stability(md_scaled, scaled) is assert_stability(md, spec)
    want = rates(spec)
    assert max_rate_mismatch(rates(scaled), want) <= 1e-9 * max(map(abs, want))

    ptr, ptr_scaled = compute_pointer(spec), compute_pointer(scaled)
    assert type(ptr_scaled) is type(ptr) and ptr_scaled.label == ptr.label
    assert np.max(np.abs(representative(ptr_scaled) - representative(ptr))) <= 1e-9

    series, series_scaled = weak_rates(spec), weak_rates(scaled)
    top = max(abs(a1) for _, a1 in series.branches)
    for (a0, a1), (b0, b1) in zip(series.branches, series_scaled.branches):
        assert b0 == a0
        assert abs(b1 / beta**2 - a1) <= 1e-12 * top
    if isinstance(ptr, UniquePointer):
        terms, terms_scaled = pointer_series(spec, 6), pointer_series(scaled, 6)
        for k, (rho, rho_scaled) in enumerate(zip(terms, terms_scaled)):
            size = max(1.0, float(np.max(np.abs(rho))))
            assert np.max(np.abs(rho_scaled / beta ** (2 * k) - rho)) <= 1e-12 * size


@given(seed=st.integers(0, 2**32 - 1), log_alpha=st.floats(-12.0, 12.0))
@settings(max_examples=60, deadline=None)
def test_scaling_a_closed_system_only_rescales_time(seed, log_alpha):
    """(H, c = 0) -> (a H, 0) takes M to a M: the structure stays and every
    rate scales by a, with no absolute floor between small and large H."""
    rng = np.random.default_rng(seed)
    spec = random_spec(rng, "general", c_range=(0.0, 0.0))
    alpha = 10.0**log_alpha
    scaled = SystemSpec(Hamiltonian(alpha * spec.hamiltonian.matrix), spec.lindblad)
    assert spectrum(scaled).structure is spectrum(spec).structure
    want = rates(spec)
    got = [r / alpha for r in rates(scaled)]
    assert max_rate_mismatch(got, want) <= 4 * np.finfo(float).eps * max(map(abs, want))


def power_of_two_spec(rng, kind):
    """A closed, diagonal, Jordan or rotated general system of order one."""
    if kind == "general":
        spec = random_spec(rng, str(rng.choice(["diagonal", "jordan"])), c_range=(0.3, 2.0), scale=1.2)
        return rotated_general(spec, haar_unitary(rng))
    if kind == "closed":
        return random_spec(rng, "general", c_range=(0.0, 0.0))
    return random_spec(rng, kind, c_range=(0.3, 2.0), scale=1.2)


@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["closed", "diagonal", "jordan", "general"]),
    k=st.integers(-450, 450).map(lambda j: 2 * j),
)
@settings(max_examples=120, deadline=None)
def test_power_of_two_scaling_gives_the_trajectory_bit_for_bit(seed, kind, k):
    """(2^k H, 2^(k/2) c) at t / 2^k is (H, c) at t, bit for bit, for even
    k up to 900 in size: the solution is carried in a power-of-two unit,
    so every rescaling is exact and none under- or overflows."""
    rng = np.random.default_rng(seed)
    spec = power_of_two_spec(rng, kind)
    scaled = SystemSpec(
        Hamiltonian(spec.hamiltonian.matrix * 2.0**k),
        dataclasses.replace(spec.lindblad, c=math.ldexp(spec.c, k // 2)),
    )
    rho0 = random_density(rng)
    ts = np.linspace(0.0, 6.0, 13)
    want = trajectory(solve_ivp(spec, rho0), ts)
    got = trajectory(solve_ivp(scaled, rho0), np.ldexp(ts, -k))
    assert np.all(np.isfinite(want))
    assert got.tobytes() == want.tobytes()
    assert [math.ldexp(r.real, -k) + 1j * math.ldexp(r.imag, -k) for r in rates(scaled)] == list(rates(spec))


@pytest.mark.filterwarnings("error")
@given(seed=st.integers(0, 2**32 - 1), log_size=st.floats(-300.0, 300.0))
@settings(max_examples=80, deadline=None)
def test_closed_systems_are_solved_at_any_scale(seed, log_size):
    """A closed system with |H| from 1e-300 to 1e300 is solved up to
    t = 10 / |H| without an error or a warning, in finite states."""
    rng = np.random.default_rng(seed)
    size = 10.0**log_size
    spec = SystemSpec(Hamiltonian(size * random_hamiltonian(rng, 1.0).matrix), DiagonalL(1.0, 0.3, 0.0))
    rho = trajectory(solve_ivp(spec, random_density(rng)), np.linspace(0.0, 10.0 / size, 21))
    assert np.all(np.isfinite(rho))


@pytest.mark.parametrize(
    "spec, variant",
    [
        # A diagonal family in the canonical frame is a line elsewhere.
        (SystemSpec(Hamiltonian.diagonal(1.0, 0.0), DiagonalL(0.4, 1.1, 0.9)), LineFamily),
        (SystemSpec(Hamiltonian([[1.2, 0.3], [0.3, 0.1]]), DiagonalL(0.7, 0.7, 1.0)), LineFamily),
        (SystemSpec(Hamiltonian.diagonal(0.7, 0.7), DiagonalL(0.9, 0.9, 1.3)), FullFamily),
    ],
)
def test_rotated_families_map_to_stationary_families(rng, spec, variant):
    rot = rotated_general(spec, haar_unitary(rng))
    res = compute_pointer(rot)
    assert isinstance(res, variant)
    directions = res.directions if variant is FullFamily else (res.direction,)
    assert np.linalg.matrix_rank(np.array([d.ravel() for d in directions])) == len(directions)
    for rho in [res.base] + [res.base + 0.1 * d for d in directions]:
        assert np.array_equal(rho, rho.conj().T)
        assert pointer_residual(rot, rho) < 1e-12


@pytest.fixture
def counted(monkeypatch):
    """Counts canonicalize calls and fails any numpy generator built, for
    an open or a closed system."""
    calls = []
    real = model.canonicalize

    def counting(*args):
        calls.append(args)
        return real(*args)

    def refuse(*args):
        raise AssertionError("a generator was built in the caller's frame")

    monkeypatch.setattr(model, "canonicalize", counting)
    # build_generator reads affine_rows from its module when called, so this
    # fails it under whatever name it was imported.
    monkeypatch.setattr(generator, "affine_rows", refuse)
    return calls


def run_pipeline(spec, rho0):
    compute_pointer(spec)
    spectrum(spec)
    char_cubic(spec)
    trajectory(solve_ivp(spec, rho0), np.linspace(0.0, 2.0, 5))
    classify_unitons(spec)


def test_canonicalize_runs_once_per_general_spec(counted, rng):
    rho0 = random_density(rng)
    h = Hamiltonian([[0.6, 0.2 - 0.3j], [0.2 + 0.3j, -0.4]])
    for canonical in (DiagonalL(0.3 + 0.1j, -0.8j, 1.1), JordanL(0.4 - 0.2j, 0.9)):
        spec = SystemSpec(h, canonical)
        run_pipeline(spec, rho0)
        run_pipeline(spec, rho0)
        assert len(counted) == 1
        general = rotated_general(spec, haar_unitary(rng))
        run_pipeline(general, rho0)
        run_pipeline(general, rho0)
        assert len(counted) == 2
        counted.clear()
    # Non-normal l with distinct eigenvalues takes the same path.
    general = SystemSpec(h, GeneralL([[1.0, 1.0], [0.0, 2.0]], 0.7))
    run_pipeline(general, rho0)
    assert len(counted) == 1
    assert general.canonical.x > 0.0 and general.canonical.t > 0.0
    # So does a closed system, whose l is not read.
    closed = SystemSpec(h, GeneralL([[1.0, 1.0], [0.0, 2.0]], 0.0))
    run_pipeline(closed, rho0)
    run_pipeline(closed, rho0)
    assert len(counted) == 2
    assert closed.canonical.x == closed.canonical.t == 0.0 and closed.canonical.basis is None


def non_normal_spec(rng):
    """A random system whose l is non-normal with distinct eigenvalues."""
    h = Hamiltonian(random_spec(rng, "diagonal", scale=1.2).hamiltonian.matrix)
    l = np.array([[random_complex(rng) for _ in range(2)] for _ in range(2)])
    return SystemSpec(h, GeneralL(l, float(rng.uniform(0.5, 1.5))))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_rotated_non_normal_coupling_maps_every_result(seed):
    rng = np.random.default_rng(seed)
    spec = non_normal_spec(rng)
    assert spec.canonical.x > 0.0 and spec.canonical.t > 0.0
    u = haar_unitary(rng)
    rot = rotated_general(spec, u, float(rng.uniform(0.5, 2.0)))

    want, got = compute_pointer(spec), compute_pointer(rot)
    assert isinstance(want, UniquePointer) and isinstance(got, UniquePointer)
    assert np.max(np.abs(got.rho - from_frame(want.rho, u))) < 1e-10
    assert pointer_residual(rot, got.rho) < 1e-10

    rho0 = random_density(rng)
    ts = np.linspace(0.0, 4.0 / spec.c**2, 30)
    traj = trajectory(solve_ivp(rot, from_frame(rho0, u)), ts)
    mapped = np.array([from_frame(r, u) for r in trajectory(solve_ivp(spec, rho0), ts)])
    assert np.max(np.abs(traj - mapped)) < 1e-9

    # The uniton candidate is the pointer of (H = 0, l); an H commuting
    # with it makes it a stationary uniton.
    kernel = compute_pointer(SystemSpec(Hamiltonian.zero(), spec.lindblad)).rho
    for h, kind in ((spec.hamiltonian, NoUnitons), (Hamiltonian(kernel), StationaryPointerOnly)):
        turned = SystemSpec(Hamiltonian(from_frame(h.matrix, u)), rot.lindblad)
        v_want, v_got = classify_unitons(SystemSpec(h, spec.lindblad)), classify_unitons(turned)
        assert isinstance(v_want, kind) and isinstance(v_got, kind)
        field = "rho" if kind is StationaryPointerOnly else "candidate"
        assert np.max(np.abs(getattr(v_want, field) - kernel)) < 1e-12
        assert np.max(np.abs(getattr(v_got, field) - from_frame(kernel, u))) < 1e-10


@given(
    seed=st.integers(0, 2**32 - 1),
    log_e=st.floats(-16.0, 0.0),
    log_h=st.floats(-12.0, 12.0),
    rotate=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_pointer_and_spectrum_agree_on_the_zero_mode(seed, log_e, log_h, rotate):
    """A diagonal coupling with H off diagonal by e, at any size of H and in
    any basis: the pointer is unique exactly where the spectrum has no zero
    mode, and a zero mode's rate is exactly 0 while every other real rate is
    negative."""
    rng = np.random.default_rng(seed)
    e = 10.0**log_e * random_complex(rng)
    h = 10.0**log_h * np.array([[rng.normal(), e], [e.conjugate(), rng.normal()]])
    spec = SystemSpec(Hamiltonian(h), DiagonalL(random_complex(rng), random_complex(rng), 1.0))
    if rotate:
        spec = rotated_general(spec, haar_unitary(rng))
    md = spectrum(spec)
    zero = md.structure is SpectrumStructure.ZERO_MODE
    assert isinstance(compute_pointer(spec), UniquePointer) is not zero
    assert (assert_stability(md, spec) is spectral.StabilityVerdict.ZERO_MODE_PRESENT) is zero
    real = [m.rate.real for m in md.modes if m.rate.imag == 0.0]
    assert (0.0 in real) is zero and all(r <= 0.0 for r in real)
