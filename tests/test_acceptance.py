"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is sized for well under a minute on one core.
"""

import math

import numpy as np
import pytest

from fgkls.evolution import (
    positivity_window,
    rho_at,
    single_mode_reduction,
    solve_ivp,
    trajectory,
)
from fgkls.model import (
    DiagonalL,
    GeneralL,
    Hamiltonian,
    JordanL,
    SystemSpec,
    det2,
    gauge_shift,
)
from fgkls.numerics import cubic_roots
from fgkls.oracle import IntegratorConfig, det_scan, integrate
from fgkls.pointer import UniquePointer, compute_pointer, pointer_residual
from fgkls.perturb import SMALL_C_GRID, order_estimate, pointer_series, weak_rates
from fgkls.sampling import random_complex, random_density, random_hamiltonian, random_spec
from fgkls.spectral import (
    SpectrumStructure,
    StabilityVerdict,
    assert_stability,
    char_cubic,
    spectrum,
)
from fgkls.uniton import AllStates, NoUnitons, StationaryPointerOnly, classify_unitons
from frames import from_frame

SEED = 987654321


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def jordan_double_root_spec(rng, c=None):
    """Coinciding-root family: degenerate levels and coupling invariant 1/64."""
    c = c if c is not None else float(rng.uniform(0.5, 1.4))
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    lam = 0.25 * complex(math.cos(theta), math.sin(theta))
    e0 = float(rng.uniform(-1.0, 1.0))
    return SystemSpec(Hamiltonian.diagonal(e0, e0), JordanL(lam, c))


def jordan_triple_root_spec(rng, c=None):
    c = c if c is not None else float(rng.uniform(0.7, 1.3))
    gap = math.sqrt(1.0 / 108.0) * c * c
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    lam = (2.0 / math.sqrt(54.0)) * complex(math.cos(theta), math.sin(theta))
    e2 = float(rng.uniform(-1.0, 1.0))
    return SystemSpec(Hamiltonian.diagonal(e2 + gap, e2), JordanL(lam, c))


def diagonal_double_root_spec(rng, c=None):
    c = c if c is not None else float(rng.uniform(0.6, 1.3))
    e0 = float(rng.uniform(-1.0, 1.0))
    off = c * c / 8.0
    h = Hamiltonian([[e0, off], [off, e0]])
    return SystemSpec(h, DiagonalL(1.0, 0.0, c))


def haar_unitary(rng):
    z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def rotated_general(spec, u, a=1.0):
    """The same physics in the basis u, passed as general form with the
    coupling split as L = (c / a) * (a * u l u^dag)."""
    l_rot = a * (u @ spec.lindblad.small_l() @ u.conj().T)
    h_rot = Hamiltonian(from_frame(spec.hamiltonian.matrix, u))
    return SystemSpec(h_rot, GeneralL(l_rot, spec.c / a))


def test_criterion_01_pointer_stationarity():
    rng = np.random.default_rng(SEED)
    worst_resid, worst_det, worst_trace = 0.0, 0.0, 0.0
    jordan_det_min = math.inf
    for i in range(1000):
        form = "diagonal" if i % 2 == 0 else "jordan"
        spec = random_spec(rng, form=form, c_range=(0.1, 3.0), scale=2.1)
        res = compute_pointer(spec)
        if isinstance(res, UniquePointer):
            worst_resid = max(worst_resid, pointer_residual(spec, res.rho))
            worst_trace = max(worst_trace, abs(complex(np.trace(res.rho)) - 1.0))
            d = det2(res.rho)
            worst_det = min(worst_det, d)
            if form == "jordan":
                jordan_det_min = min(jordan_det_min, d)
    ok = (
        worst_resid < 1e-10
        and worst_det >= -1e-12
        and worst_trace < 1e-12
        and jordan_det_min > 0.0
    )
    report(
        "criterion 1: pointer stationarity over 1000 seeded specs",
        ok,
        f"max residual {worst_resid:.2e}, min det {worst_det:.2e}, "
        f"max trace dev {worst_trace:.2e}, min Jordan det {jordan_det_min:.2e}",
    )


def test_criterion_02_maximally_mixed_branch():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(200):
        h = random_hamiltonian(rng)
        if abs(h.matrix[1, 0]) < 1e-3:
            continue
        l1, l2 = random_complex(rng), random_complex(rng)
        if abs(l1 - l2) < 1e-3:
            continue
        spec = SystemSpec(h, DiagonalL(l1, l2, float(rng.uniform(0.1, 3.0))))
        res = compute_pointer(spec)
        assert isinstance(res, UniquePointer)
        worst = max(worst, float(np.max(np.abs(res.rho - np.eye(2) / 2.0))))
    report(
        "criterion 2: mixing diagonal coupling pins the maximally mixed state",
        worst < 1e-12,
        f"max deviation {worst:.2e}",
    )


def test_criterion_03_degenerate_h_jordan_pointer():
    expected = np.array([[2.0, -1.0], [-1.0, 1.0]]) / 3.0
    h = Hamiltonian.diagonal(0.7, 0.7)
    rhos = {}
    for c in (0.5, 2.0):
        res = compute_pointer(SystemSpec(h, JordanL(1.0, c)))
        assert isinstance(res, UniquePointer)
        rhos[c] = res.rho
    dev = max(float(np.max(np.abs(rhos[c] - expected))) for c in rhos)
    c_dep = float(np.max(np.abs(rhos[0.5] - rhos[2.0])))
    report(
        "criterion 3: degenerate-H Jordan pointer value and c-independence",
        dev < 1e-12 and c_dep < 1e-12,
        f"value deviation {dev:.2e}, c dependence {c_dep:.2e}",
    )


def test_criterion_04_stability_of_decay_rates():
    rng = np.random.default_rng(SEED + 2)
    worst_re = -math.inf
    worst_vieta = 0.0
    for _ in range(10_000):
        spec = random_spec(rng, form="jordan", c_range=(0.1, 3.0))
        p2, p1, p0 = char_cubic(spec)
        vals = cubic_roots(p2, p1, p0)
        worst_re = max(worst_re, max(v.real for v in vals))
        s1 = sum(vals)
        s2 = vals[0] * vals[1] + vals[0] * vals[2] + vals[1] * vals[2]
        s3 = vals[0] * vals[1] * vals[2]
        scale = max(1.0, abs(p2), abs(p1), abs(p0))
        worst_vieta = max(
            worst_vieta, abs(s1 + p2) / scale, abs(s2 - p1) / scale, abs(s3 + p0) / scale
        )
    all_damped = worst_re < 0.0

    zero_ok = True
    for _ in range(300):
        e1, e2 = rng.uniform(-2, 2, size=2)
        spec = SystemSpec(
            Hamiltonian.diagonal(e1, e2),
            DiagonalL(random_complex(rng), random_complex(rng), rng.uniform(0.1, 3.0)),
        )
        vals = cubic_roots(*char_cubic(spec))
        zeros = [v for v in vals if abs(v.real) < 1e-12 and abs(v.imag) < 1e-12]
        zero_ok = zero_ok and len(zeros) == 1

    imag_ok = True
    for _ in range(300):
        lam = random_complex(rng)
        spec = SystemSpec(
            random_hamiltonian(rng), DiagonalL(lam, lam, rng.uniform(0.1, 3.0))
        )
        vals = cubic_roots(*char_cubic(spec))
        pair = [v for v in vals if abs(v) > 1e-12]
        imag_ok = imag_ok and all(v.real == 0.0 for v in pair)

    report(
        "criterion 4: decay-rate signs and Vieta residuals",
        all_damped and zero_ok and imag_ok and worst_vieta < 1e-10,
        f"max Re s {worst_re:.2e}, worst Vieta {worst_vieta:.2e}",
    )


def test_criterion_05_oracle_equivalence():
    rng = np.random.default_rng(SEED + 3)
    specs = []
    for i in range(176):
        specs.append(random_spec(rng, form="any", c_range=(0.5, 1.5), scale=1.2))
    for _ in range(20):
        specs.append(jordan_double_root_spec(rng))
    for _ in range(2):
        specs.append(jordan_triple_root_spec(rng))
        specs.append(diagonal_double_root_spec(rng))
    defective = 0
    worst = 0.0
    for spec in specs:
        md = spectrum(spec)
        defective += any(m.poly_degree > 0 for m in md.modes)
        rho0 = random_density(rng)
        t_end = 10.0 / spec.c**2
        stride = max(1, int(round(t_end / 1e-3 / 500)))
        cfg = IntegratorConfig(dt=1e-3, t_end=t_end, record_stride=stride)
        ts, rhos = integrate(spec, rho0, cfg)
        ana = trajectory(solve_ivp(spec, rho0), ts)
        worst = max(worst, float(np.max(np.abs(ana - rhos))))
    report(
        "criterion 5: analytic trajectories match the RK4 oracle",
        worst < 1e-6 and defective >= 20 and len(specs) == 200,
        f"200 specs ({defective} with polynomial modes), max deviation {worst:.2e}",
    )


def test_criterion_06_convergence_to_pointer():
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    checked = 0
    for _ in range(200):
        spec = random_spec(rng, form="any", c_range=(0.2, 2.0))
        md = spectrum(spec)
        if assert_stability(md, spec) is not StabilityVerdict.ALL_DAMPED:
            continue
        res = compute_pointer(spec)
        if not isinstance(res, UniquePointer):
            continue
        checked += 1
        sol = solve_ivp(spec, random_density(rng))
        slowest = min(-m.rate.real for m in md.modes)
        worst = max(
            worst, float(np.linalg.norm(rho_at(sol, 30.0 / slowest) - res.rho))
        )
    report(
        "criterion 6: damped systems land on the pointer at T = 30/min|Re rate|",
        worst < 1e-6 and checked >= 100,
        f"{checked} damped systems, max distance {worst:.2e}",
    )


def test_criterion_07_gauge_equivalence():
    rng = np.random.default_rng(SEED + 5)
    worst = 0.0
    ts = np.linspace(0.0, 8.0, 120)
    for _ in range(100):
        h = random_hamiltonian(rng)
        lam = random_complex(rng)
        c = float(rng.uniform(0.2, 1.5))
        rho0 = random_density(rng)
        sol_a = solve_ivp(SystemSpec(h, JordanL(lam, c)), rho0)
        sol_b = solve_ivp(
            SystemSpec(gauge_shift(h, lam, c), JordanL(0.0, c)), rho0
        )
        worst = max(
            worst,
            float(np.max(np.abs(trajectory(sol_a, ts) - trajectory(sol_b, ts)))),
        )
    report(
        "criterion 7: scalar part of the coupling is a Hamiltonian shift",
        worst < 1e-9,
        f"max pointwise deviation {worst:.2e}",
    )


def test_criterion_08_perturbation_orders():
    h = Hamiltonian.diagonal(1.0, 0.0)

    def rate_error(lam):
        series = weak_rates(SystemSpec(h, JordanL(lam, 0.1)))

        def err(c):
            md = spectrum(SystemSpec(h, JordanL(lam, c)))
            numeric = [m.rate for m in md.modes for _ in m.vectors]
            worst = 0.0
            for pred in series.predicted(c):
                j = int(np.argmin([abs(n - pred) for n in numeric]))
                worst = max(worst, abs(numeric.pop(j) - pred))
            return worst

        return err

    est_rates = order_estimate(rate_error(0.8 + 0.3j), lambda c: 0.0, SMALL_C_GRID)
    rates_ok = not est_rates.saturated and abs(est_rates.slope - 4.0) <= 0.5

    exact_f11 = lambda c: compute_pointer(SystemSpec(h, JordanL(1.0, c))).rho[0, 0]
    f11 = pointer_series(SystemSpec(h, JordanL(1.0, 0.1)), 4)[:, 0, 0]
    est_f11 = order_estimate(
        exact_f11, lambda c: f11[0] + f11[1] * c**2 + f11[2] * c**4, SMALL_C_GRID
    )
    f11_ok = not est_f11.saturated and abs(est_f11.slope - 8.0) <= 0.5

    est_exact = order_estimate(rate_error(0.0), lambda c: 0.0, SMALL_C_GRID)
    report(
        "criterion 8: weak-coupling truncation orders",
        rates_ok and f11_ok and est_exact.saturated,
        f"rate slope {est_rates.slope:.2f}, f11 slope {est_f11.slope:.2f}, "
        f"pure-raising case saturated {est_exact.saturated}",
    )


def test_criterion_09_positivity_window():
    rng = np.random.default_rng(SEED + 6)
    checked = 0
    worst_gap = 0.0
    for _ in range(40):
        spec = random_spec(rng, form="jordan", c_range=(0.6, 1.4))
        res = compute_pointer(spec)
        md = spectrum(spec)
        real_modes = [
            m for m in md.modes if abs(m.rate.imag) < 1e-10 and m.rate.real < -1e-12
        ]
        if not real_modes or not isinstance(res, UniquePointer):
            continue
        mode = real_modes[0]
        u = float(rng.uniform(0.3, 1.2)) * float(rng.choice([-1.0, 1.0]))
        rho0 = res.rho + u * mode.matrices[0]
        sol = solve_ivp(spec, rho0)
        red = single_mode_reduction(sol)
        win = positivity_window(red, red.pointer, spec.c)
        if not win.valid or win.t_min == 0.0:
            continue
        horizon = max(6.0 * win.t_min, 2.0)
        scan = det_scan(
            lambda ts: trajectory(sol, ts), np.linspace(0.0, horizon, 4000)
        )
        checked += 1
        worst_gap = max(worst_gap, abs(scan - win.t_min))
    report(
        "criterion 9: closed-form positivity window matches the det scan",
        checked >= 10 and worst_gap < 1e-8,
        f"{checked} windows, max |analytic - det scan| {worst_gap:.2e}",
    )


def test_criterion_10_uniton_table():
    rng = np.random.default_rng(SEED + 7)
    table_ok = True
    conditions_ok = True

    def uniton_conditions_hold(spec, rho_u):
        from fgkls.generator import rhs
        from fgkls.model import lindblad_operator

        big_l = lindblad_operator(spec.lindblad)
        ldl = big_l.conj().T @ big_l
        diss = big_l @ rho_u @ big_l.conj().T - 0.5 * (ldl @ rho_u + rho_u @ ldl)
        if np.linalg.norm(diss) > 1e-10:
            return False
        h = spec.hamiltonian.matrix
        w, v = np.linalg.eigh(h)
        for t in np.linspace(0.0, 10.0 / max(1.0, float(np.linalg.norm(h))), 5):
            u = v @ np.diag(np.exp(-1j * w * t)) @ v.conj().T
            rho_t = u @ rho_u @ u.conj().T
            flow = rhs(spec, rho_t) + 1j * (h @ rho_t - rho_t @ h)
            if np.linalg.norm(flow) > 1e-10:
                return False
        return True

    for _ in range(150):
        h = random_hamiltonian(rng)
        c = float(rng.uniform(0.2, 2.0))
        lam = random_complex(rng)
        v1 = classify_unitons(SystemSpec(h, DiagonalL(lam, lam, c)))
        table_ok = table_ok and isinstance(v1, AllStates)

        l1, l2 = random_complex(rng), random_complex(rng)
        if abs(l1 - l2) > 1e-3:
            v2 = classify_unitons(SystemSpec(Hamiltonian.diagonal(1.0, 0.2), DiagonalL(l1, l2, c)))
            table_ok = table_ok and isinstance(v2, NoUnitons)

        lam_j = random_complex(rng)
        if abs(lam_j) > 1e-3:
            v3 = classify_unitons(SystemSpec(Hamiltonian.diagonal(1.0, 0.2), JordanL(lam_j, c)))
            table_ok = table_ok and isinstance(v3, NoUnitons)

    for spec in (
        SystemSpec(Hamiltonian.diagonal(1.0, 0.0), JordanL(0.0, 1.0)),
        SystemSpec(Hamiltonian.diagonal(0.4, 0.4), JordanL(1.0, 1.3)),
    ):
        verdict = classify_unitons(spec)
        conditions_ok = conditions_ok and isinstance(verdict, StationaryPointerOnly)
        conditions_ok = conditions_ok and uniton_conditions_hold(spec, verdict.rho)

    report(
        "criterion 10: uniton classification table and both defining conditions",
        table_ok and conditions_ok,
        "canonical branches and stationary unitons verified",
    )


def test_criterion_11_rotated_general_form_on_coinciding_roots():
    rng = np.random.default_rng(SEED + 8)
    expected = {
        jordan_double_root_spec: SpectrumStructure.DOUBLE_ROOT,
        jordan_triple_root_spec: SpectrumStructure.TRIPLE_ROOT,
        diagonal_double_root_spec: SpectrumStructure.DOUBLE_ROOT,
    }
    # Rotation rounds l; its shape is still decided exactly.
    shape = {jordan_double_root_spec: "x", jordan_triple_root_spec: "x", diagonal_double_root_spec: "t"}
    worst = 0.0
    structures_ok = True
    count = 0
    for family, structure in expected.items():
        for _ in range(8):
            spec = rotated_general(family(rng), haar_unitary(rng), float(rng.uniform(0.5, 2.0)))
            assert getattr(spec.canonical, shape[family]) == 0.0
            structures_ok = structures_ok and spectrum(spec).structure is structure
            res = compute_pointer(spec)
            structures_ok = structures_ok and isinstance(res, UniquePointer)
            structures_ok = structures_ok and pointer_residual(spec, res.rho) < 1e-10
            rho0 = random_density(rng)
            t_end = 10.0 / spec.c**2
            stride = max(1, int(round(t_end / 1e-3 / 500)))
            cfg = IntegratorConfig(dt=1e-3, t_end=t_end, record_stride=stride)
            ts, rhos = integrate(spec, rho0, cfg)
            ana = trajectory(solve_ivp(spec, rho0), ts)
            worst = max(worst, float(np.max(np.abs(ana - rhos))))
            count += 1
    report(
        "criterion 11: rotated coinciding-root systems in general form match the oracle",
        worst < 1e-6 and structures_ok and count == 24,
        f"{count} systems, max deviation {worst:.2e}",
    )
