#!/usr/bin/env python3
"""Positivity-window experiment.

Builds a Jordan-coupling system, excites only its real decaying mode with a
weight chosen so the formal solution starts out unphysical, and compares the
closed-form window onset against a brute-force determinant scan.

Usage: python scripts/positivity_demo.py [--weight-factor 2.0] [--c 1.1]
"""

import argparse

import numpy as np

from fgkls.evolution import (
    positivity_window,
    reconstructed_mode_matrix,
    single_mode_reduction,
    solve_ivp,
    trajectory,
)
from fgkls.model import Hamiltonian, JordanL, SystemSpec, det2, min_eig2
from fgkls.oracle import det_scan
from fgkls.pointer import compute_pointer
from fgkls.spectral import spectrum


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--weight-factor", type=float, default=2.0,
                        help="mode weight as a multiple of the window root")
    parser.add_argument("--c", type=float, default=1.1, help="coupling strength")
    args = parser.parse_args()

    h = Hamiltonian([[0.9, 0.15 - 0.1j], [0.15 + 0.1j, -0.2]])
    spec = SystemSpec(h, JordanL(0.6 + 0.3j, args.c))
    rho_p = compute_pointer(spec).rho
    mode = next(
        m for m in spectrum(spec).modes
        if abs(m.rate.imag) < 1e-10 and m.rate.real < 0
    )

    # Calibrate the weight against the positive root of det(rho_p + x m0).
    probe = single_mode_reduction(solve_ivp(spec, rho_p + 0.05 * mode.matrices[0]))
    m0 = reconstructed_mode_matrix(probe) / (probe.sign * probe.w)
    xs = np.array([-2.0, 0.0, 2.0])
    coeffs = np.polyfit(xs, [det2(rho_p + x * m0) for x in xs], 2)
    x_hi = max(float(r.real) for r in np.roots(coeffs))
    u = args.weight_factor * x_hi / (probe.w / 0.05)

    sol = solve_ivp(spec, rho_p + u * mode.matrices[0])
    red = single_mode_reduction(sol)
    if red.sign < 0:
        sol = solve_ivp(spec, rho_p - u * mode.matrices[0])
        red = single_mode_reduction(sol)
    win = positivity_window(red, red.pointer, spec.c)

    print(f"mode rate (scaled)      : {red.s3:+.6f}")
    print(f"mode weight w           : {red.w:.6f} (= {args.weight_factor} x root)")
    print(f"analytic window onset   : t_min = {win.t_min:.9f}")

    horizon = max(5.0 * win.t_min, 2.0)
    scan = det_scan(lambda ts: trajectory(sol, ts), np.linspace(0.0, horizon, 4000))
    print(f"determinant-scan onset  : t_min = {scan:.9f}")
    print(f"difference              : {abs(scan - win.t_min):.2e}")

    ts = np.linspace(0.0, horizon, 9)
    print("\n    t        det rho(t)   min eigenvalue")
    for t, rho in zip(ts, trajectory(sol, ts)):
        print(f"  {t:7.3f}   {det2(rho):+.6f}    {min_eig2(rho):+.6f}")


if __name__ == "__main__":
    main()
