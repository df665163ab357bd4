#!/usr/bin/env python3
"""Weak-coupling experiment: decay-rate series against exact roots.

For a Jordan-form coupling over H = diag(gap, 0), tabulates the exact decay
rates against the two-term series a0 + a1 c^2 on a shrinking grid of
couplings, and reports the observed truncation orders for the rates and for
the stationary-state series.  ``fgkls.perturb`` derives both series for any
H and any coupling; over a diagonal H the Jordan pointer's populations have
no c^6 term, so f11 truncated at c^4 misses c^8.

Usage: python scripts/weak_coupling_scan.py [--lam-re 0.8] [--lam-im 0.3] [--gap 1.0]
"""

import argparse

from fgkls.model import Hamiltonian, JordanL, SystemSpec
from fgkls.perturb import SMALL_C_GRID, order_estimate, pointer_series, weak_rates
from fgkls.pointer import compute_pointer
from fgkls.spectral import spectrum


def rate_error(h: Hamiltonian, lam: complex, c: float) -> float:
    """max |rate - (a0 + a1 c^2)| over the three rates at c."""
    series = weak_rates(SystemSpec(h, JordanL(lam, 0.1)))
    md = spectrum(SystemSpec(h, JordanL(lam, c)))
    return series.matched_error(c, [m.rate for m in md.modes for _ in m.vectors])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lam-re", type=float, default=0.8)
    parser.add_argument("--lam-im", type=float, default=0.3)
    parser.add_argument("--gap", type=float, default=1.0)
    args = parser.parse_args()

    lam = complex(args.lam_re, args.lam_im)
    h = Hamiltonian.diagonal(args.gap, 0.0)
    spec = SystemSpec(h, JordanL(lam, 0.1))

    print("series branches (a0, a1):")
    for a0, a1 in weak_rates(spec).branches:
        print(f"  a0 = {a0:+.4f}   a1 = {a1:+.4f}")

    print("\n    c      max |rate - (a0 + a1 c^2)|")
    for c in (0.4, 0.2, 0.1, 0.05, 0.025):
        print(f"  {c:5.3f}    {rate_error(h, lam, c):.3e}")

    est = order_estimate(lambda c: rate_error(h, lam, c), lambda c: 0.0, SMALL_C_GRID)
    print(f"\nobserved rate-error slope : {est.slope:.3f} (expected 4)")

    f11 = pointer_series(spec, 4)[:, 0, 0]
    est_f11 = order_estimate(
        lambda c: compute_pointer(SystemSpec(h, JordanL(lam, c))).rho[0, 0],
        lambda c: f11[0] + f11[1] * c**2 + f11[2] * c**4,
        SMALL_C_GRID,
    )
    print(f"stationary f11 truncated at c^4: slope {est_f11.slope:.3f} (expected 8)")

    est_exact = order_estimate(lambda c: rate_error(h, 0.0, c), lambda c: 0.0, SMALL_C_GRID)
    print(f"pure raising coupling (lam = 0) saturates: {est_exact.saturated}")


if __name__ == "__main__":
    main()
