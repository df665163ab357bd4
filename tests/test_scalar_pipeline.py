"""The scalar per-system path against a numpy reference.

``reference_spectrum``, ``reference_fit`` and ``reference_coords`` below are
a literal copy of the numpy implementation of ``spectral.spectrum`` (its
SVD rank test, least-squares chain links and joint Hermitian span), the
amplitude fit and the modal sum that the scalar code replaced.  Both sides
take the canonical generator and its roots from ``spectral``, so what is
compared is the mode extraction, and the Newton form of
``evolution.trajectory`` against the modal sum.
"""

import math
import sys
from pathlib import Path

import numpy as np

from fgkls.errors import InternalError
from fgkls.evolution import solve_ivp, trajectory
from fgkls.model import as_density, coords, dagger_coords, direction_matrix, from_coords
from fgkls.pointer import compute_pointer, representative
from fgkls.spectral import (
    SpectrumStructure,
    _canonical_cubic,
    _chain_link,
    _closed_form_roots,
    _largest_cross,
    _scaled_rows,
    cubic_roots,
    spectrum,
)
from frames import basis_matrix, from_frame
from test_model import canonical_system

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402


# The reference's rank tolerance and chain residual bound.
GEO_RTOL = 1e-6
CHAIN_RTOL = 1e-8


def hermitian_span(mats):
    """Real basis of the Hermitian matrices in the span of 2x2 matrices,
    for a span closed under the adjoint."""
    rows = []
    for m in mats:
        for w in (0.5 * (m + m.conj().T), 0.5j * (m - m.conj().T)):
            rows.append([w[0, 0].real, w[0, 1].real, w[0, 1].imag, w[1, 1].real])
    if not rows:
        return []
    _, s, vh = np.linalg.svd(np.array(rows))
    rank = int(np.sum(s > 1e-10 * max(1.0, float(s[0]))))
    return [
        np.array([[a, x + 1j * y], [x - 1j * y, d]], dtype=complex) for a, x, y, d in vh[:rank]
    ]


def _ref_symmetrize_real(v):
    mirror = dagger_coords(v)
    w = 0.5 * (v + mirror)
    if np.linalg.norm(w) < 0.5 * np.linalg.norm(v):
        w = 0.5j * (v - mirror)
    n = np.linalg.norm(w)
    if n == 0.0:
        raise InternalError("mode vector collapsed under symmetrization")
    w = w / n
    for comp in (w[0].real, w[1].real, w[1].imag):
        if abs(comp) > 1e-12:
            if comp < 0:
                w = -w
            break
    return w


def _ref_chain_solve(b, target, mscale):
    sol, *_ = np.linalg.lstsq(b, target, rcond=None)
    if np.linalg.norm(b @ sol - target) > CHAIN_RTOL * max(1.0, mscale):
        raise InternalError("generalized-eigenvector chain is inconsistent")
    return sol


def _ref_cross_null_vector(b, mscale):
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows = b.tolist()
    crosses = (
        (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0),
        (a1 * c2 - a2 * c1, a2 * c0 - a0 * c2, a0 * c1 - a1 * c0),
        (b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0),
    )
    n2s = [abs(x) ** 2 + abs(y) ** 2 + abs(z) ** 2 for x, y, z in crosses]
    best_n2 = max(n2s)
    f2 = float(np.vdot(b, b).real)
    if not best_n2 > 3.0 * GEO_RTOL**2 * f2 * max(1.0, f2):
        return None
    x0, x1, x2 = best = crosses[n2s.index(best_n2)]
    resid2 = sum(abs(r0 * x0 + r1 * x1 + r2 * x2) ** 2 for r0, r1, r2 in rows)
    if not resid2 <= (CHAIN_RTOL * max(1.0, mscale)) ** 2 * best_n2:
        return None
    return np.array(best) / math.sqrt(best_n2)


def _ref_modes_for_root(m, rate, mult, mscale):
    b = m - rate * np.eye(3, dtype=complex)
    v = _ref_cross_null_vector(b, mscale)
    if v is not None:
        chain = [v]
        while len(chain) < mult:
            chain.append(_ref_chain_solve(b, chain[-1], mscale))
        return [(rate, chain)]
    u, sing, vh = np.linalg.svd(b)
    tol = GEO_RTOL * max(1.0, float(sing[0]))
    geo = int(np.sum(sing <= tol))
    geo = max(1, min(geo, mult))
    null = [vh[i].conj() for i in range(3 - geo, 3)]
    if geo >= mult:
        return [(rate, [v]) for v in null[:mult]]
    if mult == 2:
        v1 = null[0]
        v2 = _ref_chain_solve(b, v1, mscale)
        return [(rate, [v1, v2])]
    if geo == 1:
        v1 = null[0]
        v2 = _ref_chain_solve(b, v1, mscale)
        v3 = _ref_chain_solve(b, v2, mscale)
        return [(rate, [v1, v2, v3])]
    head = u[:, 0]
    v2 = _ref_chain_solve(b, head, mscale)
    spare = null[0] - np.vdot(head, null[0]) * head
    if np.linalg.norm(spare) < 1e-8:
        spare = null[1] - np.vdot(head, null[1]) * head
    spare = spare / np.linalg.norm(spare)
    return [(rate, [head, v2]), (rate, [spare])]


def reference_spectrum(spec):
    """[(rate, [vectors])] per mode, and the structure's root list."""
    canon = spec.canonical
    m = canon.c**2 * np.array(_scaled_rows(canon))
    mscale = float(np.linalg.norm(m))
    scale = canon.c**2
    closed = _closed_form_roots(canon)
    s_roots = closed if closed is not None else list(cubic_roots(*_canonical_cubic(canon)).roots)
    root_scale = max([1.0] + [abs(s) for s, _ in s_roots])
    ztol = 1e-10 * root_scale
    raw_modes = []
    done_pairs = set()
    for idx, (s, mult) in enumerate(s_roots):
        if idx in done_pairs:
            continue
        rate = s * scale
        if abs(s.imag) <= ztol:
            rate = complex(rate.real)
            chains = _ref_modes_for_root(m, rate, mult, mscale)
            if all(len(chain) == 1 for _, chain in chains) and len(chains) > 1:
                basis = hermitian_span([direction_matrix(c[0]) for _, c in chains])
                for herm in basis[: len(chains)]:
                    raw_modes.append((rate, [coords(herm)]))
                continue
            for r, chain in chains:
                fixed = [_ref_symmetrize_real(chain[0])]
                for _ in chain[1:]:
                    b = m - rate * np.eye(3, dtype=complex)
                    nxt = _ref_chain_solve(b, fixed[-1], mscale)
                    nxt = 0.5 * (nxt + dagger_coords(nxt))
                    fixed.append(nxt)
                raw_modes.append((rate, fixed))
        else:
            partner = None
            for jdx in range(idx + 1, len(s_roots)):
                sj, mj = s_roots[jdx]
                if jdx not in done_pairs and mj == 1 and abs(sj - np.conj(s)) <= 1e-6 * root_scale:
                    partner = jdx
                    break
            done_pairs.add(partner)
            if s.imag < 0:
                s = np.conj(s)
            rate = s * scale
            (_, chain), = _ref_modes_for_root(m, rate, 1, mscale)
            v = chain[0]
            raw_modes.append((rate, [v]))
            raw_modes.append((np.conj(rate), [dagger_coords(v)]))
    if canon.basis is not None:
        u = basis_matrix(canon)
        raw_modes = [
            (r, [coords(from_frame(direction_matrix(v), u)) for v in chain]) for r, chain in raw_modes
        ]
    return raw_modes, s_roots


def reference_structure(s_roots):
    root_scale = max([1.0] + [abs(s) for s, _ in s_roots])
    ztol = 1e-10 * root_scale
    svals = [s for s, _ in s_roots]
    top = max(mult for _, mult in s_roots)
    if any(abs(s.real) <= ztol and abs(s.imag) > ztol for s in svals):
        return SpectrumStructure.OSCILLATORY_UNDAMPED
    if any(abs(s) <= ztol for s in svals):
        return SpectrumStructure.ZERO_MODE
    if top == 3:
        return SpectrumStructure.TRIPLE_ROOT
    if top == 2:
        return SpectrumStructure.DOUBLE_ROOT
    if any(abs(s.imag) > ztol for s in svals):
        return SpectrumStructure.COMPLEX_PAIR_PLUS_REAL
    return SpectrumStructure.DISTINCT


def reference_fit(spec, rho0, modes):
    pointer_part = representative(compute_pointer(spec))
    fit = np.column_stack([v for _, chain in modes for v in chain])
    dev = coords(as_density(rho0)) - coords(pointer_part)
    return pointer_part, np.linalg.solve(fit, dev)


def reference_coords(pointer_part, modes, amplitudes, ts):
    amps = amplitudes.tolist()
    rates = []
    poly = [[0j] * 3 for _ in range(max(len(chain) for _, chain in modes))]
    for rate, chain in modes:
        k, col = len(chain), len(rates)
        rates += [rate] * k
        for i in range(col, col + k):
            for p in range(col + k - i):
                poly[p][i] = amps[i + p] / math.factorial(p)
    vectors = np.array([v for _, chain in modes for v in chain])
    t = ts[:, None]
    rows = np.array(poly)
    weights = rows[-1]
    for row in rows[-2::-1]:
        weights = row + t * weights
    weights = np.exp(np.array(rates) * t) * weights
    return coords(pointer_part) + weights.dot(vectors)


def _ops():
    ops = []
    rng = np.random.default_rng(7)
    for seed in (1, 2, 3):
        sweep = workloads.sweep_ops(seed)
        ops += sweep + workloads.manifold_ops(seed)
        # The same physics passed as general form in a random basis.
        for op in sweep[:40]:
            u = workloads.haar_unitary(rng)
            ops.append(workloads.system_op(op.system.rotated(u), u @ op.rho0 @ u.conj().T))
    return ops


def test_scalar_pipeline_matches_the_numpy_reference():
    chain_systems = 0
    for op in _ops():
        spec = op.spec
        sol = solve_ivp(spec, op.rho0)
        ref_modes, s_roots = reference_spectrum(spec)
        assert sol.modes.structure is reference_structure(s_roots)
        assert [len(m.vectors) for m in sol.modes.modes] == [len(c) for _, c in ref_modes]
        for mode, (rate, _) in zip(sol.modes.modes, ref_modes):
            assert abs(mode.rate - rate) <= 1e-15 * max(1.0, abs(rate))
        pointer_part, ref_amps = reference_fit(spec, op.rho0, ref_modes)
        # A chain link is fixed only up to multiples of the vectors below it,
        # and on a nearly singular M - rate I the least-squares link moves
        # with the rounding of its head.  The head and the trajectory are
        # free of that choice.
        for mode, (_, chain) in zip(sol.modes.modes, ref_modes):
            chain_systems += len(chain) > 1
            assert np.max(np.abs(np.subtract(mode.vectors[0], chain[0]))) <= 1e-14
        ts = np.asarray(op.ts, dtype=float)
        want = reference_coords(pointer_part, ref_modes, ref_amps, ts)
        assert np.max(np.abs(trajectory(sol, ts) - from_coords(want))) <= 1e-14
    assert chain_systems > 500


def test_chain_links_depend_only_on_the_system():
    """Perturbing each entry of B = M - rate I by one relative eps moves no
    Jordan-chain link by more than 1e-10 relative: each link is the
    minimum-norm solution of B x = v, which on a B of rank two does not
    depend on rounding-level changes of B."""
    rng = np.random.default_rng(5)
    eps = np.finfo(float).eps
    chains = 0
    for seed in (1, 2, 3):
        for op in workloads.manifold_ops(seed):
            # The canonical system in its own frame, over c'^2.
            spec = canonical_system(op.spec)
            canon = spec.canonical
            m = np.array(_scaled_rows(canon))
            for mode in spectrum(spec).modes:
                if len(mode.vectors) == 1:
                    continue
                chains += 1
                b = m - mode.rate / canon.c**2 * np.eye(3)
                for target in mode.vectors[:-1]:
                    link = np.array(_chain_link(b.tolist(), target, _largest_cross(b.tolist())))
                    nudged = b * (1.0 + eps * rng.choice([-1.0, 1.0], size=(3, 3)))
                    moved = np.array(_chain_link(nudged.tolist(), target, _largest_cross(nudged.tolist())))
                    assert np.linalg.norm(moved - link) <= 1e-10 * np.linalg.norm(link)
    assert chains == 864
