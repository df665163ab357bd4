"""Batch front end: one JSON job per run, machine-readable output.

Job file schema (complex numbers are [re, im] pairs; bare numbers are
accepted on input as purely real):

    {
      "command": "pointer" | "spectrum" | "evolve" | "positivity"
                 | "perturb" | "uniton" | "oracle-check",
      "system": {
        "hamiltonian": [[z, z], [z, z]],
        "lindblad": {"form": "diagonal" | "jordan" | "general",
                     "c": 1.0,
                     "lambda": z, "lambda1": z, "lambda2": z,
                     "l": [[z, z], [z, z]]}
      },
      "initial_state": [[z, z], [z, z]],       // evolve/positivity/oracle-check
      "time_grid": {"t_start": 0.0, "t_end": 5.0, "points": 200},
      "output": {"format": "json" | "csv", "path": "out.json"}
    }

Exit codes: 0 success, 2 schema error, 3 contract violation, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import evolution, oracle, perturb, spectral, uniton
from .errors import ConfigError, ContractError, InputError, InternalError, NotReducibleError
from .model import (
    DiagonalL,
    GeneralL,
    Hamiltonian,
    JordanL,
    SystemSpec,
    as_density,
    det2,
    min_eig2,
)
from .pointer import (
    DiagonalFamily,
    FullFamily,
    LineFamily,
    NoAttractor,
    UniquePointer,
    compute_pointer,
)
from .sampling import random_density

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_CONTRACT = 3
EXIT_NUMERIC = 4

TRAJECTORY_HEADER = [
    "t",
    "f11_re", "f11_im", "f12_re", "f12_im",
    "f21_re", "f21_im", "f22_re", "f22_im",
    "det", "min_eig", "physical",
]


class SchemaError(ValueError):
    pass


def _is_real(value) -> bool:
    # JSON true and false arrive as bool, a subclass of int.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _complex_in(value) -> complex:
    """A number or [re, im] pair; the caller puts the JSON path in front of
    the message when it re-raises, so paths are formatted only on error."""
    if _is_real(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and _is_real(value[0]) and _is_real(value[1]):
        return complex(value[0], value[1])
    raise SchemaError("expected a number or [re, im] pair")


def _complex_field(doc, key: str, path: str) -> complex:
    value = _require(doc, key, path)
    try:
        return _complex_in(value)
    except SchemaError as exc:
        raise SchemaError(f"{path}.{key}: {exc}") from None


def _matrix_in(value, path: str) -> np.ndarray:
    if not (isinstance(value, list) and len(value) == 2):
        raise SchemaError(f"{path}: expected a 2x2 nested array")
    rows = []
    for i, row in enumerate(value):
        if not (isinstance(row, list) and len(row) == 2):
            raise SchemaError(f"{path}[{i}]: expected a row of two entries")
        entries = []
        for j, entry in enumerate(row):
            try:
                entries.append(_complex_in(entry))
            except SchemaError as exc:
                raise SchemaError(f"{path}[{i}][{j}]: {exc}") from None
        rows.append(entries)
    return np.array(rows, dtype=complex)


def _require(mapping, key, path: str):
    if not isinstance(mapping, dict) or key not in mapping:
        raise SchemaError(f"{path}: missing required field '{key}'")
    return mapping[key]


def complex_out(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def matrix_out(m: np.ndarray) -> list:
    return [[complex_out(complex(m[i, j])) for j in range(2)] for i in range(2)]


def parse_system(doc, path: str = "$.system") -> SystemSpec:
    h = Hamiltonian(_matrix_in(_require(doc, "hamiltonian", path), f"{path}.hamiltonian"))
    lind_doc = _require(doc, "lindblad", path)
    lpath = f"{path}.lindblad"
    form = _require(lind_doc, "form", lpath)
    c_raw = _require(lind_doc, "c", lpath)
    if not _is_real(c_raw):
        raise SchemaError(f"{lpath}.c: expected a real number")
    c = float(c_raw)
    if form == "diagonal":
        lind = DiagonalL(
            _complex_field(lind_doc, "lambda1", lpath),
            _complex_field(lind_doc, "lambda2", lpath),
            c,
        )
    elif form == "jordan":
        lind = JordanL(_complex_field(lind_doc, "lambda", lpath), c)
    elif form == "general":
        lind = GeneralL(_matrix_in(_require(lind_doc, "l", lpath), f"{lpath}.l"), c)
    else:
        raise SchemaError(f"{lpath}.form: expected 'diagonal', 'jordan' or 'general'")
    return SystemSpec(h, lind)


def parse_time_grid(doc, path: str = "$.time_grid") -> np.ndarray:
    t1 = _require(doc, "t_end", path)
    t0 = doc.get("t_start", 0.0)
    points = doc.get("points", 200)
    for key, value in (("t_start", t0), ("t_end", t1), ("points", points)):
        # json.load reads the literals Infinity and NaN as floats.
        if not (_is_real(value) and math.isfinite(value)):
            raise SchemaError(f"{path}.{key}: expected a finite number")
    if isinstance(points, float) and not points.is_integer():
        raise SchemaError(f"{path}.points: expected an integer")
    if not (t1 > t0 >= 0.0) or points < 2:
        raise SchemaError(f"{path}: need t_end > t_start >= 0 and points >= 2")
    return np.linspace(float(t0), float(t1), int(points))


def _pointer_payload(result) -> dict:
    if isinstance(result, UniquePointer):
        return {"case": result.label, "variant": "Unique", "rho": matrix_out(result.rho)}
    if isinstance(result, DiagonalFamily):
        return {
            "case": result.label,
            "variant": "DiagonalFamily",
            "base": matrix_out(result.base),
            "directions": [matrix_out(d) for d in result.directions],
        }
    if isinstance(result, FullFamily):
        return {
            "case": result.label,
            "variant": "FullFamily",
            "base": matrix_out(result.base),
            "directions": [matrix_out(d) for d in result.directions],
        }
    if isinstance(result, LineFamily):
        lo, hi = result.physical_interval()
        return {
            "case": result.label,
            "variant": "LineFamily",
            "base": matrix_out(result.base),
            "direction": matrix_out(result.direction),
            "physical_interval": [lo, hi],
        }
    assert isinstance(result, NoAttractor)
    return {"case": result.label, "variant": "NoAttractor", "reason": result.reason}


def _spectrum_payload(spec: SystemSpec) -> dict:
    md = spectral.spectrum(spec)
    verdict = spectral.assert_stability(md, spec)
    p2, p1, p0 = md.cubic
    return {
        "structure": md.structure.value,
        "stability": verdict.value,
        "scaled": md.scaled,
        "cubic": [complex_out(p2), complex_out(p1), complex_out(p0)],
        "roots": [
            {
                "s": complex_out(s),
                "rate": complex_out(s * (spec.c**2 if spec.c > 0 else 1.0)),
                "multiplicity": mult,
            }
            for s, mult in md.s_roots(spec.c)
        ],
        "modes": [
            {"rate": complex_out(m.rate), "poly_degree": m.poly_degree}
            for m in md.modes
        ],
    }


def _evolve_rows(sol, ts) -> list[str]:
    """CSV lines in TRAJECTORY_HEADER order, without line ends.

    Numbers are written as ``repr``, the shortest text that reads back to
    the same float, once per distinct value.  ``trajectory`` makes
    f21 = conj f12 and f22 = 1 - f11 hold exactly and sets both imaginary
    diagonal parts to +0.0, so f21_re reuses the text of f12_re, f21_im is
    the text of f12_im with its sign flipped (repr(-x) for every float but
    nan, whose repr carries no sign) and f11_im, f22_im are the literal 0.0.
    """
    rhos = evolution.trajectory(sol, ts)
    min_eig = min_eig2(rhos)
    f12 = rhos[:, 0, 1]
    f12_im = list(map(repr, f12.imag.tolist()))
    f21_im = [s[1:] if s[0] == "-" else s if s == "nan" else "-" + s for s in f12_im]
    flags = ["1" if p else "0" for p in (min_eig >= -1e-10).tolist()]
    return [
        f"{t},{f11},0.0,{re},{im},{re},{im21},{f22},0.0,{det},{low},{flag}"
        for t, f11, re, im, im21, f22, det, low, flag in zip(
            map(repr, np.asarray(ts, dtype=float).tolist()),
            map(repr, rhos[:, 0, 0].real.tolist()),
            map(repr, f12.real.tolist()),
            f12_im,
            f21_im,
            map(repr, rhos[:, 1, 1].real.tolist()),
            map(repr, det2(rhos).tolist()),
            map(repr, min_eig.tolist()),
            flags,
        )
    ]


def _positivity_payload(spec: SystemSpec, rho0, ts) -> dict:
    sol = evolution.solve_ivp(spec, rho0)
    try:
        red = evolution.single_mode_reduction(sol)
        window = evolution.positivity_window(red, red.pointer, spec.c)
        return {
            "method": "single-mode",
            "t_min": window.t_min,
            "valid": window.valid,
            "w": red.w,
            "sign": red.sign,
            "h": red.h,
            "p": red.p,
            "beta": red.beta,
            "s3": red.s3,
        }
    except NotReducibleError as exc:
        t_min = oracle.det_scan(lambda ts: evolution.trajectory(sol, ts), ts)
        return {
            "method": "det-scan",
            "t_min": t_min,
            "valid": t_min is not None,
            "note": str(exc),
        }


def _perturb_payload(spec: SystemSpec) -> dict:
    series = perturb.weak_rates(spec)

    def at(c: float) -> SystemSpec:
        return SystemSpec(spec.hamiltonian, dataclasses.replace(spec.lindblad, c=c))

    def rate_error(c: float) -> float:
        md = spectral.spectrum(at(c))
        return series.matched_error(c, [mode.rate for mode in md.modes for _ in mode.vectors])

    est = perturb.order_estimate(rate_error, lambda c: 0.0, perturb.SMALL_C_GRID)
    payload = {
        "branches": [
            {"a0": complex_out(a0), "a1": complex_out(a1)} for a0, a1 in series.branches
        ],
        "rate_error_slope": est.slope,
        "rate_error_saturated": est.saturated,
        "c_grid": list(perturb.SMALL_C_GRID),
    }
    try:
        terms = perturb.pointer_series(spec, 4)[:, 0, 0].tolist()
    except ContractError:
        return payload  # no unique pointer
    # f11 truncated at c^4: the error falls as c^6, or as c^8 where the
    # populations have no c^6 term (the Jordan shape over a diagonal H).
    approx = lambda c: terms[0] + terms[1] * c**2 + terms[2] * c**4
    exact = lambda c: compute_pointer(at(c)).rho[0, 0]
    pest = perturb.order_estimate(exact, approx, perturb.SMALL_C_GRID)
    payload["pointer_f11_order4_slope"] = pest.slope
    payload["pointer_series_saturated"] = pest.saturated
    return payload


def _uniton_payload(spec: SystemSpec) -> dict:
    verdict = uniton.classify_unitons(spec)
    out = {"verdict": verdict.label}
    if isinstance(verdict, uniton.StationaryPointerOnly):
        out["rho"] = matrix_out(verdict.rho)
    if isinstance(verdict, uniton.NoUnitons):
        out["reason"] = verdict.reason
        if verdict.candidate is not None:
            out["candidate"] = matrix_out(verdict.candidate)
        if verdict.family:
            out["family_directions"] = [matrix_out(d) for d in verdict.family]
    return out


def _oracle_check_payload(spec: SystemSpec, rho0, ts, seed) -> dict:
    if rho0 is None:
        rng = np.random.default_rng(seed)
        states = [random_density(rng) for _ in range(5)]
    else:
        states = [rho0]
    dt = min(1e-3, 0.05 / max(oracle.stiffness_scale(spec), 1e-6))
    worst = 0.0
    for state in states:
        sol = evolution.solve_ivp(spec, state)
        t_end = float(ts[-1])
        stride = max(1, int(round(t_end / dt / 400)))
        cfg = oracle.IntegratorConfig(dt=dt, t_end=t_end, record_stride=stride)
        times, rhos = oracle.integrate(spec, state, cfg)
        ana = evolution.trajectory(sol, times)
        worst = max(worst, float(np.max(np.abs(ana - rhos))))
    return {
        "max_deviation": worst,
        "states_checked": len(states),
        "dt": dt,
        "t_end": float(ts[-1]),
    }


def run(job: dict, out_override: str | None = None, seed: int | None = None) -> tuple[int, dict | None]:
    """Execute one job document; returns (exit_code, payload or None)."""
    command = _require(job, "command", "$")
    known = {"pointer", "spectrum", "evolve", "positivity", "perturb", "uniton", "oracle-check"}
    if command not in known:
        raise SchemaError(f"$.command: expected one of {sorted(known)}")
    spec = parse_system(_require(job, "system", "$"))

    out_doc = job.get("output", {})
    if not isinstance(out_doc, dict):
        raise SchemaError("$.output: expected an object")
    emits = "csv" if command == "evolve" else "json"
    if out_doc.get("format", emits) != emits:
        raise SchemaError(f"$.output.format: {command} emits {emits}")
    path = out_override or out_doc.get("path")

    rho0 = None
    if "initial_state" in job:
        rho0 = as_density(_matrix_in(job["initial_state"], "$.initial_state"))

    needs_state = {"evolve", "positivity"}
    if command in needs_state and rho0 is None:
        raise SchemaError(f"$.initial_state: required for command '{command}'")

    ts = None
    if "time_grid" in job:
        ts = parse_time_grid(job["time_grid"])
    elif command in ("evolve", "positivity", "oracle-check"):
        c2 = spec.c**2
        if c2 > 0:
            # Accept the system before its c sets the span: canonicalize
            # raises ContractError for a c'^2 that is not a normal float.
            spec.canonical
        ts = np.linspace(0.0, 10.0 / c2 if c2 > 0 else 10.0, 400)

    if command == "evolve":
        sol = evolution.solve_ivp(spec, rho0)
        # One write, with the CRLF line ends of the csv module's default dialect.
        text = "\r\n".join([",".join(TRAJECTORY_HEADER), *_evolve_rows(sol, ts), ""])
        if path:
            with open(path, "w", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK, None

    if command == "pointer":
        payload = _pointer_payload(compute_pointer(spec))
    elif command == "spectrum":
        payload = _spectrum_payload(spec)
    elif command == "positivity":
        payload = _positivity_payload(spec, rho0, ts)
    elif command == "perturb":
        payload = _perturb_payload(spec)
    elif command == "uniton":
        payload = _uniton_payload(spec)
    else:
        payload = _oracle_check_payload(spec, rho0, ts, seed)

    # Without indent, json.dumps runs the C encoder: one line, default separators.
    text = json.dumps(payload) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK, payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fgkls", description="Two-level FGKLS solver batch front end"
    )
    parser.add_argument("--job", required=True, help="path to a JSON job file")
    parser.add_argument("--out", help="override the output path")
    parser.add_argument("--seed", type=int, help="seed for randomized sweeps")
    args = parser.parse_args(argv)

    try:
        with open(args.job) as fh:
            job = json.load(fh)
    except OSError as exc:
        print(f"{args.job}: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except json.JSONDecodeError as exc:
        print(f"{args.job}:{exc.lineno}:{exc.colno}: {exc.msg}", file=sys.stderr)
        return EXIT_SCHEMA

    try:
        code, _ = run(job, out_override=args.out, seed=args.seed)
        return code
    except (SchemaError, InputError) as exc:
        print(f"{args.job}: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (ContractError, ConfigError, NotReducibleError) as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except (InternalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
