"""Seeded inputs, the operation each workload times, and the checks that
compare every result with the independent reference.

Inputs are drawn here from the benchmark's own seed, not from
``fgkls.sampling`` or test helpers, so later edits there leave the
workloads unchanged.  fgkls functions are looked up on their modules at
call time so that a traced run sees every call.

Workloads:

* ``sweep``: generic canonical systems through the full pipeline.
* ``manifold``: systems on the coinciding-root manifolds, in canonical form
  and rotated into general form, plus rotated generic systems.
* ``cli_jobs``: job documents for all seven CLI commands, run in process.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from fgkls import cli, evolution, model, pointer, spectral, uniton
from fgkls.errors import InternalError, NotReducibleError

import liouville_ref as ref

WORKLOADS = ("sweep", "manifold", "cli_jobs")

SWEEP_SYSTEMS = 800
# Generic draws whose rescaled rates have a cubic discriminant below this
# are redrawn (about 0.35% of draws).  spectral accepts a coinciding-root
# branch when its defect is below BRANCH_TOL = 1e-6, a discriminant of
# about 1.5e-7, and then returns rates off in the third digit and states
# off by up to 2e-4; such a draw would fail on some seeds only.  The fault is a FOUND line in
# CHANGES.md; the manifold workload covers the coinciding roots themselves.
NEAR_MANIFOLD_DISC = 1e-4
TRAJECTORY_POINTS = 200
TRAJECTORY_CHECK_ROWS = (0, 40, 80, 120, 160, 199)
# One system in four starts in a single-mode state, so that the reduction
# and the positivity window run on a fixed share of each round.
SINGLE_MODE_EVERY = 4

# Per family: systems in the fixed pool, and seeded canonical systems.
MANIFOLD_POOL = 16
MANIFOLD_PER_FAMILY = 64
MANIFOLD_GENERIC = 192
# Rotated coinciding-root systems fail today, each on every run.  They are
# drawn from this fixed seed, not from --seed, so that the failed share of
# a round is the same for every seed.
FIXED_POOL_SEED = 2204_07734

# A round holds this many sets of 20 jobs: 3 pointer, 4 uniton, 6 spectrum,
# 2 perturb, 2 positivity, 1 oracle-check and 2 evolve, roughly from
# cheapest to dearest.  The spectrum jobs fill ranks 35% to 65% of a set,
# so the median latency falls inside one group of like jobs and not on
# the edge between the cheap and the heavy half; the det-scan positivity
# job is 5% of the set, so the 99th percentile falls inside that group.
JOB_SETS = 16
EVOLVE_POINTS = 400
# The CSV's min_eig column against eigvalsh of the row's state: the closed
# form behind the column is accurate to about sqrt(eps) near I/2.
MIN_EIG_COLUMN_TOL = 1e-7
ORACLE_T_END = 2.0
# The RK4 oracle's deviation bound, as in acceptance criterion 5.
ORACLE_TOL = 1e-6
# Weak-coupling slopes may differ from the truncation order by this much.
SLOPE_TOL = 0.5
# Predicted weak-coupling rates at c = PERTURB_PROBE_C against the
# reference eigenvalues: the O(c^4) remainder is below 1e-5 here.
PERTURB_PROBE_C = 0.05
PERTURB_RATE_TOL = 1e-4


# --- seeded inputs -------------------------------------------------------


def rand_complex(rng: np.random.Generator, scale: float) -> complex:
    return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def rand_hamiltonian(rng: np.random.Generator, scale: float = 1.5) -> np.ndarray:
    e1, e2 = rng.uniform(-scale, scale, size=2)
    off = rand_complex(rng, scale)
    return np.array([[e1, off], [np.conj(off), e2]], dtype=complex)


def rand_density(rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def jordan_l(lam: complex) -> np.ndarray:
    return np.array([[lam, 1.0], [0.0, lam]], dtype=complex)


@dataclass(frozen=True, eq=False)
class System:
    """Raw numbers of one system: H, the shape, small l and c."""

    h: np.ndarray
    form: str  # "diagonal", "jordan" or "general"
    l: np.ndarray
    c: float

    @property
    def big_l(self) -> np.ndarray:
        return self.c * self.l

    @cached_property
    def reference(self) -> ref.Reference:
        return ref.Reference(self.h, self.big_l)

    def spec(self) -> model.SystemSpec:
        ham = model.Hamiltonian(self.h)
        if self.form == "diagonal":
            lind = model.DiagonalL(self.l[0, 0], self.l[1, 1], self.c)
        elif self.form == "jordan":
            lind = model.JordanL(self.l[0, 0], self.c)
        else:
            lind = model.GeneralL(self.l, self.c)
        return model.SystemSpec(ham, lind)

    def doc(self) -> dict:
        lind = {"form": self.form, "c": self.c}
        if self.form == "diagonal":
            lind["lambda1"] = complex_json(self.l[0, 0])
            lind["lambda2"] = complex_json(self.l[1, 1])
        elif self.form == "jordan":
            lind["lambda"] = complex_json(self.l[0, 0])
        else:
            lind["l"] = matrix_json(self.l)
        return {"hamiltonian": matrix_json(self.h), "lindblad": lind}

    def rotated(self, u: np.ndarray) -> "System":
        """The same physics in the basis u, passed as general form."""
        return System(u @ self.h @ u.conj().T, "general", u @ self.l @ u.conj().T, self.c)


def complex_json(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def matrix_json(m) -> list:
    return [[complex_json(m[i][j]) for j in range(2)] for i in range(2)]


def near_coinciding_roots(system: System) -> bool:
    """Whether the rescaled rates s = rate / c^2 nearly coincide: the
    discriminant of their cubic is below NEAR_MANIFOLD_DISC."""
    s = system.reference.nonzero_rates() / system.c**2
    return abs((s[0] - s[1]) * (s[0] - s[2]) * (s[1] - s[2])) ** 2 < NEAR_MANIFOLD_DISC


def generic_system(rng: np.random.Generator, form: str, c_range=(0.1, 3.0), scale=1.5) -> System:
    """A random system of the given shape, redrawn while it lies near a
    coinciding-root manifold (see NEAR_MANIFOLD_DISC)."""
    while True:
        c = float(rng.uniform(*c_range))
        h = rand_hamiltonian(rng, scale)
        if form == "diagonal":
            l = np.diag([rand_complex(rng, scale), rand_complex(rng, scale)]).astype(complex)
        elif form == "jordan":
            l = jordan_l(rand_complex(rng, scale))
        else:
            l = np.array([[rand_complex(rng, 1.0) for _ in range(2)] for _ in range(2)])
        system = System(h, form, l, c)
        if not near_coinciding_roots(system):
            return system


# The three coinciding-root families of the acceptance suite.


def jordan_double_root(rng: np.random.Generator) -> System:
    c = float(rng.uniform(0.5, 1.4))
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    lam = 0.25 * complex(math.cos(theta), math.sin(theta))
    e0 = float(rng.uniform(-1.0, 1.0))
    return System(np.diag([e0, e0]).astype(complex), "jordan", jordan_l(lam), c)


def jordan_triple_root(rng: np.random.Generator) -> System:
    c = float(rng.uniform(0.7, 1.3))
    gap = math.sqrt(1.0 / 108.0) * c * c
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    lam = (2.0 / math.sqrt(54.0)) * complex(math.cos(theta), math.sin(theta))
    e2 = float(rng.uniform(-1.0, 1.0))
    return System(np.diag([e2 + gap, e2]).astype(complex), "jordan", jordan_l(lam), c)


def diagonal_double_root(rng: np.random.Generator) -> System:
    c = float(rng.uniform(0.6, 1.3))
    e0 = float(rng.uniform(-1.0, 1.0))
    off = c * c / 8.0
    h = np.array([[e0, off], [off, e0]], dtype=complex)
    return System(h, "diagonal", np.diag([1.0, 0.0]).astype(complex), c)


FAMILIES = (jordan_double_root, jordan_triple_root, diagonal_double_root)


def single_mode_state(system: System, rng: np.random.Generator, u_range=(0.3, 1.2)):
    """Stationary state plus a multiple of one real decaying mode, both taken
    from the reference; None when the system has no separated real mode."""
    r = system.reference
    mode = r.real_mode()
    if mode is None or r.stationary_dim != 1:
        return None
    u = float(rng.uniform(*u_range)) * float(rng.choice([-1.0, 1.0]))
    return r.stationary_state() + u * mode


def initial_state(system: System, rng: np.random.Generator, single_mode: bool) -> np.ndarray:
    rho0 = rand_density(rng)
    if single_mode:
        special = single_mode_state(system, rng)
        if special is not None:
            return special
    return rho0


# --- sweep and manifold: one operation per system ------------------------


@dataclass(frozen=True, eq=False)
class SystemOp:
    system: System
    spec: model.SystemSpec
    rho0: np.ndarray
    ts: np.ndarray
    # A rotated coinciding-root system of the fixed pool, which may raise
    # InternalError (the general path decides coinciding roots from gaps
    # between computed roots).
    known_fault: bool = False


def system_op(system: System, rho0: np.ndarray, known_fault: bool = False) -> SystemOp:
    ts = np.linspace(0.0, 8.0 / system.c**2, TRAJECTORY_POINTS)
    return SystemOp(system, system.spec(), rho0, ts, known_fault)


def sweep_ops(seed: int, count: int = SWEEP_SYSTEMS) -> list[SystemOp]:
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(count):
        system = generic_system(rng, "diagonal" if i % 2 == 0 else "jordan")
        single = i % (2 * SINGLE_MODE_EVERY) >= 2 * SINGLE_MODE_EVERY - 2
        ops.append(system_op(system, initial_state(system, rng, single)))
    return ops


def manifold_ops(seed: int) -> list[SystemOp]:
    ops = []
    fixed = np.random.default_rng(FIXED_POOL_SEED)
    for family in FAMILIES:
        for i in range(MANIFOLD_POOL):
            system = family(fixed)
            rho0 = initial_state(system, fixed, i % SINGLE_MODE_EVERY == 0)
            u = haar_unitary(fixed)
            ops.append(system_op(system, rho0))
            ops.append(system_op(system.rotated(u), u @ rho0 @ u.conj().T, known_fault=True))
    rng = np.random.default_rng(seed)
    for family in FAMILIES:
        for i in range(MANIFOLD_PER_FAMILY):
            system = family(rng)
            ops.append(system_op(system, initial_state(system, rng, i % SINGLE_MODE_EVERY == 0)))
    for i in range(MANIFOLD_GENERIC):
        system = generic_system(rng, "diagonal" if i % 2 == 0 else "jordan")
        rho0 = initial_state(system, rng, i % (2 * SINGLE_MODE_EVERY) >= 2 * SINGLE_MODE_EVERY - 2)
        u = haar_unitary(rng)
        ops.append(system_op(system.rotated(u), u @ rho0 @ u.conj().T))
    return ops


@dataclass(frozen=True, eq=False)
class SystemResult:
    pointer: object
    solution: evolution.AnalyticSolution
    stability: spectral.StabilityVerdict
    trajectory: np.ndarray
    window: evolution.TimeWindow | None
    uniton: object


def run_system(op: SystemOp) -> SystemResult:
    """The fixed pipeline of one system."""
    spec = op.spec
    ptr = pointer.compute_pointer(spec)
    sol = evolution.solve_ivp(spec, op.rho0)
    # The spectrum is read from the solution, not computed a second time.
    verdict = spectral.assert_stability(sol.modes, spec)
    traj = evolution.trajectory(sol, op.ts)
    window = None
    try:
        red = evolution.single_mode_reduction(sol)
        window = evolution.positivity_window(red, red.pointer, spec.c)
    except NotReducibleError:
        pass
    verdict_u = uniton.classify_unitons(spec)
    return SystemResult(ptr, sol, verdict, traj, window, verdict_u)


def check_pointer_result(r: ref.Reference, ptr) -> list[str]:
    if isinstance(ptr, pointer.UniquePointer):
        return ref.check_unique_pointer(r, ptr.rho)
    if isinstance(ptr, pointer.LineFamily):
        return ref.check_family(r, ptr.base, [ptr.direction])
    if isinstance(ptr, (pointer.DiagonalFamily, pointer.FullFamily)):
        return ref.check_family(r, ptr.base, ptr.directions)
    return [f"no attracting pointer reported: {ptr!r}"]


def check_stability(r: ref.Reference, all_damped: bool) -> list[str]:
    want = bool(np.all(r.nonzero_rates().real < -ref.RATE_RTOL * r.scale))
    if all_damped != want:
        return [f"stability verdict all-damped={all_damped}, reference {want}"]
    return []


def check_system(op: SystemOp, res: SystemResult) -> list[str]:
    r = op.system.reference
    rates = [m.rate for m in res.solution.modes.modes for _ in m.vectors]
    problems = check_pointer_result(r, res.pointer)
    problems += ref.check_rates(r, rates)
    problems += check_stability(r, res.stability is spectral.StabilityVerdict.ALL_DAMPED)
    problems += ref.check_trajectory(r, op.rho0, op.ts, res.trajectory, TRAJECTORY_CHECK_ROWS)
    if res.window is not None:
        problems += ref.check_positivity(r, op.rho0, res.window.t_min, res.window.valid)
    problems += ref.check_uniton(r, res.uniton.label, getattr(res.uniton, "rho", None))
    return problems


# --- cli_jobs: one operation per job document ----------------------------


@dataclass(frozen=True, eq=False)
class JobOp:
    job: dict
    system: System


def _evolve_job(system: System, rho0: np.ndarray, points: int, t_end: float) -> dict:
    return {
        "command": "evolve",
        "system": system.doc(),
        "initial_state": matrix_json(rho0),
        "time_grid": {"t_start": 0.0, "t_end": t_end, "points": points},
        "output": {"format": "csv"},
    }


def _traceless_hermitian(rng: np.random.Generator) -> np.ndarray:
    a, x, y = rng.normal(size=3)
    m = np.array([[a, x + 1j * y], [x - 1j * y, -a]], dtype=complex)
    return m / np.linalg.norm(m)


def job_documents(seed: int) -> list[tuple[dict, System]]:
    """One round of jobs: JOB_SETS sets, each a fixed count per command
    with seeded parameters."""
    rng = np.random.default_rng(seed)
    jobs: list[tuple[dict, System]] = []
    for index in range(JOB_SETS):
        jobs += job_set(rng, index)
    return jobs


def job_set(rng: np.random.Generator, index: int) -> list[tuple[dict, System]]:
    jobs: list[tuple[dict, System]] = []

    def add(command: str, system: System, **extra) -> None:
        jobs.append(({"command": command, "system": system.doc(), **extra}, system))

    for form in ("diagonal", "jordan", "general"):
        add("pointer", generic_system(rng, form))
    for form in ("diagonal", "jordan", "general") * 2:
        add("spectrum", generic_system(rng, form))
    for form in ("diagonal", "jordan"):
        system = generic_system(rng, form, c_range=(0.5, 1.5))
        jobs.append((_evolve_job(system, rand_density(rng), EVOLVE_POINTS, 8.0 / system.c**2), system))

    # Positivity: one single-mode state (closed-form window) and one state
    # that excites every mode (determinant-scan fallback).  Both start
    # outside the state space and enter it later.
    grid = {"t_start": 0.0, "points": 400}
    while True:
        system = generic_system(rng, "jordan", c_range=(0.6, 1.4), scale=1.0)
        rho0 = single_mode_state(system, rng, u_range=(1.0, 2.0))
        if rho0 is not None:
            break
    add("positivity", system, initial_state=matrix_json(rho0),
        time_grid=dict(grid, t_end=30.0 / system.c**2))
    system = generic_system(rng, "diagonal", c_range=(0.6, 1.4), scale=1.0)
    rho0 = system.reference.stationary_state() + float(rng.uniform(1.0, 2.0)) * _traceless_hermitian(rng)
    add("positivity", system, initial_state=matrix_json(rho0),
        time_grid=dict(grid, t_end=30.0 / system.c**2))

    for form in ("jordan", "diagonal"):
        gap = float(rng.uniform(0.5, 1.5)) * float(rng.choice([-1.0, 1.0]))
        e2 = float(rng.uniform(-1.0, 1.0))
        h = np.diag([e2 + gap, e2]).astype(complex)
        if form == "jordan":
            mag, phase = float(rng.uniform(0.3, 1.2)), float(rng.uniform(0.0, 2.0 * math.pi))
            l = jordan_l(mag * complex(math.cos(phase), math.sin(phase)))
        else:
            l = np.diag([rand_complex(rng, 1.0), rand_complex(rng, 1.0)]).astype(complex)
        add("perturb", System(h, form, l, 0.1))

    # Uniton: one job per verdict branch, two of them on the None branch.
    c = float(rng.uniform(0.2, 2.0))
    lam = rand_complex(rng, 1.0)
    add("uniton", System(rand_hamiltonian(rng), "diagonal", np.diag([lam, lam]).astype(complex), c))
    e0 = float(rng.uniform(-1.0, 1.0))
    add("uniton", System(np.diag([e0, e0]).astype(complex), "jordan", jordan_l(rand_complex(rng, 1.0)), c))
    add("uniton", generic_system(rng, "diagonal"))
    add("uniton", generic_system(rng, "jordan"))

    # One oracle-check per set, diagonal and Jordan in turn.
    system = generic_system(rng, ("diagonal", "jordan")[index % 2], c_range=(0.5, 1.5), scale=1.0)
    add("oracle-check", system, initial_state=matrix_json(rand_density(rng)),
        time_grid={"t_start": 0.0, "t_end": ORACLE_T_END, "points": 2})
    return jobs


def cli_ops(seed: int) -> list[JobOp]:
    # Job documents travel as JSON; the round trip keeps them plain.
    return [JobOp(json.loads(json.dumps(job)), system) for job, system in job_documents(seed)]


def run_job(op: JobOp) -> str:
    """Run one job in process and return what it wrote.

    The job has no output path, so the CLI writes its JSON or CSV to
    standard output, which is captured in memory.  Creating a file on the
    ext4 disk of the machine this was written on cost 0.1 to 0.8 ms, as
    much as the cheapest jobs themselves, and varied from second to second.
    """
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code, _ = cli.run(op.job)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"{op.job['command']} exited with {code}")
    return buffer.getvalue()


def _complex_in(z) -> complex:
    return complex(z[0], z[1]) if isinstance(z, list) else complex(z)


def _matrix_in(m) -> np.ndarray:
    return np.array([[_complex_in(z) for z in row] for row in m], dtype=complex)


def check_evolve_csv(r: ref.Reference, job: dict, text: str) -> list[str]:
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if rows[0] != cli.TRAJECTORY_HEADER:
        return [f"CSV header {rows[0]}"]
    grid = job["time_grid"]
    ts = np.linspace(grid["t_start"], grid["t_end"], grid["points"])
    body = np.array([[float(x) for x in row] for row in rows[1:]])
    if body.shape != (len(ts), len(cli.TRAJECTORY_HEADER)):
        return [f"CSV has shape {body.shape}"]
    if not np.allclose(body[:, 0], ts, rtol=0.0, atol=1e-12):
        return ["CSV time column differs from the grid"]
    states = (body[:, 1:9:2] + 1j * body[:, 2:9:2]).reshape(-1, 2, 2)
    check_rows = np.linspace(0, len(ts) - 1, 5).astype(int)
    problems = ref.check_trajectory(r, _matrix_in(job["initial_state"]), ts, states, check_rows)
    for k, rho in enumerate(states):
        det = float((rho[0, 0] * rho[1, 1] - rho[0, 1] * rho[1, 0]).real)
        lowest = ref.min_eig(rho)
        if abs(body[k, 9] - det) > 1e-12 or abs(body[k, 10] - lowest) > MIN_EIG_COLUMN_TOL:
            problems.append(f"row {k}: det or min_eig column does not match its state")
            break
        if int(body[k, 11]) != int(lowest >= -1e-10):
            problems.append(f"row {k}: physical flag {int(body[k, 11])} with min_eig {lowest:.3e}")
            break
    return problems


def check_perturb(r: ref.Reference, system: System, payload: dict) -> list[str]:
    problems = []
    if system.form == "jordan" and abs(system.l[0, 0]) > 0.0:
        slope = payload["rate_error_slope"]
        if payload["rate_error_saturated"] or abs(slope - 4.0) > SLOPE_TOL:
            problems.append(f"rate error slope {slope}, expected 4")
        slope = payload["pointer_f11_order4_slope"]
        if payload["pointer_series_saturated"] or abs(slope - 8.0) > SLOPE_TOL:
            problems.append(f"pointer f11 slope {slope}, expected 8")
    elif system.form == "diagonal" and not payload["rate_error_saturated"]:
        problems.append("diagonal weak-coupling rates should be exact")
    # Predicted rates at a small coupling against the reference eigenvalues.
    probe = ref.Reference(system.h, PERTURB_PROBE_C * system.l)
    exact = list(probe.nonzero_rates())
    c2 = PERTURB_PROBE_C**2
    for branch in payload["branches"]:
        pred = _complex_in(branch["a0"]) + _complex_in(branch["a1"]) * c2
        j = int(np.argmin([abs(x - pred) for x in exact]))
        if abs(exact[j] - pred) > PERTURB_RATE_TOL:
            problems.append(f"weak-coupling rate {pred:.6g} misses the reference by {abs(exact[j] - pred):.3e}")
        exact.pop(j)
    return problems


def check_job(op: JobOp, output: str) -> list[str]:
    """Check the text a job wrote: CSV for evolve, JSON otherwise."""
    job, system = op.job, op.system
    command = job["command"]
    r = system.reference
    if command == "evolve":
        return check_evolve_csv(r, job, output)
    payload = json.loads(output)
    if command == "pointer":
        variant = payload["variant"]
        if variant == "Unique":
            return ref.check_unique_pointer(r, _matrix_in(payload["rho"]))
        if variant == "LineFamily":
            return ref.check_family(r, _matrix_in(payload["base"]), [_matrix_in(payload["direction"])])
        if variant in ("DiagonalFamily", "FullFamily"):
            dirs = [_matrix_in(d) for d in payload["directions"]]
            return ref.check_family(r, _matrix_in(payload["base"]), dirs)
        return [f"pointer variant {variant}"]
    if command == "spectrum":
        rates = [_complex_in(root["rate"]) for root in payload["roots"] for _ in range(root["multiplicity"])]
        return ref.check_rates(r, rates) + check_stability(r, payload["stability"] == "AllDamped")
    if command == "positivity":
        horizon = job["time_grid"]["t_end"]
        t_min = payload["t_min"]
        return ref.check_positivity(r, _matrix_in(job["initial_state"]), t_min, payload["valid"], horizon)
    if command == "perturb":
        return check_perturb(r, system, payload)
    if command == "uniton":
        rho = _matrix_in(payload["rho"]) if "rho" in payload else None
        return ref.check_uniton(r, payload["verdict"], rho)
    problems = []
    if not payload["max_deviation"] < ORACLE_TOL:
        problems.append(f"oracle deviation {payload['max_deviation']:.3e} above {ORACLE_TOL:g}")
    if payload["states_checked"] != 1 or payload["t_end"] != job["time_grid"]["t_end"]:
        problems.append("oracle-check did not check the job's state and horizon")
    return problems


# --- what run.py drives --------------------------------------------------


class Workload:
    """Build a round of operations, run one, check one."""

    def __init__(self, name: str):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name

    def build(self, seed: int) -> list:
        if self.name == "sweep":
            return sweep_ops(seed)
        if self.name == "manifold":
            return manifold_ops(seed)
        return cli_ops(seed)

    def run(self, op) -> object:
        if self.name == "cli_jobs":
            return run_job(op)
        return run_system(op)

    def check(self, op, result) -> list[str]:
        if self.name == "cli_jobs":
            return check_job(op, result)
        return check_system(op, result)

    def warm_up(self, ops: list) -> None:
        """One pass over the round, results discarded.  An operation that
        raises is counted and reported by the timed rounds that follow."""
        for op in ops:
            try:
                self.run(op)
            except Exception:
                pass

    @staticmethod
    def known_fault(op, exc: BaseException) -> bool:
        return isinstance(op, SystemOp) and op.known_fault and isinstance(exc, InternalError)

    def cold_start_job(self, ops: list) -> JobOp:
        """An evolve job on the round's first system of the workload's kind."""
        if self.name == "cli_jobs":
            return next(op for op in ops if op.job["command"] == "evolve")
        op = ops[0] if self.name == "sweep" else next(
            o for o in ops[2 * MANIFOLD_POOL * len(FAMILIES):] if not o.known_fault
        )
        return JobOp(_evolve_job(op.system, op.rho0, TRAJECTORY_POINTS, float(op.ts[-1])), op.system)
