import csv
import io
import json
import math

import numpy as np
import pytest

from fgkls.cli import (
    EXIT_CONTRACT,
    EXIT_OK,
    EXIT_SCHEMA,
    TRAJECTORY_HEADER,
    _evolve_rows,
    _matrix_in,
    complex_out,
    main,
    matrix_out,
    parse_system,
    parse_time_grid,
    run,
)
from fgkls import oracle
from fgkls.evolution import solve_ivp, trajectory
from fgkls.model import (
    DiagonalL,
    Hamiltonian,
    JordanL,
    SystemSpec,
    as_density,
    det2,
    min_eig2,
)
from fgkls.pointer import compute_pointer
from fgkls.sampling import random_density, random_spec


# H = diag(1, 0) with JordanL(0.8 + 0.3i, 0.1), rotated by a Haar unitary
# into general form.
ROTATED_JORDAN = {
    "hamiltonian": [
        [[0.09744017214412287, 0.0], [-0.28531615657584497, 0.08087197161832083]],
        [[-0.28531615657584497, -0.08087197161832083], [0.9025598278558772, 0.0]],
    ],
    "lindblad": {
        "form": "general",
        "c": 0.1,
        "l": [
            [[0.5145883140450647, 0.3805341822893106], [-0.08300791245281493, 0.051032084199081035]],
            [[0.9025591955320095, 0.0010683725205872761], [1.0854116859549356, 0.21946581771068935]],
        ],
    },
}

# c^2 = 1e-320 is subnormal, while c'^2 of the coupling c l is normal.
SUBNORMAL_C_SQUARED = {
    "hamiltonian": [[0.3, [0.1, 0.2]], [[0.1, -0.2], -0.4]],
    "lindblad": {"form": "general", "c": 1e-160, "l": [[1e150, 1e150], [0.0, 2e150]]},
}

# c^2 is normal, but the cubic in s = rate / c^2 scales by (c' / c)^(2k)
# with c' / c about 1e150: its p1 and p0 leave the float range.  The rates
# are about 1e298.
HUGE_CUBIC = {
    "hamiltonian": [[1.0, 0.0], [0.0, -1.0]],
    "lindblad": {"form": "general", "c": 0.2, "l": [[1e150, 1e150], [0.0, 2e150]]},
}


def write_job(tmp_path, doc, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def evolve_job(spec, rho0, points=150):
    lind = spec.lindblad
    if isinstance(lind, DiagonalL):
        lind_doc = {"form": "diagonal", "lambda1": complex_out(lind.lambda1),
                    "lambda2": complex_out(lind.lambda2)}
    elif isinstance(lind, JordanL):
        lind_doc = {"form": "jordan", "lambda": complex_out(lind.lam)}
    else:
        lind_doc = {"form": "general", "l": matrix_out(lind.matrix)}
    lind_doc["c"] = lind.c
    return {
        "command": "evolve",
        "system": {"hamiltonian": matrix_out(spec.hamiltonian.matrix), "lindblad": lind_doc},
        "initial_state": matrix_out(rho0),
        "time_grid": {"t_start": 0.0, "t_end": 20.0 / lind.c**2, "points": points},
    }


def csv_writer_reference(doc) -> str:
    """What csv.writer writes for the job's header and numeric rows, built
    from the trajectory and its det2 and min_eig2."""
    ts = parse_time_grid(doc["time_grid"])
    rho0 = as_density(_matrix_in(doc["initial_state"], "$.initial_state"))
    rhos = trajectory(solve_ivp(parse_system(doc["system"]), rho0), ts)
    low = min_eig2(rhos)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(TRAJECTORY_HEADER)
    for t, entries, det, m in zip(
        ts.tolist(), rhos.reshape(-1, 4).view(float).tolist(), det2(rhos).tolist(), low.tolist()
    ):
        writer.writerow([t, *entries, det, m, int(m >= -1e-10)])
    return buffer.getvalue()


def degenerate_jordan_job(command="pointer", **extra):
    doc = {
        "command": command,
        "system": {
            "hamiltonian": [[0.7, 0.0], [0.0, 0.7]],
            "lindblad": {"form": "jordan", "c": 1.0, "lambda": [1.0, 0.0]},
        },
    }
    doc.update(extra)
    return doc


class TestPointerCommand:
    def test_degenerate_h_jordan(self, tmp_path, capsys):
        job = write_job(tmp_path, degenerate_jordan_job())
        assert main(["--job", job]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["case"] == "degenerate-H Jordan"
        rho = payload["rho"]
        assert rho[0][0] == [pytest.approx(2.0 / 3.0), 0.0]
        assert rho[0][1] == [pytest.approx(-1.0 / 3.0), 0.0]

    def test_non_normal_general_coupling(self, tmp_path, capsys):
        doc = degenerate_jordan_job()
        doc["system"]["lindblad"] = {"form": "general", "c": 0.7, "l": [[1.0, 1.0], [0.0, 2.0]]}
        assert main(["--job", write_job(tmp_path, doc)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert (payload["variant"], payload["case"]) == ("Unique", "non-normal unique")

    def test_output_file_roundtrip(self, tmp_path):
        out = tmp_path / "pointer.json"
        job = write_job(tmp_path, degenerate_jordan_job())
        assert main(["--job", job, "--out", str(out)]) == EXIT_OK
        first = out.read_text()
        assert main(["--job", job, "--out", str(out)]) == EXIT_OK
        assert out.read_text() == first  # bit-for-bit reproducible
        payload = json.loads(first)
        assert payload["rho"][1][1][0] == 1.0 / 3.0  # full double precision


class TestSpectrumCommand:
    def test_double_root_structure(self, tmp_path, capsys):
        doc = {
            "command": "spectrum",
            "system": {
                "hamiltonian": [[0.5, 0.0], [0.0, 0.5]],
                "lindblad": {"form": "jordan", "c": 1.0, "lambda": [0.0, 0.0]},
            },
        }
        assert main(["--job", write_job(tmp_path, doc)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["structure"] == "DoubleRoot"
        assert payload["stability"] == "AllDamped"
        svals = sorted(r["s"][0] for r in payload["roots"] for _ in range(r["multiplicity"]))
        assert svals == pytest.approx([-1.0, -0.5, -0.5])

    @pytest.mark.parametrize(
        "hamiltonian, lindblad, roots",
        [
            # Pure dephasing over degenerate levels: a diagonalizable double root.
            ([[0.5, 0.0], [0.0, 0.5]], {"lambda1": 1.0, "lambda2": 0.3}, [(-0.245, 2), (0.0, 1)]),
            # A scalar l over H = 0: M = 0.
            ([[0.0, 0.0], [0.0, 0.0]], {"lambda1": 1.0, "lambda2": 1.0}, [(0.0, 3)]),
        ],
    )
    def test_roots_carry_their_algebraic_multiplicity(self, hamiltonian, lindblad, roots, tmp_path, capsys):
        lindblad = {"form": "diagonal", "c": 1.0, **lindblad}
        doc = {"command": "spectrum", "system": {"hamiltonian": hamiltonian, "lindblad": lindblad}}
        assert main(["--job", write_job(tmp_path, doc)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        got = [(r["s"][0], r["multiplicity"]) for r in payload["roots"]]
        assert got == [(pytest.approx(s, abs=1e-15), mult) for s, mult in roots]
        assert all(r["s"][1] == 0.0 and r["rate"] == r["s"] for r in payload["roots"])

    def test_large_scaled_gap_is_damped(self, tmp_path, capsys):
        # |H| / c^2 = 1e19: the real parts must survive the roots' scale.
        doc = {
            "command": "spectrum",
            "system": {
                "hamiltonian": [[1e9, 0.0], [0.0, 0.0]],
                "lindblad": {"form": "jordan", "c": 1e-5, "lambda": [0.3, 0.2]},
            },
        }
        assert main(["--job", write_job(tmp_path, doc)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["stability"] == "AllDamped"
        assert payload["structure"] == "ComplexPairPlusReal"


class TestEvolveCommand:
    def test_csv_matches_closed_form(self, tmp_path):
        out = tmp_path / "traj.csv"
        doc = {
            "command": "evolve",
            "system": {
                "hamiltonian": [[0.3, 0.0], [0.0, 0.3]],
                "lindblad": {"form": "jordan", "c": 1.0, "lambda": [0.0, 0.0]},
            },
            "initial_state": [[0.0, 0.0], [0.0, 1.0]],
            "time_grid": {"t_start": 0.0, "t_end": 5.0, "points": 51},
            "output": {"format": "csv", "path": str(out)},
        }
        assert main(["--job", write_job(tmp_path, doc)]) == EXIT_OK
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == TRAJECTORY_HEADER
        for row in rows[1:]:
            t, f22 = float(row[0]), float(row[7])
            assert abs(f22 - math.exp(-t)) < 1e-8
            assert row[11] == "1"

    def test_rows_match_per_sample_scalars(self, rng):
        amp_damp = SystemSpec(Hamiltonian.diagonal(0.3, 0.3), JordanL(0.0, 1.0))
        # A Hermitian coupling is unital: these states converge to I/2.
        unital = SystemSpec(Hamiltonian([[0.4, 0.3], [0.3, -0.2]]), DiagonalL(1.0, -1.0, 1.2))
        cases = [(random_spec(rng, form=form), random_density(rng))
                 for form in ("diagonal", "jordan", "general")]
        cases += [
            (unital, random_density(rng)),
            # Unphysical from the start, then physical after t = ln 2.
            (amp_damp, np.diag([-1.0, 2.0]).astype(complex)),
        ]
        flags = set()
        for spec, rho0 in cases:
            sol = solve_ivp(spec, rho0)
            ts = np.linspace(0.0, 40.0 / spec.c**2, 300)
            lines = _evolve_rows(sol, ts)
            assert len(lines) == len(ts)
            for line, t, rho in zip(lines, ts, trajectory(sol, ts)):
                fields = line.split(",")
                assert len(fields) == len(TRAJECTORY_HEADER)
                row = [float(x) for x in fields[:11]]
                assert row[0] == t
                entries = [z for v in rho.ravel() for z in (v.real, v.imag)]
                assert np.max(np.abs(np.array(row[1:9]) - entries)) <= 1e-15
                assert abs(row[9] - det2(rho)) <= 1e-15
                assert abs(row[10] - min_eig2(rho)) <= 1e-15
                assert fields[11] in ("0", "1")
                assert fields[11] == str(int(min_eig2(rho) >= -1e-10))
                flags.add(fields[11])
        assert flags == {"0", "1"}
        late_line = _evolve_rows(solve_ivp(unital, random_density(rng)), [200.0])[0]
        late = np.array([float(x) for x in late_line.split(",")[1:9]])
        assert np.max(np.abs(late - [0.5, 0, 0, 0, 0, 0, 0.5, 0])) < 1e-12

    @pytest.mark.parametrize("case", ["diagonal", "jordan", "general", "zero-coherence"])
    def test_bytes_match_csv_writer(self, case, rng, tmp_path, capsys):
        if case == "zero-coherence":
            # f12 stays exactly +0.0, so f21_im must print as -0.0.
            spec = SystemSpec(Hamiltonian.diagonal(0.5, -0.2), DiagonalL(0.3 + 0.2j, -0.5, 1.0))
            rho0 = np.diag([0.3, 0.7]).astype(complex)
        else:
            spec, rho0 = random_spec(rng, form=case), random_density(rng)
        doc = evolve_job(spec, rho0)
        expected = csv_writer_reference(doc)
        job = write_job(tmp_path, doc)
        assert main(["--job", job]) == EXIT_OK
        assert capsys.readouterr().out == expected
        out = tmp_path / "traj.csv"
        assert main(["--job", job, "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == expected.encode()
        f21_im = {row[6] for row in csv.reader(io.StringIO(expected))}
        if case == "zero-coherence":
            assert f21_im == {"f21_im", "-0.0"}
        else:
            assert any(x.startswith("-") for x in f21_im) and any(x[0].isdigit() for x in f21_im)

    def test_missing_initial_state_is_schema_error(self, tmp_path, capsys):
        doc = degenerate_jordan_job(command="evolve")
        assert main(["--job", write_job(tmp_path, doc)]) == EXIT_SCHEMA


class TestPositivityCommand:
    def test_single_mode_method(self, tmp_path, capsys):
        doc = {
            "command": "positivity",
            "system": {
                "hamiltonian": [[0.3, 0.0], [0.0, 0.3]],
                "lindblad": {"form": "jordan", "c": 1.0, "lambda": [0.0, 0.0]},
            },
            "initial_state": [[0.0, 0.0], [0.0, 1.0]],
        }
        assert main(["--job", write_job(tmp_path, doc)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "single-mode"
        assert payload["valid"] is True
        assert payload["t_min"] == 0.0

    def test_det_scan_fallback(self, tmp_path, capsys):
        doc = {
            "command": "positivity",
            "system": {
                "hamiltonian": [[0.9, [0.2, -0.1]], [[0.2, 0.1], -0.3]],
                "lindblad": {"form": "jordan", "c": 1.0, "lambda": [0.8, 0.1]},
            },
            "initial_state": [[0.9, [0.1, 0.05]], [[0.1, -0.05], 0.1]],
            "time_grid": {"t_start": 0.0, "t_end": 12.0, "points": 600},
        }
        assert main(["--job", write_job(tmp_path, doc)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "det-scan"
        assert payload["t_min"] == 0.0  # physical initial state stays physical


class TestPerturbCommand:
    def test_jordan_branches_and_slopes(self, tmp_path, capsys):
        doc = {
            "command": "perturb",
            "system": {
                "hamiltonian": [[1.0, 0.0], [0.0, 0.0]],
                "lindblad": {"form": "jordan", "c": 0.1, "lambda": [0.8, 0.3]},
            },
        }
        assert main(["--job", write_job(tmp_path, doc)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        a1s = sorted(b["a1"][0] for b in payload["branches"])
        assert a1s == pytest.approx([-1.0, -0.5, -0.5])
        assert abs(payload["rate_error_slope"] - 4.0) < 0.5
        assert abs(payload["pointer_f11_order4_slope"] - 8.0) < 0.5

    def test_non_diagonal_h_is_accepted(self, tmp_path, capsys):
        doc = {
            "command": "perturb",
            "system": {
                "hamiltonian": [[1.0, 0.3], [0.3, 0.0]],
                "lindblad": {"form": "jordan", "c": 0.1, "lambda": [0.8, 0.3]},
            },
        }
        assert main(["--job", write_job(tmp_path, doc)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert sorted(b["a0"][1] for b in payload["branches"]) == pytest.approx(
            [-math.hypot(1.0, 0.6), 0.0, math.hypot(1.0, 0.6)], abs=1e-15
        )
        assert abs(payload["rate_error_slope"] - 4.0) < 0.5
        # Level mixing gives the populations a c^6 term.
        assert abs(payload["pointer_f11_order4_slope"] - 6.0) < 0.5

    def test_rotated_jordan_keeps_the_diagonal_branches(self, tmp_path, capsys):
        # H = diag(1, 0) with JordanL(0.8 + 0.3i, 0.1), Haar-rotated into general form.
        doc = {"command": "perturb", "system": ROTATED_JORDAN}
        assert main(["--job", write_job(tmp_path, doc)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        a1s = sorted(b["a1"][0] for b in payload["branches"])
        assert a1s == pytest.approx([-1.0, -0.5, -0.5], abs=1e-12)
        assert abs(payload["rate_error_slope"] - 4.0) < 0.5
        assert abs(payload["pointer_f11_order4_slope"] - 6.0) < 0.5


class TestUnitonCommand:
    def test_all_states(self, tmp_path, capsys):
        doc = {
            "command": "uniton",
            "system": {
                "hamiltonian": [[1.0, 0.0], [0.0, 0.0]],
                "lindblad": {
                    "form": "diagonal",
                    "c": 1.0,
                    "lambda1": [0.4, 0.2],
                    "lambda2": [0.4, 0.2],
                },
            },
        }
        assert main(["--job", write_job(tmp_path, doc)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "AllStates"

    def test_jordan_none_with_candidate(self, tmp_path, capsys):
        doc = {
            "command": "uniton",
            "system": {
                "hamiltonian": [[1.0, 0.0], [0.0, 0.0]],
                "lindblad": {"form": "jordan", "c": 1.0, "lambda": [1.0, 0.0]},
            },
        }
        assert main(["--job", write_job(tmp_path, doc)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "None"
        assert payload["candidate"][0][0][0] == pytest.approx(2.0 / 3.0)


class TestOracleCheckCommand:
    def test_reports_small_deviation(self, tmp_path, capsys):
        doc = {
            "command": "oracle-check",
            "system": {
                "hamiltonian": [[0.8, [0.2, -0.1]], [[0.2, 0.1], -0.4]],
                "lindblad": {"form": "jordan", "c": 1.0, "lambda": [0.5, 0.3]},
            },
            "time_grid": {"t_start": 0.0, "t_end": 6.0, "points": 100},
        }
        job = write_job(tmp_path, doc)
        assert main(["--job", job, "--seed", "7"]) == EXIT_OK
        first = capsys.readouterr().out
        payload = json.loads(first)
        assert payload["max_deviation"] < 1e-6
        assert payload["states_checked"] == 5
        assert main(["--job", job, "--seed", "7"]) == EXIT_OK
        assert capsys.readouterr().out == first  # the seed fixes the drawn states


# One job per command that writes JSON.
JSON_JOBS = {
    "pointer": degenerate_jordan_job(),
    "spectrum": degenerate_jordan_job("spectrum"),
    "positivity": degenerate_jordan_job(
        "positivity", initial_state=[[0.9, [0.1, 0.05]], [[0.1, -0.05], 0.1]]
    ),
    "perturb": {
        "command": "perturb",
        "system": {
            "hamiltonian": [[1.0, 0.0], [0.0, 0.0]],
            "lindblad": {"form": "jordan", "c": 0.1, "lambda": [0.8, 0.3]},
        },
    },
    "uniton": degenerate_jordan_job("uniton"),
    "oracle-check": degenerate_jordan_job(
        "oracle-check",
        initial_state=[[0.0, 0.0], [0.0, 1.0]],
        time_grid={"t_start": 0.0, "t_end": 1.0, "points": 2},
    ),
}


class TestJsonOutput:
    @pytest.mark.parametrize("command", sorted(JSON_JOBS))
    def test_one_line_that_parses_to_the_payload(self, command, tmp_path, capsys):
        code, payload = run(JSON_JOBS[command])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.endswith("\n") and out.count("\n") == 1
        assert json.loads(out) == payload

        path = tmp_path / "out.json"
        job = write_job(tmp_path, JSON_JOBS[command])
        assert main(["--job", job, "--out", str(path)]) == EXIT_OK
        text = path.read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        assert json.loads(text) == payload

    @pytest.mark.parametrize("command", ["pointer", "spectrum", "perturb", "uniton"])
    def test_no_rng_or_time_grid_without_a_reader(self, command, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError(f"'{command}' reads neither random states nor a time grid")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(np, "linspace", refuse)
        assert run(JSON_JOBS[command], seed=1)[0] == EXIT_OK


class TestErrors:
    def test_json_parse_error_is_line_anchored(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "command": "pointer",\n  oops\n}')
        assert main(["--job", str(path)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "bad.json:3" in err

    def test_unknown_command(self, tmp_path, capsys):
        doc = degenerate_jordan_job(command="fly")
        assert main(["--job", write_job(tmp_path, doc)]) == EXIT_SCHEMA
        assert "$.command" in capsys.readouterr().err

    def test_missing_field_path_reported(self, tmp_path, capsys):
        doc = {"command": "pointer", "system": {"hamiltonian": [[0, 0], [0, 0]]}}
        assert main(["--job", write_job(tmp_path, doc)]) == EXIT_SCHEMA
        assert "$.system" in capsys.readouterr().err

    def test_bad_complex_entry(self, tmp_path, capsys):
        doc = degenerate_jordan_job()
        doc["system"]["hamiltonian"][0][0] = [1.0, 0.0, 0.0]
        assert main(["--job", write_job(tmp_path, doc)]) == EXIT_SCHEMA
        assert "hamiltonian" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid, field",
        [
            ({"t_end": "abc"}, "t_end"),
            ({"t_end": None}, "t_end"),
            ({"t_end": True}, "t_end"),
            ({"t_start": [0.0], "t_end": 5.0}, "t_start"),
            ({"t_end": 5.0, "points": "x"}, "points"),
            ({"t_end": 5.0, "points": 2.7}, "points"),
        ],
    )
    def test_malformed_time_grid(self, grid, field, tmp_path, capsys):
        doc = degenerate_jordan_job(time_grid=grid)
        assert main(["--job", write_job(tmp_path, doc)]) == EXIT_SCHEMA
        assert f"$.time_grid.{field}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "where, path",
        [
            (("hamiltonian", 0, 0), "$.system.hamiltonian[0][0]"),
            (("lindblad", "lambda1"), "$.system.lindblad.lambda1"),
            (("lindblad", "lambda2", 1), "$.system.lindblad.lambda2"),
            (("lindblad", "c"), "$.system.lindblad.c"),
        ],
    )
    def test_boolean_is_not_a_number(self, where, path, tmp_path, capsys):
        doc = degenerate_jordan_job()
        doc["system"]["lindblad"] = {
            "form": "diagonal", "c": 1.0, "lambda1": [0.4, 0.2], "lambda2": [0.1, 0.0]
        }
        *parents, key = where
        target = doc["system"]
        for name in parents:
            target = target[name]
        target[key] = True
        assert main(["--job", write_job(tmp_path, doc)]) == EXIT_SCHEMA
        assert path in capsys.readouterr().err

    def test_output_must_be_an_object(self, tmp_path, capsys):
        doc = degenerate_jordan_job(output="json")
        assert main(["--job", write_job(tmp_path, doc)]) == EXIT_SCHEMA
        assert "$.output:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, fmt", [("pointer", "xml"), ("pointer", "csv"), ("uniton", "csv")])
    def test_output_format_must_match_the_command(self, command, fmt, tmp_path, capsys):
        doc = degenerate_jordan_job(command=command, output={"format": fmt})
        assert main(["--job", write_job(tmp_path, doc)]) == EXIT_SCHEMA
        assert "$.output.format" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid, field",
        [
            ({"t_end": math.inf}, "t_end"),
            ({"t_end": math.nan}, "t_end"),
            ({"t_start": math.nan, "t_end": 5.0}, "t_start"),
            ({"t_end": 5.0, "points": math.inf}, "points"),
        ],
    )
    def test_non_finite_time_grid(self, grid, field, tmp_path, capsys):
        doc = degenerate_jordan_job(
            command="evolve", initial_state=[[0.5, 0.0], [0.0, 0.5]], time_grid=grid
        )
        assert main(["--job", write_job(tmp_path, doc)]) == EXIT_SCHEMA
        assert f"$.time_grid.{field}" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c", [1e-150, 1e-160, 1e-200])
    @pytest.mark.parametrize("command", ["pointer", "spectrum", "evolve"])
    def test_tiny_coupling_is_a_contract_violation(self, c, command, tmp_path, capsys):
        doc = degenerate_jordan_job(command=command, initial_state=[[0.5, 0.0], [0.0, 0.5]])
        doc["system"]["hamiltonian"] = [[0.3, [0.1, 0.2]], [[0.1, -0.2], -0.4]]
        doc["system"]["lindblad"]["c"] = c
        assert main(["--job", write_job(tmp_path, doc)]) == EXIT_CONTRACT
        assert "contract violation" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["pointer", "spectrum", "evolve", "positivity", "perturb", "uniton", "oracle-check"]
    )
    def test_subnormal_c_squared_ends_without_a_traceback(self, command, tmp_path, capsys):
        doc = degenerate_jordan_job(command=command, initial_state=[[0.5, 0.0], [0.0, 0.5]])
        doc["system"] = SUBNORMAL_C_SQUARED
        doc["time_grid"] = {"t_end": 1.0, "points": 3}
        code = main(["--job", write_job(tmp_path, doc)])
        assert code in (EXIT_OK, EXIT_CONTRACT)
        if command in ("spectrum", "evolve"):
            assert code == EXIT_CONTRACT
            assert "c^2 = 1e-320 is not a normal float" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["evolve", "positivity", "oracle-check"])
    def test_default_grid_refuses_a_subnormal_c_squared(self, command, tmp_path, capsys):
        # The default grid spans 10 / c^2: c^2 is checked before it is built.
        doc = degenerate_jordan_job(command=command, initial_state=[[0.5, 0.0], [0.0, 0.5]])
        doc["system"] = SUBNORMAL_C_SQUARED
        assert main(["--job", write_job(tmp_path, doc)]) == EXIT_CONTRACT
        assert "c^2 = 1e-320 is not a normal float" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["evolve", "positivity", "oracle-check"])
    def test_default_grid_refuses_a_span_beyond_the_float_range(self, command, tmp_path, capsys):
        # c^2 = 2.25e-308 is normal, but 10 / c^2 overflows.
        doc = degenerate_jordan_job(command=command, initial_state=[[0.5, 0.0], [0.0, 0.5]])
        doc["system"] = {**HUGE_CUBIC, "lindblad": {**HUGE_CUBIC["lindblad"], "c": 1.5e-154}}
        assert main(["--job", write_job(tmp_path, doc)]) == EXIT_CONTRACT
        assert "10 / c^2 = inf is not finite" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["evolve", "positivity", "oracle-check"])
    def test_rates_of_1e298_are_solved(self, command, tmp_path, capsys):
        # The Newton vectors (M - r1) d0 and (M - r2) (M - r1) d0 of rates of
        # 1e298 are carried over the power of two of c'^2 and its square, and
        # the RK4 oracle's powers of M over powers of dt: nothing overflows.
        # The state decays to the pointer at once: exp(-1e298 t) is 0.
        doc = degenerate_jordan_job(command=command, initial_state=[[0.5, 0.0], [0.0, 0.5]])
        doc["system"] = HUGE_CUBIC
        doc["time_grid"] = {"t_end": 1.0, "points": 3}
        assert main(["--job", write_job(tmp_path, doc)]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        if command == "evolve":
            rows = [list(map(float, row)) for row in list(csv.reader(io.StringIO(captured.out)))[1:]]
            ptr = compute_pointer(parse_system(HUGE_CUBIC)).rho
            assert rows[0][1:9] == [0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0]
            for row in rows[1:]:
                assert row[1] == ptr[0, 0].real and row[3:5] == [ptr[0, 1].real, ptr[0, 1].imag]
                assert row[7] == 1.0 - ptr[0, 0].real
        elif command == "positivity":
            # rho0 and the pointer are states, and so is every row in between.
            payload = json.loads(captured.out)
            assert payload["valid"] is True and payload["t_min"] == 0.0
        else:
            assert json.loads(captured.out)["max_deviation"] <= 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command, code", [("evolve", EXIT_OK), ("pointer", EXIT_OK), ("spectrum", EXIT_CONTRACT)])
    def test_a_cubic_rescale_beyond_the_float_range_is_only_reported(self, command, code, tmp_path, capsys):
        # c' / c is about 1e160, so (c' / c)^2, which only the reported cubic
        # reads, leaves the float range; c'^2 is about 1e300.
        doc = degenerate_jordan_job(command=command, initial_state=[[0.5, 0.0], [0.0, 0.5]])
        doc["system"] = {**HUGE_CUBIC, "lindblad": {"form": "general", "c": 1e-10, "l": [[1e160, 1e160], [0.0, 2e160]]}}
        doc["time_grid"] = {"t_end": 1.0, "points": 3}
        assert main(["--job", write_job(tmp_path, doc)]) == code
        err = capsys.readouterr().err
        assert err == "" if code == EXIT_OK else "the cubic in s = rate / c^2 leaves the float range" in err

    def test_oracle_check_refuses_a_nan_deviation(self, monkeypatch, tmp_path, capsys):
        # max(0.0, nan) is 0.0: a NaN oracle state must not read as agreement.
        def nan_states(spec, rho0, cfg):
            times = np.linspace(0.0, cfg.t_end, 3)
            return times, np.full((3, 2, 2), np.nan, dtype=complex)

        monkeypatch.setattr(oracle, "integrate", nan_states)
        assert main(["--job", write_job(tmp_path, JSON_JOBS["oracle-check"])]) == EXIT_CONTRACT
        captured = capsys.readouterr()
        assert "deviation from the RK4 oracle is nan" in captured.err and captured.out == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", sorted(JSON_JOBS))
    def test_no_command_prints_a_non_finite_number(self, command, tmp_path, capsys):
        def refuse(name):
            raise ValueError(f"non-finite number {name} in the output")

        doc = degenerate_jordan_job(command=command, initial_state=[[0.5, 0.0], [0.0, 0.5]])
        doc["system"] = HUGE_CUBIC
        doc["time_grid"] = {"t_end": 1.0, "points": 3}
        code = main(["--job", write_job(tmp_path, doc)])
        captured = capsys.readouterr()
        if command == "spectrum":
            assert code == EXIT_CONTRACT
            assert "leaves the float range" in captured.err
        assert code in (EXIT_OK, EXIT_CONTRACT)
        if code == EXIT_OK:
            json.loads(captured.out, parse_constant=refuse)
        else:
            assert captured.out == ""

    def test_missing_file(self, tmp_path):
        assert main(["--job", str(tmp_path / "nope.json")]) == EXIT_SCHEMA
