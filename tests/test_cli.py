"""End-to-end command-line checks through real subprocesses: exit codes,
JSON bodies, exact-fraction output, config-file handling, atomic writes.
The thread cap is checked in-process, where the loaded BLAS can be read."""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

CLI = [shutil.which("dualqed")] if shutil.which("dualqed") else [sys.executable, "-m", "dualqed.cli"]


def run_cli(*args, env_extra=None, check=False):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        CLI + [str(a) for a in args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


def stderr_error(proc):
    """The one-line machine-readable error object on stderr."""
    line = proc.stderr.strip().splitlines()[-1]
    return json.loads(line)


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------


def test_dof_counts_on_the_periodic_3x3():
    proc = run_cli("dof", "--dim", 2, "--N", 3, "--bc", "periodic", check=True)
    payload = json.loads(proc.stdout)
    assert payload["physical_dof"] == 10  # N^2 + 1
    assert payload["match"] is True


def test_greens_exact_triplets_and_sidecar(tmp_path):
    out = tmp_path / "g.csv"
    run_cli(
        "greens", "--dim", 2, "--N", 3, "--bc", "periodic",
        "--kind", "site", "--exact", "--out", out, check=True,
    )
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# greens kind=site_pbc dim=2 N=3 bc=periodic")
    assert lines[1] == "row,col,value"
    body = dict()
    for ln in lines[2:]:
        r, c, v = ln.split(",")
        body[(int(r), int(c))] = v
    assert len(body) == 81
    assert Fraction(body[(0, 0)]) == Fraction(2, 9)
    # zero row sums for the pseudo-inverse normalization, exactly
    assert sum(Fraction(body[(0, c)]) for c in range(9)) == 0

    meta = json.loads((tmp_path / "g.csv.meta.json").read_text())
    assert meta["kind"] == "site_pbc" and meta["shape"] == [9, 9]
    assert meta["exact_mode"] is True and meta["cell_space"] == "site"


def test_greens_stdout_float_mode():
    proc = run_cli("greens", "--dim", 2, "--N", 2, "--bc", "open", "--kind", "site", check=True)
    lines = proc.stdout.splitlines()
    assert lines[1] == "row,col,value"
    r, c, v = lines[2].split(",")
    float(v)  # floats are written in full-precision repr form


def test_shift_table_exact_values(tmp_path):
    proc = run_cli(
        "shifts", "--dim", 2, "--N", 3, "--bc", "open",
        "--site", "1,1", "--direction", 0, "--exact", check=True,
    )
    payload = json.loads(proc.stdout)
    assert payload["global_shifts"] == []  # no windings on open boundaries
    assert payload["reconstruction_residual"] <= 1e-12
    by_corner = {tuple(e["corner"]): e["exact"] for e in payload["shifts"]}
    assert by_corner[(1, 1)] == "1/4"
    assert by_corner[(1, 0)] == "-23/112"
    assert abs(Fraction(by_corner[(0, 2)])) == Fraction(1, 28)
    for e in payload["shifts"]:
        assert abs(float(Fraction(e["exact"])) - e["value"]) <= 1e-12


@pytest.mark.parametrize(
    "dims",
    [("--dim", 2, "--N", 2, "--bc", "open"), ("--dim", 3, "--N", 1, "--bc", "periodic")],
)
def test_check_maps_passes(dims):
    proc = run_cli("check-maps", *dims, check=True)
    payload = json.loads(proc.stdout)
    assert payload["all_passed"] is True
    assert all(c["passed"] for c in payload["checks"])
    assert len(payload["checks"]) >= 9


def test_build_reports_shape_without_diagonalizing():
    proc = run_cli(
        "build", "--dim", 2, "--N", 1, "--bc", "open",
        "--formulation", "electric", "--cutoff", 1, "--matter", "none", check=True,
    )
    payload = json.loads(proc.stdout)
    assert payload["hermiticity_defect"] <= 1e-12
    assert payload["nonzeros"] > 0
    assert payload["sector_dim"] == 3


def test_spectrum_matches_hand_values():
    proc = run_cli(
        "spectrum", "--dim", 2, "--N", 1, "--bc", "open",
        "--formulation", "electric", "--cutoff", 1, "--matter", "none",
        "--g2", 1.0, "--t", 0.0, "--k", 3, check=True,
    )
    payload = json.loads(proc.stdout)
    hand = np.array([[2.0, -0.5, 0.0], [-0.5, 0.0, -0.5], [0.0, -0.5, 2.0]])
    expected = np.linalg.eigvalsh(hand)
    got = np.array(payload["eigenvalues"])
    assert np.abs(got - expected).max() <= 1e-10
    assert payload["sector"] == "gauss"


def test_electric_spectrum_on_single_plaquette_torus():
    """The 1x1 periodic curl row is all explicit zeros: a constant loop term."""
    proc = run_cli(
        "spectrum", "--dim", 2, "--N", 1, "--bc", "periodic",
        "--formulation", "electric", "--cutoff", 1,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["dimension"] == 9


def test_compare_matched_windows_passes(tmp_path):
    out = tmp_path / "cmp.json"
    run_cli(
        "compare", "--dim", 2, "--N", 1, "--bc", "open",
        "--matter", "staggered_fermion", "--g2", 1.3, "--t", 0.9, "--m", 0.4,
        "--ratio", 4, "--schedule", "1,2", "--k", 2, "--out", out, check=True,
    )
    rep = json.loads(out.read_text())
    assert rep["passed"] is True
    assert rep["final_max_difference"] <= 1e-12


def test_compare_failure_exits_one_but_still_writes_report(tmp_path):
    out = tmp_path / "cmp.json"
    proc = run_cli(
        "compare", "--dim", 2, "--N", 1, "--bc", "open",
        "--matter", "staggered_fermion", "--g2", 1.0, "--t", 0.9, "--m", 0.4,
        "--ratio", 1, "--schedule", "2", "--k", 2,
        "--tolerance", "1e-15", "--out", out,
    )
    assert proc.returncode == 1
    assert stderr_error(proc)["error"] == "check_failure"
    rep = json.loads(out.read_text())
    assert rep["passed"] is False


def test_verify_all_green():
    proc = run_cli("verify-all", "--dim", 2, "--N", 2, "--bc", "open", check=True)
    payload = json.loads(proc.stdout)
    assert payload["all_passed"] is True
    assert len(payload["checks"]) >= 14


MAP_CHECKS = """divergence_is_minus_gradient_transpose backward_curl_is_forward_transpose
    curl_of_gradient_vanishes helmholtz_round_trip transverse_is_divergence_free longitudinal_is_curl_free
    interaction_matrix_symmetric""".split()
INVARIANT_CHECKS = """greens_site_inverts_laplacian_on_zero_sum transverse_reconstruction_from_potential
    shift_pairing_reproduces_transverse_part dual_kernel_matches_constraint_count positive_semidefinite
    energy_form_kernel_dimension""".split()
PINNED_CHECK_NAMES = {
    ("2", "2", "open"): MAP_CHECKS + ["quadratic_form_equivalence", "canonical_pairing_identity"],
    ("2", "2", "periodic"): MAP_CHECKS
    + ["quadratic_form_equivalence", "canonical_pairing_identity_on_constraint_quotient"],
    ("3", "1", "periodic"): MAP_CHECKS[:3] + ["cube_flux_of_curl_vanishes"] + MAP_CHECKS[3:],
}


@pytest.mark.parametrize("geometry", list(PINNED_CHECK_NAMES), ids="-".join)
def test_check_names_and_tolerances_are_pinned(geometry, tmp_path):
    """The ordered check names are an output contract; every tolerance is the
    registry's constant, whatever the sample."""
    from dualqed import checks, cli

    dim, n, bc = geometry
    maps = PINNED_CHECK_NAMES[geometry] + ["degree_of_freedom_match"]
    for command, want in (("check-maps", maps), ("verify-all", maps + INVARIANT_CHECKS)):
        out = tmp_path / f"{command}.json"
        assert cli.main([command, "--dim", dim, "--N", n, "--bc", bc, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert [c["name"] for c in report["checks"]] == want
        assert all(c["tolerance"] == checks.get(c["name"]).tol for c in report["checks"])
        assert report["all_passed"] is True


@pytest.mark.parametrize("command", ["check-maps", "verify-all"])
def test_failing_check_exits_one_and_is_reported(command, tmp_path, monkeypatch, capsys):
    import dataclasses

    from dualqed import checks, cli

    entry = checks.get("interaction_matrix_symmetric")
    broken = dataclasses.replace(entry, fn=lambda lat, rng: entry.tol + 1.0)
    monkeypatch.setattr(checks, "CHECKS", tuple(broken if c is entry else c for c in checks.CHECKS))
    out = tmp_path / "report.json"
    assert cli.main([command, "--dim", "2", "--N", "2", "--bc", "open", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["all_passed"] is False
    assert [c["name"] for c in report["checks"] if not c["passed"]] == ["interaction_matrix_symmetric"]
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "check_failure"


def test_dump_op_golden_header_and_rows():
    proc = run_cli("dump-op", "--dim", 2, "--N", 1, "--bc", "open", "--name", "divergence", check=True)
    lines = proc.stdout.splitlines()
    assert lines[0] == "# operator=divergence dim=2 N=1 bc=open shape=4x4 domain=link codomain=site"
    assert lines[1] == "row,col,value"
    assert lines[2] == "0,0,1"
    assert "1,2,-1" in lines


# ---------------------------------------------------------------------------
# configuration and failure modes
# ---------------------------------------------------------------------------


def test_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"N": 3, "bc": "periodic"}))
    proc = run_cli("dof", "--dim", 2, "--N", 1, "--bc", "open", "--config", cfg, check=True)
    payload = json.loads(proc.stdout)
    assert payload["physical_dof"] == 10


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"N": 2, "walrus": 1}))
    proc = run_cli("dof", "--dim", 2, "--N", 1, "--bc", "open", "--config", cfg)
    assert proc.returncode == 2
    err = stderr_error(proc)
    assert err["error"] == "config"
    assert "walrus" in err["message"]


def test_bad_flag_value_is_a_config_error():
    proc = run_cli("dof", "--dim", 2, "--N", "many", "--bc", "open")
    assert proc.returncode == 2
    assert stderr_error(proc)["error"] == "config"


def test_bad_k_is_a_config_error():
    proc = run_cli(
        "spectrum", "--dim", 2, "--N", 1, "--bc", "open",
        "--formulation", "electric", "--cutoff", 1, "--k", 0,
    )
    assert proc.returncode == 2


def test_unknown_operator_name_is_a_config_error():
    proc = run_cli("dump-op", "--dim", 2, "--N", 1, "--bc", "open", "--name", "nonsense")
    assert proc.returncode == 2
    assert "nonsense" in stderr_error(proc)["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--formulation", "electric"],
        ["spectrum", "--formulation", "flux"],
        ["build", "--formulation", "electric"],
        ["compare", "--ratio", "4", "--schedule", "1,2"],
    ],
    ids=lambda argv: "-".join(argv[:3]),
)
def test_refused_space_is_a_config_error(argv, monkeypatch, capsys):
    """A sector the memory guard refuses is a configuration error (exit 2)
    in every command that builds one, `compare` included."""
    import dataclasses

    from dualqed import cli, hilbert

    build = hilbert.sector_basis
    monkeypatch.setattr(hilbert, "sector_basis", lambda spec, *rest: build(dataclasses.replace(spec, max_dim=50), *rest))
    lattice = ["--dim", "2", "--N", "1", "--bc", "open", "--matter", "staggered_fermion"]
    assert cli.main(argv + lattice) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert "guard" in err["message"]


def test_bad_thread_env_is_a_config_error():
    proc = run_cli(
        "dof", "--dim", 2, "--N", 2, "--bc", "open",
        env_extra={"DUALQED_THREADS": "lots"},
    )
    assert proc.returncode == 2


def test_thread_flag_accepted():
    run_cli("dof", "--dim", 2, "--N", 2, "--bc", "open", "--threads", 1, check=True)


def _bundled_openblas():
    """{package: (get, set)} thread-count functions of the OpenBLAS numpy / scipy bundle."""
    import ctypes
    import glob

    import scipy

    found = {}
    for module, suffix in ((np, "64_"), (scipy, "")):
        libs = os.path.join(os.path.dirname(os.path.dirname(module.__file__)), f"{module.__name__}.libs")
        for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
            lib = ctypes.CDLL(path)
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            get.restype = ctypes.c_int
            setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            setter.argtypes = [ctypes.c_int]
            found[module.__name__] = (get, setter)
    return found


def test_thread_cap_reaches_the_loaded_openblas(tmp_path, monkeypatch):
    """numpy and scipy are loaded before flags are parsed, so the cap must
    reach their OpenBLAS at runtime, from the flag and from the variable."""
    import dualqed.cli as cli

    blas = _bundled_openblas()
    if sorted(blas) != ["numpy", "scipy"]:
        pytest.skip("numpy and scipy do not bundle OpenBLAS here")
    for var in (*cli._THREAD_VARS, cli.ENV_THREADS):
        monkeypatch.delenv(var, raising=False)
    before = {name: get() for name, (get, _) in blas.items()}
    argv = ["dof", "--dim", "2", "--N", "2", "--bc", "open", "--out", str(tmp_path / "dof.json")]
    try:
        assert cli.main(argv + ["--threads", "1"]) == 0
        assert {name: get() for name, (get, _) in blas.items()} == {"numpy": 1, "scipy": 1}
        for _, setter in blas.values():
            setter(2)
        monkeypatch.setenv(cli.ENV_THREADS, "1")
        assert cli.main(argv) == 0
        assert {name: get() for name, (get, _) in blas.items()} == {"numpy": 1, "scipy": 1}
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"  # for child processes
    finally:
        for name, (_, setter) in blas.items():
            setter(before[name])


def test_writes_are_atomic_no_temp_litter(tmp_path):
    out = tmp_path / "g.csv"
    run_cli(
        "greens", "--dim", 2, "--N", 2, "--bc", "periodic",
        "--kind", "site", "--out", out, check=True,
    )
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["g.csv", "g.csv.meta.json"]


def test_reports_validate_against_bundled_schemas(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    import pathlib

    schema_dir = pathlib.Path(__file__).resolve().parents[1] / "schemas"

    proc = run_cli("dof", "--dim", 2, "--N", 2, "--bc", "periodic", check=True)
    jsonschema.validate(
        json.loads(proc.stdout), json.loads((schema_dir / "dof_report.schema.json").read_text())
    )
    for command in ("check-maps", "verify-all"):
        proc = run_cli(command, "--dim", 2, "--N", 2, "--bc", "open", check=True)
        jsonschema.validate(
            json.loads(proc.stdout), json.loads((schema_dir / "check_report.schema.json").read_text())
        )
    proc = run_cli(
        "shifts", "--dim", 2, "--N", 2, "--bc", "periodic",
        "--site", "0,0", "--direction", 1, check=True,
    )
    jsonschema.validate(
        json.loads(proc.stdout), json.loads((schema_dir / "shift_table.schema.json").read_text())
    )


def test_exact_spectrum_seeds_are_reproducible():
    args = (
        "spectrum", "--dim", 2, "--N", 1, "--bc", "open",
        "--formulation", "flux", "--cutoff", 4, "--matter", "staggered_fermion",
        "--g2", 1.3, "--t", 0.9, "--m", 0.4, "--k", 3, "--seed", 42,
    )
    a = run_cli(*args, check=True).stdout
    b = run_cli(*args, check=True).stdout
    assert a == b
