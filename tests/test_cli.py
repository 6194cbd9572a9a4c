"""End-to-end command-line checks through real subprocesses: exit codes,
JSON bodies, exact-fraction output, config-file handling, atomic writes.
The thread cap is checked in-process, where the loaded BLAS can be read, and
in fresh interpreters that also show which solver modules a run loads."""

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
    shift_pairing_reproduces_transverse_part dual_kernel_matches_constraint_count positive_semidefinite""".split()
PINNED_CHECK_NAMES = {
    ("2", "2", "open"): MAP_CHECKS + ["quadratic_form_equivalence", "canonical_pairing_identity"],
    ("2", "2", "periodic"): MAP_CHECKS
    + ["quadratic_form_equivalence", "canonical_pairing_identity_on_constraint_quotient"],
    ("3", "1", "periodic"): MAP_CHECKS[:3]
    + ["cube_flux_of_curl_vanishes"]
    + MAP_CHECKS[3:]
    + ["quadratic_form_equivalence"],
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


@pytest.mark.parametrize("key, value", [("cutoff", 7), ("global_cutoff", 9), ("formulation", "flux")])
def test_compare_refuses_the_keys_of_one_space(key, value, tmp_path, capsys):
    """`compare` takes no cutoff or formulation of its own, so those config
    keys exit 2 with one JSON line, where `build` reads them."""
    from dualqed import cli

    path = tmp_path / "run.json"
    path.write_text(json.dumps({key: value}))
    argv = ["--N", "1", "--bc", "open", "--config", str(path)]
    assert cli.main(["compare", *argv, "--ratio", "4", "--schedule", "1"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": "config", "message": f"unknown config key {key!r}"}
    assert cli.main(["build", *argv]) == 0


REQUIRED_FLAGS = {"shifts": ["--site", "0,0", "--direction", "0"], "dump-op": ["--name", "divergence"]}


def test_every_flag_is_a_config_key(tmp_path, monkeypatch):
    """Each subcommand takes every one of its flags' dests as a --config key;
    the value written is the one the flags already give (handlers stubbed)."""
    import argparse

    from dualqed import cli

    for name in dir(cli):
        if name.startswith("_cmd_"):
            monkeypatch.setattr(cli, name, lambda args: 0)
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command, p in sub.choices.items():
        argv = [command, "--N", "1", *REQUIRED_FLAGS.get(command, [])]
        defaults = vars(parser.parse_args(argv))
        for dest in (a.dest for a in p._actions if a.dest != "help"):
            path = tmp_path / f"{command}-{dest}.json"
            path.write_text(json.dumps({dest: str(path) if dest == "config" else defaults[dest]}))
            assert cli.main(argv + ["--config", str(path)]) == 0, (command, dest)


def _every_flag_argv(command: str, p) -> list[str]:
    """An argv of `command` that sets every one of its flags to a value that
    is not the default (a parse only: no handler runs)."""
    argv = [command]
    for action in p._actions:
        if not action.option_strings or action.dest == "help":
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:
            argv.append(flag)
        elif action.choices:
            argv += [flag, str(action.choices[-1])]
        else:
            argv += [flag, {int: "2", float: "0.5"}.get(action.type, f"{action.dest}-value")]
    return argv


def _parsed(parser, argv) -> dict:
    """vars() of a parse, the flags' Action objects read as comparable tuples."""
    out = vars(parser.parse_args(argv))
    out["flags"] = {d: (a.option_strings, a.type, a.default, a.required, a.choices) for d, a in out["flags"].items()}
    return out


def test_per_command_parser_parses_like_the_full_parser():
    """`build_parser(command)` registers that subcommand only, and parses its
    minimal argv and an argv setting every flag exactly as the full parser."""
    import argparse

    from dualqed import cli

    def subparsers(parser):
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return sub.choices

    full = cli.build_parser()
    assert list(subparsers(full)) == list(cli._COMMANDS)
    for command, p in subparsers(full).items():
        own = cli.build_parser(command)
        assert list(subparsers(own)) == [command]
        for argv in ([command, "--N", "1", *REQUIRED_FLAGS.get(command, [])], _every_flag_argv(command, p)):
            assert _parsed(own, argv) == _parsed(full, argv), argv


COMMAND_LIST = "'greens', 'shifts', 'dof', 'check-maps', 'build', 'spectrum', 'compare', 'verify-all', 'dump-op'"


@pytest.mark.parametrize(
    "argv,message",
    [
        ([], "the following arguments are required: command"),
        (["walrus"], f"argument command: invalid choice: 'walrus' (choose from {COMMAND_LIST})"),
        (["--N", "2", "dof"], f"argument command: invalid choice: '2' (choose from {COMMAND_LIST})"),
    ],
    ids=["no-command", "unknown-command", "flag-before-command"],
)
def test_argv_without_a_known_command_is_a_config_error(argv, message, capsys):
    """No known command first: the full parser reports it, exit 2."""
    from dualqed import cli

    assert cli.main(argv) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "config", "message": message}


@pytest.mark.parametrize("columns", ["40", "80", "200"])
def test_help_is_byte_identical_to_the_stock_formatter(columns, monkeypatch, capsys):
    """The parser reads the terminal width once per build.  ``dualqed --help``
    and every subcommand's help print exactly what argparse's stock
    HelpFormatter, which reads the width for every instance, prints."""
    import argparse

    from dualqed import cli

    monkeypatch.setenv("COLUMNS", columns)
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for argv, reference in [(["--help"], parser)] + [([name, "--help"], p) for name, p in sub.choices.items()]:
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 0
        reference.formatter_class = argparse.HelpFormatter
        assert capsys.readouterr().out == reference.format_help(), argv


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


def test_operator_the_lattice_lacks_is_a_config_error():
    proc = run_cli("dump-op", "--dim", 2, "--N", 2, "--bc", "open", "--name", "cube_flux")
    assert proc.returncode == 2
    assert stderr_error(proc) == {"error": "config", "message": "cube flux needs a 3D lattice"}


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


BAD_MODEL_VALUES = [
    ["--cutoff", "0"],
    ["--cutoff", "-1"],
    ["--formulation", "flux", "--global-cutoff", "0"],
    ["--matter", "truncated_boson", "--n-max", "0"],
    ["--g2", "0"],
    ["--g2", "-1"],
    ["--g2", "nan"],
    ["--g2", "inf"],
    ["--t", "nan"],
    ["--m", "-inf"],
    ["--static-charges", "nan,0,0,0"],
    ["--static-charges", "inf,-inf,0,0"],
]


@pytest.mark.parametrize("command", ["spectrum", "build"])
@pytest.mark.parametrize("bad", BAD_MODEL_VALUES, ids=lambda bad: "".join(bad[-2:]))
def test_bad_model_value_is_a_config_error(command, bad, capsys):
    """Cutoffs and occupation caps below one, a non-positive coupling and
    any non-finite coupling or static charge are configuration errors (exit
    2) before anything is built."""
    from dualqed import cli

    assert cli.main([command, "--dim", "2", "--N", "1", "--bc", "open"] + bad) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip().splitlines()[-1])["error"] == "config"


@pytest.mark.parametrize(
    "bad",
    [
        ["--g2", "nan"],
        ["--t", "inf"],
        ["--static-charges", "nan,0,0,0"],
        ["--tolerance", "nan"],
        ["--tolerance", "inf"],
        ["--tolerance", "0"],
    ],
)
def test_compare_rejects_non_finite_values(bad, capsys):
    from dualqed import cli

    # ratio 4 makes the base run valid (at ratio 1 the flux cell has fewer
    # than k states, itself a config error that would hide the one tested)
    argv = ["compare", "--dim", "2", "--N", "1", "--bc", "open", "--ratio", "4", "--schedule", "1"]
    assert cli.main(argv + bad) == 2
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "config"


# Config values read as integers that are not integers: each one ran at a
# truncated value (or failed with a bare TypeError) before it was refused.
NON_INTEGRAL_CONFIG = [
    (["dof"], {"dim": 2.5}),
    (["dof"], {"N": 2.7}),
    (["dof"], {"N": True}),
    (["shifts", "--site", "0,0", "--direction", "0"], {"direction": 1.9}),
    (["shifts", "--site", "0,0", "--direction", "0"], {"site": [0.5, 0]}),
    (["build", "--formulation", "electric"], {"cutoff": 1.5}),
    (["build", "--formulation", "flux"], {"global_cutoff": 1.5}),
    (["build", "--matter", "truncated_boson"], {"n_max": 1.5}),
    (["spectrum", "--formulation", "electric"], {"k": 2.9}),
    (["compare", "--schedule", "1"], {"ratio": 4.5}),
    (["compare", "--ratio", "4"], {"schedule": [2.5, 4]}),
    (["check-maps"], {"seed": 1.5}),
    (["dof"], {"threads": 1.5}),
]
# Config values of float flags that are no number (nor a string, as a flag's
# text is): each failed with a bare TypeError, or ran as 1.0 (a bool).  A
# value outside its flag's choices built the unmatched sector, and a switch
# given a truthy string ran switched on.
_COMPARE_BASE = ["compare", "--ratio", "4", "--schedule", "1"]
WRONG_TYPE_CONFIG = [
    (_COMPARE_BASE, {"tolerance": [1]}),
    (_COMPARE_BASE, {"tolerance": None}),
    (_COMPARE_BASE, {"g2": True}),
    (_COMPARE_BASE, {"t": {"a": 1}}),
    (["build", "--formulation", "flux"], {"sector": "bogus"}),
    (["greens"], {"exact": "no"}),
]


@pytest.mark.parametrize(
    "argv, config",
    [
        (["compare", "--schedule", "1,x"], None),
        (["compare", "--static-charges", "1,x"], None),
        (["spectrum", "--formulation", "electric"], {"cutoff": "two"}),
        (["shifts", "--site", "1,x", "--direction", "0"], None),
        (["shifts", "--site", "0,0", "--direction", "0"], {"direction": "x"}),
        (["shifts", "--site", "0,0", "--direction", "0"], {"site": [0, "x"]}),
    ]
    + NON_INTEGRAL_CONFIG
    + WRONG_TYPE_CONFIG,
    ids=[
        "schedule", "static-charges", "config-cutoff",
        "shifts-site", "shifts-config-direction", "shifts-config-site",
    ]
    + [f"{argv[0]}-config-{key}={json.dumps(v, separators=(',', ':'))}" for argv, c in NON_INTEGRAL_CONFIG + WRONG_TYPE_CONFIG for key, v in c.items()],
)
def test_malformed_number_is_a_config_error(argv, config, tmp_path, capsys, monkeypatch):
    """A number that does not parse, a config value read as an integer
    that is not one, a float flag's config value that is no number, or a
    config value outside its flag's choices or a switch's true/false,
    exits 2 like any bad setting: not 1 with a bare ValueError or
    TypeError, and not 0 after truncating or misreading it."""
    from dualqed import cli

    for var in cli._THREAD_VARS:  # restored after the test, whatever the command set
        monkeypatch.delenv(var, raising=False)
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    assert cli.main(argv + ["--dim", "2", "--N", "1", "--bc", "open"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err.strip().splitlines()[-1])
    assert err["error"] == "config"
    if config is not None:
        assert next(iter(config)) in err["message"]


@pytest.mark.parametrize("text", ["2", " 2\t", "+2", "-2", "1_000", "٣", "1__0", "_1", "1_", "", " ", "2.0", "0x10", "1e3"])
def test_integer_reads_a_string_as_int_does(text):
    """A config or environment string is an integer exactly when ``int``
    reads it in base 10, and then has int's value."""
    from dualqed import cli

    try:
        expected = int(text)
    except ValueError:
        with pytest.raises(cli.ConfigError, match="must be an integer"):
            cli._integer(text, "N")
    else:
        assert cli._integer(text, "N") == expected


def test_integral_float_config_value_matches_the_flag(tmp_path, capsys):
    from dualqed import cli

    path = tmp_path / "run.json"
    path.write_text(json.dumps({"N": 2.0}))
    assert cli.main(["dof", "--dim", "2", "--N", "1", "--bc", "open", "--config", str(path)]) == 0
    via_config = capsys.readouterr().out
    assert cli.main(["dof", "--dim", "2", "--N", "2", "--bc", "open"]) == 0
    assert capsys.readouterr().out == via_config


def test_schema_refuses_the_non_integral_config_values():
    """The run-config schema and the parser agree on what an integer is, and
    on what is no number."""
    jsonschema = pytest.importorskip("jsonschema")
    import pathlib

    schema_dir = pathlib.Path(__file__).resolve().parents[1] / "schemas"
    schema = json.loads((schema_dir / "run_config.schema.json").read_text())
    for _, config in NON_INTEGRAL_CONFIG + WRONG_TYPE_CONFIG:
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(config, schema)
    jsonschema.validate({"N": 2.0}, schema)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--N", "1", "--site", "1,1"], "no such link"),
        (["--N", "1", "--site", f"{2**70},0"], "no such link"),
        (["--N", "15", "--site", "0,0", "--exact"], "exact rational mode supports up to 200 cells, got 225"),
    ],
    ids=["missing-link", "link-past-int64", "exact-cap"],
)
def test_shifts_config_errors_name_their_cause(argv, message, capsys):
    """Only a missing link reads as one; the exact-size cap passes its own message."""
    from dualqed import cli

    assert cli.main(["shifts", "--dim", "2", "--bc", "open", "--direction", "0"] + argv) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert message in err["message"]


def test_exact_shifts_past_the_cap_refuse_as_greens_does(capsys):
    """D+ of the 2D open N=15 lattice has a row per plaquette, 225, past the
    exact cap: shifts --exact exits 2 with the message greens --exact gives
    for the plaq_obc table, which is that D+, before any Fraction
    elimination."""
    from dualqed import cli

    lattice = ["--dim", "2", "--N", "15", "--bc", "open"]
    errors = []
    for argv in (
        ["shifts", *lattice, "--site", "0,0", "--direction", "0", "--exact"],
        ["greens", *lattice, "--kind", "plaq_obc", "--exact"],
    ):
        assert cli.main(argv) == 2
        errors.append(json.loads(capsys.readouterr().err.strip().splitlines()[-1]))
    assert errors[0] == errors[1]
    assert "exact rational mode supports up to 200 cells, got 225" in errors[0]["message"]


_OPEN_3D_N15 = ["--dim", "3", "--N", "15", "--bc", "open"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-all", *_OPEN_3D_N15],
        ["check-maps", *_OPEN_3D_N15],
        ["shifts", *_OPEN_3D_N15, "--site", "1,1,1", "--direction", "0"],
    ],
    ids=lambda argv: argv[0],
)
def test_oversized_tables_are_refused_before_any_is_built(argv, monkeypatch, capsys):
    """3D open N=15 has 4,096 sites, at the site table's cap, and 10,800 D+
    rows, past it.  The command reads both counts off the lattice and exits 2
    with the refusal `greens.pseudo_inverse` gives, without building the site
    table first."""
    from dualqed import cli, greens, helmholtz

    def built(*args, **kwargs):
        raise AssertionError("a dense table was built")

    for module in (greens, helmholtz):
        monkeypatch.setattr(module, "greens_sites", built)
    monkeypatch.setattr(greens, "pseudo_inverse", built)
    assert cli.main(argv) == 2
    message = "dense Green's tables and D+ are capped at 4096 rows, got 10800; use a smaller --N"
    assert capsys.readouterr().err == json.dumps({"error": "config", "message": message}) + "\n"


# Every subcommand at the edge where a guard refuses, and on the accepting
# side where that runs in under a second.  Left out: 2D open N=63, whose
# 4,096-site tables are computed.  3D open N=15 refuses before any table is
# built (above).
_OPEN_2D = ["--dim", "2", "--bc", "open"]
REFUSAL_SWEEP = [
    (2, ["build", "--formulation", "flux", "--N", "9"]),  # product index
    (2, ["build", "--formulation", "flux", "--N", "10"]),  # 66-bit Smith moduli
    (2, ["build", "--formulation", "flux", "--N", "12"]),  # 92-bit Smith moduli
    (2, ["spectrum", "--formulation", "flux", "--N", "9"]),
    (2, ["spectrum", "--formulation", "flux", "--N", "10"]),
    (2, ["spectrum", "--formulation", "flux", "--N", "12"]),
    (0, ["build", "--formulation", "flux", "--N", "2"]),
    (2, ["verify-all", "--N", "64"]),  # dense site-table cap: 4,225 sites
    (2, ["check-maps", "--N", "64"]),
    (2, ["shifts", "--N", "64", "--site", "1,1", "--direction", "0"]),
    (2, ["greens", "--N", "64"]),
    (2, ["check-maps", "--dim", "3", "--N", "12", "--bc", "periodic"]),  # D+ cap: 5,187 rows
    (2, ["verify-all", "--dim", "3", "--N", "12", "--bc", "periodic"]),
    (2, ["greens", "--dim", "3", "--N", "2", "--kind", "plaq_obc"]),  # D+ is no true inverse in 3D
    (2, ["greens", "--dim", "3", "--N", "2", "--kind", "modified"]),
    (0, ["greens", "--N", "2", "--kind", "plaq_obc"]),
    (0, ["verify-all", "--N", "2"]),
    (0, ["check-maps", "--N", "2"]),
    (0, ["shifts", "--N", "2", "--site", "1,1", "--direction", "0"]),
    (0, ["greens", "--N", "2"]),
    (2, ["greens", "--N", "14", "--exact"]),  # exact cap: 225 sites
    (2, ["shifts", "--dim", "3", "--N", "4", "--site", "0,0,0", "--direction", "0", "--exact"]),  # 240 D+ rows
    (0, ["shifts", "--N", "2", "--site", "1,1", "--direction", "0", "--exact"]),
    (2, ["spectrum", "--N", "1", "--cutoff", "1", "--g2", "1e-300"]),  # squared residuals overflow
    (2, ["spectrum", "--N", "1", "--cutoff", "1", "--matter", "staggered_fermion", "--t", "1e300"]),
    (0, ["spectrum", "--N", "1", "--cutoff", "1", "--g2", "1e-100"]),
    (0, ["dof", "--N", "2"]),
    (2, ["dof", "--N", "0"]),
    (0, ["compare", "--N", "1", "--ratio", "4", "--schedule", "1,2"]),
    (2, ["compare", "--N", "1", "--ratio", "4", "--schedule", "0"]),
    # compare sets both formulations and their cutoffs itself: no flag of one space
    (2, ["compare", "--N", "1", "--matter", "staggered_fermion", "--ratio", "4", "--schedule", "1", "--cutoff", "7"]),
    (2, ["compare", "--N", "1", "--ratio", "4", "--schedule", "1", "--global-cutoff", "9"]),
    (2, ["compare", "--N", "1", "--ratio", "4", "--schedule", "1", "--formulation", "flux"]),
    (0, ["build", "--N", "1", "--bc", "periodic", "--cutoff", "1", "--global-cutoff", "2", "--formulation", "flux"]),
    (0, ["spectrum", "--N", "1", "--bc", "periodic", "--cutoff", "1", "--global-cutoff", "2", "--formulation", "flux"]),
    (0, ["dump-op", "--N", "2", "--name", "d_matrix"]),
    (2, ["dump-op", "--N", "2", "--name", "cube_flux"]),
]


@pytest.mark.parametrize("expected, argv", REFUSAL_SWEEP, ids=[" ".join(argv) for _, argv in REFUSAL_SWEEP])
def test_every_refusal_exits_two_with_one_json_line(expected, argv, capsys):
    """The exit-code contract at each guard's edge: no Python exception and
    no warning reaches the user.  A refusal exits 2 with one
    ``{"error": "config"}`` line on stderr, a success exits 0 with none."""
    import warnings

    from dualqed import cli

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(argv[:1] + _OPEN_2D + argv[1:])
    err = capsys.readouterr().err
    assert [str(w.message) for w in caught] == []
    assert rc == expected, err
    if rc == 0:
        assert err == ""
    else:
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == "config"


@pytest.mark.parametrize("target", ["missing/x.json", "sub"], ids=["missing-directory", "directory"])
def test_unwritable_out_is_a_refusal(target, tmp_path, capsys):
    """An --out that cannot be written exits 2 naming the path, and leaves
    no temp file behind."""
    from dualqed import cli

    (tmp_path / "sub").mkdir()
    out = str(tmp_path / target)
    assert cli.main(["dof", *_OPEN_2D, "--N", "1", "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    err = json.loads(line)
    assert err["error"] == "config" and out in err["message"]
    assert [p.name for p in tmp_path.iterdir()] == ["sub"]
    assert list((tmp_path / "sub").iterdir()) == []


def test_shifts_holds_no_link_by_link_array(capsys):
    """The reconstruction residual reads the Helmholtz split of one unit
    field: at 2D open N=40 (3,280 links) the command peaks below one
    n_links x n_links float array.  A dense transverse projector took it
    to 208 MiB; the largest allocation left is the site table's inverse."""
    import tracemalloc

    from dualqed import cli

    tracemalloc.start()
    try:
        rc = cli.main(["shifts", *_OPEN_2D, "--N", "40", "--site", "3,3", "--direction", "0"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["reconstruction_residual"] < 1e-9
    assert peak < 3280**2 * 8


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
        for _, setter in blas.values():
            setter(2)
        out = tmp_path / "lanczos.json"
        assert cli.main([*LANCZOS_SPECTRUM, "--threads", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["method"] == "iterative"
        assert {name: get() for name, (get, _) in blas.items()} == {"numpy": 1, "scipy": 1}
    finally:
        for name, (_, setter) in blas.items():
            setter(before[name])


# solver modules the package import leaves out; they load where a solver runs
LAZY_SOLVERS = ("scipy.sparse.linalg", "scipy.sparse.csgraph")
# the 2,443-state electric 2x2 open sector with fermions: connected, so Lanczos
LANCZOS_SPECTRUM = [
    "spectrum", "--dim", "2", "--N", "2", "--bc", "open",
    "--matter", "staggered_fermion", "--cutoff", "1",
]  # fmt: skip

_FRESH_PRELUDE = f"""
import json, os, sys
import numpy as np
import dualqed
from dualqed import cli

def solvers():
    return [name for name in {LAZY_SOLVERS!r} if name in sys.modules]

seen = {{"import": solvers()}}
"""


def _fresh_process(body: str) -> dict:
    """Run ``body`` in a new interpreter after the prelude and
    ``_bundled_openblas``; print and return its ``seen`` dict."""
    import inspect

    import dualqed

    src = os.path.dirname(os.path.dirname(dualqed.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    script = _FRESH_PRELUDE + inspect.getsource(_bundled_openblas) + body + "\nprint(json.dumps(seen))\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_package_import_and_dense_commands_load_no_sparse_solver(tmp_path):
    """``import dualqed``, ``dof``, ``verify-all`` and a dense ``spectrum``
    leave scipy's sparse solvers and graph routines unloaded."""
    runs = {
        "dof": ["dof", "--dim", "2", "--N", "2", "--bc", "open"],
        "verify-all": ["verify-all", "--dim", "2", "--N", "2", "--bc", "periodic"],
        "spectrum": ["spectrum", "--dim", "2", "--N", "2", "--bc", "periodic", "--cutoff", "2"],
    }
    body = f"""
for name, argv in {runs!r}.items():
    out = os.path.join({str(tmp_path)!r}, name + ".json")
    assert cli.main(argv + ["--out", out]) == 0, name
    seen[name] = solvers()
seen["method"] = json.load(open(out))["method"]
"""
    seen = _fresh_process(body)
    assert seen.pop("method") == "dense"
    assert seen == {"import": [], "dof": [], "verify-all": [], "spectrum": []}


def test_lanczos_loads_the_solver_under_the_cap(tmp_path):
    """A Lanczos-path ``spectrum`` imports ARPACK on first use, under the
    thread cap already set in scipy's OpenBLAS."""
    body = f"""
get, setter = _bundled_openblas().get("scipy", (lambda: None, lambda n: None))
setter(2)
out = os.path.join({str(tmp_path)!r}, "lanczos.json")
assert cli.main({LANCZOS_SPECTRUM!r} + ["--threads", "1", "--out", out]) == 0
seen["method"] = json.load(open(out))["method"]
seen["lanczos"] = solvers()
seen["threads"] = get()
"""
    seen = _fresh_process(body)
    assert seen["import"] == [] and seen["method"] == "iterative"
    assert "scipy.sparse.linalg" in seen["lanczos"]
    assert seen["threads"] in (None, 1)


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
    shift_schema = json.loads((schema_dir / "shift_table.schema.json").read_text())
    jsonschema.validate(json.loads(proc.stdout), shift_schema)
    proc = run_cli(
        "shifts", "--dim", 3, "--N", 2, "--bc", "open",
        "--site", "0,1,1", "--direction", 2, "--exact", check=True,
    )
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, shift_schema)
    assert all("normal" in e and "exact" in e for e in payload["shifts"])


def test_exact_spectrum_seeds_are_reproducible():
    args = (
        "spectrum", "--dim", 2, "--N", 1, "--bc", "open",
        "--formulation", "flux", "--cutoff", 4, "--matter", "staggered_fermion",
        "--g2", 1.3, "--t", 0.9, "--m", 0.4, "--k", 3, "--seed", 42,
    )
    a = run_cli(*args, check=True).stdout
    b = run_cli(*args, check=True).stdout
    assert a == b
