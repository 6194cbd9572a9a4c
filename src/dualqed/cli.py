"""Command-line interface: reproducible batch commands over the library.

Design rules: JSON reports, CSV matrices, atomic file writes (temp + rename),
exit 0 = success with all checks passing, exit 1 = a check failed, exit 2 =
a refusal.  `main` is the one place that decides which is which: bad flags
(`ConfigError`) and every refusal of the library (a ValueError, or a
`hilbert.MemoryGuardError`) exit 2; a failed check (`CheckFailure`) or an
eigenpair residual over its bound (`spectrum.ResidualError`) exits 1.
Errors are emitted as one-line JSON objects on stderr.
`--config file.json` overrides flags of the same name; unknown keys are
rejected.  `--threads` (or the DUALQED_THREADS environment variable) caps
BLAS/OpenMP parallelism.  The package import has already loaded numpy,
``scipy.sparse`` and ``scipy.linalg`` by the time flags are parsed, so the cap
is set at runtime in the OpenBLAS each of them bundles, and in the
environment for anything loaded later or run as a child process.  The sparse
solver (``scipy.sparse.linalg``, for Lanczos) loads on first use, after the
cap, and shares scipy's capped OpenBLAS.

The subcommands are one table, ``_COMMANDS``.  A run whose first argument
names a subcommand builds that subcommand's parser only; ``--help``, no
command and an unknown one get the parser of every subcommand, so their help
and error messages are argparse's own.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import shutil
import sys
import tempfile

from .hilbert import MemoryGuardError
from .spectrum import ResidualError

ENV_THREADS = "DUALQED_THREADS"
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# (package, setter of the thread count in the OpenBLAS the package bundles)
_BLAS_SETTERS = (("numpy", "scipy_openblas_set_num_threads64_"), ("scipy", "scipy_openblas_set_num_threads"))
# the strings int() reads in base 10: a signed run of decimal digits, single
# underscores between them, whitespace around (compiled on first use, by re's cache)
_DECIMAL = r"\s*[+-]?\d+(?:_\d+)*\s*"


class ConfigError(Exception):
    """Bad flags, bad config file, or inconsistent run settings (exit 2)."""


class CheckFailure(Exception):
    """A verification command found a failing check (exit 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # JSON error bodies instead of argparse's exit
        raise ConfigError(message)


def _apply_thread_cap(threads: int | None) -> None:
    if threads is None:
        env = os.environ.get(ENV_THREADS)
        if env is None:
            return
        threads = _integer(env, ENV_THREADS)
    if threads < 1:
        raise ConfigError("thread cap must be >= 1")
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)
    _cap_loaded_blas(threads)


def _cap_loaded_blas(threads: int) -> None:
    """Set the thread count of the OpenBLAS bundled by an already-loaded numpy / scipy."""
    import ctypes
    import glob

    for package, setter in _BLAS_SETTERS:
        module = sys.modules.get(package)
        if module is None:  # not loaded yet: the environment takes effect
            continue
        libs = os.path.join(os.path.dirname(os.path.dirname(module.__file__)), f"{package}.libs")
        for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
            fn = getattr(ctypes.CDLL(path), setter, None)
            if fn is not None:
                fn.argtypes = [ctypes.c_int]
                fn(threads)


def write_text(path: str | None, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".dualqed-", suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:  # a missing directory, a directory as the target, no permission: refused
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def emit_json(path: str | None, payload: dict) -> None:
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _integer(value, name: str) -> int:
    """``value`` as an int: ints, integral floats (as JSON Schema's ``integer``
    allows) and decimal strings (as ``int()`` reads them); bools, other floats
    and anything else are configuration errors."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str) and re.fullmatch(_DECIMAL, value):
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _load_config(args: argparse.Namespace, flags: dict[str, argparse.Action]) -> None:
    """Merge --config JSON over parsed flags; config wins; unknown keys fail.

    The keys are the dests of the subcommand's flags.  Values of ``type=int``
    flags go through `_integer`, except a null where the flag is optional
    and defaults to None; values of ``type=float`` flags must be a number or
    a string, as a flag's text is; a value must be among its flag's
    ``choices``, and a switch's (bool default) true or false."""
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    for key, value in data.items():
        flag = flags.get(key.replace("-", "_"))
        if flag is None:
            raise ConfigError(f"unknown config key {key!r}")
        if flag.type is int and not (value is None and flag.default is None and not flag.required):
            value = _integer(value, key)
        if flag.type is float and (isinstance(value, bool) or not isinstance(value, (int, float, str))):
            raise ConfigError(f"{key} must be a number, got {value!r}")
        if flag.choices is not None and value not in flag.choices:
            raise ConfigError(f"{key} must be one of {', '.join(map(repr, flag.choices))}; got {value!r}")
        if isinstance(flag.default, bool) and not isinstance(value, bool):
            raise ConfigError(f"{key} must be true or false, got {value!r}")
        setattr(args, flag.dest, value)


def _lattice(args):
    from .lattice import Lattice

    return Lattice(args.dim, args.N, args.bc)


def _model_params(args):
    from .hamiltonian import ModelParams

    q = None
    if getattr(args, "static_charges", None):
        raw = args.static_charges
        if isinstance(raw, str):
            raw = raw.split(",")
        try:  # config static_charges of the wrong JSON type: a number, or a list holding a list
            q = tuple(float(x) for x in raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc
    return ModelParams(g2=float(args.g2), t=float(args.t), m=float(args.m), static_charges=q)


def _integers(value, name: str) -> tuple[int, ...]:
    """A list, or a comma-separated string, of `_integer` entries."""
    if isinstance(value, str):
        value = value.split(",")
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list or a comma-separated string, got {value!r}")
    return tuple(_integer(v, f"{name} entry") for v in value)


def _parse_site(text, dim: int) -> tuple[int, ...]:
    parts = _integers(text, "site")
    if len(parts) != dim:
        raise ConfigError(f"site needs {dim} coordinates, got {len(parts)}")
    return parts


# --- subcommand handlers -----------------------------------------------------


def _cmd_greens(args) -> int:
    from . import greens

    lat = _lattice(args)
    table = greens.greens_table(lat, args.kind, exact=args.exact)
    n = table.values.shape[0]
    lines = [
        f"# greens kind={table.kind} dim={lat.dim} N={lat.N} bc={lat.bc}"
        f" normalization={table.normalization} shape={n}x{n}"
        f" exact={'yes' if args.exact else 'no'}",
        "row,col,value",
    ]
    for r in range(n):
        for c in range(n):
            if args.exact and table.exact is not None:
                lines.append(f"{r},{c},{table.exact[r, c]}")
            else:
                lines.append(f"{r},{c},{float(table.values[r, c])!r}")
    write_text(args.out, "\n".join(lines) + "\n")
    meta = {
        "kind": table.kind,
        "dim": lat.dim,
        "N": lat.N,
        "bc": lat.bc,
        "normalization": table.normalization,
        "shape": [n, n],
        "exact_mode": bool(args.exact),
        "cell_space": "plaquette" if table.kind == "plaq_obc" else "site",
    }
    if args.out not in (None, "-"):
        emit_json(args.out + ".meta.json", meta)
    return 0


def _cmd_shifts(args) -> int:
    from . import greens, helmholtz
    from .lattice import cell_coordinates, cell_index

    lat = _lattice(args)
    site = _parse_site(args.site, lat.dim)
    direction = args.direction
    if not 0 <= direction < lat.dim:
        raise ConfigError(f"direction must be in [0, {lat.dim})")
    try:
        cell_index(lat, "link", direction, site)
    except KeyError as exc:
        raise ConfigError(f"no such link: site={site} direction={direction}") from exc
    greens.refuse_oversized_tables(lat, dplus=not lat.periodic, exact=args.exact)  # a torus solves by site table only
    # The residual's split reads the site table.  Built before D+, its inverse
    # peaks with no other table held: at 2D open N=40, D+ first would cost 21 MB more.
    greens.greens_sites(lat)
    table = helmholtz.link_shift_table(lat, site, direction, exact=args.exact)
    normals, corners = cell_coordinates(lat, "plaquette")
    entries = []
    for idx, (normal, corner, value) in enumerate(zip(normals.tolist(), corners.T.tolist(), table.shifts)):
        entry = {"corner": corner, "value": float(value)}
        if lat.dim == 3:
            entry["normal"] = normal
        if table.exact_shifts is not None:
            entry["exact"] = str(table.exact_shifts[idx])
        entries.append(entry)
    globals_part = []
    if table.global_shifts is not None:
        for i, value in enumerate(table.global_shifts):
            entry = {"direction": i, "value": float(value)}
            if table.exact_global is not None:
                entry["exact"] = str(table.exact_global[i])
            globals_part.append(entry)
    residual = helmholtz.shift_reconstruction_residual(table)
    payload = {
        "dim": lat.dim,
        "N": lat.N,
        "bc": lat.bc,
        "site": list(site),
        "direction": direction,
        "link": table.link,
        "exact_mode": bool(args.exact),
        "shifts": entries,
        "global_shifts": globals_part,
        "reconstruction_residual": float(residual),
    }
    emit_json(args.out, payload)
    return 0


def _cmd_dof(args) -> int:
    from . import dualmap

    lat = _lattice(args)
    rep = dualmap.dof_report(lat)
    rep.pop("lattice", None)
    payload = {"physical_dof": rep["original_physical"], **rep}
    emit_json(args.out, payload)
    if not rep["match"]:
        raise CheckFailure("dual and original degree-of-freedom counts disagree")
    return 0


def _cmd_checks(args) -> int:
    from . import checks, greens

    lat = _lattice(args)
    greens.refuse_oversized_tables(lat)
    results = checks.run(lat, args.seed, maps_only=args.maps_only)
    payload = {
        "dim": lat.dim,
        "N": lat.N,
        "bc": lat.bc,
        "seed": args.seed,
        "checks": results,
        "all_passed": all(c["passed"] for c in results),
    }
    emit_json(args.out, payload)
    if not payload["all_passed"]:
        raise CheckFailure("linear-map identity checks failed" if args.maps_only else "invariant suite failed")
    return 0


def _hilbert_spec(args, lat):
    from . import hilbert

    gauge_kind = "links_E" if args.formulation == "electric" else "plaqs_M"
    return hilbert.HilbertSpec(
        lat,
        gauge_kind,
        cutoff=args.cutoff,
        matter=args.matter,
        n_max=args.n_max,
        global_cutoff=args.global_cutoff,
    )


def _cmd_build(args) -> int:
    from . import hilbert
    from . import spectrum as spx

    lat = _lattice(args)
    spec = _hilbert_spec(args, lat)
    basis, H, sector = spx.sector_hamiltonian(spec, _model_params(args), match_class=args.sector == "physical")
    payload = {
        "formulation": args.formulation,
        "dim": lat.dim,
        "N": lat.N,
        "bc": lat.bc,
        "matter": args.matter,
        "cutoff": args.cutoff,
        "sector": sector,
        "total_dim": spec.total_dim,
        "sector_dim": basis.dim,
        "nonzeros": int(H.nnz),
        "hermiticity_defect": float(hilbert.hermiticity_defect(H)),
    }
    emit_json(args.out, payload)
    return 0


def _cmd_spectrum(args) -> int:
    from . import spectrum as spx

    lat = _lattice(args)
    spec = _hilbert_spec(args, lat)
    _, H, sector = spx.sector_hamiltonian(spec, _model_params(args), match_class=args.sector == "physical")
    rep = spx.lowest_eigenvalues(H, args.k, seed=args.seed, sector=sector, cutoff=args.cutoff)
    payload = {
        "formulation": args.formulation,
        "dim": lat.dim,
        "N": lat.N,
        "bc": lat.bc,
        "matter": args.matter,
        "cutoff": args.cutoff,
        "seed": args.seed,
        **rep.as_dict(),
    }
    emit_json(args.out, payload)
    return 0


def _cmd_compare(args) -> int:
    from . import spectrum as spx

    lat = _lattice(args)
    schedule = _integers(args.schedule, "schedule")
    cfg = spx.CompareConfig(
        lattice=lat,
        params=_model_params(args),
        matter=args.matter,
        n_max=args.n_max,
        sector=args.sector,
        cutoff_ratio=args.ratio,
        tolerance=float(args.tolerance),
    )
    rep = spx.compare_formulations(cfg, k=args.k, schedule=schedule, seed=args.seed)
    emit_json(args.out, rep)
    if not rep["passed"]:
        raise CheckFailure(
            f"comparison exceeded tolerance: final max difference {rep['final_max_difference']:.3e}"
            f" > {cfg.tolerance:.3e}"
        )
    return 0


def _cmd_dump_op(args) -> int:
    from . import lattice as lx

    lat = _lattice(args)
    names = lx.operator_names()
    if args.name not in names:
        raise ConfigError(f"unknown operator {args.name!r}; choose from {sorted(names)}")
    write_text(args.out, lx.operator_map(lat, args.name).coo_csv())
    return 0


# --- argument wiring ---------------------------------------------------------

def _add_lattice_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=int, default=2, choices=(2, 3))
    p.add_argument("--N", type=int, required=True, help="plaquettes per side")
    p.add_argument("--bc", choices=("periodic", "open"), default="open")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output file ('-' or omitted: stdout)")
    p.add_argument("--config", default=None, help="JSON file overriding flags")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None, help="cap BLAS/OpenMP threads")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--matter", default="none", choices=("none", "staggered_fermion", "hardcore_boson", "truncated_boson"))
    p.add_argument("--n-max", dest="n_max", type=int, default=1)
    p.add_argument("--g2", type=float, default=1.0)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--m", type=float, default=0.0)
    p.add_argument("--static-charges", dest="static_charges", default=None, help="comma-separated per-site charges")
    p.add_argument("--sector", choices=("physical", "charge"), default="physical")


def _add_space_flags(p: argparse.ArgumentParser) -> None:
    """One formulation at one cutoff: `compare` runs both over its schedule instead."""
    p.add_argument("--cutoff", type=int, default=1)
    p.add_argument("--global-cutoff", dest="global_cutoff", type=int, default=None)
    p.add_argument("--formulation", default="electric", choices=("electric", "flux"))


def _add_greens_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--kind", choices=("site", "site_pbc", "site_obc", "modified", "plaq_obc"), default="site"
    )
    p.add_argument("--exact", action="store_true", help="exact rational entries")


def _add_shifts_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--site", required=True, help="comma-separated coordinates")
    p.add_argument("--direction", type=int, required=True)
    p.add_argument("--exact", action="store_true")


def _add_k_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=3)


def _add_compare_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--schedule", default="2,4,6,8", help="comma-separated cutoffs")
    p.add_argument("--ratio", type=int, default=1, help="flux cutoff per electric cutoff")
    p.add_argument("--tolerance", type=float, default=1e-4, help="pass threshold on final max difference")


def _add_name_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--name", required=True, help="operator name from the registry")


# name -> (help, flag adders after the lattice and common flags, handler, defaults).
# Handlers are named, and looked up when a parser is built, so a handler
# rebound on this module after import is the one a parse dispatches to.
_COMMANDS = {
    "greens": ("write a Green's-function table as CSV", (_add_greens_flags,), "_cmd_greens", {}),
    "shifts": ("shift table of one link (JSON)", (_add_shifts_flags,), "_cmd_shifts", {}),
    "dof": ("degree-of-freedom audit (JSON)", (), "_cmd_dof", {}),
    "check-maps": ("linear-map identity suite", (), "_cmd_checks", {"maps_only": True}),
    "build": ("build a Hamiltonian, report dimensions", (_add_model_flags, _add_space_flags), "_cmd_build", {}),
    "spectrum": (
        "lowest eigenvalues of one formulation",
        (_add_model_flags, _add_space_flags, _add_k_flag),
        "_cmd_spectrum",
        {},
    ),
    "compare": (
        "cross-formulation spectrum comparison",
        (_add_model_flags, _add_k_flag, _add_compare_flags),
        "_cmd_compare",
        {},
    ),
    "verify-all": ("full invariant suite for a geometry", (), "_cmd_checks", {"maps_only": False}),
    "dump-op": ("write one linear operator as COO CSV", (_add_name_flag,), "_cmd_dump_op", {}),
}


def build_parser(command: str | None = None) -> _Parser:
    """The ``dualqed`` parser with the subparser of `command` only, or of
    every subcommand when `command` is None."""
    # argparse makes a formatter for every argument it adds, and a stock
    # HelpFormatter reads the terminal size each time; read it once per build,
    # as HelpFormatter would (columns - 2), and share it with every subparser
    formatter = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = _Parser(prog="dualqed", description=__doc__.splitlines()[0], formatter_class=formatter)
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=functools.partial(_Parser, formatter_class=formatter)
    )
    for name in _COMMANDS if command is None else (command,):
        help_text, adders, handler, defaults = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for add in (_add_lattice_flags, _add_common_flags, *adders):
            add(p)
        # a subcommand's config keys are its flags' dests
        flags = {a.dest: a for a in p._actions if a.default is not argparse.SUPPRESS}
        p.set_defaults(handler=globals()[handler], flags=flags, **defaults)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        if argv is None:
            argv = sys.argv[1:]
        # a known command gets its own subparser only; anything else (no
        # command, --help, an unknown name) the full parser, for its messages
        parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
        args = parser.parse_args(argv)
        _load_config(args, args.flags)
        _apply_thread_cap(args.threads)
        return args.handler(args)
    except (ConfigError, ValueError, MemoryGuardError) as exc:
        sys.stderr.write(json.dumps({"error": "config", "message": str(exc)}) + "\n")
        return 2
    except (CheckFailure, ResidualError) as exc:
        sys.stderr.write(json.dumps({"error": "check_failure", "message": str(exc)}) + "\n")
        return 1
    except Exception as exc:  # last resort: keep the JSON-error contract
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
