"""Command-line interface: reproducible batch commands over the library.

Design rules: JSON reports, CSV matrices, atomic file writes (temp + rename),
exit 0 = success with all checks passing, exit 1 = a check failed, exit 2 =
configuration error.  Errors are emitted as one-line JSON objects on stderr.
`--config file.json` overrides flags of the same name; unknown keys are
rejected.  `--threads` (or the DUALQED_THREADS environment variable) caps
BLAS/OpenMP parallelism.  The package import has already loaded numpy and
scipy by the time flags are parsed, so the cap is set at runtime in the
OpenBLAS each of them bundles, and in the environment for anything loaded
later or run as a child process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

ENV_THREADS = "DUALQED_THREADS"
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# (package, setter of the thread count in the OpenBLAS the package bundles)
_BLAS_SETTERS = (("numpy", "scipy_openblas_set_num_threads64_"), ("scipy", "scipy_openblas_set_num_threads"))


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
        try:
            threads = int(env)
        except ValueError as exc:
            raise ConfigError(f"{ENV_THREADS} must be an integer, got {env!r}") from exc
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


def _write_text(path: str | None, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".dualqed-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_json(path: str | None, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_config(args: argparse.Namespace, allowed: set[str]) -> None:
    """Merge --config JSON over parsed flags; config wins; unknown keys fail."""
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
        attr = key.replace("-", "_")
        if attr not in allowed:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(args, attr, value)


def _lattice(args):
    from .lattice import Lattice

    try:
        return Lattice(int(args.dim), int(args.N), args.bc)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _model_params(args):
    from .hamiltonian import ModelParams

    q = None
    if getattr(args, "static_charges", None):
        raw = args.static_charges
        if isinstance(raw, str):
            raw = [float(x) for x in raw.split(",")]
        q = tuple(float(x) for x in raw)
    try:
        return ModelParams(g2=float(args.g2), t=float(args.t), m=float(args.m), static_charges=q)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_site(text, dim: int) -> tuple[int, ...]:
    if isinstance(text, (list, tuple)):
        parts = [int(v) for v in text]
    else:
        parts = [int(p) for p in str(text).split(",")]
    if len(parts) != dim:
        raise ConfigError(f"site needs {dim} coordinates, got {len(parts)}")
    return tuple(parts)


# --- subcommand handlers -----------------------------------------------------


def _cmd_greens(args) -> int:
    from . import greens

    lat = _lattice(args)
    try:
        table = greens.greens_table(lat, args.kind, exact=args.exact)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
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
                lines.append(f"{r},{c},{table.exact[r][c]}")
            else:
                lines.append(f"{r},{c},{float(table.values[r, c])!r}")
    _write_text(args.out, "\n".join(lines) + "\n")
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
        _emit_json(args.out + ".meta.json", meta)
    return 0


def _cmd_shifts(args) -> int:
    from . import helmholtz
    from .lattice import plaquettes

    lat = _lattice(args)
    site = _parse_site(args.site, lat.dim)
    direction = int(args.direction)
    if not 0 <= direction < lat.dim:
        raise ConfigError(f"direction must be in [0, {lat.dim})")
    try:
        table = helmholtz.link_shift_table(lat, site, direction, exact=args.exact)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"no such link: site={site} direction={direction}") from exc
    plaqs = plaquettes(lat)
    entries = []
    for idx, value in enumerate(table.shifts):
        if lat.dim == 2:
            label = {"corner": list(plaqs[idx])}
        else:
            corner, normal = plaqs[idx]
            label = {"corner": list(corner), "normal": normal}
        entry = {**label, "value": float(value)}
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
    _emit_json(args.out, payload)
    return 0


def _cmd_dof(args) -> int:
    from . import dualmap

    lat = _lattice(args)
    rep = dualmap.dof_report(lat)
    rep.pop("lattice", None)
    payload = {"physical_dof": rep["original_physical"], **rep}
    _emit_json(args.out, payload)
    if not rep["match"]:
        raise CheckFailure("dual and original degree-of-freedom counts disagree")
    return 0


def _cmd_checks(args) -> int:
    from . import checks

    lat = _lattice(args)
    results = checks.run(lat, args.seed, maps_only=args.maps_only)
    payload = {
        "dim": lat.dim,
        "N": lat.N,
        "bc": lat.bc,
        "seed": args.seed,
        "checks": results,
        "all_passed": all(c["passed"] for c in results),
    }
    _emit_json(args.out, payload)
    if not payload["all_passed"]:
        raise CheckFailure("linear-map identity checks failed" if args.maps_only else "invariant suite failed")
    return 0


def _hilbert_spec(args, lat):
    from . import hilbert

    formulation = args.formulation
    if formulation not in ("electric", "flux"):
        raise ConfigError("formulation must be 'electric' or 'flux'")
    gauge_kind = "links_E" if formulation == "electric" else "plaqs_M"
    cutoff = int(args.cutoff)
    global_cutoff = int(args.global_cutoff) if args.global_cutoff is not None else None
    try:
        return hilbert.HilbertSpec(
            lat,
            gauge_kind,
            cutoff=cutoff,
            matter=args.matter,
            n_max=int(args.n_max),
            global_cutoff=global_cutoff,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _sector_and_operator(args, lat, spec):
    import numpy as np

    from . import hilbert
    from . import spectrum as spx
    from .hamiltonian import h_dual_thetam, h_original

    params = _model_params(args)
    try:
        q = np.asarray(params.charges(lat), dtype=float) if params.static_charges else None
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    match = args.sector == "physical"
    try:
        if spec.gauge_kind == "links_E":
            basis = spx.electric_sector_basis(spec, q)
        else:
            basis = spx.flux_sector_basis(spec, q, match_class=match)
    except hilbert.MemoryGuardError as exc:
        raise ConfigError(str(exc)) from exc
    if spec.gauge_kind == "links_E":
        return basis, h_original(spec, params, basis=basis), "gauss"
    return basis, h_dual_thetam(spec, params, basis=basis), "neutral+class" if match else "neutral"


def _cmd_build(args) -> int:
    from . import hilbert

    lat = _lattice(args)
    spec = _hilbert_spec(args, lat)
    basis, H, sector = _sector_and_operator(args, lat, spec)
    payload = {
        "formulation": args.formulation,
        "dim": lat.dim,
        "N": lat.N,
        "bc": lat.bc,
        "matter": args.matter,
        "cutoff": int(args.cutoff),
        "sector": sector,
        "total_dim": spec.total_dim,
        "sector_dim": basis.dim,
        "nonzeros": int(H.nnz),
        "hermiticity_defect": float(hilbert.hermiticity_defect(H)),
    }
    _emit_json(args.out, payload)
    return 0


def _cmd_spectrum(args) -> int:
    from . import spectrum as spx

    lat = _lattice(args)
    spec = _hilbert_spec(args, lat)
    _, H, sector = _sector_and_operator(args, lat, spec)
    try:
        rep = spx.lowest_eigenvalues(H, int(args.k), seed=args.seed, sector=sector, cutoff=int(args.cutoff))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except spx.ResidualError as exc:
        raise CheckFailure(str(exc)) from exc
    payload = {
        "formulation": args.formulation,
        "dim": lat.dim,
        "N": lat.N,
        "bc": lat.bc,
        "matter": args.matter,
        "cutoff": int(args.cutoff),
        "seed": args.seed,
        **rep.as_dict(),
    }
    _emit_json(args.out, payload)
    return 0


def _cmd_compare(args) -> int:
    from . import hilbert
    from . import spectrum as spx

    lat = _lattice(args)
    params = _model_params(args)
    schedule = args.schedule
    if isinstance(schedule, str):
        schedule = [int(x) for x in schedule.split(",")]
    try:
        cfg = spx.CompareConfig(
            lattice=lat,
            params=params,
            matter=args.matter,
            n_max=int(args.n_max),
            sector=args.sector,
            cutoff_ratio=int(args.ratio),
            static_charges=params.static_charges,
            tolerance=float(args.tolerance),
        )
        rep = spx.compare_formulations(cfg, k=int(args.k), schedule=tuple(schedule), seed=args.seed)
    except (ValueError, hilbert.MemoryGuardError) as exc:
        raise ConfigError(str(exc)) from exc
    except spx.ResidualError as exc:
        raise CheckFailure(str(exc)) from exc
    _emit_json(args.out, rep)
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
    op = lx.operator_map(lat, args.name)
    target = os.path.abspath(args.out) if args.out not in (None, "-") else None
    directory = os.path.dirname(target) if target else tempfile.gettempdir()
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".dualqed-", suffix=".tmp")
    os.close(fd)
    try:
        op.to_coo_csv(tmp)
        if target is None:
            with open(tmp) as fh:
                sys.stdout.write(fh.read())
            os.unlink(tmp)
        else:
            os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return 0


# --- argument wiring ---------------------------------------------------------

_LATTICE_KEYS = {"dim", "N", "bc"}
_MODEL_KEYS = {"matter", "cutoff", "global_cutoff", "n_max", "g2", "t", "m", "static_charges", "formulation"}


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
    p.add_argument("--cutoff", type=int, default=1)
    p.add_argument("--global-cutoff", dest="global_cutoff", type=int, default=None)
    p.add_argument("--n-max", dest="n_max", type=int, default=1)
    p.add_argument("--g2", type=float, default=1.0)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--m", type=float, default=0.0)
    p.add_argument("--static-charges", dest="static_charges", default=None, help="comma-separated per-site charges")
    p.add_argument("--formulation", default="electric", choices=("electric", "flux"))


def build_parser() -> _Parser:
    parser = _Parser(prog="dualqed", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("greens", help="write a Green's-function table as CSV")
    _add_lattice_flags(p)
    _add_common_flags(p)
    p.add_argument(
        "--kind", choices=("site", "site_pbc", "site_obc", "modified", "plaq_obc"), default="site"
    )
    p.add_argument("--exact", action="store_true", help="exact rational entries")
    p.set_defaults(handler=_cmd_greens, keys=_LATTICE_KEYS | {"kind", "exact", "out", "seed"})

    p = sub.add_parser("shifts", help="shift table of one link (JSON)")
    _add_lattice_flags(p)
    _add_common_flags(p)
    p.add_argument("--site", required=True, help="comma-separated coordinates")
    p.add_argument("--direction", type=int, required=True)
    p.add_argument("--exact", action="store_true")
    p.set_defaults(handler=_cmd_shifts, keys=_LATTICE_KEYS | {"site", "direction", "exact", "out", "seed"})

    p = sub.add_parser("dof", help="degree-of-freedom audit (JSON)")
    _add_lattice_flags(p)
    _add_common_flags(p)
    p.set_defaults(handler=_cmd_dof, keys=_LATTICE_KEYS | {"out"})

    p = sub.add_parser("check-maps", help="linear-map identity suite")
    _add_lattice_flags(p)
    _add_common_flags(p)
    p.set_defaults(handler=_cmd_checks, maps_only=True, keys=_LATTICE_KEYS | {"out", "seed"})

    p = sub.add_parser("build", help="build a Hamiltonian, report dimensions")
    _add_lattice_flags(p)
    _add_common_flags(p)
    _add_model_flags(p)
    p.add_argument("--sector", choices=("physical", "charge"), default="physical")
    p.set_defaults(handler=_cmd_build, keys=_LATTICE_KEYS | _MODEL_KEYS | {"sector", "out"})

    p = sub.add_parser("spectrum", help="lowest eigenvalues of one formulation")
    _add_lattice_flags(p)
    _add_common_flags(p)
    _add_model_flags(p)
    p.add_argument("--sector", choices=("physical", "charge"), default="physical")
    p.add_argument("--k", type=int, default=3)
    p.set_defaults(handler=_cmd_spectrum, keys=_LATTICE_KEYS | _MODEL_KEYS | {"sector", "k", "out", "seed"})

    p = sub.add_parser("compare", help="cross-formulation spectrum comparison")
    _add_lattice_flags(p)
    _add_common_flags(p)
    _add_model_flags(p)
    p.add_argument("--sector", choices=("physical", "charge"), default="physical")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--schedule", default="2,4,6,8", help="comma-separated cutoffs")
    p.add_argument("--ratio", type=int, default=1, help="flux cutoff per electric cutoff")
    p.add_argument("--tolerance", type=float, default=1e-4, help="pass threshold on final max difference")
    p.set_defaults(
        handler=_cmd_compare,
        keys=_LATTICE_KEYS | _MODEL_KEYS | {"sector", "k", "schedule", "ratio", "tolerance", "out", "seed"},
    )

    p = sub.add_parser("verify-all", help="full invariant suite for a geometry")
    _add_lattice_flags(p)
    _add_common_flags(p)
    p.set_defaults(handler=_cmd_checks, maps_only=False, keys=_LATTICE_KEYS | {"out", "seed"})

    p = sub.add_parser("dump-op", help="write one linear operator as COO CSV")
    _add_lattice_flags(p)
    _add_common_flags(p)
    p.add_argument("--name", required=True, help="operator name from the registry")
    p.set_defaults(handler=_cmd_dump_op, keys=_LATTICE_KEYS | {"name", "out"})

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        _load_config(args, args.keys | {"threads", "config"})
        _apply_thread_cap(args.threads)
        return args.handler(args)
    except ConfigError as exc:
        sys.stderr.write(json.dumps({"error": "config", "message": str(exc)}) + "\n")
        return 2
    except CheckFailure as exc:
        sys.stderr.write(json.dumps({"error": "check_failure", "message": str(exc)}) + "\n")
        return 1
    except Exception as exc:  # last resort: keep the JSON-error contract
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
