"""Run one benchmark op in a fresh interpreter and write a JSON report.

Usage: ``python3 perfbench/child.py '<spec json>'`` with PYTHONPATH holding
the checkout's ``src``; run.py builds the spec and the environment (BLAS and
OpenMP pinned before numpy loads).  The spec holds ``argv`` (the ``dualqed``
command line), ``report`` (where this report goes), ``trace`` (install the
span tracer), ``spans`` (where the spans go), ``op`` (the op id) and
``dominant`` (span names whose union of intervals is reported separately).

The report holds the exit code, the ``cli.main`` wall time, the moment the
package import completed (``time.monotonic``, comparable with the parent's
clock), the peak RSS, the thread count read back from each loaded OpenBLAS,
and in traced mode the op's span summary.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import resource
import sys
import time

# (package whose bundled OpenBLAS is queried, symbol returning its thread count)
_BLAS = (("numpy", "scipy_openblas_get_num_threads64_"), ("scipy", "scipy_openblas_get_num_threads"))


def blas_threads() -> dict[str, int]:
    """Thread count of the OpenBLAS each of numpy and scipy bundles, if found."""
    found = {}
    for package, symbol in _BLAS:
        module = sys.modules.get(package)
        if module is None:
            continue
        libs = os.path.join(os.path.dirname(os.path.dirname(module.__file__)), f"{package}.libs")
        for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                found[package] = int(fn())
    return found


def main() -> None:
    spec = json.loads(sys.argv[1])
    import dualqed  # the package __init__ loads numpy and scipy

    imported_at = time.monotonic()
    from dualqed import cli

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    start = time.perf_counter()
    rc = cli.main(spec["argv"])
    wall = time.perf_counter() - start
    report = {
        "rc": rc,
        "wall_s": wall,
        "imported_at": imported_at,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "blas_threads": blas_threads(),
        "dualqed_file": os.path.abspath(dualqed.__file__),
    }
    if tracer is not None:
        summary = spans.op_summary(tracer.spans, tracer.counts)
        summary["dominant_s"] = spans.union_length(
            [(s[2], s[3]) for s in tracer.spans if s[1] in spec["dominant"]], float("-inf"), float("inf")
        )
        report["trace"] = summary
        tracer.dump(spec["spans"], spec["op"])
    with open(spec["report"], "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
