"""dualqed benchmark: cold-process CLI workloads, timed end to end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S      # every workload

Every op is one ``dualqed.cli.main`` call in a fresh interpreter, started one
at a time, with BLAS/OpenMP pinned to one thread in the child's environment
before numpy loads.  ``--seed`` is passed to every op as its own ``--seed``.
Passes of the workload's ops repeat until ``--seconds`` is used up (at least
three passes untraced; at least two of each kind traced).

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median over passes
of the summed ``cli.main`` time), ``peak_rss_mb`` (mean over passes of the
largest per-op peak RSS) and ``setup_s`` (median over ops of the time from
spawning a child to ``import dualqed`` complete).  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of
``spans.PER_LAYER``; ``trace.overhead_s`` is the traced minus the untraced
median ``wall_s``.

Every op's output is checked (``workloads.py``).  A failed op (nonzero exit
or failed check) is counted, never retried, and its pass is left out of the
medians.  Human-readable lines come first; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Per-run records (samples, environment, prediction check) go to
``.perfbench/results/``, the last traced pass's spans to ``.perfbench/spans/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 150
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


class BenchmarkError(Exception):
    """The benchmark cannot run here (no sources, wrong package imported)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_PIN)
    env.pop("DUALQED_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_op(op, seed: int, trace: bool, op_id: str, dominant=(), workdir: Path = OUT / "ops") -> dict:
    """Run one op in a child process; return its measurements and verdict."""
    workdir.mkdir(parents=True, exist_ok=True)
    out, report = workdir / "out.json", workdir / "report.json"
    span_file = OUT / "spans" / (op_id.replace("/", "-") + ".jsonl")
    span_file.parent.mkdir(parents=True, exist_ok=True)
    for path in (out, report):
        path.unlink(missing_ok=True)
    spec = {
        "argv": [*op.argv, "--seed", str(seed), "--out", str(out)],
        "report": str(report),
        "trace": trace,
        "spans": str(span_file),
        "op": op_id,
        "dominant": list(dominant),
    }
    result = {"op": op_id, "argv": spec["argv"][:-2], "ok": False, "rc": None, "problems": []}
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        result["problems"].append(f"timed out after {CHILD_TIMEOUT_S} s")
        return result
    stderr_tail = proc.stderr.strip().splitlines()[-1:] or [""]
    if proc.returncode != 0 or not report.is_file():
        result["problems"].append(f"child exited {proc.returncode}: {stderr_tail[0]}")
        return result
    rep = json.loads(report.read_text())
    if not rep["dualqed_file"].startswith(str(ROOT / "src") + os.sep):
        raise BenchmarkError(f"child imported dualqed from {rep['dualqed_file']}, not from {ROOT / 'src'}")
    result.update(
        rc=rep["rc"],
        wall_s=rep["wall_s"],
        setup_s=rep["imported_at"] - spawned,
        rss_mb=rep["maxrss_kb"] / 1024,
        blas_threads=rep["blas_threads"],
        trace=rep.get("trace"),
    )
    if rep["rc"] != 0:
        result["problems"].append(f"exit {rep['rc']}: {stderr_tail[0]}")
    else:
        result["problems"] = op.check(json.loads(out.read_text()))
    result["ok"] = not result["problems"]
    return result


def run_passes(workload: Workload, seed: int, kinds, until: float, min_rounds: int) -> dict[bool, list]:
    """Repeat rounds of one pass per kind (traced or not) until the next round would end past ``until``.

    Alternating the kinds within a round exposes traced and untraced passes
    to the same drift of the host, so their difference is the tracing cost.
    """
    passes: dict[bool, list[list[dict]]] = {trace: [] for trace in kinds}
    durations = []
    while True:
        started = time.monotonic()
        for trace in kinds:
            kind = "traced" if trace else "plain"
            passes[trace].append(
                [
                    run_op(op, seed, trace, f"{workload.name}/{kind}/op{k}", workload.dominant)
                    for k, op in enumerate(workload.ops)
                ]
            )
        durations.append(time.monotonic() - started)
        if len(durations) >= min_rounds and time.monotonic() + statistics.median(durations) > until:
            return passes


def quartiles(values) -> tuple[float, float, float]:
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def sample(values, unit: str, center=statistics.median) -> dict:
    """Median (or ``center``) with quartiles and the sample count; value None without samples."""
    values = list(values)
    if not values:
        return {"value": None, "unit": unit, "n": 0}
    q1, _, q3 = quartiles(values)
    return {"value": center(values), "unit": unit, "n": len(values), "q1": q1, "q3": q3}


def ok_passes(passes):
    return [p for p in passes if all(op["ok"] for op in p)]


def end_to_end(passes) -> dict[str, dict]:
    good = ok_passes(passes)
    return {
        "wall_s": sample((sum(op["wall_s"] for op in p) for p in good), "s"),
        # a mean, not a median: compare_matched's per-pass peak is bimodal
        # (about 420 / 470 MB, by how the pool's cells overlap), so a median
        # of passes flips between the modes from run to run
        "peak_rss_mb": sample((max(op["rss_mb"] for op in p) for p in good), "MB", statistics.fmean),
        "setup_s": sample((op["setup_s"] for p in passes for op in p if op["ok"]), "s"),
    }


def per_layer(plain, traced) -> dict[str, dict]:
    good = ok_passes(traced)
    aggregates = [spans.merge_summaries(op["trace"] for op in p) for p in good]
    if not aggregates:
        return {name: {"value": None, "unit": unit} for name, unit, _ in spans.PER_LAYER}
    metrics = spans.layer_metrics(aggregates)
    traced_wall = statistics.median(agg["wall"] for agg in aggregates)
    plain_wall = end_to_end(plain)["wall_s"]["value"]
    metrics["trace.overhead_s"] = {
        "value": None if plain_wall is None else traced_wall - plain_wall,
        "unit": "s",
    }
    shares = [sum(op["trace"]["dominant_s"] for op in p) / agg["wall"] for p, agg in zip(good, aggregates)]
    metrics["trace.dominant_share"] = {"value": statistics.median(shares), "unit": "ratio"}
    return metrics


def git_rev() -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(passes) -> dict:
    threads: dict[str, set[int]] = {}
    for p in passes:
        for op in p:
            for lib, n in (op.get("blas_threads") or {}).items():
                threads.setdefault(lib, set()).add(n)
    return {
        "blas_threads_read_back": {lib: sorted(counts) for lib, counts in sorted(threads.items())},
        "thread_pin": THREAD_PIN,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def measure(workload: Workload, seed: int, seconds: int, trace: bool) -> dict:
    start = time.monotonic()
    kinds = (False, True) if trace else (False,)
    passes = run_passes(workload, seed, kinds, start + seconds, MIN_TRACED_ROUNDS if trace else MIN_ROUNDS)
    plain, traced = passes[False], passes.get(True, [])
    everything = plain + traced
    ops = [op for p in everything for op in p]
    env = environment(everything)
    pinned = all(counts == [1] for counts in env["blas_threads_read_back"].values())
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "elapsed_s": time.monotonic() - start,
        "environment": env,
        "attempted": len(ops),
        "failed": sum(not op["ok"] for op in ops),
        "failures": [{k: op[k] for k in ("op", "argv", "rc", "problems")} for op in ops if not op["ok"]],
        "passes": [[{k: v for k, v in op.items() if k != "trace"} for op in p] for p in everything],
        "end_to_end": end_to_end(plain),
    }
    record["fail_frac"] = record["failed"] / record["attempted"]
    record["correct"] = record["failed"] == 0 and pinned
    if trace:
        record["per_layer"] = per_layer(plain, traced)
        share = record["per_layer"]["trace.dominant_share"]["value"]
        record["prediction"] = {
            "dominant": list(workload.dominant),
            "share": share,
            "held": share is not None and share >= 0.5,
        }
    return record


def describe(record: dict) -> list[str]:
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  seconds {record['seconds']}"
        f"  trace {record['trace']}  elapsed {record['elapsed_s']:.1f} s"
    ]
    for name, m in record["end_to_end"].items():
        if m["n"]:
            lines.append(
                f"  {name:<13} {m['value']:.6g} {m['unit']:<3} {'mean' if name == 'peak_rss_mb' else 'median'} of n={m['n']}"
                f"  (q1 {m['q1']:.6g}, q3 {m['q3']:.6g})"
            )
        else:
            lines.append(f"  {name:<13} no successful samples")
    lines.append(f"  {'fail_frac':<13} {record['fail_frac']:.6g}     {record['failed']} of {record['attempted']} ops failed")
    for failure in record["failures"]:
        lines.append(f"    FAILED {failure['op']} rc={failure['rc']}: {'; '.join(failure['problems'])}")
    for name, m in record.get("per_layer", {}).items():
        lines.append(f"  {name:<42} {m['value']!r} {m['unit']}")
    if "prediction" in record:
        p = record["prediction"]
        verdict = "held" if p["held"] else "did not hold"
        lines.append(f"  prediction: {'+'.join(p['dominant'])} dominates ({p['share']!r} of wall): {verdict}")
    lines.append("  env: " + " ".join(f"{k}={v}" for k, v in record["environment"].items() if k != "thread_pin"))
    return lines


def result_line(records: list[dict], prefix: bool) -> dict:
    metrics = {}
    for record in records:
        section = record["per_layer"] if record["trace"] else record["end_to_end"]
        for name, m in section.items():
            key = f"{record['workload']}.{name}" if prefix else name
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "dualqed" / "__init__.py").is_file():
        sys.stderr.write(f"no dualqed sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            record = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            records.append(record)
            results = OUT / "results"
            results.mkdir(parents=True, exist_ok=True)
            (results / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2))
            print("\n".join(describe(record)), flush=True)
    except BenchmarkError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    print(json.dumps(result_line(records, prefix=args.workload == "all")))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
