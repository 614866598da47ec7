"""perilps benchmark: fixed ``perilps`` CLI workloads run in-process.

Run from the repository root::

    python3 perfbench/run.py --workload hole-nearinc-64 --seed 7 --seconds 40 --trace 0

Each invocation is one fresh process serving one workload as a closed
loop with one client: the next CLI call starts when the previous one
has returned and its outputs have been checked.  The benchmark starts
no threads of its own; BLAS keeps its default thread pool.

A fixed reference computation runs between calls.  A small VM on a
shared host can change its speed by up to half for seconds to minutes
at a time, so end-to-end times are scaled by the reference times taken
around them (see ``REF_S``); the raw times are in the record line.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` every round is an untraced call followed by a traced
one, and the last line carries the per-layer metrics taken from the
traced calls' spans.  The line before it is a JSON record of the run:
environment stamp, every call with its artifact hashes and failed
checks, and (traced) every span.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracing import SPAN_NAMES, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Certificates the outputs must meet: the solver's residual certificate
#: and the quadrature weights' exactness certificate.
SOLVE_CERT = 1e-10
QUADRATURE_CERT = 1e-11

#: Set-up is the package import plus the median of these warm-up solves.
SETUP_ARGV = ["run", "--case", "patch", "--n", "16"]
SETUP_REPEATS = 7

#: The reference computation (see ``make_reference``) and its sizes.
#: End-to-end times are reported as they would read on a machine where
#: the reference takes ``REF_S`` seconds: each measured time is scaled
#: by ``REF_S`` over the reference times taken around it.  ``REF_S`` is
#: about the reference's median on a 2-vCPU Xeon VM (Linux, OpenBLAS),
#: where it took 0.14 to 0.22 s as the host's load varied.
REF_LSTSQ = 800
REF_GRID = 140
REF_S = 0.18

#: Why each workload is here is written down in perfbench/README.md.
#: ``spans`` is the exact set of layer spans a traced call must fire;
#: ``rms_bound`` caps the largest interior RMS error of a solving
#: workload: 1.25x the largest value seen over seeds 1-10 at the commit
#: that defined the benchmark.
WORKLOADS = {
    "hole-nearinc-64": {
        "argv": ["run", "--case", "hole", "--n", "64", "--nu", "0.495"],
        "artifacts": ["fields.csv", "summary.json"],
        "spans": set(SPAN_NAMES),
        "rms_bound": 4.0e-3,
    },
    "quadrature-96": {
        "argv": ["check-quadrature", "--n", "96"],
        "artifacts": ["quadrature_check.csv"],
        "spans": {"pointcloud.lattice", "pointcloud.neighbors", "quadrature.weights"},
        "rms_bound": None,
    },
    "sweep-32": {
        "argv": ["sweep", "--n", "32"],
        "artifacts": ["sweep.json"],
        "spans": set(SPAN_NAMES) - {"model.bonds"},
        "rms_bound": 8.7e-2,
    },
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_perilps():
    """Import the CLI from this checkout's sources; return it and the import time."""
    if not (SRC / "perilps" / "cli.py").is_file():
        sys.exit(f"perfbench: no perilps sources under {SRC}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    from perilps import cli, driver

    import_s = time.perf_counter() - t0
    if Path(cli.__file__).resolve().parent != (SRC / "perilps").resolve():
        sys.exit(f"perfbench: imported perilps from {cli.__file__}, not from {SRC}")
    return cli, driver, import_s


def run_cli(cli, argv: list[str]) -> tuple[int, float]:
    """One CLI call with its stdout discarded; returns (exit code, wall seconds)."""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed call, not a dead benchmark
        traceback.print_exc()
        rc = 1
    return rc, time.perf_counter() - t0


def check_outputs(out: Path, spec: dict) -> tuple[list[str], float | None]:
    """Failed checks on one call's artifacts, and its largest RMS error."""
    missing = [name for name in spec["artifacts"] if not (out / name).is_file()]
    if missing:
        return [f"missing {', '.join(missing)}"], None
    failures = []
    rms = None
    summary = out / "summary.json"
    if summary.is_file():
        data = json.loads(summary.read_text())
        if not data["solver_residual"] <= SOLVE_CERT:
            failures.append(f"solver_residual {data['solver_residual']!r} > {SOLVE_CERT:g}")
        rms = data["rms_error"]
    sweep = out / "sweep.json"
    if sweep.is_file():
        rms = max(json.loads(sweep.read_text())["rms_error"])
    quad = out / "quadrature_check.csv"
    if quad.is_file():
        rows = quad.read_text().splitlines()[1:]
        residuals = [float(row.split(",")[4]) for row in rows]
        if not residuals or not all(r <= QUADRATURE_CERT for r in residuals):
            failures.append(f"quadrature residual above {QUADRATURE_CERT:g} or no nodes")
    if spec["rms_bound"] is not None:
        if rms is None or not (math.isfinite(rms) and rms <= spec["rms_bound"]):
            failures.append(f"rms_error {rms!r} not within {spec['rms_bound']:g}")
    return failures, rms


def artifact_hashes(out: Path) -> dict[str, str]:
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def one_call(cli, spec, argv, out: Path, tracer: Tracer | None, run_id: str) -> dict:
    gc.collect()
    cpu0 = cpu_seconds()
    if tracer is None:
        rc, wall = run_cli(cli, argv + ["--out", str(out)])
    else:
        with tracer.traced(run_id, "cli." + argv[0]):
            rc, wall = run_cli(cli, argv + ["--out", str(out)])
    cpu = cpu_seconds() - cpu0
    failures, rms = check_outputs(out, spec) if rc == 0 else ([f"exit code {rc}"], None)
    hashes = artifact_hashes(out) if out.is_dir() else {}
    shutil.rmtree(out, ignore_errors=True)
    return {
        "run": run_id,
        "traced": tracer is not None,
        "exit_code": rc,
        "wall_s": wall,
        "cpu_s": cpu,
        "rms_error": rms,
        "hashes": hashes,
        "failures": failures,
    }


def set_up(cli, seed: int, work: Path) -> float:
    """Median wall time of the warm-up solves."""
    times = []
    for k in range(SETUP_REPEATS):
        out = work / f"setup{k}"
        rc, wall = run_cli(cli, SETUP_ARGV + ["--seed", str(seed), "--out", str(out)])
        shutil.rmtree(out, ignore_errors=True)
        if rc != 0:
            raise RuntimeError(f"warm-up solve exited with code {rc}")
        times.append(wall)
    return statistics.median(times)


def make_reference():
    """A fixed computation whose time tracks how fast the machine runs right now.

    It does in small what the two hot layers do: many least-squares
    solves of the size of one node's weight problem (the quadrature
    loop) and one sparse LU (the solver).  Its inputs never change and
    it calls no perilps code, so a change to perilps leaves its time
    alone while a slower phase of the host stretches it like a call.
    Needs numpy and scipy, so it is built after the timed import.
    """
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    rng = np.random.default_rng(0)
    b_mat, g = rng.standard_normal((19, 40)), rng.standard_normal(19)
    t = sp.diags_array([-1.0, 4.0, -1.0], offsets=[-1, 0, 1], shape=(REF_GRID, REF_GRID))
    lap = (sp.kron(sp.eye_array(REF_GRID), t) + sp.kron(t, sp.eye_array(REF_GRID))).tocsc()

    def reference_s() -> float:
        t0 = time.perf_counter()
        for _ in range(REF_LSTSQ):
            np.linalg.lstsq(b_mat, g, rcond=None)
        spla.splu(lap)
        return time.perf_counter() - t0

    return reference_s


def measure(cli, tracer, reference_s, ref0: float, args, work: Path) -> list[dict]:
    """Closed loop: rounds of calls until another round would overrun ``--seconds``.

    At least one round always runs.  The reference runs between calls;
    each call's ``ref_s`` is the mean of the reference times just
    before and just after it.
    """
    spec = WORKLOADS[args.workload]
    argv = spec["argv"] + ["--seed", str(args.seed)]
    modes = (None, tracer) if tracer is not None else (None,)
    calls = []
    start = time.perf_counter()
    rounds = 0
    while True:
        for mode in modes:
            run_id = f"{args.workload}/{args.seed}/{len(calls)}"
            call = one_call(cli, spec, argv, work / f"call{len(calls)}", mode, run_id)
            ref1 = reference_s()
            call["ref_s"] = (ref0 + ref1) / 2.0
            ref0 = ref1
            calls.append(call)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > args.seconds:
            return calls


def cross_checks(calls: list[dict], tracer: Tracer | None, spec: dict) -> None:
    """Fail calls whose artifacts differ from the first good call's, or whose spans are off.

    All calls of a run use one seed, so untraced and traced calls alike
    must write byte-identical artifacts.
    """
    good = [c for c in calls if c["exit_code"] == 0]
    for call in good[1:]:
        if call["hashes"] != good[0]["hashes"]:
            call["failures"].append("artifacts differ from the first good call's")
    if tracer is None:
        return
    for call in calls:
        if call["traced"] and call["exit_code"] == 0:
            fired = {s.name for s in tracer.spans if s.run == call["run"] and s.parent}
            if fired != spec["spans"]:
                call["failures"].append(
                    f"spans fired {sorted(fired)}, expected {sorted(spec['spans'])}"
                )


def per_layer(calls: list[dict], tracer: Tracer) -> dict[str, float]:
    """Median over the traced calls of each layer metric."""
    rows = []
    for call in calls:
        if call["traced"]:
            row = layer_metrics([s for s in tracer.spans if s.run == call["run"]])
            row["process.cpu_s"] = call["cpu_s"]
            row["run.rms_error"] = call["rms_error"] or 0.0
            rows.append(row)
    metrics = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    traced = statistics.median(c["wall_s"] for c in calls if c["traced"])
    untraced = statistics.median(c["wall_s"] for c in calls if not c["traced"])
    metrics["trace.overhead_s"] = traced - untraced
    return metrics


def git_commit() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    tree = hashlib.sha256()
    for path in sorted((SRC / "perilps").rglob("*.py")):
        tree.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "src_sha256": tree.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": blas(numpy), "scipy": blas(scipy)},
        "blas_threads": {
            var: os.environ.get(var, "unset")
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "platform": platform.platform(),
    }


def declared_units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = WORKLOADS[args.workload]
    cli, driver, import_s = import_perilps()
    tracer = Tracer({"cli": cli, "driver": driver}) if args.trace else None

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=ROOT / ".bench_out"))
    try:
        reference_s = make_reference()
        ref0 = reference_s()
        warm_up_s = set_up(cli, args.seed, work)
        ref1 = reference_s()
        # The import is mostly loading files and does not slow down with
        # the host's phases the way computation does, so it is not scaled.
        setup_s = import_s + warm_up_s * REF_S / ((ref0 + ref1) / 2.0)
        calls = measure(cli, tracer, reference_s, ref1, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_out").rmdir()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cross_checks(calls, tracer, spec)

    if tracer is None:
        kind = "end_to_end"
        values = {
            "wall_s": statistics.median(c["wall_s"] * REF_S / c["ref_s"] for c in calls),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        kind = "per_layer"
        values = per_layer(calls, tracer)
    units = declared_units(kind)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {kind}")

    failed = sum(bool(c["failures"]) for c in calls)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "import_s": import_s,
        "warm_up_s": warm_up_s,
        "argv": spec["argv"] + ["--seed", str(args.seed)],
        "environment": environment(),
        "calls": calls,
        "spans": [vars(s) for s in tracer.spans] if tracer else [],
    }
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(calls),
                "failed": failed,
                "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
