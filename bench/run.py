"""Benchmark for heisenberg_ncg: seeded closed-loop workloads with checked
outputs, end-to-end metrics, and a traced run for per-layer metrics.

    python3 bench/run.py --workload exact --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn in one process.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable table and a
``report`` JSON line with sample counts, extra metrics and the machine
record.  Run it from the repository root; it reads the package from
``src/``.  WORKLOADS.md documents the workloads and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5  # fresh-process set-ups per run; setup_s is their median
IMPORT_REPEATS = 3
END_TO_END = ("setup_s", "ops_per_s_cal", "op_p50_s_cal", "peak_rss_mb", "cpu_s_per_op_cal")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def cpu_now() -> float:
    """CPU seconds of this process plus its reaped children."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


# References: fixed work sharing no code with the program.  Timed next to
# every operation, they measure how fast the machine runs at that moment.


def reference_python() -> None:
    """Exact rational dict arithmetic, like a ring multiply."""
    acc: dict = {}
    for i in range(1, 80):
        for j in range(1, 40):
            k = (i * j) % 37
            acc[k] = acc.get(k, Fraction(0)) + Fraction(i, j)


def reference_fft() -> None:
    """One Dirac-engine-shaped step in numpy/scipy alone: batched 2-D FFT,
    2x2 symbol contraction, inverse FFT.  Operands are allocated on every
    call, as the engine does, and freed so they stay out of peak RSS."""
    import numpy as np
    import scipy.fft as sfft

    buf = np.zeros((64, 64, 64, 2), complex)
    buf[:, :49, :49, :] = 1.0
    sym = np.ones((64, 64, 2, 2), complex)
    sfft.ifft2(np.einsum("lmab,klmb->klma", sym, sfft.fft2(buf, axes=(1, 2))), axes=(1, 2))


def reference_import() -> None:
    """A fresh interpreter importing numpy: process start, extension loading
    and page faults, which is what a cold ``hnc`` command mostly does."""
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, timeout=120, check=True)


# name -> (reference, its typical time on the test machine, timings per
# speed measurement).  Calibrated metrics are scaled to a machine where the
# reference takes that long.
REFERENCES = {"python": (reference_python, 0.010, 3), "fft": (reference_fft, 0.045, 3),
              "import": (reference_import, 0.150, 1)}


def ref_point(name: str) -> float:
    """Median of a few timings of reference ``name``: the machine's speed now."""
    ref, _, repeats = REFERENCES[name]

    def once():
        t0 = time.perf_counter()
        ref()
        return time.perf_counter() - t0

    return statistics.median(once() for _ in range(repeats))


def bracket(points: list[float]) -> list[float]:
    """Reference time for the item between points i and i+1: their mean."""
    return [(a + b) / 2 for a, b in zip(points, points[1:])]


def calibrated(values: list[float], refs: list[float], nominal: float) -> list[float]:
    """Each value scaled to a machine where the reference takes ``nominal``."""
    return [v * nominal / r for v, r in zip(values, refs)]


def run_ops(wl, *, indices=None, seconds=None, tracer=None, calibrate=False) -> dict:
    """Closed loop over operations ``indices`` (default 0, 1, 2, ...): each
    starts when the previous one returns.  With ``seconds``, stops at the
    first cycle boundary after that long (so at least one whole cycle runs).
    With ``calibrate``, the machine's speed is measured before each
    operation and after the last; ``ref`` holds the bracketing mean per
    operation."""
    lat, cpu, failures, points = [], [], [], []
    deadline = time.perf_counter() + seconds if seconds is not None else None
    for i in indices if indices is not None else itertools.count():
        if (deadline is not None and i > 0 and i % wl.cycle == 0
                and time.perf_counter() >= deadline):
            break
        if calibrate:
            points.append(ref_point(wl.reference))
        if tracer is not None:
            tracer.install()
        c0, t0 = cpu_now(), time.perf_counter()
        try:
            out, msgs = wl.op(i), []
        except Exception as e:  # a raising operation is a counted failure
            out, msgs = None, [f"op raised {type(e).__name__}: {e}"]
        t1, c1 = time.perf_counter(), cpu_now()
        if tracer is not None:
            tracer.uninstall()
        lat.append(t1 - t0)
        cpu.append(c1 - c0)
        if not msgs:
            try:
                msgs = wl.check(i, out)
            except Exception as e:
                msgs = [f"oracle raised {type(e).__name__}: {e}"]
        if msgs:
            failures.append({"op": i, "messages": msgs})
    if calibrate:
        points.append(ref_point(wl.reference))
    return {"latency": lat, "cpu": cpu, "failures": failures, "ref": bracket(points)}


def timed_child(code: str) -> float:
    """Run ``python -c code``; return what it prints (a duration in s)."""
    from workloads import child_env

    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, cwd=ROOT, env=child_env(), timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up (package import plus seeded inputs) in fresh processes, and
    the ``reference_import`` time bracketing each: set-up is the same kind
    of work as a cold command."""
    code = (
        "import sys, time; t0 = time.perf_counter(); "
        f"sys.path.insert(0, {str(HERE)!r}); "
        "import workloads; "
        f"workloads.WORKLOADS[{workload!r}]().setup({seed}); "
        "print(time.perf_counter() - t0)"
    )
    setups, points = [], [ref_point("import")]
    for _ in range(SETUP_REPEATS):
        setups.append(timed_child(code))
        points.append(ref_point("import"))
    return setups, bracket(points)


def import_breakdown() -> dict:
    """Interpreter start, numpy import and package import, each the median
    of IMPORT_REPEATS fresh processes."""
    from workloads import child_env

    def wall(code):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                       timeout=120, check=True)
        return time.perf_counter() - t0

    def imp(module):
        return timed_child("import time; t0 = time.perf_counter(); "
                           f"import {module}; print(time.perf_counter() - t0)")

    return {
        "cli.interpreter_s": statistics.median(wall("pass") for _ in range(IMPORT_REPEATS)),
        "cli.numpy_import_s": statistics.median(imp("numpy") for _ in range(IMPORT_REPEATS)),
        "cli.import_s": statistics.median(imp("heisenberg_ncg") for _ in range(IMPORT_REPEATS)),
    }


def tail(values: list[float]):
    """Latency at the highest percentile with at least ten samples beyond
    it, as (value, percentile); None below 20 samples."""
    n = len(values)
    if n < 20:
        return None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def machine(seed: int) -> dict:
    import numpy
    import scipy
    import scipy.fft

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {**{v: os.environ.get(v) for v in THREAD_VARS},
                    "scipy.fft.workers": scipy.fft.get_workers()},
        "git_commit": commit or "unknown (not a git checkout)",
        "seed": seed,
    }


def end_to_end(wl, seed: int, seconds: float) -> tuple[dict, dict]:
    wl.setup(seed)
    if hasattr(wl, "warm_up"):
        wl.warm_up()
    res = run_ops(wl, seconds=seconds, calibrate=True)
    usage = resource.getrusage(
        resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN)
    peak_mb = usage.ru_maxrss / 1024  # Linux reports KiB
    setups, setup_refs = setup_seconds(wl.name, seed)  # after the loop: not in peak RSS
    lat, n = res["latency"], len(res["latency"])
    nominal = REFERENCES[wl.reference][1]
    lat_cal = calibrated(lat, res["ref"], nominal)
    metrics = {
        "setup_s": (statistics.median(calibrated(setups, setup_refs, REFERENCES["import"][1])),
                    "s", len(setups)),
        "ops_per_s_cal": (n / sum(lat_cal), "1/s", n),
        "op_p50_s_cal": (statistics.median(lat_cal), "s", n),
        "cpu_s_per_op_cal": (sum(calibrated(res["cpu"], res["ref"], nominal)) / n, "s", n),
        "peak_rss_mb": (peak_mb, "MB", 1),
        "setup_raw_s": (statistics.median(setups), "s", len(setups)),
        "ops_per_s": (n / sum(lat), "1/s", n),
        "op_p50_s": (statistics.median(lat), "s", n),
        "cpu_s_per_op": (sum(res["cpu"]) / n, "s", n),
        "error_rate": (len(res["failures"]) / n, "ratio", n),
    }
    metrics["reference_s"] = (statistics.median(res["ref"]), "s", n)
    t = tail(lat)
    if t is not None:
        metrics["op_tail_s"] = (t[0], "s", n)
    extra = {"op_tail_percentile": t[1] if t else None, "failures": res["failures"],
             "samples": {"latency_s": lat, "cpu_s": res["cpu"], "setup_s": setups,
                         "reference_s": res["ref"], "setup_reference_s": setup_refs}}
    if not wl.in_process:
        extra["cli.nondeterministic_outputs"] = sorted(wl.nondeterministic)
    return metrics, {"attempted": n, **extra}


def layer_metrics(stats: dict) -> dict:
    """Per-layer metrics from span statistics; absent layers report 0."""
    def get(name, key, default=0):
        return stats.get(name, {}).get(key, default)

    def self_s(name):
        return (get(name, "self_s", 0.0), "s")

    def calls(name):
        return (get(name, "calls"), "count")

    inner_in_decompose = get("derivations.inner_coefficient", "calls_under", {}).get(
        "derivations.decompose", 0)
    m = {
        "algebra.mul.calls": calls("algebra.mul"),
        "algebra.mul.term_products": (get("algebra.mul", "term_products"), "count"),
        "algebra.mul.self_s": self_s("algebra.mul"),
        "algebra.add.calls": calls("algebra.add"),
        "algebra.add.self_s": self_s("algebra.add"),
        "algebra.eval_at_angle.self_s": self_s("algebra.eval_at_angle"),
        "derivations.apply.calls": calls("derivations.apply"),
        "derivations.apply.self_s": self_s("derivations.apply"),
        "derivations.decompose.self_s": self_s("derivations.decompose"),
        "derivations.decompose.useful_ratio": (
            get("derivations.decompose", "x_terms") / inner_in_decompose
            if inner_in_decompose else 0.0, "ratio"),
        "derivations.inner_coefficient.calls": calls("derivations.inner_coefficient"),
        "derivations.inner_coefficient.self_s": self_s("derivations.inner_coefficient"),
        "derivations.check_consistency.self_s": self_s("derivations.check_consistency"),
        "derivations.compose_from_parts.self_s": self_s("derivations.compose_from_parts"),
        "group_structure.brute_force_centralizer.self_s":
            self_s("group_structure.brute_force_centralizer"),
        "group_structure.centralizer_membership.calls":
            calls("group_structure.centralizer_membership"),
        "fredholm.odd_pairing.self_s": self_s("fredholm.odd_pairing"),
        "fredholm.build_representation.self_s": self_s("fredholm.build_representation"),
        "fredholm.svd.calls": calls("fredholm.svd"),
        "fredholm.svd.cols": (get("fredholm.svd", "cols"), "count"),
        "fredholm.svd.self_s": self_s("fredholm.svd"),
        "chern.bott_projector.self_s": self_s("chern.bott_projector"),
        "chern.lattice_chern.self_s": self_s("chern.lattice_chern"),
        "chern.fourier_coefficients.self_s": self_s("chern.fourier_coefficients"),
        "chern.dirac_even_pairing.self_s": self_s("chern.dirac_even_pairing"),
        "chern.fft.calls": calls("chern.fft"),
        "chern.fft.points": (get("chern.fft", "points"), "count"),
        "chern.fft.bytes": (get("chern.fft", "bytes"), "B_computed"),
        "chern.fft.self_s": self_s("chern.fft"),
        "chern.einsum.self_s": self_s("chern.einsum"),
        "kk.check_exactness.self_s": self_s("kk.check_exactness"),
        "kk.check_duality.self_s": self_s("kk.check_duality"),
        "integer_lattices.smith_diagonalize.calls": calls("integer_lattices.smith_diagonalize"),
        "integer_lattices.smith_diagonalize.self_s":
            self_s("integer_lattices.smith_diagonalize"),
    }
    for n in (1, 2, 4, 5, 6, 7, 8, 9, 10):
        m[f"acceptance.criterion_{n}.s"] = (get(f"acceptance.criterion_{n}", "total_s", 0.0), "s")
    return m


def per_layer(wl, seed: int) -> tuple[dict, dict]:
    """A fixed number of operations, so that counts repeat exactly for a
    seed.  Each runs untraced and then traced, back to back, so that machine
    speed drift cancels out of the tracing overhead."""
    from spans import Tracer
    from workloads import ColdStart

    wl.setup(seed)
    if hasattr(wl, "warm_up"):
        wl.warm_up()
    # The cold-start commands run in child processes, which carry no
    # wrappers: nothing to trace, and the overhead is zero.
    tracer = Tracer() if wl.in_process else None
    plain, traced = [], []
    for i in range(wl.trace_ops):
        plain.append(run_ops(wl, indices=[i], calibrate=wl.in_process))
        if tracer is not None:
            traced.append(run_ops(wl, indices=[i], tracer=tracer, calibrate=True))
    stats, overhead = {}, 0.0
    if tracer is not None:
        stats = tracer.reduce()
        tracer.write(ROOT / ".bench_out" / f"spans-{wl.name}.tsv")
        nominal = REFERENCES[wl.reference][1]

        def total(runs):
            return sum(sum(calibrated(r["latency"], r["ref"], nominal)) for r in runs)

        overhead = total(traced) / total(plain) - 1.0
    m = layer_metrics(stats)
    by_cmd: dict[str, list[float]] = {c: [] for c in ColdStart.COMMANDS}
    if not wl.in_process:
        for i, r in enumerate(plain):
            by_cmd[wl.spec(i)["name"]] += r["latency"]
    for cmd, vals in by_cmd.items():
        m[f"cli.{cmd}.p50_s"] = (statistics.median(vals) if vals else 0.0, "s")
    m["cli.nondeterministic_outputs"] = (
        0 if wl.in_process else len(wl.nondeterministic), "count")
    m.update({k: (v, "s") for k, v in import_breakdown().items()})
    m["trace.overhead_frac"] = (overhead, "ratio")
    extra = {
        "attempted": sum(len(r["latency"]) for r in plain + traced),
        "failures": [f for r in plain + traced for f in r["failures"]],
        "spans": {k: {"calls": v["calls"], "self_s": v["self_s"]} for k, v in stats.items()},
    }
    return {k: (v, u, 1) for k, (v, u) in m.items()}, extra


def print_table(name: str, seed: int, trace: int, metrics: dict, extra: dict) -> None:
    print(f"# workload {name}  seed {seed}  trace {trace}  "
          f"attempted {extra['attempted']}  failed {len(extra['failures'])}")
    for key, (value, unit, n) in metrics.items():
        print(f"  {key:<48} {value:>14.6g} {unit:<10} n={n}")
    for f in extra["failures"]:
        print(f"  FAILED op {f['op']}: {'; '.join(f['messages'])}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "heisenberg_ncg" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # BLAS/OpenMP threads: fixed for the run, <= nproc
        os.environ.setdefault(var, str(len(os.sched_getaffinity(0))))
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    # cold-start first: its peak RSS is read from the reaped children,
    # before any set-up probe process exists.
    names = (["cold-start"] + [w for w in WORKLOADS if w != "cold-start"]
             if args.workload == "all" else [args.workload])
    if any(n not in WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2

    final, attempted, failed = {}, 0, 0
    for name in names:
        wl = WORKLOADS[name]()
        if args.trace:
            metrics, extra = per_layer(wl, args.seed)
            keep = metrics
        else:
            metrics, extra = end_to_end(wl, args.seed, args.seconds)
            keep = {k: metrics[k] for k in END_TO_END}
        print_table(name, args.seed, args.trace, metrics, extra)
        print(json.dumps({"report": {
            "workload": name, "trace": args.trace, "seconds": args.seconds,
            "metrics": {k: {"value": v, "unit": u, "samples": n}
                        for k, (v, u, n) in metrics.items()},
            **extra, "machine": machine(args.seed)}}))
        prefix = f"{name}." if len(names) > 1 else ""
        final.update({prefix + k: {"value": v, "unit": u} for k, (v, u, _) in keep.items()})
        attempted += extra["attempted"]
        failed += len(extra["failures"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
