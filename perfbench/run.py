"""qreset benchmark: drive ``qreset.cli.main`` in-process on one workload.

Run from the repository root:

    python3 perfbench/run.py --workload tr-scan --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced runs, reports the per-layer
metrics and the tracing overhead, and writes every span and derived
number to ``.perfbench_out/<workload>/trace.json``.  ``--workload all``
runs each workload in its own process, in an order set by the seed.
The metric names and units come from ``BENCHMARK.json``; the last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Fresh interpreters timed for setup_s, after the workload runs.
SETUP_SAMPLES = 8


def import_qreset():
    """The qreset package of this checkout, and nothing installed elsewhere."""
    if not (SRC / "qreset" / "__init__.py").is_file():
        sys.exit(f"error: no qreset sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qreset

    if SRC.resolve() not in Path(qreset.__file__).resolve().parents:
        sys.exit(f"error: imported qreset from {qreset.__file__}, not from {SRC}")
    return qreset


def setup_seconds(config_path: Path) -> float:
    """Fresh interpreter from spawn until ``import qreset`` and ``parse_config`` are done."""
    code = (
        "import time\nimport qreset\nfrom qreset.cli import parse_config\n"
        f"parse_config(open({str(config_path)!r}).read())\n"
        "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n"
    )
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1]) - start


def _llc_mb() -> float | None:
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    best = None
    for index in caches:
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 / 1024, "M": 1.0, "G": 1024.0}.get(size[-1:], 1 / 2**20)
        mb = float(size.rstrip("KMG")) * scale
        if best is None or level > best[0]:
            best = (level, mb)
    return best and best[1]


def machine(workloads) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted((SRC / "qreset").glob("*.py")):
        sources.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "llc_mb": _llc_mb(),
        "git_commit": commit,
        "src_sha256": sources.hexdigest(),
        # A matrix smaller than the LLC is re-read from cache on every step,
        # so dynamics.gbps_computed is computed traffic, not DRAM bandwidth.
        "dense_matrix_mb": {w.name: w.L * w.L * 16 / 1e6 for w in workloads.values()},
    }


def result_line(correct: bool, attempted: int, failed: int, kind: str, values: dict) -> str:
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC[kind]}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def run_one(name: str, seed: int, seconds: float, trace: bool) -> None:
    qreset = import_qreset()
    import tracing
    from workloads import WORKLOADS, content_checks, score_run

    w = WORKLOADS[name]
    lattice_L = w.L
    work = OUT / name
    work.mkdir(parents=True, exist_ok=True)
    config_path = work / f"{name}.cfg"
    config_path.write_text(w.config, encoding="utf-8")
    out = work / "out"
    argv = w.argv(config_path, out)
    cache = qreset.lattice.step_propagator
    info = machine(WORKLOADS)
    print("machine:", json.dumps(info))
    print(f"workload: {name} seed={seed} units={w.units} {w.unit} argv={argv}")

    tally = {"attempted": 0, "failed": 0, "reference": None}

    def once(tracer: tracing.Tracer | None = None) -> tuple[float, object]:
        """One timed CLI invocation on a cold propagator cache; outputs checked untimed."""
        shutil.rmtree(out, ignore_errors=True)
        cache.cache_clear()
        gc.collect()
        if tracer is None:
            start = time.perf_counter()
            code = qreset.cli.main(argv)
            wall = time.perf_counter() - start
        else:
            tracer.run += 1
            with tracer.patched(tracing.boundary_targets(qreset)):
                start = time.perf_counter()
                with tracer.span("cli.main"):
                    code = qreset.cli.main(argv)
                wall = time.perf_counter() - start
        cache_info = cache.cache_info()
        attempted, failed, current = score_run(w, out, code, tally["reference"])
        tally["attempted"] += attempted
        tally["failed"] += failed
        tally["reference"] = tally["reference"] or current
        return wall, cache_info

    cold_wall, _ = once()
    cache.cache_clear()
    checks = content_checks(w, out)
    tally["attempted"] += len(checks)
    tally["failed"] += sum(not ok for ok in checks.values())
    print("checks:", json.dumps(checks))

    walls, traced_walls, per_rep = [], [], []
    tracer = tracing.Tracer()
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        walls.append(once()[0])
        if trace:
            wall, cache_info = once(tracer)
            traced_walls.append(wall)
            spans = [s for s in tracer.spans if s.run == tracer.run]
            per_rep.append(tracing.rep_metrics(spans, cache_info, lattice_L))
        # Stop when one more round like the last would run past --seconds.
        now = time.perf_counter()
        if 2 * now - start - begin > seconds:
            break

    wall_s = statistics.median(walls)
    correct = tally["failed"] == 0
    print(f"cold_wall_s {cold_wall:.4f} s; warm runs n={len(walls)}: "
          + " ".join(f"{x:.4f}" for x in walls))
    print(f"failed_frac {tally['failed'] / tally['attempted']:.6g} "
          f"({tally['failed']} of {tally['attempted']} operations)")
    if not trace:
        # Sampled after the workload: on a virtual machine, fresh interpreters ran
        # up to twice as slow before any process had used and freed memory.
        setup = [setup_seconds(config_path) for _ in range(SETUP_SAMPLES)]
        values = {
            "wall_s": wall_s,
            "units_per_s": w.units / wall_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        for key, value in values.items():
            print(f"{key} {value:.6g}")
        print(f"setup_s samples n={len(setup)}: " + " ".join(f"{x:.4f}" for x in setup))
        print(result_line(correct, tally["attempted"], tally["failed"], "end_to_end", values))
        return

    values = tracing.median_metrics(per_rep)
    values["cold_wall_s"] = cold_wall
    values["trace_overhead_s"] = statistics.median(traced_walls) - wall_s
    report = {
        "workload": name, "seed": seed, "machine": info, "argv": argv,
        "untraced_wall_s": walls, "traced_wall_s": traced_walls,
        "metrics": values,
        "latency_percentiles": tracing.latency_percentiles(tracer.spans),
        "checks": checks,
        "spans": [asdict(s) for s in tracer.spans],
    }
    trace_path = work / "trace.json"
    trace_path.write_text(json.dumps(report) + "\n", encoding="utf-8")
    for key, value in values.items():
        print(f"{key} {value:.6g}")
    print("latency_percentiles:", json.dumps(report["latency_percentiles"]))
    print(f"trace written to {trace_path.relative_to(ROOT)}")
    print(result_line(correct, tally["attempted"], tally["failed"], "per_layer", values))


def run_all(names: list[str], seed: int, seconds: float, trace: bool) -> None:
    """Each workload in a process of its own, so peak_rss_mb stays per workload."""
    random.Random(seed).shuffle(names)
    print(f"order (seed {seed}): {' '.join(names)}")
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            sys.exit(f"error: workload {name} exited {done.returncode}:\n{done.stderr}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            print(f"{name:<17} {key:<36} {metric['value']:.6g} {metric['unit']}")
            merged["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(merged))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = [w["name"] for w in SPEC["workloads"]]
    if args.workload == "all":
        run_all(names, args.seed, args.seconds, bool(args.trace))
    elif args.workload in names:
        run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}, all")


if __name__ == "__main__":
    main()
