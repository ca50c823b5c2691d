"""Benchmark of the thickset toolkit: end-to-end metrics, or per-layer metrics when traced.

    python3 benchmark/run.py --workload restriction --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all --seed 1

Run from the root of a checkout; the package is imported from its `src/`.
Each run

1. measures the peak RSS of one pass in a fresh process (`peak_rss_mb`);
2. runs the workload once at the reference seed and compares every output
   with the values recorded in `benchmark/reference/`;
3. runs one warm-up pass at `--seed`, then timed passes for `--seconds`;
   every timed pass must reproduce the warm-up output byte for byte.  After
   each untraced pass one fresh process times start-up, so that `setup_s`
   (the median of those starts) samples the machine over the whole run.

Every other repeated timing is reduced to the first quartile of its repeats
(`low_quartile`): on a shared machine interference only adds time and comes
in bursts longer than a pass, while the fastest repeat catches rare lucky
thread schedules.

With `--trace 1` the timed passes alternate between traced and untraced, and
the per-layer metrics come from the traced ones (see tracing.py).  The last
line of standard output is one JSON object: correct, attempted, failed and
the metrics.  Records of each run, and the spans of the last traced pass,
go to `benchmark/out/`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SEED_ENV_VAR = "THICKSET_SEED"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# BLAS runs on one thread unless the caller sets these.  With the default two
# threads on a 2-vCPU machine the mid-size eigensolves switch, per process,
# between a fast and a slow schedule (N = 257: 7.6 ms against 10.5 ms), and a
# run's figures follow whichever it drew.
BLAS_THREADS = "1"
TAIL_BEYOND = 10  # the tail percentile leaves at least this many cells beyond it
MAX_LISTED_FAILURES = 20


def import_package():
    if not (SRC / "thickset" / "__init__.py").is_file():
        sys.exit(f"benchmark: no thickset package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import thickset

    if Path(thickset.__file__).resolve().parent != SRC / "thickset":
        sys.exit(f"benchmark: imported thickset from {thickset.__file__}, not from {SRC}")


def _probe(*args: str) -> float:
    done = subprocess.run([sys.executable, str(HERE / "probe.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _sha256(files) -> str:
    return hashlib.sha256(b"".join(f.read_bytes() for f in sorted(files))).hexdigest()


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": commit,
        "source_sha256": _sha256((SRC / "thickset").glob("*.py")),
    }


class Tally:
    """Cells attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, key: str, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            if len(self.messages) < MAX_LISTED_FAILURES:
                self.messages.append(f"{key}: {'; '.join(failures)}")


def send(cells) -> tuple[list, float, list[float]]:
    """Send every cell in turn; return (value, error) pairs, pass wall seconds, cell seconds."""
    values = []
    latencies = []
    clock = time.perf_counter
    start = clock()
    for cell in cells:
        t0 = clock()
        try:
            values.append((cell.run(), None))
        except Exception as exc:  # a raising cell is counted as failed, the loop goes on
            values.append((None, f"raised {type(exc).__name__}: {exc}"))
        latencies.append(clock() - t0)
    wall = clock() - start
    return values, wall, latencies


def finish(cells, values) -> list:
    """Outcomes of one pass, read from its cell values outside the timed loop."""
    import workloads

    outcomes = []
    for cell, (value, error) in zip(cells, values):
        if error is None:
            try:
                outcomes.append(cell.finish(cell.key, value))
            except Exception as exc:  # malformed output is a failed cell
                outcomes.append(workloads.failed_outcome(cell.key, f"unreadable output: {exc!r}"))
        else:
            outcomes.append(workloads.failed_outcome(cell.key, error))
    return outcomes


def run_pass(cells) -> tuple[list, float, list[float]]:
    """Send every cell in turn; return outcomes, pass wall seconds, cell seconds."""
    values, wall, latencies = send(cells)
    return finish(cells, values), wall, latencies


def check_pass(outcomes, reference: dict, tally: Tally, deep: bool) -> None:
    """Own checks, reference comparison and (if `deep`) library cross-checks."""
    import workloads

    for out in outcomes:
        failures = list(out.failures)
        ref = reference["cells"].get(out.key)
        if ref is None:
            if deep:
                failures.append("cell missing from the reference record")
        elif out.rows:
            failures += workloads.compare_to_reference(out, ref)
        if deep and not out.failures:
            failures += workloads.gram_check(out)
        tally.add(out.key, failures)


def verdicts(outcomes) -> tuple[int, int]:
    return sum(len(o.violations) for o in outcomes), sum(o.unresolved for o in outcomes)


def low_quartile(values) -> float:
    """First quartile by the nearest lower rank; the value itself for one repeat."""
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 4]


def tail(values: list[float]) -> tuple[float, float]:
    """Highest order statistic with TAIL_BEYOND values above it, and its percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_workload(name: str, seed: int, seconds: float, trace: bool, per_layer: list[dict]) -> dict:
    import tracing
    import workloads

    reference = json.loads((HERE / "reference" / f"{name}.json").read_text())
    tally = Tally()
    record: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                    "env": environment()}
    metrics: dict = {}
    if not trace:
        metrics["peak_rss_mb"] = (_probe("rss", name, str(seed)), "MB")

    ref_outcomes, _, _ = run_pass(workloads.WORKLOADS[name](reference["seed"]))
    check_pass(ref_outcomes, reference, tally, deep=True)
    ref_violations, ref_unresolved = verdicts(ref_outcomes)

    cells = workloads.WORKLOADS[name](seed)
    warm, _, _ = run_pass(cells)
    check_pass(warm, reference, tally, deep=False)
    violations, unresolved = verdicts(warm)
    sup_shortfalls = sum(o.sup_shortfalls for o in warm)

    tracer = tracing.Tracer()
    plain_walls, traced_walls, latencies, starts = [], [], [], []
    layer_times, layer_counts, spans = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(traced_walls) <= len(plain_walls)
        if traced:
            tracer.reset()
            with tracer.installed():
                values, wall, lat = send(cells)
            outcomes = finish(cells, values)
            times, exact = tracing.layer_metrics(tracer.spans, tracer.counts)
            layer_times.append(times)
            layer_counts.append(exact)
            spans = tracer.spans
            traced_walls.append(wall)
        else:
            outcomes, wall, lat = run_pass(cells)
            plain_walls.append(wall)
            latencies.append(lat)
            if not trace:
                starts.append(_probe("setup"))
        for out, first in zip(outcomes, warm):
            failures = list(out.failures)
            if out.raw != first.raw:
                failures.append("output differs from the warm-up pass")
            tally.add(out.key, failures)
        if time.perf_counter() >= deadline and plain_walls and (traced_walls or not trace):
            break

    per_cell = [low_quartile(c) for c in zip(*latencies)]
    p_tail, pct = tail(per_cell)
    if trace:
        measured = _layer_metrics(name, seed, layer_times, layer_counts, tally)
        measured["trace.overhead_s"] = low_quartile(traced_walls) - low_quartile(plain_walls)
        # A counter a workload never touches reports 0.
        metrics.update({m["name"]: (measured.get(m["name"], 0), m["unit"]) for m in per_layer})
        record["layer_counts"] = layer_counts[0]
        record["spans"] = _span_table(spans)
    else:
        metrics["setup_s"] = (statistics.median(starts), "s")
        metrics["wall_s"] = (low_quartile(plain_walls), "s")
        metrics["cell_p50_ms"] = (1e3 * statistics.median(per_cell), "ms")
        metrics["cell_tail_ms"] = (1e3 * p_tail, "ms")
    summary = {
        "cells_per_pass": len(cells),
        "timed_passes": len(plain_walls),
        "tail_percentile": pct,
        "latency_samples": len(per_cell) * len(plain_walls),
        "failed_frac": tally.failed / tally.attempted,
        "violations": violations,
        "unresolved": unresolved,
        "sup_shortfalls": sup_shortfalls,
        "reference_violations": ref_violations,
        "reference_unresolved": ref_unresolved,
        "baseline_violations": reference["violations"],
        "baseline_unresolved": reference["unresolved"],
    }
    record.update(summary=summary, failures=tally.messages, pass_walls_s=plain_walls, setup_starts_s=starts,
                  cell_latency_s=dict(zip((c.key for c in cells), per_cell)), latencies_s=latencies,
                  traced_pass_walls_s=traced_walls, metrics={k: v for k, (v, _) in metrics.items()})
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record))
    return {"name": name, "correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics, "summary": summary, "failures": tally.messages, "env": record["env"]}


def _layer_metrics(name: str, seed: int, layer_times, layer_counts, tally: Tally) -> dict:
    """Self seconds over traced passes (first quartile); exact counts, checked to repeat.

    Counts are also compared with an earlier run on the same seed, but only
    one of the same program and benchmark code: the saved file is keyed by
    the hash of both, since a change to either may rightly change a count.
    """
    import workloads

    first = layer_counts[0]
    failures = [f"pass {i}: layer counts differ from the first traced pass"
                for i, counts in enumerate(layer_counts[1:], 1) if counts != first]
    code = _sha256([*(SRC / "thickset").glob("*.py"), *HERE.glob("*.py")])
    saved = OUT / f"{name}-seed{seed}-{code[:16]}-counts.json"
    if saved.is_file() and json.loads(saved.read_text()) != first:
        failures.append(f"layer counts differ from the earlier run recorded in {saved.name}")
    OUT.mkdir(exist_ok=True)
    saved.write_text(json.dumps(first, sort_keys=True))
    for layer in workloads.STRESSED[name]:
        if first.get(f"{layer}.calls", 0) == 0:
            failures.append(f"traced run recorded no call of {layer}")
    tally.add("layer trace", failures)
    out = {key: low_quartile([t[key] for t in layer_times]) for key in layer_times[0]}
    out.update(first)
    return out


def _span_table(spans) -> dict:
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    origin = spans[0][1] if spans else 0
    return {"names": names, "columns": ["name", "start_ns", "end_ns", "parent"],
            "rows": [[index[n], s - origin, e - origin, p] for n, s, e, p in spans]}


def report(result: dict, declared: list[str]) -> list[str]:
    """Human-readable lines for one workload."""
    s = result["summary"]
    lines = [f"== {result['name']}: {s['cells_per_pass']} cells per pass, {s['timed_passes']} timed passes"]
    for key in declared:
        value, unit = result["metrics"][key]
        lines.append(f"{key:<44} {value:.6g} {unit}")
    lines.append(f"{'cell_tail_ms percentile':<44} p{s['tail_percentile']:.1f} over "
                 f"{s['cells_per_pass']} per-cell latencies ({s['latency_samples']} samples)")
    lines.append(f"{'failed_frac':<44} {s['failed_frac']:.6g} ({result['failed']}/{result['attempted']} cells)")
    lines.append(f"{'violations':<44} {s['violations']} (reference seed {s['reference_violations']}, "
                 f"recorded baseline {s['baseline_violations']})")
    lines.append(f"{'unresolved':<44} {s['unresolved']} (reference seed {s['reference_unresolved']}, "
                 f"recorded baseline {s['baseline_unresolved']})")
    lines.append(f"{'sup_shortfalls':<44} {s['sup_shortfalls']} (p = inf ratios above 1: "
                 f"the torus sup search stopped on a lower peak)")
    selfs = {k[:-len(".self_s")]: v for k, (v, _) in result["metrics"].items() if k.endswith(".self_s")}
    total = sum(selfs.values())
    for layer in sorted(selfs, key=selfs.get, reverse=True)[:5]:
        lines.append(f"{'self time ' + layer:<44} {100 * selfs[layer] / total:.1f}% of traced self time")
    lines += [f"failure: {m}" for m in result["failures"]]
    lines.append(f"env {json.dumps(result['env'], sort_keys=True)}")
    return lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Benchmark of the thickset toolkit.")
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if os.environ.get(SEED_ENV_VAR) is not None:
        print(f"benchmark: {SEED_ENV_VAR} is set and would override every config seed; unset it",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    for var in THREAD_VARS:
        os.environ.setdefault(var, BLAS_THREADS)
    import_package()
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace), spec["per_layer"])
               for n in (names if args.workload == "all" else [args.workload])]
    for result in results:
        missing = [k for k in declared if k not in result["metrics"]]
        if missing:
            sys.exit(f"benchmark: metrics {missing} were not measured")
        print("\n".join(report(result, declared)))
    if len(results) == 1:
        metrics = {k: results[0]["metrics"][k] for k in declared}
    else:
        metrics = {f"{r['name']}.{k}": r["metrics"][k] for r in results for k in declared}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
