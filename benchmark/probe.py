"""Fresh-process measurements for the benchmark runner.

    python3 benchmark/probe.py setup
        Prints the seconds taken to import thickset and thickset.cli and make
        the first calls that fill lazy caches (Gauss-Legendre rule, LAPACK).
    python3 benchmark/probe.py rss <workload> <seed>
        Runs one pass of the workload and prints its peak resident set in MB.
"""
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def setup_seconds() -> float:
    start = time.perf_counter()
    import thickset
    import thickset.cli

    thickset.cli.run({"command": "concentration", "freqs": [0, 1, 2], "set": {"two_sliver": 0.5}, "L": 1.0})
    f = thickset.TrigPoly(1.0, [0, 1], [1.0, 1.0])
    thickset.lp_norm(f, thickset.NormQuery(2.0, thickset.full_torus(1.0)))
    return time.perf_counter() - start


def peak_rss_mb(workload: str, seed: int) -> float:
    """Peak RSS of this process image (VmHWM); ru_maxrss would carry the parent's peak over exec."""
    import workloads

    for cell in workloads.WORKLOADS[workload](seed):
        try:
            cell.run()
        except Exception:  # the main run counts and reports failed cells
            pass
    with open("/proc/self/status") as status:
        hwm_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    return hwm_kb / 1024.0


if __name__ == "__main__":
    if not (SRC / "thickset" / "__init__.py").is_file():
        sys.exit(f"probe: no thickset package under {SRC}")
    sys.path.insert(0, str(SRC))
    if sys.argv[1] == "setup":
        print(repr(setup_seconds()))
    else:
        print(repr(peak_rss_mb(sys.argv[2], int(sys.argv[3]))))
