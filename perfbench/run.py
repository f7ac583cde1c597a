"""Benchmark of radarkit: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ref-infer --seed 1 --seconds 20 --trace 0

Workloads: ``ref-infer``, ``train-step``, ``frame-pipeline`` (see
workloads.py).  With ``--trace 0`` the last stdout line is the result
object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a separate traced pass.  The line before it holds
the run details: machine calibration (sgemm ceiling, BLAS threads,
library versions, nproc), the seed, every timing sample and any check
failure.  The details, and in a traced run the spans and the rows per
qualified module name, are also written to ``perfbench/out/``.

The radarkit sources are imported from ``src/`` of the checkout; without
them the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


# the import part of set-up is sampled this many times (fresh interpreters
# after the first) and its median enters setup_s
IMPORT_REPEATS = 5
_IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); "
    "import harness, workloads; print(time.perf_counter() - t0)"
)


def _import_seconds() -> float:
    """Seconds a fresh interpreter spends on the imports main() times."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], capture_output=True,
                          text=True, check=True, timeout=120, env=env)
    return float(done.stdout.strip())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("ref-infer", "train-step", "frame-pipeline"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "radarkit").is_dir():
        print(f"error: radarkit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one caller thread; the BLAS pool is capped at min(2, nproc) threads
    threads = str(min(2, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(ROOT / "src"))

    t0 = time.perf_counter()
    import harness
    import workloads
    imports = [time.perf_counter() - t0] + [_import_seconds() for _ in range(IMPORT_REPEATS - 1)]

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        run = harness.measure(workload, args.seconds, bool(args.trace), import_s=imports)
    detail, result = run["detail"], run["result"]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as fh:
        json.dump({"result": result, "detail": detail}, fh)
    for bulky in ("spans", "modules", "kinds", "setup_kinds"):
        detail.pop(bulky, None)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
