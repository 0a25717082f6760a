"""Run one qlm benchmark workload and print its metrics.

    python3 perfbench/run.py --workload validate48 --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload of BENCHMARK.json in turn.

Run from the root of a source tree: the benchmark imports ``qlm`` from
``src/`` there and refuses any other copy. Each run is one fresh process
with BLAS pinned to one thread. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``. The line before it records the
environment. A traced run also writes its spans under ``.perfbench_out/``.
"""

import os

# Pinned before anything loads numpy: OpenBLAS reads these once, at load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        # Each workload still runs in a fresh process of its own.
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in names]
        return max(codes)
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import qlm
    except ImportError as exc:
        print(f"cannot import qlm from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(qlm.__file__).resolve().parents:
        print(f"qlm resolves to {qlm.__file__}, outside this tree", file=sys.stderr)
        return 2
    import harness

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result, units, failures = harness.run_workload(
            args.workload, args.seed, args.seconds, args.trace, ROOT, workdir, spec)
    finally:
        shutil.rmtree(workdir)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass                      # another run still uses it
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    traced = [u.tracer for u in units if u.tracer is not None]
    if traced:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        traced[0].write(out / f"spans-{args.workload}-seed{args.seed}.json")
    print(json.dumps({"env": harness.environment(ROOT), "units": len(units),
                      "unit_seconds": [u.seconds for u in units]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
