"""Benchmark entry point: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload spec-cli --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.  The
steps, in order:

1. ``gen.py`` writes the seeded inputs under ``bench/.work/<workload>-<seed>/``.
2. ``setup_s``: several fresh interpreters each import ``scrollstci`` and load
   every input file; the median of their wall times is reported.
3. ``worker.py`` runs in a fresh process with ``PYTHONHASHSEED=0``: one
   untimed warm-up pass over the batch, then whole timed passes through
   ``scrollstci.cli.run`` until ``--seconds`` have gone by (at least three).
   With ``--trace 1`` it alternates untraced and traced passes instead and
   reports the per-layer metrics of the traced ones.
4. ``check.py`` checks every output with sympy, outside the timed region.

The last line of standard output is the result object.  Any failure to run
(no ``src/scrollstci``, a crashed worker) exits with code 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

SETUP_STARTS = 9
WORKER_TIMEOUT = 150.0


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def worker_cmd(manifest: Path, src: Path, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--manifest", str(manifest),
            "--src", str(src), *extra]


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def measure_setup(manifest: Path, src: Path) -> float:
    times = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        proc = subprocess.run(worker_cmd(manifest, src, "--load-only"), env=worker_env(),
                              capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            fail(f"set-up run failed:\n{proc.stderr}")
        times.append(elapsed)
    return statistics.median(times)


def run_worker(manifest: Path, src: Path, seconds: float, trace: bool, spans: Path) -> dict:
    extra = ["--seconds", str(seconds)]
    if trace:
        extra += ["--trace", "--spans", str(spans)]
    try:
        proc = subprocess.run(worker_cmd(manifest, src, *extra), env=worker_env(),
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail(f"worker did not finish within {WORKER_TIMEOUT} s")
    if proc.returncode != 0:
        fail(f"worker failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description="scrollstci benchmark")
    ap.add_argument("--workload", choices=sorted(gen.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "scrollstci" / "__init__.py").is_file():
        fail(f"no scrollstci package under {src}; run from the repository root")

    rel = f"bench/.work/{args.workload}-{args.seed}"
    workdir = root / rel
    shutil.rmtree(workdir, ignore_errors=True)
    manifest = gen.generate(args.workload, args.seed, workdir, rel)
    manifest_path = workdir / "ops.json"

    setup_s = measure_setup(manifest_path, src)
    report = run_worker(manifest_path, src, args.seconds, bool(args.trace),
                        workdir / "spans.json")
    (workdir / "worker.json").write_text(json.dumps(report))

    from check import check  # sympy is imported only now, outside every timing

    ops = manifest["ops"]
    passes = report["passes"]
    failed_ops, wrong = 0, []
    for op in ops:
        outs = report["outputs"][op["id"]]
        code, text = outs[0]
        if code == 2:
            failed_ops += 1
            continue
        reason = "output differs between passes" if len(outs) > 1 else \
            check(op, code, json.loads(text)["payload"])
        if reason is not None:
            wrong.append(f"{op['id']}: {reason}")
    for line in wrong:
        print(f"WRONG {line}", file=sys.stderr)

    attempted = len(ops) * passes
    failed = failed_ops * passes
    good = [op["id"] for op in ops if report["outputs"][op["id"]][0][0] != 2]
    if args.trace:
        metrics = report["per_layer"]
    else:
        medians = [statistics.median(report["latencies"][i]) for i in good]
        geomean = math.exp(sum(math.log(m) for m in medians) / len(medians)) if medians else 0.0
        correct_ops = (len(good) - len(wrong)) * passes
        busy = sum(sum(report["latencies"][op["id"]]) for op in ops)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": correct_ops / busy, "unit": "ops/s"},
            "op_geomean_ms": {"value": geomean * 1000.0, "unit": "ms"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MiB"},
        }
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
