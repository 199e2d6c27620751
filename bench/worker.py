"""One workload in one fresh process: the closed loop that drives the CLI.

``--load-only`` imports ``scrollstci`` and loads every input file of the
manifest into program objects, then exits; ``run.py`` times fresh
interpreters doing this for ``setup_s``.  Otherwise the worker runs one
untimed warm-up pass over the batch, then whole timed passes until
``--seconds`` have gone by, one operation at a time through
``scrollstci.cli.run``, and prints one JSON line with the per-operation
latencies, each operation's output (plus any later pass's output that
differs from it) and the peak resident set.  With
``--trace`` it alternates untraced and traced passes, writes the spans to
``--spans`` and adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

MIN_PASSES = 3


def load_inputs(manifest: dict) -> None:
    """Parse every input file of the manifest the way its command reads it."""
    from scrollstci.lattice import LatticeBasis
    from scrollstci.linjoin import TwoLinearSpec
    from scrollstci.oracle import IdealHandle
    from scrollstci.poly import parse

    loaded = {}  # one program object per file, as a CLI user's batch would parse it
    for op in manifest["ops"]:
        argv = op["argv"]
        if op["command"] == "lattice":
            path = argv[argv.index("--basis-file") + 1]
            loaded[path] = LatticeBasis(tuple(map(tuple, json.loads(Path(path).read_text()))))
        elif op["command"] == "radeq":
            for path in argv[-2:]:
                loaded[path] = IdealHandle.from_json(json.loads(Path(path).read_text()))
        else:
            path = op["spec"]
            spec = loaded[path] = TwoLinearSpec.from_json(json.loads(Path(path).read_text()))
            if "gens" in op:
                texts = json.loads(Path(op["gens"]).read_text())
                loaded[op["gens"]] = [parse(spec.ring, t) for t in texts]


def busy_seconds(latencies: dict) -> float:
    return sum(sum(v) for v in latencies.values())


def run_pass(run, ops, latencies, outputs) -> None:
    """One pass over the batch; an output that differs from the first pass's is kept too.

    Each operation starts from a collected heap, so that where the cyclic
    collector interrupts it does not depend on the operations before it.
    The collection is outside the operation's latency.
    """
    clock = time.perf_counter
    for op in ops:
        gc.collect()
        start = clock()
        result = run(op["argv"])
        text = json.dumps(result.to_json())
        latencies[op["id"]].append(clock() - start)
        seen = outputs[op["id"]]
        if not seen or seen[0] != [result.exit_code, text]:
            seen.append([result.exit_code, text])


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--src", required=True, help="directory holding the scrollstci package")
    ap.add_argument("--load-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="file the traced spans are written to")
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    manifest = json.loads(Path(args.manifest).read_text())
    if args.load_only:
        import scrollstci  # noqa: F401  (the import is part of set-up)

        load_inputs(manifest)
        return

    from scrollstci import cli

    ops = manifest["ops"]
    latencies = {op["id"]: [] for op in ops}
    outputs = {op["id"]: [] for op in ops}
    run_pass(cli.run, ops, {op["id"]: [] for op in ops}, outputs)  # warm-up, untimed

    report: dict = {}
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        traced_lat = {op["id"]: [] for op in ops}
        pairs = 0
        deadline = time.perf_counter() + args.seconds
        while pairs < 1 or time.perf_counter() < deadline:
            run_pass(cli.run, ops, latencies, outputs)
            tracer.install()
            try:
                run_pass(cli.run, ops, traced_lat, outputs)
            finally:
                tracer.uninstall()
            pairs += 1
        overhead = busy_seconds(traced_lat) / busy_seconds(latencies) - 1.0
        report["per_layer"] = tracer.metrics(pairs, overhead)
        if args.spans:
            tracer.dump(args.spans)
        passes = 2 * pairs
    else:
        passes = 0
        deadline = time.perf_counter() + args.seconds
        while passes < MIN_PASSES or time.perf_counter() < deadline:
            run_pass(cli.run, ops, latencies, outputs)
            passes += 1

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report.update({
        "passes": passes,
        "latencies": latencies,
        "outputs": outputs,
        "peak_rss_mb": peak_kib / 1024.0,
    })
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
