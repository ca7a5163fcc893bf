"""Benchmark runner for the subcube package.

    python3 perfbench/run.py --workload tester-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, and the run stops with exit code 2 when it
is missing. ``--trace 0`` times the workload untraced and prints the
end-to-end metrics; ``--trace 1`` runs the same passes untraced and then
traced, prints the per-layer metrics, and checks that both digests agree.
End-to-end times are calibrated for the host's speed (``calibrate.py``).
The last stdout line is one JSON object; the full record (environment,
raw and calibrated times, digest, failures) goes to ``perfbench/out/``.
See ``perfbench/README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from calibrate import Calibrator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Nominal seconds of one pass on a 2-core x86 machine; the number of passes
# in a run is --seconds divided by this, at least one. Runs of the same
# length therefore do the same work on every commit.
PASS_SECONDS = {"tester-sweep": 30.0, "budget-sweep": 6.0, "exact-oracles": 4.0}
SETUP_REPEATS = 3

E2E_UNITS = {"setup_s": "s", "pass_s": "s", "op_geomean_s": "s", "peak_rss_mb": "MB"}


def load_package():
    """Import subcube from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "subcube" / "__init__.py").is_file():
        fail(f"no package source at {src}/subcube; run from the root of a checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import subcube
    if Path(subcube.__file__).resolve().parent != (src / "subcube").resolve():
        fail(f"imported subcube from {subcube.__file__}, not from {src}")
    return subcube


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("tester-sweep", "budget-sweep", "exact-oracles"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for perfbench/selftest.py only")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def commit_id() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(sc, args, workload, inputs) -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "worker_count": sc.harness.worker_count(),
        "SUBCUBE_THREADS": os.environ.get("SUBCUBE_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "commit": commit_id(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        **workload.describe(inputs),
    }


def run_passes(workload, inputs, passes, cal, set_label=lambda label: None):
    """Run every pass; return the pass context and each pass's wall time,
    less the time spent in the calibration kernel."""
    from workloads import Checks, Digest, PassContext
    ctx = PassContext(Checks(), Digest(), {}, set_label, cal.maybe_sample)
    walls = []
    for k in range(passes):
        t0, spent = time.perf_counter(), cal.spent
        workload.run_pass(inputs, k, ctx)
        walls.append(time.perf_counter() - t0 - (cal.spent - spent))
    return ctx, walls


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def main(argv=None) -> int:
    args = parse_args(argv)
    sc = load_package()
    from workloads import WORKLOADS, Digest

    workload = WORKLOADS[args.workload](args.smoke)
    passes = max(1, int(args.seconds // PASS_SECONDS[args.workload]))
    if args.trace:
        passes = max(1, passes // 2)

    cal = Calibrator()

    # Set-up: draw every input for the run, several times; each repeat must
    # yield the same inputs, and its median time is setup_s.
    setup_times, setup_digests = [], set()
    for _ in range(SETUP_REPEATS):
        cal.sample()
        t0 = time.perf_counter()
        inputs = workload.setup(args.seed, passes)
        setup_times.append(time.perf_counter() - t0)
        d = Digest()
        for key, value in sorted(inputs.items()):
            for item in value if isinstance(value, list) else [value]:
                d.add(key, repr(item))
        setup_digests.add(d.hexdigest())

    ctx, walls = run_passes(workload, inputs, passes, cal)
    factor = cal.factor()
    checks = ctx.checks
    consistent = len(setup_digests) == 1
    if not consistent:
        checks.messages.append("set-up repeats drew different inputs")
    ops = {name: statistics.mean(v) for name, v in ctx.ops.items()}
    record = {"env": environment(sc, args, workload, inputs),
              "digest": ctx.digest.hexdigest(), "passes": passes,
              "pass_walls_s": walls, "setup_runs_s": setup_times,
              "ops_s": ctx.ops}

    raw = {"setup_s": statistics.median(setup_times),
           "pass_s": statistics.mean(walls),
           "op_geomean_s": geomean([ops[name] for name in workload.ops])}
    if not args.trace:
        metrics = {name: value * factor for name, value in raw.items()}
        metrics["peak_rss_mb"] = peak_rss_mb()
        units = E2E_UNITS
    else:
        import layers
        from tracing import Tracer
        tracer = Tracer(sc)
        tracer.install(layers.HOOKS)
        try:
            tctx, twalls = run_passes(workload, inputs, passes, cal, tracer.set_label)
        finally:
            tracer.remove()
        table = tracer.table()
        if tctx.digest.hexdigest() != record["digest"]:
            consistent = False
            checks.messages.append("traced digest differs from untraced digest")
        checks.attempted += tctx.checks.attempted
        checks.failed += tctx.checks.failed
        checks.messages += tctx.checks.messages
        metrics, units = layers.layer_metrics(table, ops, sc.harness.worker_count(),
                                              sum(twalls) / sum(walls) - 1)
        metrics.update({f"raw.{name}": value for name, value in raw.items()})
        metrics["calibration.factor"] = factor
        record["traced_digest"] = tctx.digest.hexdigest()
        record["traced_pass_walls_s"] = twalls
        spans = OUT / f"{args.workload}-s{args.seed}.spans.npz"
        layers.write_spans(table, spans)
        record["spans_file"] = str(spans.relative_to(ROOT))

    failed_rate = checks.failed / checks.attempted if checks.attempted else 1.0
    if args.trace:
        metrics["error_rate"] = failed_rate
    correct = checks.failed == 0 and consistent and checks.attempted > 0
    result = {"correct": correct, "attempted": checks.attempted, "failed": checks.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    record.update(result=result, failures=checks.messages, ops_mean_s=ops,
                  raw=raw, calibration_factor=factor,
                  calibration_samples_s=cal.samples, peak_rss_mb=peak_rss_mb())

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    for name, value in ops.items():
        print(f"op     {name:<28} {value:12.6f} s")
    for name, value in raw.items():
        print(f"raw    {name:<28} {value:12.6f} s")
    print(f"calibration factor={factor:.6f} from {len(cal.samples)} kernel runs")
    print(f"checks attempted={checks.attempted} failed={checks.failed} "
          f"error_rate={failed_rate:.6f} digest={record['digest'][:16]}")
    for msg in checks.messages[:10]:
        print(f"FAILED {msg}")
    for name, m in result["metrics"].items():
        print(f"metric {name:<34} {m['value']:14.6f} {m['unit']}")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
