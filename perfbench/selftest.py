"""Smoke-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload on tiny inputs, untraced and traced, and checks that
each run prints every metric BENCHMARK.json names, with its unit; that the
traced and a repeated untraced run reproduce the untraced digest; that a
corrupted output counts as a failed operation; and that the runner refuses
to run without the package source. Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def run_cli(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def record(workload: str, trace: int) -> dict:
    return json.loads((HERE / "out" / f"{workload}-s{SEED}-t{trace}.json").read_text())


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            problems.append(what)

    for w in spec["workloads"]:
        name = w["name"]
        digests = []
        for trace in (0, 1, 0):
            proc = run_cli(name, trace)
            expect(proc.returncode == 0, f"{name} trace={trace} exits 0")
            result = last_json(proc.stdout)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} trace={trace} result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{name} trace={trace} correct with no failures")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted[trace],
                   f"{name} trace={trace} prints every metric with its unit")
            rec = record(name, trace)
            digests.append(rec["digest"])
            if trace:
                expect(rec["traced_digest"] == rec["digest"],
                       f"{name} traced digest equals untraced digest")
        expect(len(set(digests)) == 1, f"{name} digests agree across runs")

    for name, patch in CORRUPTIONS.items():
        result = corrupted_run(name, patch)
        expect(result["failed"] > 0 and not result["correct"],
               f"{name} corrupted output counts in error_rate "
               f"({result['failed']}/{result['attempted']})")

    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_cli("exact-oracles", 0, cwd=bare)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without src/ the runner exits non-zero and prints no result")

    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


def corrupted_run(workload: str, patch) -> dict:
    """Run one smoke workload in this process with a package output broken."""
    sys.path.insert(0, str(HERE))
    import run
    sc = run.load_package()
    undo = patch(sc)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                      "--trace", "0", "--smoke"])
    finally:
        undo()
    return last_json(out.getvalue())


def _swap(owner, attr, make):
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    return lambda: setattr(owner, attr, original)


def _reject_first(sc):
    def make(original):
        def run_trials(config):
            results = original(config)
            results[0].accepted = False
            return results
        return run_trials
    return _swap(sc.harness, "run_trials", make)


def _lower_yes_rate(sc):
    def make(original):
        def experiment(*args, **kwargs):
            rows = original(*args, **kwargs)
            rows[-1]["yes_accept"] = 0.5
            return rows
        return experiment
    return _swap(sc.harness, "distinguishing_experiment", make)


def _inflate_dlist(sc):
    def make(original):
        return lambda f, dist, **kw: original(f, dist, **kw) + 1
    return _swap(sc.distances, "exact_distance_dlist", make)


CORRUPTIONS = {"tester-sweep": _reject_first, "budget-sweep": _lower_yes_rate,
               "exact-oracles": _inflate_dlist}


if __name__ == "__main__":
    sys.exit(main())
