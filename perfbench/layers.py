"""Per-layer metrics computed from the spans of a traced pass.

Every traced run prints every metric below, on every workload: a layer the
workload does not reach reads 0, which is the prediction for it (see
README.md). Times marked ``.s`` are busy time summed over threads; ``.self_s``
subtracts the time covered by child spans.
"""

from __future__ import annotations

import numpy as np

from tracing import LAYERS
from workloads import FAR_CELL, TESTER_CELLS, WORKLOADS

TAPE = "model.SampleTape.next_indices"
TAPE_REPLAY = TAPE + ".replay"

HOOKS = {
    # samples yielded by each tape call; calls after rewind() are replays
    TAPE: (lambda args, result: len(result),
           (TAPE_REPLAY, lambda args: not args[0]._first_pass)),
    "violation.prune_to_regular": (lambda args, result: result.rounds, None),
}

CELL_NAMES = tuple(c.name for c in TESTER_CELLS) + (FAR_CELL,)
OPS = tuple(name for w in WORKLOADS.values() for name in w.ops) + (f"trial_s.{FAR_CELL}",)
DISTANCES = ("mconj", "conj", "dlist", "ltf")

UNITS = {
    "model.tape.samples": "count",
    "model.tape.s": "s",
    "model.tape.replay_s": "s",
    "model.tape.ns_per_sample": "ns",
    **{f"model.tape.ns_per_sample.{c}": "ns" for c in CELL_NAMES},
    "model.draw_index.calls": "count",
    "model.draw_index.s": "s",
    "model.sampler_init.calls": "count",
    "model.sampler_init.s": "s",
    "model.distribution_init.s": "s",
    "model.blackbox.queries": "count",
    "model.blackbox.s": "s",
    "tester.stage0_s": "s",
    "tester.stage12_s": "s",
    "tester.rep_search.calls": "count",
    "tester.rep_search.s": "s",
    "tester.baseline.s": "s",
    "harness.workers": "count",
    "harness.pool_busy_frac": "ratio",
    "adversarial.generate.calls": "count",
    "adversarial.generate.self_s": "s",
    "adversarial.validate.s": "s",
    "adversarial.value_at.calls": "count",
    "adversarial.value_at.s": "s",
    "adversarial.strong_sample.calls": "count",
    "adversarial.strong_sample.s": "s",
    "rng.subset_positions.s": "s",
    "rng.sample.s": "s",
    **{f"distances.{d}.{k}": u for d in DISTANCES
       for k, u in (("calls", "count"), ("s", "s"))},
    "distances.consistency_checks": "count",
    "distances.useful_ratio": "ratio",
    "violation.build.s": "s",
    "violation.cover.calls": "count",
    "violation.cover.s": "s",
    "violation.prune.self_s": "s",
    "violation.prune.rounds": "count",
    "violation.diagnostics.s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead": "ratio",
    "error_rate": "ratio",
    **{name: "s" for name in OPS},
    "raw.setup_s": "s",
    "raw.pass_s": "s",
    "raw.op_geomean_s": "s",
    "calibration.factor": "ratio",
}


def layer_metrics(table: dict, ops: dict, workers: int, overhead: float):
    """(metrics, units) for the traced passes; ops holds the untraced per-op
    medians, workers the pool size, overhead the traced/untraced wall ratio
    minus one."""
    names = table["names"]
    ids = {n: i for i, n in enumerate(names)}
    name, dur, self_ns = table["name"], table["dur"], table["self"]
    size = len(names)
    count = np.bincount(name, minlength=size)
    busy = np.bincount(name, weights=dur, minlength=size) / 1e9
    own = np.bincount(name, weights=self_ns, minlength=size) / 1e9
    amounts = table["amounts"]

    def calls(*keys):
        return int(sum(count[ids[k]] for k in keys if k in ids))

    def secs(*keys, of=busy):
        return float(sum(of[ids[k]] for k in keys if k in ids))

    def amount(key, label=None):
        return sum(v for (n, lab), v in amounts.items()
                   if n == key and (label is None or lab == label))

    m = {}
    samples = amount(TAPE) + amount(TAPE_REPLAY)
    m["model.tape.samples"] = samples
    m["model.tape.s"] = secs(TAPE, TAPE_REPLAY)
    m["model.tape.replay_s"] = secs(TAPE_REPLAY)
    m["model.tape.ns_per_sample"] = m["model.tape.s"] * 1e9 / samples if samples else 0.0
    labels = table["labels"]
    for cell in CELL_NAMES:
        lab = labels.index(cell) if cell in labels else -1
        mask = (table["label"] == lab) & np.isin(
            name, [ids[k] for k in (TAPE, TAPE_REPLAY) if k in ids])
        n_cell = amount(TAPE, cell) + amount(TAPE_REPLAY, cell)
        m[f"model.tape.ns_per_sample.{cell}"] = (
            float(dur[mask].sum()) / n_cell if n_cell else 0.0)
    m["model.draw_index.calls"] = calls("model.Sampler.draw_index")
    m["model.draw_index.s"] = secs("model.Sampler.draw_index")
    m["model.sampler_init.calls"] = calls("model.Sampler.__init__")
    m["model.sampler_init.s"] = secs("model.Sampler.__init__")
    m["model.distribution_init.s"] = secs("model.FiniteDistribution.__post_init__")
    m["model.blackbox.queries"] = calls("model.BlackBox.query_set")
    m["model.blackbox.s"] = secs("model.BlackBox.query_set")

    stage0, stage12 = _stages(table, ids)
    m["tester.stage0_s"] = stage0
    m["tester.stage12_s"] = stage12
    m["tester.rep_search.calls"] = calls("tester.binary_search_representative")
    m["tester.rep_search.s"] = secs("tester.binary_search_representative")
    m["tester.baseline.s"] = secs("tester.baseline_dolev_ron")

    m["harness.workers"] = workers
    m["harness.pool_busy_frac"] = _pool_busy(table, ids)
    m["adversarial.generate.calls"] = calls("adversarial.generate_instance")
    m["adversarial.generate.self_s"] = secs("adversarial.generate_instance", of=own)
    m["adversarial.validate.s"] = secs("adversarial.validate_instance")
    value_at = ("adversarial.LBNoFunction.value_at", "adversarial.LBNoStarFunction.value_at")
    m["adversarial.value_at.calls"] = calls(*value_at)
    m["adversarial.value_at.s"] = secs(*value_at)
    m["adversarial.strong_sample.calls"] = calls("adversarial.strong_sample")
    m["adversarial.strong_sample.s"] = secs("adversarial.strong_sample")
    m["rng.subset_positions.s"] = secs("rng.RandomStream.subset_positions")
    m["rng.sample.s"] = secs("rng.RandomStream.sample")

    for d in DISTANCES:
        m[f"distances.{d}.calls"] = calls(f"distances.exact_distance_{d}")
        m[f"distances.{d}.s"] = secs(f"distances.exact_distance_{d}")
    checks = calls(*(f"distances.{d}_consistent" for d in DISTANCES))
    m["distances.consistency_checks"] = checks
    distance_calls = sum(m[f"distances.{d}.calls"] for d in DISTANCES)
    m["distances.useful_ratio"] = distance_calls / checks if checks else 0.0

    m["violation.build.s"] = secs("violation.build_violation_bigraph")
    m["violation.cover.calls"] = calls("violation.min_weight_vertex_cover")
    m["violation.cover.s"] = secs("violation.min_weight_vertex_cover")
    m["violation.prune.self_s"] = secs("violation.prune_to_regular", of=own)
    m["violation.prune.rounds"] = amount("violation.prune_to_regular")
    m["violation.diagnostics.s"] = secs("violation.regularity_diagnostics")

    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(sum(
            own[i] for n, i in ids.items() if n.split(".")[0] == layer))
    m["trace.spans"] = int(len(name))
    m["trace.overhead"] = overhead
    for op in OPS:
        m[op] = ops.get(op, 0.0)
    return m, UNITS


def _stages(table, ids):
    """Stage-0 time runs from tester entry to the tape rewind; Stages 1-2
    from the rewind's return to the tester's return."""
    tm = ids.get("tester.test_monotone_conjunction")
    if tm is None:
        return 0.0, 0.0
    name, start, end, parent = table["name"], table["start"], table["end"], table["parent"]
    testers = np.flatnonzero(name == tm)
    stage0 = float((end[testers] - start[testers]).sum())
    stage12 = 0.0
    rw = ids.get("model.SampleTape.rewind")
    if rw is not None:
        for r in np.flatnonzero(name == rw):
            p = parent[r]
            if p >= 0 and name[p] == tm:
                stage0 -= end[p] - start[r]
                stage12 += end[p] - end[r]
    return stage0 / 1e9, stage12 / 1e9


def _pool_busy(table, ids) -> float:
    rt, one = ids.get("harness.run_trials"), ids.get("harness._run_one")
    if rt is None or one is None:
        return 0.0
    name, parent, dur, thread = table["name"], table["parent"], table["dur"], table["thread"]
    runs = np.flatnonzero(name == rt)
    kids = np.flatnonzero(name == one)
    busy = capacity = 0
    for r in runs:
        mine = kids[parent[kids] == r]
        busy += int(dur[mine].sum())
        capacity += int(dur[r]) * len(set(thread[mine].tolist()))
    return busy / capacity if capacity else 0.0


def write_spans(table: dict, path) -> None:
    """Write every span as numpy columns."""
    path.parent.mkdir(exist_ok=True)
    np.savez(path, **{k: table[k] for k in
                      ("name", "start", "end", "parent", "label", "thread", "self")},
             names=np.array(table["names"]), labels=np.array(table["labels"]),
             threads=np.array(table["threads"]))
