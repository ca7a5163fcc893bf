"""Command-line front end: test, distance, violation, gen-instance, experiment."""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from fractions import Fraction

from .adversarial import LBParams, desk_params, generate_instance, paper_params
from .distances import (
    exact_distance_conj,
    exact_distance_dlist,
    exact_distance_ltf,
    exact_distance_mconj,
)
from .harness import (
    ALGOS,
    ExperimentConfig,
    distinguishing_experiment,
    run_trials,
    sweep_configs,
    write_experiment_csv,
    write_trials_csv,
)
from .model import InfeasibleParameters
from .rng import RandomStream
from .serialize import (
    fraction_to_str,
    function_to_obj,
    load_instance,
    parse_fraction,
    save_instance,
    structure_sidecar,
)
from .tester import _epsilon, compute_parameters
from .violation import (
    build_violation_bigraph,
    prune_to_regular,
    regularity_diagnostics,
)

__all__ = ["main"]


def _fraction(text: str) -> Fraction:
    try:
        return parse_fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < (1 << 64):
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


def _parse_scaled(text: str) -> dict:
    fields = {}
    for part in text.split(","):
        if "=" not in part:
            raise argparse.ArgumentTypeError(f"bad scaled field {part!r}")
        key, value = part.split("=", 1)
        key = key.strip()
        if key in fields:
            raise argparse.ArgumentTypeError(f"scaled field {key!r} repeated")
        fields[key] = int(value)
    required = {"h", "r_blocks", "m", "s", "bps"}
    if set(fields) != required:
        raise argparse.ArgumentTypeError(
            f"scaled mode needs exactly {sorted(required)}")
    return fields


def _desk_fallback_params(n: int) -> LBParams:
    """Paper-mode parameters when feasible, the desk recipe otherwise."""
    try:
        return paper_params(n)
    except InfeasibleParameters:
        return desk_params(n)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subcube",
        description="Distribution-free testers for conjunctions, with exact "
                    "distance oracles and hard-instance experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run one tester trial on an instance file")
    p_test.add_argument("--instance", required=True)
    p_test.add_argument("--algo", choices=ALGOS, required=True)
    p_test.add_argument("--epsilon", type=_fraction, required=True)
    p_test.add_argument("--seed", type=_seed, default=0)
    p_test.add_argument("--amplify", type=int, default=1)
    p_test.add_argument("--log-queries", action="store_true")

    p_dist = sub.add_parser("distance", help="exact distance to a function class")
    p_dist.add_argument("--instance", required=True)
    p_dist.add_argument("--class", dest="klass", required=True,
                        choices=("mconj", "conj", "dlist", "ltf"))
    p_dist.add_argument("--witness", action="store_true")

    p_vio = sub.add_parser("violation", help="violation graph or prune report")
    p_vio.add_argument("--instance", required=True)
    p_vio.add_argument("--epsilon", type=_fraction, required=True)
    p_vio.add_argument("--emit", choices=("graph", "prune-report"),
                       default="graph")

    p_gen = sub.add_parser("gen-instance", help="draw a hard instance")
    p_gen.add_argument("--variant", required=True,
                       choices=("yes", "no", "yes-ltf", "no-ltf"))
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--scaled", type=_parse_scaled, default=None,
                       help="h=..,r_blocks=..,m=..,s=..,bps=..")
    p_gen.add_argument("--seed", type=_seed, default=0)
    p_gen.add_argument("--out", required=True)

    p_exp = sub.add_parser("experiment", help="budget-sweep distinguishing run")
    p_exp.add_argument("--algo", choices=ALGOS, required=True)
    p_exp.add_argument("--variant-pair", required=True,
                       choices=("yes:no", "yes-ltf:no-ltf"))
    p_exp.add_argument("--n", type=int, required=True)
    p_exp.add_argument("--epsilon", type=_fraction, required=True)
    p_exp.add_argument("--trials", type=int, required=True)
    p_exp.add_argument("--seed", type=_seed, default=0)
    p_exp.add_argument("--budget", required=True,
                       help="query budget, or a comma list for a sweep")
    p_exp.add_argument("--amplify", type=int, default=1)
    p_exp.add_argument("--out", required=True, help="CSV path, - for stdout")
    return parser


def _cmd_test(args) -> int:
    inst = load_instance(args.instance)
    config = ExperimentConfig(
        algo=args.algo, epsilon=args.epsilon, trials=1, seed=args.seed,
        amplify_k=args.amplify,
        instance=(inst.n, inst.function, inst.distribution),
        log_queries=args.log_queries)
    results = run_trials(config)
    write_trials_csv(sys.stdout, results)
    if args.log_queries:
        tr = results[0].transcript
        for zeros, value in tr.blackbox_log:
            print(f"query zeros={sorted(zeros)} -> {value}", file=sys.stderr)
        for zeros, label in tr.sample_log:
            print(f"sample zeros={sorted(zeros)} -> {label}", file=sys.stderr)
    return 0


_DISTANCES = {
    "mconj": exact_distance_mconj,
    "conj": exact_distance_conj,
    "dlist": exact_distance_dlist,
    "ltf": exact_distance_ltf,
}


def _cmd_distance(args) -> int:
    inst = load_instance(args.instance)
    fn = _DISTANCES[args.klass]
    if not args.witness:
        print(fraction_to_str(fn(inst.function, inst.distribution)))
        return 0
    value, witness = fn(inst.function, inst.distribution, return_witness=True)
    print(fraction_to_str(value))
    if args.klass in ("mconj", "conj"):
        print("witness: " + json.dumps(function_to_obj(witness)))
    else:
        flips = [sorted(p.zeros) for p in witness]
        print("flip: " + json.dumps(flips))
    return 0


def _dump_graph(G, out) -> None:
    for k, (point, w) in enumerate(G.left):
        print(f"left {k}: zeros={point.sorted_zeros()} "
              f"weight={fraction_to_str(w)}", file=out)
    for k, (j, w) in enumerate(G.right):
        print(f"right {k}: index={j} weight={fraction_to_str(w)}", file=out)
    for li, ri in G.edges:
        print(f"edge: {li} {ri}", file=out)
    for point, w in G.empty_strings:
        print(f"empty: zeros={point.sorted_zeros()} "
              f"weight={fraction_to_str(w)}", file=out)


def _cmd_violation(args) -> int:
    _epsilon(args.epsilon)
    inst = load_instance(args.instance)
    G = build_violation_bigraph(inst.function, inst.distribution)
    out = sys.stdout
    if args.emit == "graph":
        _dump_graph(G, out)
        return 0
    d = compute_parameters(inst.n, args.epsilon).d
    report = prune_to_regular(G, args.epsilon, d)
    print(f"exit_reason: {report.exit_reason}", file=out)
    print(f"rounds: {report.rounds}", file=out)
    print(f"d: {d}", file=out)
    print(f"W: {fraction_to_str(report.W)}", file=out)
    for entry in report.removed_S:
        side, vertex, w = entry
        if side == "left":
            print(f"removed left: zeros={vertex.sorted_zeros()} "
                  f"weight={fraction_to_str(w)}", file=out)
        else:
            print(f"removed right: index={vertex} "
                  f"weight={fraction_to_str(w)}", file=out)
    print(f"L_prime_size: {len(report.L_prime)}", file=out)
    print("G_star:", file=out)
    _dump_graph(report.G_star, out)
    if report.exit_reason == "no-heavy-left":
        diag = regularity_diagnostics(report, args.epsilon, d)
        print(f"wt_L_prime: {fraction_to_str(diag['wt_L_prime'])}", file=out)
        print(f"min_cover: {fraction_to_str(diag['min_cover'])}", file=out)
        for key in ("flag_W", "flag_L_prime", "flag_cover"):
            print(f"{key}: {diag[key]}", file=out)
    return 0


def _cmd_gen_instance(args) -> int:
    if args.scaled is not None:
        f = args.scaled
        params = LBParams(n=args.n, h=f["h"], r_blocks=f["r_blocks"],
                          m=f["m"], s=f["s"], blocks_per_side=f["bps"])
    else:
        params = paper_params(args.n)
    rng = RandomStream(args.seed)
    inst = generate_instance(params, args.variant, rng)
    save_instance(args.out, inst.n, inst.function, inst.distribution)
    sidecar_path = args.out + ".sidecar.json"
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump(structure_sidecar(inst), fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    print(f"wrote {sidecar_path}")
    return 0


def _cmd_experiment(args) -> int:
    budgets = [int(part) for part in str(args.budget).split(",") if part != ""]
    if not budgets:
        raise ValueError("empty budget list")
    yes_variant, no_variant = args.variant_pair.split(":")
    sweep = dict(algo=args.algo, params=_desk_fallback_params(args.n),
                 yes_variant=yes_variant, no_variant=no_variant,
                 epsilon=args.epsilon, trials=args.trials, seed=args.seed,
                 budgets=budgets, amplify_k=args.amplify)
    # Check every argument, then open the output, and only then run the
    # sweep: a bad argument leaves no file, and a bad path fails at once.
    sweep_configs(**sweep)
    to_stdout = args.out == "-"
    with (contextlib.nullcontext(sys.stdout) if to_stdout
          else open(args.out, "w", encoding="utf-8", newline="")) as fh:
        rows = distinguishing_experiment(**sweep)
        if args.algo != "dolev-ron":
            print("note: the sim_* columns run the dolev-ron baseline, "
                  f"not {args.algo}", file=sys.stderr)
        write_experiment_csv(fh, rows)
    if not to_stdout:
        print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "test": _cmd_test,
    "distance": _cmd_distance,
    "violation": _cmd_violation,
    "gen-instance": _cmd_gen_instance,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
