"""Instance files: JSON with tagged function specs and exact weights.

The on-disk shape is { "n": int, "function": tagged spec, "distribution":
[{"zeros": [...], "weight": "num/den"}] } with 1-based indices. Weights are
num/den strings so round-trips are bit-exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .adversarial import LBInstance, LBNoFunction, LBNoStarFunction
from .model import (
    DecisionList,
    FiniteDistribution,
    Flipped,
    FunctionSpec,
    GeneralConj,
    LinearThreshold,
    MonotoneConj,
    TruthTable,
    ZeroSet,
)

__all__ = [
    "ProblemInstance",
    "fraction_to_str",
    "parse_fraction",
    "function_to_obj",
    "function_from_obj",
    "instance_to_obj",
    "instance_from_obj",
    "save_instance",
    "load_instance",
    "structure_sidecar",
]


@dataclass(frozen=True)
class ProblemInstance:
    """A labeled instance as loaded from disk: (n, function, distribution)."""

    n: int
    function: FunctionSpec
    distribution: FiniteDistribution


def fraction_to_str(w) -> str:
    f = Fraction(w)
    return f"{f.numerator}/{f.denominator}"


def parse_fraction(text) -> Fraction:
    return Fraction(str(text))


def _sorted(xs) -> list:
    return sorted(int(x) for x in xs)


def _blocks_out(rows) -> list:
    return [[_sorted(blk) for blk in row] for row in rows]


def _blocks_in(rows) -> tuple:
    return tuple(tuple(frozenset(int(j) for j in blk) for blk in row)
                 for row in rows)


def function_to_obj(func: FunctionSpec) -> dict:
    """Encode a function spec as a tagged JSON-ready dict."""
    if isinstance(func, MonotoneConj):
        return {"type": "monotone-conjunction", "n": func.n,
                "required": _sorted(func.required)}
    if isinstance(func, GeneralConj):
        return {"type": "conjunction", "n": func.n,
                "required_one": _sorted(func.required_one),
                "required_zero": _sorted(func.required_zero)}
    if isinstance(func, DecisionList):
        return {"type": "decision-list", "n": func.n,
                "rules": [[lit, bit] for lit, bit in func.rules],
                "default": func.default}
    if isinstance(func, LinearThreshold):
        return {"type": "ltf", "n": func.n, "weights": list(func.weights),
                "threshold": func.threshold}
    if isinstance(func, TruthTable):
        return {"type": "truth-table", "n": func.n, "bits": hex(func.bits)}
    if isinstance(func, Flipped):
        return {"type": "flipped", "coords": _sorted(func.coords),
                "inner": function_to_obj(func.inner)}
    if isinstance(func, (LBNoFunction, LBNoStarFunction)):
        star = isinstance(func, LBNoStarFunction)
        obj = {"type": "lb-no-ltf" if star else "lb-no", "n": func.n,
               "R": _sorted(func.R), "alpha": list(func.alpha),
               "a_blocks": _blocks_out(func.a_blocks),
               "b_blocks": _blocks_out(func.b_blocks), "s": func.s}
        if star:
            obj["threshold"] = func.threshold
        return obj
    raise TypeError(f"cannot serialize {type(func).__name__}")


def function_from_obj(obj: dict) -> FunctionSpec:
    """Decode a tagged dict back into a function spec."""
    tag = obj.get("type")
    if tag == "monotone-conjunction":
        return MonotoneConj(int(obj["n"]), frozenset(obj["required"]))
    if tag == "conjunction":
        return GeneralConj(int(obj["n"]), frozenset(obj["required_one"]),
                           frozenset(obj["required_zero"]))
    if tag == "decision-list":
        return DecisionList(int(obj["n"]),
                            tuple((int(l), int(b)) for l, b in obj["rules"]),
                            int(obj["default"]))
    if tag == "ltf":
        return LinearThreshold(int(obj["n"]),
                               tuple(int(w) for w in obj["weights"]),
                               int(obj["threshold"]))
    if tag == "truth-table":
        return TruthTable(int(obj["n"]), int(obj["bits"], 16))
    if tag == "flipped":
        return Flipped(function_from_obj(obj["inner"]),
                       frozenset(obj["coords"]))
    if tag in ("lb-no", "lb-no-ltf"):
        hidden = (int(obj["n"]), frozenset(obj["R"]), tuple(obj["alpha"]),
                  _blocks_in(obj["a_blocks"]), _blocks_in(obj["b_blocks"]),
                  int(obj["s"]))
        if tag == "lb-no":
            return LBNoFunction(*hidden)
        return LBNoStarFunction(*hidden, int(obj["threshold"]))
    raise ValueError(f"unknown function type {tag!r}")


def instance_to_obj(n: int, func: FunctionSpec,
                    dist: FiniteDistribution) -> dict:
    return {
        "n": n,
        "function": function_to_obj(func),
        "distribution": [
            {"zeros": point.sorted_zeros(), "weight": fraction_to_str(w)}
            for point, w in dist.entries
        ],
    }


def instance_from_obj(obj: dict) -> ProblemInstance:
    n = int(obj["n"])
    func = function_from_obj(obj["function"])
    entries = tuple(
        (ZeroSet(n, frozenset(int(i) for i in row["zeros"])),
         parse_fraction(row["weight"]))
        for row in obj["distribution"]
    )
    return ProblemInstance(n, func, FiniteDistribution(n, entries))


def save_instance(path, n: int, func: FunctionSpec,
                  dist: FiniteDistribution) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_obj(n, func, dist), fh, indent=1)
        fh.write("\n")


def load_instance(path) -> ProblemInstance:
    with open(path, encoding="utf-8") as fh:
        return instance_from_obj(json.load(fh))


def structure_sidecar(inst: LBInstance) -> dict:
    """The hidden structure of a generated instance, for white-box tests."""
    obj = {
        "variant": inst.variant,
        "params": {
            "n": inst.params.n, "h": inst.params.h,
            "r_blocks": inst.params.r_blocks, "m": inst.params.m,
            "s": inst.params.s,
            "blocks_per_side": inst.params.blocks_per_side,
        },
        "R": _sorted(inst.R),
        "blocks": [_sorted(blk) for blk in inst.blocks],
        "alpha": list(inst.alpha),
        "beta": list(inst.beta),
        "a_block_ids": [list(row) for row in inst.a_block_ids],
        "b_block_ids": [list(row) for row in inst.b_block_ids],
    }
    if inst.theta4 is not None:
        obj["theta4"] = inst.theta4
    return obj
