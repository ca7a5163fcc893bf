"""Instance files: JSON with tagged function specs and exact weights.

The on-disk shape is { "n": int, "function": tagged spec, "distribution":
[{"zeros": [...], "weight": "num/den"}] } with 1-based indices. Weights are
num/den strings so round-trips are bit-exact. Decoding checks the schema,
that every n agrees, and that every coordinate is an int in 1..n; a file that
fails raises InstanceFormatError naming the offending key, or saying that it
nests too deeply to decode.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass
from fractions import Fraction

from .adversarial import LBInstance, LBNoFunction, _decoded_table
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
    "InstanceFormatError",
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


class InstanceFormatError(ValueError):
    """An instance file (or function object) that does not fit the schema."""


@dataclass(frozen=True)
class ProblemInstance:
    """A labeled instance as loaded from disk: (n, function, distribution)."""

    n: int
    function: FunctionSpec
    distribution: FiniteDistribution


def fraction_to_str(w) -> str:
    f = Fraction(w)
    return f"{f.numerator}/{f.denominator}"


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_fraction(text) -> Fraction:
    """An integer or num/den, with an optional sign; anything else (a
    decimal or exponent such as 1e-9 included) raises ValueError."""
    text = str(text)
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"{text!r} is not an integer or num/den")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None


def _sorted(xs) -> list:
    return sorted(int(x) for x in xs)


def _blocks_out(rows) -> list:
    return [[_sorted(blk) for blk in row] for row in rows]


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
    if isinstance(func, LBNoFunction):
        star = func.threshold is not None
        obj = {"type": "lb-no-ltf" if star else "lb-no", "n": func.n,
               "R": _sorted(func.R), "alpha": list(func.alpha),
               "a_blocks": _blocks_out(func.a_blocks),
               "b_blocks": _blocks_out(func.b_blocks), "s": func.s}
        if star:
            obj["threshold"] = func.threshold
        return obj
    raise TypeError(f"cannot serialize {type(func).__name__}")


def _get(obj, key: str, where: str):
    if not isinstance(obj, dict):
        raise InstanceFormatError(f"{where}: expected a JSON object")
    if key not in obj:
        raise InstanceFormatError(f"{where}: missing key {key!r}")
    return obj[key]


def _ints(value, where: str, n=None, depth: int = 1) -> list:
    """value, checked to be a list (nested depth deep) of ints that are not
    bools, each in 1..n when n is given."""
    if not isinstance(value, list):
        raise InstanceFormatError(f"{where}: expected a list")
    for v in value:
        if depth > 1:
            _ints(v, where, n, depth - 1)
        elif (not isinstance(v, int) or isinstance(v, bool)
              or n is not None and not 1 <= v <= n):
            span = "" if n is None else f" in 1..{n}"
            raise InstanceFormatError(f"{where}: {v!r} is not an integer{span}")
    return value


_TAGS = ("monotone-conjunction", "conjunction", "decision-list", "ltf",
         "truth-table", "flipped", "lb-no", "lb-no-ltf")


def function_from_obj(obj: dict) -> FunctionSpec:
    """Decode a tagged dict back into a function spec."""
    return _function(obj, "function")


def _function(obj, where: str) -> FunctionSpec:
    def ints(key, n=None, depth=1):
        return _ints(_get(obj, key, where), f"{where}.{key}", n, depth)

    def num(key):
        return _ints([_get(obj, key, where)], f"{where}.{key}")[0]

    tag = _get(obj, "type", where)
    if tag not in _TAGS:
        raise InstanceFormatError(f"{where}.type: unknown function type {tag!r}")
    if tag == "flipped":
        inner = _function(_get(obj, "inner", where), f"{where}.inner")
        return Flipped(inner, ints("coords", inner.n))
    n = num("n")
    if tag == "monotone-conjunction":
        return MonotoneConj(n, ints("required", n))
    if tag == "conjunction":
        return GeneralConj(n, ints("required_one", n), ints("required_zero", n))
    if tag == "decision-list":
        rules = ints("rules", depth=2)
        if any(len(rule) != 2 for rule in rules):
            raise InstanceFormatError(f"{where}.rules: a rule is not a [literal, bit]")
        _ints([abs(lit) for lit, _ in rules], f"{where}.rules", n)
        return DecisionList(n, tuple(map(tuple, rules)), num("default"))
    if tag == "ltf":
        weights = ints("weights")
        if len(weights) != n:
            raise InstanceFormatError(f"{where}.weights: need one weight per coordinate")
        return LinearThreshold(n, tuple(weights), num("threshold"))
    if tag == "truth-table":
        bits = _get(obj, "bits", where)
        try:
            value = int(bits, 16)
        except (TypeError, ValueError):
            raise InstanceFormatError(f"{where}.bits: {bits!r} is not a hex string") from None
        return TruthTable(n, value)
    func = LBNoFunction(n, ints("R", n), ints("alpha", n), ints("a_blocks", n, 3),
                        ints("b_blocks", n, 3), num("s"),
                        num("threshold") if tag == "lb-no-ltf" else None)
    object.__setattr__(func, "_table", _decoded_table(func))  # as generation sets it
    return func


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
    """Decode an instance file's JSON value; see the module docstring."""
    n = _ints([_get(obj, "n", "instance")], "n")[0]
    func = function_from_obj(_get(obj, "function", "instance"))
    if func.n != n:
        raise InstanceFormatError(f"function.n is {func.n}, the file's n is {n}")
    rows = _get(obj, "distribution", "instance")
    if not isinstance(rows, list):
        raise InstanceFormatError("distribution: expected a list of entries")
    entries = []
    for k, row in enumerate(rows):
        where = f"distribution[{k}]"
        zeros = _ints(_get(row, "zeros", where), f"{where}.zeros", n)
        text = _get(row, "weight", where)
        try:
            weight = parse_fraction(text)
        except ValueError as exc:
            raise InstanceFormatError(f"{where}.weight: {exc}") from None
        entries.append((ZeroSet(n, frozenset(zeros)), weight))
    return ProblemInstance(n, func, FiniteDistribution(n, tuple(entries)))


def save_instance(path, n: int, func: FunctionSpec,
                  dist: FiniteDistribution) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_obj(n, func, dist), fh, indent=1)
        fh.write("\n")


def load_instance(path) -> ProblemInstance:
    with open(path, encoding="utf-8") as fh:
        try:
            return instance_from_obj(json.load(fh))
        except RecursionError:
            raise InstanceFormatError("instance: nested too deeply") from None


def structure_sidecar(inst: LBInstance) -> dict:
    """The hidden structure of a generated instance, for white-box tests."""
    obj = {
        "variant": inst.variant,
        "params": asdict(inst.params),
        "R": inst.R.tolist(),
        "blocks": [sorted(blk) for blk in inst.blocks.tolist()],
        "alpha": inst.alpha.tolist(),
        "beta": inst.beta.tolist(),
        "a_block_ids": inst.a_block_ids.tolist(),
        "b_block_ids": inst.b_block_ids.tolist(),
    }
    if inst.theta4 is not None:
        obj["theta4"] = inst.theta4
    return obj
