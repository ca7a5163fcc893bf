"""Instance file round-trips: every function tag, exact weights, sidecars."""

import json
from fractions import Fraction

import pytest

from subcube import (
    DecisionList,
    FiniteDistribution,
    Flipped,
    GeneralConj,
    LBParams,
    LinearThreshold,
    MonotoneConj,
    RandomStream,
    TruthTable,
    function_from_obj,
    function_to_obj,
    generate_instance,
    instance_from_obj,
    instance_to_obj,
    load_instance,
    save_instance,
    structure_sidecar,
)
from subcube.serialize import fraction_to_str, parse_fraction
from helpers import rand_dist, table_of, zs

SCALED = LBParams(60, h=4, r_blocks=6, m=3, s=1, blocks_per_side=1)


def test_fraction_strings():
    assert fraction_to_str(Fraction(2, 6)) == "1/3"
    assert fraction_to_str(1) == "1/1"
    assert parse_fraction("3/4") == Fraction(3, 4)
    assert parse_fraction("1") == Fraction(1)
    with pytest.raises(ValueError):
        parse_fraction("nope")


def plain_specs():
    return [
        MonotoneConj(6, frozenset({2, 5})),
        MonotoneConj(6, frozenset()),
        GeneralConj(6, frozenset({1}), frozenset({3, 4})),
        GeneralConj(6, frozenset({2}), frozenset({2})),
        DecisionList(6, ((-3, 1), (1, 0), (6, 1)), 0),
        LinearThreshold(6, (2, -1, 0, 3, -2, 1), 2),
        TruthTable(4, 0xBEEF),
        Flipped(MonotoneConj(6, frozenset({1, 2})), frozenset({2, 4})),
    ]


@pytest.mark.parametrize("func", plain_specs())
def test_function_round_trip(func):
    obj = function_to_obj(func)
    back = function_from_obj(json.loads(json.dumps(obj)))
    assert back == func
    assert table_of(back, func.n) == table_of(func, func.n)


def test_truth_table_bits_serialize_as_hex():
    obj = function_to_obj(TruthTable(4, 0xBEEF))
    assert obj["bits"] == "0xbeef"
    assert function_from_obj(obj).bits == 0xBEEF


def test_unknown_tag_rejected():
    with pytest.raises(ValueError):
        function_from_obj({"type": "mystery", "n": 3})


def test_unserializable_spec_rejected():
    class Odd:
        n = 3
    with pytest.raises(TypeError):
        function_to_obj(Odd())


def test_hidden_structure_function_round_trip():
    rng = RandomStream(77)
    for inst in (generate_instance(SCALED, "no", rng.split("no")),
                 generate_instance(LBParams(60, 4, 7, 3, 1, 2), "no-ltf",
                                   rng.split("ltf"))):
        back = function_from_obj(
            json.loads(json.dumps(function_to_obj(inst.function))))
        assert back == inst.function
        for point, _ in inst.distribution.entries:
            assert back.value_at(point.zeros) == \
                inst.function.value_at(point.zeros)


def test_instance_obj_round_trip():
    f = GeneralConj(6, frozenset({1}), frozenset({6}))
    d = rand_dist(RandomStream(78), 6, 7)
    obj = instance_to_obj(6, f, d)
    back = instance_from_obj(json.loads(json.dumps(obj)))
    assert back.n == 6
    assert back.function == f
    assert back.distribution == d  # weights are exact, so equality is exact


def test_save_load_file(tmp_path):
    f = MonotoneConj(5, frozenset({2}))
    d = rand_dist(RandomStream(79), 5, 4)
    path = tmp_path / "inst.json"
    save_instance(path, 5, f, d)
    text = path.read_text()
    assert text.endswith("\n")
    obj = json.loads(text)
    assert set(obj) == {"n", "function", "distribution"}
    assert all(set(row) == {"zeros", "weight"} for row in obj["distribution"])
    loaded = load_instance(path)
    assert loaded.function == f
    assert loaded.distribution == d


def test_structure_sidecar_fields():
    inst = generate_instance(SCALED, "no", RandomStream(80))
    side = structure_sidecar(inst)
    assert side["variant"] == "no"
    assert side["params"]["m"] == 3
    assert side["R"] == sorted(inst.R)
    assert len(side["blocks"]) == SCALED.r_blocks
    assert len(side["alpha"]) == len(side["beta"]) == 3
    assert "theta4" not in side
    star = generate_instance(LBParams(60, 4, 7, 3, 1, 2), "no-ltf",
                             RandomStream(81))
    assert structure_sidecar(star)["theta4"] == star.theta4
    json.dumps(side)  # sidecars must be JSON-ready as built
