"""Instance file round-trips: every function tag, exact weights, sidecars;
malformed files end in InstanceFormatError, which the CLI reports as exit 2."""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import subcube.cli as cli
from subcube import (
    DecisionList,
    DimensionMismatch,
    FiniteDistribution,
    Flipped,
    GeneralConj,
    InstanceFormatError,
    LabeledSample,
    LBParams,
    LinearThreshold,
    MonotoneConj,
    RandomStream,
    TruthTable,
    ZeroSet,
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
    assert parse_fraction(-3) == -3  # a JSON integer
    assert parse_fraction("+6/4") == Fraction(3, 2)
    for text in ("nope", "1e-100000000", "0.5", 0.5, " 1/2", "1_0", "1/-2", "", None):
        with pytest.raises(ValueError, match="is not an integer or num/den"):
            parse_fraction(text)
    with pytest.raises(ValueError, match="zero denominator"):
        parse_fraction("1/0")


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


_FAMILIES = ("monotone-conjunction", "conjunction", "decision-list", "ltf", "truth-table",
             "flipped", "lb-no", "lb-no-ltf")


@st.composite
def functions(draw, family):
    """A random function of the family tagged family, over n <= 6 coordinates
    for the plain families (flipped wraps one of them) and n = 60 for the
    generated ones."""
    if family in ("lb-no", "lb-no-ltf"):
        params, variant = ((SCALED, "no") if family == "lb-no"
                           else (LBParams(60, 4, 7, 3, 1, 2), "no-ltf"))
        seed = draw(st.integers(0, (1 << 64) - 1))
        return generate_instance(params, variant, RandomStream(seed)).function
    if family == "flipped":
        inner = draw(functions(draw(st.sampled_from(_FAMILIES[:5]))))
        return Flipped(inner, draw(st.frozensets(st.integers(1, inner.n))))
    n = draw(st.integers(1, 6))
    coords = st.frozensets(st.integers(1, n))
    if family == "monotone-conjunction":
        return MonotoneConj(n, draw(coords))
    if family == "conjunction":
        return GeneralConj(n, draw(coords), draw(coords))
    if family == "decision-list":
        rules = draw(st.lists(st.tuples(st.integers(1, n), st.booleans(), st.integers(0, 1)),
                              max_size=4))
        return DecisionList(n, tuple((-i if neg else i, bit) for i, neg, bit in rules),
                            draw(st.integers(0, 1)))
    if family == "ltf":
        return LinearThreshold(n, tuple(draw(st.lists(st.integers(-9, 9), min_size=n,
                                                      max_size=n))),
                               draw(st.integers(-20, 20)))
    return TruthTable(n, draw(st.integers(0, (1 << (1 << n)) - 1)))


@st.composite
def distributions(draw, n):
    """Random distinct points of {0,1}^n with random exact weights: the
    gaps between sorted cuts of [0, M], with M past 2^62 half the time."""
    zeros = draw(st.lists(st.frozensets(st.integers(1, n), max_size=6), min_size=1,
                          max_size=min(6, 1 << n), unique=True))
    k = len(zeros)
    total = draw(st.integers((1 << 62) + 1, 1 << 100) if draw(st.booleans())
                 else st.integers(k + 1, 1 << 20))
    cuts = sorted(draw(st.lists(st.integers(1, total - 1), min_size=k - 1, max_size=k - 1,
                                unique=True)))
    bounds = [0, *cuts, total]
    return FiniteDistribution(n, tuple((ZeroSet(n, z), Fraction(b - a, total))
                                       for z, a, b in zip(zeros, bounds, bounds[1:])))


@settings(max_examples=120, deadline=None)
@given(data=st.data(), family=st.sampled_from(_FAMILIES))
def test_every_family_round_trips_through_a_file(tmp_path_factory, data, family):
    func = data.draw(functions(family))
    dist = data.draw(distributions(func.n))
    path = tmp_path_factory.mktemp("round-trip") / "inst.json"
    save_instance(path, func.n, func, dist)
    loaded = load_instance(path)
    assert (loaded.n, loaded.function, loaded.distribution) == (func.n, func, dist)
    assert function_to_obj(loaded.function)["type"] == family


def mconj_obj():
    f = MonotoneConj(4, frozenset({2}))
    d = FiniteDistribution(4, ((zs(4, 1), Fraction(1, 2)),
                               (zs(4, 2, 3), Fraction(1, 2))))
    return instance_to_obj(4, f, d)


def lb_no_obj():
    inst = generate_instance(SCALED, "no", RandomStream(82))
    return instance_to_obj(inst.n, inst.function, inst.distribution)


def edit(base, change):
    def make():
        obj = base()
        change(obj)
        return obj
    return make


def set_alpha_twice(obj):
    alpha = obj["function"]["alpha"]
    alpha[1] = alpha[0]


def with_function(function):
    """mconj_obj() with the given function object."""
    return edit(mconj_obj, lambda o: o.update(function=function))


def with_rules(rules):
    """mconj_obj() with a decision list of the given rules as its function."""
    return with_function({"type": "decision-list", "n": 4, "rules": rules, "default": 0})


def with_function_text(text):
    """mconj_obj() as file text, with text in place of its function."""
    def make():
        obj = mconj_obj()
        obj["function"] = None
        return json.dumps(obj).replace("null", text)
    return make


def flipped_chain(depth):
    head = '{"type": "flipped", "coords": [2], "inner": '
    return head * depth + json.dumps(mconj_obj()["function"]) + "}" * depth


# (case, file contents, a fragment the error message must hold)
BAD_FILES = [
    ("not-json", lambda: "{", "Expecting"),
    ("list-shaped", lambda: mconj_obj()["distribution"], "expected a JSON object"),
    ("old-entries-shape",
     edit(mconj_obj, lambda o: o.update(distribution={
         "n": 4, "entries": o["distribution"]})), "distribution"),
    ("missing-n", edit(mconj_obj, lambda o: o.pop("n")), "'n'"),
    ("missing-function", edit(mconj_obj, lambda o: o.pop("function")),
     "'function'"),
    ("missing-weight",
     edit(mconj_obj, lambda o: o["distribution"][0].pop("weight")), "'weight'"),
    ("missing-zeros",
     edit(mconj_obj, lambda o: o["distribution"][1].pop("zeros")), "'zeros'"),
    ("string-coordinate",
     edit(mconj_obj, lambda o: o["function"].update(required=["2"])), "required"),
    ("float-coordinate",
     edit(mconj_obj, lambda o: o["function"].update(required=[1.5])), "required"),
    ("bool-coordinate",
     edit(mconj_obj, lambda o: o["function"].update(required=[True])), "required"),
    ("coordinate-above-n",
     edit(mconj_obj, lambda o: o["function"].update(required=[5])), "1..4"),
    ("zero-coordinate",
     edit(mconj_obj, lambda o: o["distribution"][0].update(zeros=[0])), "zeros"),
    ("string-n", edit(mconj_obj, lambda o: o.update(n="4")), "n"),
    ("function-n-disagrees",
     edit(mconj_obj, lambda o: o["function"].update(n=8)), "function.n"),
    ("unknown-type",
     edit(mconj_obj, lambda o: o["function"].update(type="mystery")), "mystery"),
    ("zero-denominator",
     edit(mconj_obj, lambda o: o["distribution"][0].update(weight="1/0")),
     "distribution[0].weight: '1/0' has a zero denominator"),
    ("weight-not-rational",
     edit(mconj_obj, lambda o: o["distribution"][1].update(weight="abc")),
     "distribution[1].weight"),
    ("truth-table-bits-not-hex",
     with_function({"type": "truth-table", "n": 4, "bits": "zz"}), "function.bits"),
    ("ltf-weight-count",
     with_function({"type": "ltf", "n": 4, "weights": [1, 2], "threshold": 1}),
     "function.weights"),
    ("lb-no-block-coordinate",
     edit(lb_no_obj, lambda o: o["function"]["a_blocks"][0][0].append("7")),
     "a_blocks"),
    ("lb-no-duplicate-alpha", edit(lb_no_obj, set_alpha_twice), "distinct"),
    ("dlist-rule-one-element", with_rules([[1]]), "function.rules"),
    ("dlist-rule-empty", with_rules([[]]), "function.rules"),
    ("dlist-rule-three-elements", with_rules([[1, 0, 1]]), "function.rules"),
    ("deep-list", with_function_text("[" * 100_000 + "]" * 100_000),
     "nested too deeply"),
    ("deep-flipped-chain", with_function_text(flipped_chain(2000)),
     "nested too deeply"),
]


@pytest.mark.parametrize("case,contents,fragment", BAD_FILES,
                         ids=[case for case, _, _ in BAD_FILES])
def test_cli_rejects_malformed_instance_files(tmp_path, capsys, case, contents,
                                              fragment):
    obj = contents()
    path = tmp_path / "bad.json"
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    for argv in (["distance", "--class", "mconj"],
                 ["test", "--algo", "mconj", "--epsilon", "1"]):
        rc = cli.main(argv + ["--instance", str(path)])
        captured = capsys.readouterr()
        assert rc == 2, (argv, captured)
        assert captured.err.startswith("error: ") and fragment in captured.err
        assert captured.out == ""


# cases that fit the schema but not the constructors' checks, or exist only as
# file text (json.dumps itself overflows on the flipped chain)
NOT_SCHEMA = {"not-json", "lb-no-duplicate-alpha",
              "deep-list", "deep-flipped-chain"}


@pytest.mark.parametrize("case,contents,fragment",
                         [c for c in BAD_FILES if c[0] not in NOT_SCHEMA],
                         ids=[c[0] for c in BAD_FILES if c[0] not in NOT_SCHEMA])
def test_schema_errors_raise_instance_format_error(case, contents, fragment):
    with pytest.raises(InstanceFormatError, match=re.escape(fragment)):
        instance_from_obj(contents())


def test_labeled_sample_checks_dimensions():
    d = FiniteDistribution(4, ((zs(4, 1), Fraction(1)),))
    with pytest.raises(DimensionMismatch):
        LabeledSample.from_function(MonotoneConj(8, frozenset({2})), d)
