"""The package's public surface: every exported name exists, the package
root exports exactly the pinned names, and removed names stay removed."""

import importlib
import types

import pytest

MODULES = ("adversarial", "cli", "distances", "harness", "model", "rng",
           "serialize", "tester", "violation")

ROOT_NAMES = [
    "BlackBox", "BudgetExceeded", "DecisionList", "DimensionMismatch",
    "ExperimentConfig", "FiniteDistribution", "Flipped", "FunctionSpec",
    "GeneralConj", "InfeasibleParameters", "InstanceFormatError", "LBInstance",
    "LBParams", "LinearThreshold", "MonotoneConj",
    "PruneReport", "QueryTranscript", "RandomStream", "Sampler", "SizeCapError",
    "TesterParams", "TruthTable", "Verdict", "ViolationGraph", "ZeroSet",
    "amplify", "baseline_dolev_ron", "build_violation_bigraph", "ceil_log2",
    "compute_parameters", "desk_params", "distinguishing_experiment",
    "exact_distance_conj", "exact_distance_dlist", "exact_distance_ltf",
    "exact_distance_mconj", "function_from_obj", "function_to_obj",
    "generate_instance", "hypergraph_has_violation", "instance_from_obj",
    "instance_to_obj", "load_instance", "min_weight_vertex_cover",
    "paper_params", "prune_to_regular", "query_budget_report",
    "regularity_diagnostics", "run_trials", "save_instance", "simulate_p",
    "structure_sidecar", "validate_instance", "write_experiment_csv",
    "write_trials_csv",
]

# Names taken out of the package: tests read the underlying data, or keep
# a reference copy in helpers.py.
REMOVED = {"strong_sample", "index_from_uniform", "weight_of", "support",
           "from_values", "point_a", "point_b", "point_c", "special_threshold",
           "_distance_mconj", "_distance_conj", "_take_queries", "_charged_chunks",
           "_charge_groups", "_draw_big", "_resolve_big", "take_samples", "_codes",
           "LabeledSample", "from_function", "_alpha_in_b", "_HiddenBlocks",
           "LBNoStarFunction", "_drawn_facts", "_below_cuts", "_set_table",
           "_draw_indices_raw", "_arrays", "R_prime", "_cuts", "class_only", "known"}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"subcube.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_package_root_exposes_no_test_functions():
    """A star import of the package must not hand pytest a test to collect."""
    subcube = importlib.import_module("subcube")
    assert [name for name in dir(subcube) if name.startswith("test_")
            and callable(getattr(subcube, name))] == []


def test_package_root_names_are_pinned():
    subcube = importlib.import_module("subcube")
    assert sorted(name for name, obj in vars(subcube).items()
                  if not name.startswith("_")
                  and not isinstance(obj, types.ModuleType)) == ROOT_NAMES


@pytest.mark.parametrize("name", MODULES)
def test_removed_names_stay_removed(name):
    module = importlib.import_module(f"subcube.{name}")
    defined = set(vars(module))
    for obj in vars(module).values():
        if isinstance(obj, type) and obj.__module__ == module.__name__:
            defined |= set(vars(obj))
    assert sorted(defined & REMOVED) == []


def test_distribution_keeps_no_flip():
    """Flipping a distribution is a test reference (helpers.flip_distribution);
    the box and the sampler keep their flipped views, which the conjunction
    tester reads."""
    model = importlib.import_module("subcube.model")
    assert not hasattr(model.FiniteDistribution, "flipped")
    assert callable(model.BlackBox.flipped) and callable(model.Sampler.flipped)
