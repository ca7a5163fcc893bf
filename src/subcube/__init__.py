"""Distribution-free testing of conjunctions over the Boolean cube.

Points are sparse zero sets, distributions are exact rationals, and every
randomized component is seeded through one splittable stream, so runs are
reproducible end to end. The package bundles the three-stage monotone
tester with its general-conjunction reduction, exact distance oracles for
small supports, violation-graph machinery, hard-instance generators, and a
seeded experiment harness with a CLI.
"""

from .adversarial import (
    LBInstance,
    LBParams,
    desk_params,
    generate_instance,
    paper_params,
    simulate_p,
    validate_instance,
)
from .distances import (
    exact_distance_conj,
    exact_distance_dlist,
    exact_distance_ltf,
    exact_distance_mconj,
)
from .harness import (
    ExperimentConfig,
    distinguishing_experiment,
    query_budget_report,
    run_trials,
    write_experiment_csv,
    write_trials_csv,
)
from .model import (
    BlackBox,
    BudgetExceeded,
    DecisionList,
    DimensionMismatch,
    FiniteDistribution,
    Flipped,
    FunctionSpec,
    GeneralConj,
    InfeasibleParameters,
    LinearThreshold,
    MonotoneConj,
    QueryTranscript,
    Sampler,
    SizeCapError,
    TruthTable,
    ZeroSet,
)
from .rng import RandomStream
from .serialize import (
    InstanceFormatError,
    function_from_obj,
    function_to_obj,
    instance_from_obj,
    instance_to_obj,
    load_instance,
    save_instance,
    structure_sidecar,
)
from .tester import (
    TesterParams,
    Verdict,
    amplify,
    baseline_dolev_ron,
    ceil_log2,
    compute_parameters,
)
from .violation import (
    PruneReport,
    ViolationGraph,
    build_violation_bigraph,
    hypergraph_has_violation,
    min_weight_vertex_cover,
    prune_to_regular,
    regularity_diagnostics,
)

__version__ = "0.1.0"
