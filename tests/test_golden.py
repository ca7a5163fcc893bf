"""Golden outputs: exact trial rows, experiment CSVs and instance digests.

The literals below pin what a given seed produces. A change that moves any
of them changes the RNG stream layout or the hidden-instance family, and
must say so; a refactor must leave them all as they are.
"""

import hashlib
import io
import json
from fractions import Fraction

import pytest

from subcube import (
    ExperimentConfig,
    LBParams,
    MonotoneConj,
    RandomStream,
    distinguishing_experiment,
    generate_instance,
    instance_to_obj,
    run_trials,
    write_experiment_csv,
)
from helpers import rand_dist

SMALL_LB = LBParams(n=60, h=4, r_blocks=7, m=3, s=1, blocks_per_side=2)
ALGOS = ("mconj", "conj", "dolev-ron")
PAIRS = (("yes", "no"), ("yes-ltf", "no-ltf"))
VARIANTS = ("yes", "no", "yes-ltf", "no-ltf")


def fixed_instance():
    n = 16
    return (n, MonotoneConj(n, frozenset({2, 5})),
            rand_dist(RandomStream(900), n, 6, max_zeros=5))


def trial_rows(algo, source):
    if source == "instance":
        where = {"instance": fixed_instance()}
    else:
        where = {"generator": (SMALL_LB, "no")}
    cfg = ExperimentConfig(algo=algo, epsilon=Fraction(1), trials=3,
                           seed=31, **where)
    return [(r.trial, r.outcome, r.reason, r.blackbox_queries,
             r.sample_queries) for r in run_trials(cfg)]


def experiment_csv(algo, yes, no):
    rows = distinguishing_experiment(
        algo=algo, params=SMALL_LB, yes_variant=yes, no_variant=no,
        epsilon=Fraction(1), trials=6, seed=32, budgets=[0, 4, 16, 64])
    buf = io.StringIO()
    write_experiment_csv(buf, rows)
    return buf.getvalue()


def instance_digest(variant):
    inst = generate_instance(SMALL_LB, variant, RandomStream(33))
    obj = instance_to_obj(inst.n, inst.function, inst.distribution)
    text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


TRIAL_ROWS = {
    ('mconj', 'instance'): [
        (0, 'accept', 'stage2-no-zero', 385, 37008),
        (1, 'accept', 'stage2-no-zero', 385, 37008),
        (2, 'accept', 'stage2-no-zero', 385, 37008),
    ],
    ('mconj', 'generator'): [
        (0, 'reject', 'stage0-nil-representative', 19, 420),
        (1, 'reject', 'step-1.1', 28, 514920),
        (2, 'reject', 'step-1.1', 28, 514920),
    ],
    ('conj', 'instance'): [
        (0, 'accept', 'stage2-no-zero', 385, 37009),
        (1, 'accept', 'stage2-no-zero', 385, 37009),
        (2, 'accept', 'stage2-no-zero', 385, 37009),
    ],
    ('conj', 'generator'): [
        (0, 'reject', 'stage0-nil-representative', 7, 422),
        (1, 'reject', 'stage0-nil-representative', 7, 421),
        (2, 'reject', 'step-1.1', 26, 514921),
    ],
    ('dolev-ron', 'instance'): [
        (0, 'accept', 'baseline-clean', 1, 32),
        (1, 'accept', 'baseline-clean', 1, 32),
        (2, 'accept', 'baseline-clean', 1, 32),
    ],
    ('dolev-ron', 'generator'): [
        (0, 'reject', 'baseline-nil-representative', 11, 92),
        (1, 'reject', 'baseline-edge', 27, 92),
        (2, 'reject', 'baseline-edge', 25, 92),
    ],
}

EXPERIMENT_CSV = {
    ('mconj', 'yes', 'no'): (
        'budget,yes_accept,no_accept,gap,sim_yes_accept,sim_no_accept,sim_gap\n'
        '0,1.000000,1.000000,0.000000,1.000000,1.000000,0.000000\n'
        '4,1.000000,1.000000,0.000000,1.000000,1.000000,0.000000\n'
        '16,1.000000,1.000000,0.000000,1.000000,1.000000,0.000000\n'
        '64,1.000000,1.000000,0.000000,1.000000,0.333333,0.666667\n'
    ),
    ('mconj', 'yes-ltf', 'no-ltf'): (
        'budget,yes_accept,no_accept,gap,sim_yes_accept,sim_no_accept,sim_gap\n'
        '0,1.000000,1.000000,0.000000,1.000000,1.000000,0.000000\n'
        '4,0.000000,0.000000,0.000000,1.000000,1.000000,0.000000\n'
        '16,0.000000,0.000000,0.000000,1.000000,1.000000,0.000000\n'
        '64,0.000000,0.000000,0.000000,1.000000,0.333333,0.666667\n'
    ),
    ('dolev-ron', 'yes', 'no'): (
        'budget,yes_accept,no_accept,gap,sim_yes_accept,sim_no_accept,sim_gap\n'
        '0,1.000000,1.000000,0.000000,1.000000,1.000000,0.000000\n'
        '4,1.000000,1.000000,0.000000,1.000000,1.000000,0.000000\n'
        '16,1.000000,1.000000,0.000000,1.000000,1.000000,0.000000\n'
        '64,1.000000,0.000000,1.000000,1.000000,0.333333,0.666667\n'
    ),
    ('dolev-ron', 'yes-ltf', 'no-ltf'): (
        'budget,yes_accept,no_accept,gap,sim_yes_accept,sim_no_accept,sim_gap\n'
        '0,1.000000,1.000000,0.000000,1.000000,1.000000,0.000000\n'
        '4,0.000000,0.000000,0.000000,1.000000,1.000000,0.000000\n'
        '16,0.000000,0.000000,0.000000,1.000000,1.000000,0.000000\n'
        '64,0.000000,0.000000,0.000000,1.000000,0.333333,0.666667\n'
    ),
}

INSTANCE_SHA256 = {
    'yes':
        '2f4c4a7d35ec968212c0177fd987ce3ed362ad0b821d70a13b33925bfeb4ff6b',
    'no':
        'ebef0342ea9f124f7bf7f57c07b737d84b073c3762c5af3836ba4d172c637483',
    'yes-ltf':
        '035e3f824102e502a9744c1fa24f9348ed9c41f8bd13031e9442a2f2b1069f45',
    'no-ltf':
        'c80d731d68511b459392d432376fa6ec3bc23205aa49a4c1da3c5af7d98b4c94',
}


@pytest.mark.parametrize("source", ("instance", "generator"))
@pytest.mark.parametrize("algo", ALGOS)
def test_golden_trial_rows(algo, source):
    assert trial_rows(algo, source) == TRIAL_ROWS[algo, source]


@pytest.mark.parametrize("pair", PAIRS)
@pytest.mark.parametrize("algo", ("mconj", "dolev-ron"))
def test_golden_experiment_csv(algo, pair):
    assert experiment_csv(algo, *pair) == EXPERIMENT_CSV[(algo,) + pair]


@pytest.mark.parametrize("variant", VARIANTS)
def test_golden_instance_digest(variant):
    assert instance_digest(variant) == INSTANCE_SHA256[variant]
