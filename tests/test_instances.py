import hashlib
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from srcpsp.instances import (
    DurationSample,
    ParseError,
    ProjectInstance,
    StochasticInstance,
    make_stochastic,
    parse_psplib,
    quantile_durations,
    sample_durations,
    serialize_psplib,
)

A, B, C, D, E = 1, 2, 3, 4, 5
ROOT = Path(__file__).resolve().parent.parent


def test_parse_example(example_instance):
    inst = example_instance
    assert inst.activity_count == 5
    assert inst.n_activities == 7
    assert inst.durations == (0, 2, 5, 3, 1, 2, 0)
    assert inst.demands == ((0, 3, 2, 1, 2, 2, 0),)
    assert inst.capacities == (4,)
    assert len(inst.temporal_constraints) == 9
    cons = set(inst.temporal_constraints)
    assert {(A, B, 2), (B, C, 1), (C, A, -6), (D, E, 3), (E, D, -3)} <= cons
    assert {(0, A, 0), (0, D, 0), (C, 6, 2), (E, 6, 2)} <= cons


def test_parse_empty_project():
    text = "0 1 0 0\n0 1 1 1 [0]\n1 1 0\n0 1 0 0\n1 1 0 0\n3\n"
    inst = parse_psplib(text)
    assert inst.activity_count == 0
    assert inst.temporal_constraints == ((0, 1, 0),)


def test_parse_roundtrip(example_instance):
    assert parse_psplib(serialize_psplib(example_instance)) == example_instance


def test_parse_ignores_comments_and_blank_lines():
    text = "# commented\n\n0 1 0 0\n0 1 1 1 [0]\n\n1 1 0\n0 1 0 0\n1 1 0 0\n# tail\n2\n"
    assert parse_psplib(text).capacities == (2,)


def test_parse_bad_header():
    with pytest.raises(ParseError, match="header"):
        parse_psplib("1 1 0\n")


def test_parse_non_integer_token():
    text = "0 1 0 0\n0 1 1 1 [x]\n1 1 0\n0 1 0 0\n1 1 0 0\n3\n"
    with pytest.raises(ParseError, match="line 2"):
        parse_psplib(text)


def test_parse_weight_count_mismatch():
    text = "0 1 0 0\n0 1 1 1\n1 1 0\n0 1 0 0\n1 1 0 0\n3\n"
    with pytest.raises(ParseError, match="1 successors"):
        parse_psplib(text)


def test_parse_demand_over_capacity_names_line():
    text = "1 1 0 0\n0 1 1 1 [0]\n1 1 1 2 [0]\n2 1 0\n0 1 0 0\n1 1 4 9\n2 1 0 0\n3\n"
    with pytest.raises(ParseError, match="line 6.*capacity"):
        parse_psplib(text)


def test_parse_wrong_line_count():
    with pytest.raises(ParseError, match="expected"):
        parse_psplib("1 1 0 0\n0 1 0\n")


def test_instance_invariants_rejected():
    with pytest.raises(ValueError, match="duration 0"):
        ProjectInstance(1, (1, 2, 0), ((0, 1, 0),), (1,), ())
    with pytest.raises(ValueError, match="capacities"):
        ProjectInstance(1, (0, 2, 0), ((0, 0, 0),), (0,), ())
    with pytest.raises(ValueError, match="range"):
        ProjectInstance(1, (0, 2, 0), ((0, 1, 0),), (1,), ((0, 5, 1),))


# one real activity 1 (duration 4, demand 2) between source 0 and sink 2;
# each case replaces one line (1-based, None for the whole text)
ONE_ACTIVITY = [
    "1 1 0 0",
    "0 1 1 1 [0]",
    "1 1 1 2 [0]",
    "2 1 0",
    "0 1 0 0",
    "1 1 4 2",
    "2 1 0 0",
    "3",
]


@pytest.mark.parametrize(
    "line, text, message",
    [
        (None, "", "line 1: empty input"),
        (1, "1 0 0 0", "line 1: invalid header counts n=1 R=0"),
        (2, "0 1", "line 2: precedence line needs id, mode and successor count"),
        (3, "5 1 1 2 [0]", "line 3: activity id 5 out of range 0..2"),
        (6, "7 1 4 2", "line 6: activity id 7 out of range 0..2"),
        (3, "0 1 1 1 [0]", "line 3: duplicate precedence line for activity 0"),
        (6, "0 1 0 0", "line 6: duplicate requirement line for activity 0"),
        (3, "1 1 1 9 [0]", "line 3: successor 9 out of range 0..2"),
        (6, "1 1 4", "line 6: requirement line needs 4 fields, got 3"),
        (6, "1 1 -4 2", "line 6: negative duration -4"),
        (5, "0 1 1 0", "line 5: source/sink must have zero duration and demand"),
        (7, "2 1 0 1", "line 7: source/sink must have zero duration and demand"),
        (8, "3 3", "line 8: expected 1 capacities, got 2"),
        (8, "0", "line 8: capacities must be >= 1"),
        (6, "1 1 4 -2", "line 6: negative demand -2"),
    ],
)
def test_parse_errors_name_their_line(line, text, message):
    if line is None:
        source = text
    else:
        lines = ONE_ACTIVITY.copy()
        lines[line - 1] = text
        source = "\n".join(lines) + "\n"
    with pytest.raises(ParseError) as info:
        parse_psplib(source)
    assert str(info.value) == message


def test_parse_one_activity_table_base_is_valid():
    inst = parse_psplib("\n".join(ONE_ACTIVITY) + "\n")
    assert inst.durations == (0, 4, 0) and inst.demands == ((0, 2, 0),)


@pytest.mark.parametrize(
    "durations, demands, capacities, message",
    [
        ((0, 2), ((0, 1, 0),), (1,), "expected 3 durations, got 2"),
        ((0, -1, 0), ((0, 1, 0),), (1,), "durations must be nonnegative"),
        ((0, 2, 0), ((0, 1, 0),), (1, 2), "one demand row per resource required"),
        ((0, 2, 0), ((0, 1),), (1,), "resource 0: expected 3 demands, got 2"),
        ((0, 2, 0), ((0, 1, 1),), (2,), "source and sink must have zero demand"),
        ((0, 2, 0), ((0, -1, 0),), (1,), "demands must be nonnegative"),
        ((0, 2, 0), ((0, 2, 0),), (1,), "resource 0: demand exceeds capacity"),
    ],
)
def test_project_instance_rejects_malformed_fields(durations, demands, capacities, message):
    with pytest.raises(ValueError) as info:
        ProjectInstance(1, durations, demands, capacities, ())
    assert str(info.value) == message


@pytest.mark.parametrize(
    "bounds, message",
    [
        (((0, 0), (1, 2)), "expected 3 bound pairs, got 2"),
        (((0, 0), (0, 2), (0, 0)), "activity 1: lower bound must be >= 1"),
        (((0, 0), (1, 2**63), (0, 0)), f"activity 1: upper bound {2**63} is not below 2**63"),
    ],
)
def test_stochastic_instance_rejects_malformed_bounds(bounds, message):
    inst = ProjectInstance(1, (0, 2, 0), ((0, 1, 0),), (1,), ())
    with pytest.raises(ValueError) as info:
        StochasticInstance(inst, bounds, 1.0)
    assert str(info.value) == message


def test_make_stochastic_formula(example_instance):
    stoch = make_stochastic(example_instance, 1)
    # d=5 -> (3, 7); d=2 -> (1, 3); d=3 -> (1, 5); d=1 -> (1, 2)
    assert stoch.bounds[B] == (3, 7)
    assert stoch.bounds[A] == (1, 3)
    assert stoch.bounds[C] == (1, 5)
    assert stoch.bounds[D] == (1, 2)
    assert stoch.bounds[0] == (0, 0) and stoch.bounds[6] == (0, 0)


def test_make_stochastic_negative_lb_clamps():
    inst = ProjectInstance(1, (0, 1, 0), ((0, 1, 0),), (1,), ())
    stoch = make_stochastic(inst, 2)
    assert stoch.bounds[1] == (1, 3)


def test_make_stochastic_zero_epsilon(example_instance):
    stoch = make_stochastic(example_instance, 0)
    for j in range(1, 6):
        d = example_instance.durations[j]
        assert stoch.bounds[j] == (max(1, d), d)


def test_make_stochastic_zero_duration_real_activity():
    # raw ub would round to 0 below the clamped lb of 1; ub lifts to lb
    inst = ProjectInstance(1, (0, 0, 0), ((0, 1, 0),), (1,), ())
    assert make_stochastic(inst, 1).bounds[1] == (1, 1)


def test_make_stochastic_rejects_negative_epsilon(example_instance):
    with pytest.raises(ValueError):
        make_stochastic(example_instance, -1)
    for epsilon in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="epsilon must be a finite number >= 0"):
            make_stochastic(example_instance, epsilon)
    # finite, but d + eps * sqrt(d) passes int64 from activity 1 on (d = 2); at
    # 1e308 it overflows to infinity from d = 4 on
    for epsilon in (1e300, 1e308):
        message = re.escape(f"epsilon {epsilon!r} gives activity 1 a non-finite")
        with pytest.raises(ValueError, match=message):
            make_stochastic(example_instance, epsilon)


def test_stochastic_invariants():
    inst = ProjectInstance(1, (0, 2, 0), ((0, 1, 0),), (1,), ())
    with pytest.raises(ValueError, match="lb"):
        StochasticInstance(inst, ((0, 0), (4, 2), (0, 0)), 1.0)
    with pytest.raises(ValueError, match="source"):
        StochasticInstance(inst, ((0, 1), (1, 2), (0, 0)), 1.0)


def test_sample_determinism_and_bounds(example_instance):
    stoch = make_stochastic(example_instance, 2)
    s1 = sample_durations(stoch, 123)
    s2 = sample_durations(stoch, 123)
    assert s1 == s2
    assert s1.seed == 123
    for seed in range(200):
        s = sample_durations(stoch, seed)
        for (lb, ub), d in zip(stoch.bounds, s.durations):
            assert lb <= d <= ub


def test_sample_per_activity_streams_stable(example_instance):
    # extending the project must not shift existing activities' draws
    stoch = make_stochastic(example_instance, 2)
    wide = StochasticInstance(
        base=ProjectInstance(
            6,
            example_instance.durations[:6] + (4, 0),
            ((0, 3, 2, 1, 2, 2, 1, 0),),
            (4,),
            (),
        ),
        bounds=stoch.bounds[:6] + ((2, 6), (0, 0)),
        epsilon=2.0,
    )
    s_small = sample_durations(stoch, 9)
    s_wide = sample_durations(wide, 9)
    assert s_small.durations[:6] == s_wide.durations[:6]


def test_sample_degenerate_interval():
    inst = ProjectInstance(1, (0, 3, 0), ((0, 2, 0),), (2,), ())
    stoch = StochasticInstance(inst, ((0, 0), (3, 3), (0, 0)), 0.0)
    for seed in (0, 7, 99):
        assert sample_durations(stoch, seed).durations == (0, 3, 0)


def test_sample_uniformity():
    inst = ProjectInstance(1, (0, 1, 0), ((0, 1, 0),), (1,), ())
    stoch = StochasticInstance(inst, ((0, 0), (1, 2), (0, 0)), 1.0)
    ones = sum(sample_durations(stoch, seed).durations[1] == 1 for seed in range(10_000))
    assert 0.48 <= ones / 10_000 <= 0.52


def _stochastic(bounds):
    """A stochastic instance with one real activity per ``bounds`` pair."""
    n = len(bounds)
    base = ProjectInstance(n, (0,) + (1,) * n + (0,), ((0,) * (n + 2),), (1,), ())
    return StochasticInstance(base, ((0, 0),) + tuple(bounds) + ((0, 0),), 1.0)


# spans ub - lb at and around every branch of numpy's int64 draw: 32-bit
# Lemire (with and without rejection), a raw 32-bit word, 64-bit Lemire
SPANS = (0, 1, 2, 7, 2**31, 2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 5, 2**62 + 7)


def test_sample_equals_numpy_default_rng_draws():
    # the oracle: 3,600 draws equal numpy's, for seeds of every word count and
    # every span branch; the last span has ub = 2**63 - 1, the largest allowed
    rng = random.Random(20260818)
    seeds = [rng.getrandbits(bits) for bits in (1, 31, 32, 33, 63) for _ in range(2)]
    seeds += [-5, 2**64 + 3]  # reduced modulo 2**63, as sample_durations documents
    spans = SPANS + (None,)
    for k, seed in enumerate(seeds):
        bounds = []
        for j in range(1, 301):
            lb = j * 1009 + k
            span = spans[(j + k) % len(spans)]
            bounds.append((lb, 2**63 - 1 if span is None else lb + span))
        drawn = sample_durations(_stochastic(bounds), seed).durations
        for j, (lb, ub) in enumerate(bounds, start=1):
            want = int(np.random.default_rng([seed % 2**63, j]).integers(lb, ub + 1))
            assert drawn[j] == want, (seed, j, lb, ub)


def test_sample_stream_pinned_by_digest():
    # 2,000 draws over 40 activities and 50 seeds, pinned by the repository
    # itself rather than by whichever numpy is installed
    rng = random.Random(7)
    bounds = [(1 + j, 1 + j + SPANS[j % len(SPANS)]) for j in range(40)]
    stoch = _stochastic(bounds)
    draws = [sample_durations(stoch, rng.getrandbits(63)).durations for _ in range(50)]
    digest = hashlib.sha256(repr(draws).encode()).hexdigest()
    assert digest == "ffd670aff22de57da749c048a071bf5110599076dbe22d2b256b0cfd1d364a29"


def test_quantile_examples():
    inst = ProjectInstance(1, (0, 5, 0), ((0, 2, 0),), (2,), ())
    stoch = StochasticInstance(inst, ((0, 0), (3, 7), (0, 0)), 1.0)
    assert quantile_durations(stoch, 0.9).durations[1] == 7
    assert quantile_durations(stoch, 0).durations[1] == 3
    assert quantile_durations(stoch, 1).durations[1] == 7
    two = StochasticInstance(inst, ((0, 0), (1, 2), (0, 0)), 1.0)
    assert quantile_durations(two, 0.5).durations[1] == 1
    assert quantile_durations(two, 1).durations[1] == 2
    assert quantile_durations(two, 0.51).durations[1] == 2


def test_quantile_exact_decimal_boundary():
    # with ten values, gamma=0.9 is hit exactly at the ninth
    inst = ProjectInstance(1, (0, 5, 0), ((0, 1, 0),), (1,), ())
    stoch = StochasticInstance(inst, ((0, 0), (1, 10), (0, 0)), 0.0)
    assert quantile_durations(stoch, 0.9).durations[1] == 9
    assert quantile_durations(stoch, Fraction(9, 10)).durations[1] == 9


def test_quantile_monotone_in_gamma(example_instance):
    stoch = make_stochastic(example_instance, 2)
    gammas = [0, 0.1, 0.25, 0.5, 0.75, 0.9, 1]
    vectors = [quantile_durations(stoch, g).durations for g in gammas]
    for lo, hi in zip(vectors, vectors[1:]):
        assert all(a <= b for a, b in zip(lo, hi))


def test_quantile_gamma_one_after_zero_noise(example_instance):
    stoch = make_stochastic(example_instance, 0)
    q = quantile_durations(stoch, 1)
    for j in range(1, 6):
        assert q.durations[j] == max(1, example_instance.durations[j])
    assert q.seed is None


def test_quantile_rejects_out_of_range(example_instance):
    stoch = make_stochastic(example_instance, 1)
    with pytest.raises(ValueError):
        quantile_durations(stoch, 1.2)


def test_duration_sample_is_plain_data():
    s = DurationSample(durations=(0, 1, 0), seed=5)
    assert s.durations == (0, 1, 0)


def test_make_instances_regenerates_bundled_j10(tmp_path):
    # the generator's documented command rewrites data/j10 byte for byte
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "make_instances.py"),
         "--out", str(tmp_path), "--count", "12", "--seed", "7"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        check=True,
        capture_output=True,
    )
    bundled = sorted((ROOT / "data" / "j10").iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == [p.name for p in bundled]
    for path in bundled:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name
