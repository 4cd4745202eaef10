"""Network construction, DC checking and execution against hand-worked cases."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import importlib.util
import itertools
import pickle
import random
from pathlib import Path

import pytest

import reference_dc
import reference_rte
from game_oracle import game_controllable, random_stnu
from srcpsp.chaining import chain
from srcpsp.instances import (
    DurationSample,
    StochasticInstance,
    make_stochastic,
    parse_psplib,
    quantile_durations,
    sample_durations,
)
from srcpsp.solver import Schedule, solve
from srcpsp.stnu import (
    Controllable,
    Estnu,
    NotDc,
    RteError,
    Stnu,
    _Inconsistent,
    _Propagator,
    build_stnu,
    dc_check,
    rte_execute,
)

# five-activity example: a..e = 1..5, d's duration uncertain in [1, 2]
EST_DURATIONS = (0, 2, 5, 3, 2, 2, 0)
DET_DURATIONS = (0, 2, 5, 3, 1, 2, 0)
UNCERTAIN_BOUNDS = ((0, 0), (2, 2), (5, 5), (3, 3), (1, 2), (2, 2), (0, 0))

S0, E0 = 0, 1
SA, FA = 2, 3
SB, FB = 4, 5
SC, FC = 6, 7
SD, FD = 8, 9
SE, FE = 10, 11
S6, E6 = 12, 13

ROOT = Path(__file__).resolve().parent.parent
J10 = ROOT / "data" / "j10"


@pytest.fixture()
def uncertain(example_instance):
    return StochasticInstance(
        base=example_instance, bounds=UNCERTAIN_BOUNDS, epsilon=0.5
    )


@pytest.fixture()
def dc_pos(example_instance):
    sched = Schedule.from_starts((0, 0, 2, 6, 4, 7, 9), EST_DURATIONS)
    return chain(example_instance, EST_DURATIONS, sched)


@pytest.fixture()
def ndc_pos(example_instance):
    sched = Schedule.from_starts((0, 1, 3, 5, 0, 3, 7), DET_DURATIONS)
    return chain(example_instance, DET_DURATIONS, sched)


def test_build_stnu_edge_set(dc_pos, uncertain):
    stnu = build_stnu(dc_pos, uncertain)
    assert stnu.n_activities == 7
    assert stnu.contingent_links == ((SD, FD, 1, 2),)
    expected = {
        # fixed durations as rigid pairs
        (S0, E0, 0), (E0, S0, 0),
        (SA, FA, 2), (FA, SA, -2),
        (SB, FB, 5), (FB, SB, -5),
        (SC, FC, 3), (FC, SC, -3),
        (SE, FE, 2), (FE, SE, -2),
        (S6, E6, 0), (E6, S6, 0),
        # start-to-start lags
        (SA, S0, 0), (SD, S0, 0),
        (SB, SA, -2), (SC, SB, -1), (SA, SC, 6),
        (SE, SD, -3), (SD, SE, 3),
        (S6, SC, -2), (S6, SE, -2),
        # chain edges: predecessor must end before successor starts
        (SD, FA, 0), (SC, FD, 0), (SE, FB, 0), (SB, FA, 0),
    }
    assert set(stnu.ordinary_edges) == expected
    assert len(stnu.ordinary_edges) == len(expected)


def test_build_stnu_requires_matching_instances(dc_pos, example_instance):
    other = dataclasses.replace(example_instance, capacities=(5,))
    stoch = StochasticInstance(base=other, bounds=UNCERTAIN_BOUNDS, epsilon=0.5)
    with pytest.raises(ValueError, match="disagree"):
        build_stnu(dc_pos, stoch)


def test_stnu_validation():
    with pytest.raises(ValueError, match="out of range"):
        Stnu(n_activities=1, ordinary_edges=((0, 2, 1),), contingent_links=())
    with pytest.raises(ValueError, match="bounds"):
        Stnu(n_activities=1, ordinary_edges=(), contingent_links=((0, 1, 0, 2),))
    with pytest.raises(ValueError, match="two incoming"):
        Stnu(
            n_activities=2,
            ordinary_edges=(),
            contingent_links=((0, 1, 1, 2), (2, 1, 1, 2)),
        )
    base = Stnu(n_activities=1, ordinary_edges=(), contingent_links=())
    with pytest.raises(ValueError, match="non-contingent"):
        Estnu(base=base, wait_edges=((0, 1, -2, 1),))
    linked = Stnu(2, (), ((0, 1, 1, 3),))
    with pytest.raises(ValueError, match="source 7 out of range"):
        Estnu(linked, ((7, 0, -2, 1),))
    with pytest.raises(ValueError, match="activation 3 is not 1's activation"):
        Estnu(linked, ((2, 3, -2, 1),))


def test_stnu_rejects_contingent_link_onto_its_own_activation():
    with pytest.raises(ValueError, match=r"bad contingent link \(1, 1\)"):
        Stnu(n_activities=1, ordinary_edges=(), contingent_links=((1, 1, 1, 2),))


def test_dc_check_controllable_on_safe_chains(dc_pos, uncertain):
    res = dc_check(build_stnu(dc_pos, uncertain))
    assert isinstance(res, Controllable)
    # c may not start until d has fired or two ticks past d's start
    assert (SC, SD, -2, FD) in res.estnu.wait_edges
    closure = {(u, v): w for u, v, w in res.estnu.base.ordinary_edges}
    # d cannot start before b is two ticks old: via d->e->b's chain and b's length
    assert closure[(SD, SB)] == -2


def test_dc_check_not_controllable_on_reversed_chains(ndc_pos, uncertain):
    res = dc_check(build_stnu(ndc_pos, uncertain))
    assert isinstance(res, NotDc)
    assert res.total == -1
    assert len(res.nodes) >= 2
    assert all(0 <= tp < 14 for tp in res.nodes)


def test_dc_check_without_links_is_stn_consistency():
    ok = Stnu(
        n_activities=1, ordinary_edges=((0, 1, 3), (1, 0, -1)), contingent_links=()
    )
    res = dc_check(ok)
    assert isinstance(res, Controllable)
    assert res.estnu.wait_edges == ()

    bad = Stnu(
        n_activities=1, ordinary_edges=((0, 1, -1), (1, 0, 0)), contingent_links=()
    )
    res = dc_check(bad)
    assert isinstance(res, NotDc)
    assert res.total < 0


def test_dc_check_lone_link_controllable():
    stnu = Stnu(n_activities=1, ordinary_edges=(), contingent_links=((0, 1, 2, 4),))
    res = dc_check(stnu)
    assert isinstance(res, Controllable)
    assert res.estnu.wait_edges == ()


def test_wait_drives_execution():
    # activity 0 contingent in [1, 3]; timepoint 2 must satisfy t_C - t_X <= 1
    stnu = Stnu(
        n_activities=2,
        ordinary_edges=((2, 1, 1),),
        contingent_links=((0, 1, 1, 3),),
    )
    res = dc_check(stnu)
    assert isinstance(res, Controllable)
    assert (2, 0, -2, 1) in res.estnu.wait_edges
    late = rte_execute(res.estnu, DurationSample((3, 0)))
    assert late.times[2] == 2  # wait expires one tick before the latest firing
    early = rte_execute(res.estnu, DurationSample((1, 0)))
    assert early.times[2] == 1  # observation releases the wait immediately


def test_rte_golden_traces(dc_pos, uncertain):
    res = dc_check(build_stnu(dc_pos, uncertain))
    assert isinstance(res, Controllable)

    short = rte_execute(res.estnu, DurationSample((0, 2, 5, 3, 1, 2, 0)))
    starts = [short.times[Stnu.start(j)] for j in range(1, 6)]
    assert starts == [0, 2, 5, 4, 7]
    assert short.times[FD] == 5

    long = rte_execute(res.estnu, DurationSample((0, 2, 5, 3, 2, 2, 0)))
    starts = [long.times[Stnu.start(j)] for j in range(1, 6)]
    assert starts == [0, 2, 6, 4, 7]
    assert long.times[FD] == 6


def test_rte_rejects_duration_outside_link(dc_pos, uncertain):
    res = dc_check(build_stnu(dc_pos, uncertain))
    with pytest.raises(ValueError, match="outside"):
        rte_execute(res.estnu, DurationSample((0, 2, 5, 3, 3, 2, 0)))


def test_rte_rejects_sample_of_wrong_length():
    res = dc_check(Stnu(2, ((1, 2, 0),), ((0, 1, 1, 3),)))
    for durations in ((2,), (2, 0, 5)):
        with pytest.raises(ValueError, match=f"sample has {len(durations)} durations for 2"):
            rte_execute(res.estnu, DurationSample(durations))


def test_rte_single_fixed_activity():
    stnu = Stnu(
        n_activities=1, ordinary_edges=((0, 1, 2), (1, 0, -2)), contingent_links=()
    )
    res = dc_check(stnu)
    trace = rte_execute(res.estnu, DurationSample((2,)))
    assert trace.times == (0, 2)
    assert trace.makespan == 2
    assert trace.decisions == ((0, (0,)), (2, (1,)))


def test_rte_rigid_pair_moves_together():
    stnu = Stnu(
        n_activities=2,
        ordinary_edges=((0, 1, 0), (1, 0, 0), (1, 2, -2)),
        contingent_links=(),
    )
    res = dc_check(stnu)
    trace = rte_execute(res.estnu, DurationSample((0, 0)))
    assert trace.times[0] == trace.times[1] == 2
    assert trace.times[2] == 0


def test_rte_deadlock_is_reported():
    estnu = Estnu(
        base=Stnu(
            n_activities=2,
            ordinary_edges=((2, 3, -1), (3, 2, 0)),
            contingent_links=(),
        ),
        wait_edges=(),
    )
    with pytest.raises(RteError, match="deadlock"):
        rte_execute(estnu, DurationSample((0, 0)))


def test_rte_unclosed_network_is_reported():
    estnu = Estnu(
        base=Stnu(
            n_activities=2,
            ordinary_edges=((0, 1, 3), (1, 2, -5)),
            contingent_links=(),
        ),
        wait_edges=(),
    )
    with pytest.raises(RteError, match="violated"):
        rte_execute(estnu, DurationSample((0, 0)))


def test_verdict_ignores_edge_order():
    rng = random.Random(0xED6E)
    for _ in range(40):
        stnu = random_stnu(rng)
        shuffled = list(stnu.ordinary_edges)
        rng.shuffle(shuffled)
        a = dc_check(stnu)
        b = dc_check(dataclasses.replace(stnu, ordinary_edges=tuple(shuffled)))
        assert isinstance(a, Controllable) == isinstance(b, Controllable)
        if isinstance(a, Controllable) and isinstance(b, Controllable):
            assert a.estnu == b.estnu


def test_degenerate_link_equals_fixed_duration():
    rng = random.Random(0xF1D0)
    checked = 0
    while checked < 30:
        stnu = random_stnu(rng)
        if not stnu.contingent_links:
            continue
        checked += 1
        pinned = dataclasses.replace(
            stnu,
            contingent_links=tuple(
                (a, c, low, low) for a, c, low, _ in stnu.contingent_links
            ),
        )
        as_edges = dataclasses.replace(
            stnu,
            ordinary_edges=stnu.ordinary_edges
            + tuple(
                e
                for a, c, low, _ in stnu.contingent_links
                for e in ((a, c, low), (c, a, -low))
            ),
            contingent_links=(),
        )
        assert isinstance(dc_check(pinned), Controllable) == isinstance(
            dc_check(as_edges), Controllable
        )


def test_rte_honours_every_edge_on_random_networks():
    rng = random.Random(0x5EED)
    controllable_seen = 0
    for _ in range(120):
        stnu = random_stnu(rng)
        res = dc_check(stnu)
        if not isinstance(res, Controllable):
            continue
        controllable_seen += 1
        for _ in range(3):
            durations = [0] * stnu.n_activities
            for a, c, low, high in stnu.contingent_links:
                durations[c // 2] = rng.randint(low, high)
            trace = rte_execute(res.estnu, DurationSample(tuple(durations)))
            for u, v, w in stnu.ordinary_edges:
                assert trace.times[v] - trace.times[u] <= w
            for a, c, low, high in stnu.contingent_links:
                assert trace.times[c] - trace.times[a] == durations[c // 2]
    assert controllable_seen >= 20


def test_dc_check_agrees_with_game_oracle():
    rng = random.Random(0x0AC1E)
    verdicts = {True: 0, False: 0}
    for _ in range(100):
        stnu = random_stnu(rng)
        expected = game_controllable(stnu, horizon=12)
        actual = isinstance(dc_check(stnu), Controllable)
        assert actual == expected
        verdicts[expected] += 1
    assert verdicts[True] >= 10
    assert verdicts[False] >= 10



def test_dc_check_allmax_projection_catches_crossed_waits():
    # Each activity's end must come within 6 of the other's start.  Both ends
    # may fire 10 after their starts, so with every duration at its maximum
    # the two bounds form a negative cycle that edge propagation alone misses.
    crossed = Stnu(2, ((0, 3, 6), (2, 1, 6)), ((0, 1, 1, 10), (2, 3, 1, 10)))
    _Propagator(crossed).run()  # returns: edge propagation finds no contradiction
    assert dc_check(crossed) == NotDc(nodes=(2, 1, 0, 3), total=-8)
    assert reference_dc.dc_check(crossed) == NotDc(nodes=(3, 2), total=-9)
    assert not game_controllable(crossed, horizon=24)

    loose = Stnu(2, ((0, 3, 12), (2, 1, 12)), ((0, 1, 1, 10), (2, 3, 1, 10)))
    assert isinstance(dc_check(loose), Controllable)
    assert game_controllable(loose, horizon=24)


def _crossed_stnu(rng) -> Stnu:
    """All-contingent ring: each end must come soon after the next start."""
    m = rng.randrange(2, 4)
    links = tuple((2 * j, 2 * j + 1, 1, rng.randrange(2, 12)) for j in range(m))
    edges = tuple((2 * i, 2 * ((i + 1) % m) + 1, rng.randrange(0, 12)) for i in range(m))
    return Stnu(m, edges, links)


def _j10_plan_stnus():
    for path in sorted(J10.glob("*.sch")):
        inst = parse_psplib(path.read_text())
        for epsilon in (1, 2):
            stoch = make_stochastic(inst, epsilon)
            for gamma in (0.9, 1.0):
                estimate = quantile_durations(stoch, gamma)
                out = solve(inst, estimate.durations, time_limit=60)
                pos = chain(inst, estimate.durations, out.schedule)
                yield build_stnu(pos, stoch)


def test_rte_execute_leaves_its_closure_unchanged():
    # a plan's closure executes every sample of its group, so no run may alter it
    rng = random.Random(0x5A3E)
    for stnu in itertools.islice(_j10_plan_stnus(), 8):
        shared = dc_check(stnu).estnu
        samples = []
        for _ in range(3):
            durations = [0] * stnu.n_activities
            for _, c, low, high in stnu.contingent_links:
                durations[c // 2] = rng.randint(low, high)
            samples.append(DurationSample(tuple(durations)))
        reused = [rte_execute(shared, sample) for sample in samples + samples]
        fresh = [rte_execute(dc_check(stnu).estnu, sample) for sample in samples + samples]
        assert reused == fresh
        assert len({trace.times for trace in reused}) > 1
        assert shared == dc_check(stnu).estnu


def _golden_networks(group: str):
    rng = random.Random(0x601D)
    if group == "j10":
        yield from _j10_plan_stnus()
    elif group == "crossed":
        for _ in range(200):
            yield _crossed_stnu(rng)
    else:
        for _ in range(300):
            yield random_stnu(rng, max_activities=int(group[-1]))


def _digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


# (controllable, not DC, digest of every witness, digest of every closure
# with its waits), recorded from the first-in, first-out propagator
DC_CHECK_GOLDEN = {
    "random3": (232, 68, "98ec9f1144e03bfa", "3b279214493caf5f"),
    "random5": (248, 52, "a0fecb19f1da0b9e", "2ea772b6d9e6ab43"),
    "crossed": (89, 111, "bd5cfef27d6adc7d", "24d69d6932b6b61a"),
    "j10": (48, 0, "4f53cda18c2baa0c", "fc8afc16e19d14b8"),
}

# the same, recorded from the last-in, first-out propagator with flattened walks
REFERENCE_DC_GOLDEN = {
    "random3": (232, 68, "106fc2f268b2861a", "3b279214493caf5f"),
    "random5": (248, 52, "f309145ab9ec881c", "2ea772b6d9e6ab43"),
    "crossed": (89, 111, "97be009b133d9946", "bd25193d7787033a"),
    "j10": (48, 0, "4f53cda18c2baa0c", "f8cf63a5a4c9c479"),
}


def _dc_digests(check, group: str):
    witnesses, closures = [], []
    for stnu in _golden_networks(group):
        res = check(stnu)
        if isinstance(res, NotDc):
            witnesses.append((res.nodes, res.total))
        else:
            closures.append((res.estnu.base.ordinary_edges, res.estnu.wait_edges))
    return (len(closures), len(witnesses), _digest(witnesses), _digest(closures))


@pytest.mark.parametrize("group", sorted(DC_CHECK_GOLDEN))
def test_dc_check_pinned(group):
    assert _dc_digests(dc_check, group) == DC_CHECK_GOLDEN[group]


@pytest.mark.parametrize("group", sorted(REFERENCE_DC_GOLDEN))
def test_reference_dc_check_pinned(group):
    assert _dc_digests(reference_dc.dc_check, group) == REFERENCE_DC_GOLDEN[group]


def _gen30_networks():
    """Planted 30-activity networks of perfbench's generator, chained at the longest durations."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    for seed in range(3):
        inst, planted = gen.planted_instance(30, seed)
        stoch = make_stochastic(inst, 1.0)
        longest = quantile_durations(stoch, 1).durations
        pos = chain(inst, longest, Schedule.from_starts(planted, longest))
        yield build_stnu(pos, stoch), stoch


def _differential_networks(group: str):
    if group == "gen30":
        yield from (stnu for stnu, _ in _gen30_networks())
    elif group == "game":  # the networks of test_dc_check_agrees_with_game_oracle
        rng = random.Random(0x0AC1E)
        for _ in range(100):
            yield random_stnu(rng)
    else:
        yield from _golden_networks(group)


def _propagated_keys(propagator):
    """The ord and uc key sets of a finished propagation, or None on a contradiction."""
    try:
        propagator.run()
    except _Inconsistent:
        return None
    return set(propagator.ord), set(propagator.uc)


@pytest.mark.parametrize("group", sorted(DC_CHECK_GOLDEN) + ["gen30", "game"])
def test_dc_check_matches_reference(group):
    # the order changes weights and witnesses, never the verdict, the edge
    # keys or how the closure executes
    rng = random.Random(0xFCF0)
    controllable = 0
    for stnu in _differential_networks(group):
        res, ref = dc_check(stnu), reference_dc.dc_check(stnu)
        assert isinstance(res, Controllable) == isinstance(ref, Controllable)
        keys = _propagated_keys(_Propagator(stnu))
        ref_keys = _propagated_keys(reference_dc.LifoPropagator(stnu))
        if keys is not None and ref_keys is not None:
            assert keys == ref_keys
        if not isinstance(res, Controllable):
            continue
        controllable += 1
        assert keys is not None and ref_keys is not None
        for _ in range(3):
            durations = [0] * stnu.n_activities
            for _, c, low, high in stnu.contingent_links:
                durations[c // 2] = rng.randint(low, high)
            sample = DurationSample(tuple(durations))
            expected = _outcome(rte_execute, ref.estnu, sample)
            assert _outcome(rte_execute, res.estnu, sample) == expected
    assert controllable > 0


def _labeled_edges(stnu: Stnu) -> dict[tuple[int, int], set[int]]:
    """The weights of the input's labeled-graph edges, by (from, to)."""
    edges = list(stnu.ordinary_edges)
    for a, c, low, high in stnu.contingent_links:
        edges += [(a, c, high), (c, a, -low), (c, a, -high), (a, c, low)]
    weights: dict[tuple[int, int], set[int]] = {}
    for u, v, w in edges:
        weights.setdefault((u, v), set()).add(w)
    return weights


@pytest.mark.parametrize("check", [dc_check, reference_dc.dc_check], ids=["fifo", "reference"])
@pytest.mark.parametrize("group", ["random3", "random5", "crossed"])
def test_not_dc_witness_is_a_negative_walk_of_the_input(check, group):
    witnesses = 0
    for stnu in _golden_networks(group):
        res = check(stnu)
        if not isinstance(res, NotDc):
            continue
        witnesses += 1
        assert res.total < 0
        weights = _labeled_edges(stnu)
        totals = {0}  # every total some choice of parallel edges gives the closed walk
        for hop in zip(res.nodes, res.nodes[1:] + res.nodes[:1]):
            assert hop in weights, f"{hop} is no edge of {stnu}"
            totals = {t + w for t in totals for w in weights[hop]}
        assert res.total in totals
    assert witnesses > 0


def test_propagation_applies_about_one_rule_per_stored_record():
    stnu, _ = next(_gen30_networks())
    applied = {}
    for propagator in (_Propagator(stnu), reference_dc.LifoPropagator(stnu)):
        rules = 0

        def counting(rule):
            def count(*edge):
                nonlocal rules
                rules += 1
                rule(*edge)
            return count

        # put_ord and put_uc queue the instance's rules, so wrapping these counts every application
        propagator._from_ord = counting(propagator._from_ord)
        propagator._from_uc = counting(propagator._from_uc)
        propagator.run()
        applied[type(propagator)] = rules / (len(propagator.ord) + len(propagator.uc))
    assert applied[_Propagator] <= 1.5
    assert applied[reference_dc.LifoPropagator] > 3  # 4.5 here, about 9 at 50 activities


@pytest.mark.parametrize("group", sorted(DC_CHECK_GOLDEN))
def test_propagated_closure_holds_no_self_loop(group):
    # the rules walk their adjacency sets without copies; that relies on it
    for stnu in _golden_networks(group):
        prop = _Propagator(stnu)
        try:
            prop.run()
        except _Inconsistent:
            continue
        assert not [u for u, v in prop.ord if u == v]


def _rte_cases(group: str):
    """(network, sample) pairs: closures of the golden networks, or raw ones."""
    rng = random.Random(0x47E)
    source = "random" + group[-1] if group.startswith("raw") else group
    for stnu in _golden_networks(source):
        if group.startswith("raw"):
            estnu = Estnu(base=stnu, wait_edges=())
        else:
            res = dc_check(stnu)
            if not isinstance(res, Controllable):
                continue
            estnu = res.estnu
        for _ in range(3):
            durations = [0] * stnu.n_activities
            for _, c, low, high in stnu.contingent_links:
                durations[c // 2] = rng.randint(low, high)
            yield estnu, DurationSample(tuple(durations))


# (traces, RteErrors, digest of every trace or error in order), recorded from
# the dispatcher that scans every group at each decision
RTE_GOLDEN = {
    "random3": (696, 0, "1af3a9d0570e7b62"),
    "random5": (744, 0, "993b0d853c446189"),
    "raw3": (691, 209, "677b3335a234d770"),
    "raw5": (741, 159, "9e9a2e00fe5ccabb"),
    "j10": (144, 0, "a9d53f7308a733c6"),
}


@pytest.mark.parametrize("group", sorted(RTE_GOLDEN))
def test_rte_execute_pinned(group):
    outcomes = []
    for estnu, sample in _rte_cases(group):
        try:
            trace = rte_execute(estnu, sample)
        except RteError as err:
            outcomes.append(("RteError", str(err)))
        else:
            outcomes.append((trace.times, trace.makespan, trace.decisions))
    errors = sum(out[0] == "RteError" for out in outcomes)
    got = (len(outcomes) - errors, errors, _digest(outcomes))
    assert got == RTE_GOLDEN[group]


def _gen_cases():
    """Planted 30-activity networks of perfbench's generator, 10 samples each."""
    rng = random.Random(0xD1FF)
    for stnu, stoch in _gen30_networks():
        res = dc_check(stnu)
        assert isinstance(res, Controllable)
        for _ in range(10):
            yield res.estnu, sample_durations(stoch, rng.getrandbits(63))


def _outcome(execute, estnu, sample):
    try:
        trace = execute(estnu, sample)
    except RteError as err:
        return ("RteError", str(err))
    return (trace.times, trace.makespan, trace.decisions)


@pytest.mark.parametrize("group", sorted(RTE_GOLDEN) + ["gen30"])
def test_rte_matches_reference(group):
    cases = _gen_cases() if group == "gen30" else _rte_cases(group)
    for estnu, sample in cases:
        expected = _outcome(reference_rte.rte_execute, estnu, sample)
        assert _outcome(rte_execute, estnu, sample) == expected


def _any_outcome(estnu, sample):
    """A run's trace, or the type and text of the error it raised."""
    try:
        return _outcome(rte_execute, estnu, sample)
    except ValueError as err:
        return ("ValueError", str(err))


def _sample_sequence(stnu, rng):
    """Good samples interleaved with a wrong-length one and, given a link, an out-of-range one."""
    good = []
    for _ in range(3):
        durations = [0] * stnu.n_activities
        for _, c, low, high in stnu.contingent_links:
            durations[c // 2] = rng.randint(low, high)
        good.append(DurationSample(tuple(durations)))
    bad = [DurationSample(good[0].durations + (0,))]
    if stnu.contingent_links:
        _, c, _, high = stnu.contingent_links[0]
        durations = list(good[1].durations)
        durations[c // 2] = high + 1
        bad.append(DurationSample(tuple(durations)))
    return [good[0], bad[0], good[1], *bad[1:], good[2], good[0]]


def test_shared_closure_runs_like_a_fresh_one_whatever_ran_before():
    # the dispatch indexes are built once per Estnu; no run, good or failed,
    # may leave state behind that a later run on the same Estnu sees
    rng = random.Random(0xC0DE)
    shared = []
    for stnu in itertools.islice(_golden_networks("random3"), 120):
        res = dc_check(stnu)
        if isinstance(res, Controllable):
            shared.append(res.estnu)
        shared.append(Estnu(base=stnu, wait_edges=()))  # raw, as in raw3: may raise RteError
    shared += [dc_check(stnu).estnu for stnu in itertools.islice(_j10_plan_stnus(), 2)]
    compiled = [copy.deepcopy(estnu._dispatch) for estnu in shared]
    sequences = [_sample_sequence(estnu.base, rng) for estnu in shared]
    kinds = set()
    for step in range(max(map(len, sequences))):  # every network's run k, then run k + 1
        for estnu, sequence in zip(shared, sequences):
            if step < len(sequence):
                fresh = Estnu(base=estnu.base, wait_edges=estnu.wait_edges)
                got = _any_outcome(estnu, sequence[step])
                assert got == _any_outcome(fresh, sequence[step])
                kinds.add(got[0] if isinstance(got[0], str) else "trace")
    assert sorted(kinds) == ["RteError", "ValueError", "trace"]
    assert [estnu._dispatch for estnu in shared] == compiled


def test_compiled_dispatch_is_invisible_and_rebuilt():
    rng = random.Random(0xD15)
    checked = 0
    for stnu in itertools.chain(_golden_networks("random5"), _golden_networks("random3")):
        res = dc_check(stnu)
        if not isinstance(res, Controllable):
            continue
        estnu = res.estnu
        contingent = {c for _, c, _, _ in stnu.contingent_links}
        kept = [wait for wait in estnu.wait_edges if wait[0] not in contingent]
        if not kept:
            continue  # no wait the dispatcher reads
        emptied = Estnu(base=estnu.base, wait_edges=estnu.wait_edges)
        object.__setattr__(emptied, "_dispatch", None)
        # ==, hash and repr read the fields alone
        assert emptied == estnu and hash(emptied) == hash(estnu)
        assert repr(emptied) == repr(estnu) and "_dispatch" not in repr(estnu)

        fewer = tuple(wait for wait in estnu.wait_edges if wait != kept[0])
        replaced = dataclasses.replace(estnu, wait_edges=fewer)
        thawed = pickle.loads(pickle.dumps(estnu))
        fresh = Estnu(base=estnu.base, wait_edges=estnu.wait_edges)
        fresh_fewer = Estnu(base=estnu.base, wait_edges=fewer)
        # a wait fewer: rebuilt, not copied
        assert replaced._dispatch == fresh_fewer._dispatch != estnu._dispatch
        assert thawed == fresh and thawed._dispatch == fresh._dispatch
        for sample in _sample_sequence(stnu, rng):
            assert _any_outcome(replaced, sample) == _any_outcome(fresh_fewer, sample)
            assert _any_outcome(thawed, sample) == _any_outcome(fresh, sample)
        checked += 1
        if checked == 20:
            break
    assert checked == 20
