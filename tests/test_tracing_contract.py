"""perfbench's tracer must find every name it wraps in the package.

``Tracer.patched`` skips an (owner, attribute) pair it cannot find, so a
refactor that moves one of those lookups would silently stop a metric from
being measured.  These tests load ``perfbench/tracing.py`` without changing
it and check that every pair resolves and that the metered spans appear.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from srcpsp import bench, methods
from srcpsp.instances import make_stochastic, parse_psplib, sample_durations
from srcpsp.methods import METHODS

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while being built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracing):
    for owner, attr, name in tracing.TRACED:
        found = attr in owner if isinstance(owner, dict) else hasattr(owner, attr)
        assert found, f"{name}: {owner!r} has no {attr!r}"


def test_metered_runs_record_every_span(tracing):
    inst = parse_psplib((ROOT / "data" / "j10" / "j10_01.sch").read_text())
    stoch = make_stochastic(inst, 1.0)
    sample = sample_durations(stoch, 1)
    tracer = tracing.Tracer()
    with tracer.patched(traced=False):
        for method in tracing.METHODS:
            bench._RUNNERS[method](stoch, METHODS[method].defaults, sample)
    recorded = {span.name for span in tracer.spans}
    expected = {
        "solver.solve",
        "solver.solve_saa",
        "chaining.chain",
        "stnu.dc_check",
        "stnu.rte_execute",
        *(f"methods.{m}" for m in tracing.METHODS),
    }
    assert expected <= recorded


def test_metered_names_resolve_and_reactive_resolves_are_counted(tracing, monkeypatch):
    # perfbench meters these names and counts a ``reactive`` re-solve as a
    # call of ``methods.solve`` that passes ``warm_start`` as a keyword
    metered = [(owner, attr) for owner, attr, _ in tracing.METERED]
    for owner, attr in (
        *((methods, name) for name in ("solve", "solve_saa", "chain", "dc_check", "rte_execute")),
        (bench, "sample_durations"),
        *((bench._RUNNERS, m) for m in tracing.METHODS),
    ):
        assert any(o is owner and a == attr for o, a in metered), attr
        assert attr in owner if isinstance(owner, dict) else hasattr(owner, attr), attr
    calls = []
    solve = methods.solve

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return solve(*args, **kwargs)

    monkeypatch.setattr(methods, "solve", recording)
    stoch = make_stochastic(parse_psplib((ROOT / "data" / "j10" / "j10_01.sch").read_text()), 1)
    cfg = METHODS["reactive"].defaults
    for seed in range(4):
        calls.clear()
        tracer = tracing.Tracer()
        with tracer.patched(traced=False):
            run = methods.run_reactive(stoch, cfg, sample_durations(stoch, seed))
        plan, *resolves = calls  # the quantile plan's solve, then one per wrong estimate
        assert plan.get("warm_start") is None and run.feasible
        assert resolves and all(kwargs["warm_start"] is not None for kwargs in resolves), seed
        solves = [span for span in tracer.spans if span.name == "solver.solve"]
        assert len(solves) == len(calls)
        assert sum(span.info["resolve"] for span in solves) == len(resolves)
