"""Seeded mutation fuzz of every input boundary: bad input fails as ValueError.

Each test mutates valid input (token swaps, line deletions, duplicated lines,
byte flips, tokens replaced by 10**1..10**25) and feeds it to one boundary.
Only ``ValueError`` (``ParseError`` is one) may escape; anything else, such
as an ``OverflowError`` or a ``MemoryError`` from a list sized by an
unchecked count, fails the test with the input that raised it.
"""

import json
import random
import re
from pathlib import Path

import pytest

from srcpsp import bench
from srcpsp.bench import BenchConfig, ResultsTable
from srcpsp.instances import make_stochastic, parse_psplib

DATA = Path(__file__).resolve().parent.parent / "data"
EXAMPLE = DATA / "example.sch"
_TOKEN = re.compile(r"[^\s,]+")


def _mutate(rng: random.Random, text: str) -> str:
    """``text`` after one or two random mutations of its lines and tokens."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 2)):
        if not lines:
            break
        kind = rng.randrange(5)
        i = rng.randrange(len(lines))
        if kind == 0:
            del lines[i]
        elif kind == 1:
            lines.insert(i, lines[i])
        elif kind == 2 and lines[i]:
            k = rng.randrange(len(lines[i]))
            flipped = chr(ord(lines[i][k]) ^ 1 << rng.randrange(7))
            lines[i] = lines[i][:k] + flipped + lines[i][k + 1 :]
        elif kind == 3:
            j = rng.randrange(len(lines))
            a, b = list(_TOKEN.finditer(lines[i])), list(_TOKEN.finditer(lines[j]))
            if a and b:
                ta, tb = rng.choice(a).group(), rng.choice(b).group()
                lines[i] = lines[i].replace(ta, tb, 1)
                lines[j] = lines[j].replace(tb, ta, 1)
        elif kind == 4 and (tokens := list(_TOKEN.finditer(lines[i]))):
            token = rng.choice(tokens)
            big = str(10 ** rng.randint(1, 25))
            lines[i] = lines[i][: token.start()] + big + lines[i][token.end() :]
    return "\n".join(lines) + "\n"


def _fuzz(seed: int, cases: int, corpus: list[str], target) -> int:
    """Run ``target`` on ``cases`` mutants; return how many it rejected."""
    rng = random.Random(seed)
    rejected = 0
    for _ in range(cases):
        mutant = _mutate(rng, rng.choice(corpus))
        try:
            target(mutant)
        except ValueError:
            rejected += 1
        except Exception as exc:
            pytest.fail(f"{type(exc).__name__}: {exc} on input {mutant!r}")
    return rejected


def test_fuzz_parse_psplib_and_make_stochastic():
    corpus = [p.read_text(encoding="utf-8") for p in [EXAMPLE, *sorted((DATA / "j10").glob("*.sch"))]]

    def target(text):
        make_stochastic(parse_psplib(text), 1)

    assert _fuzz(2, 5000, corpus, target) > 2500


def test_fuzz_results_table_from_csv():
    rows = [
        "j10,j10_01,1,0,stnu,true,40,1.000,1.000,,7",
        "j10,j10_01,1,0,reactive,false,,2.500,0.125,execution_violation,7",
        "j10-hard,j10_02,2,1,proactive_q,true,38,0.000,0.000,,8",
    ]
    corpus = ["\n".join([bench.CSV_HEADER, *rows]) + "\n"]
    assert _fuzz(4, 4000, corpus, ResultsTable.from_csv) > 1000


def test_fuzz_bench_config_from_mapping():
    config = {
        "instance_sets": {"j10": ["data/j10/*.sch"], "demo": "data/example.sch"},
        "instances_per_set": 5,
        "epsilons": [1, 2.5],
        "samples_per_instance": 3,
        "methods": ["proactive_q", "proactive_saa", "reactive", "stnu"],
        "method_configs": {"stnu": {"gamma": 1.0}, "proactive_saa": {"saa_gammas": [0.5, 0.9]}},
        "parallelism": 2,
        "output_dir": "results",
        "master_seed": 1,
    }
    corpus = [json.dumps(config, indent=1)]

    def target(text):
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            return
        if isinstance(data, dict):
            BenchConfig.from_mapping(data)

    assert _fuzz(4, 4000, corpus, target) > 300


@pytest.mark.parametrize("flag", ["--schedule", "--durations"])
def test_fuzz_cli_schedule_and_durations(flag, capsys):
    values = {"--schedule": "0,1,3,5,0,3,7", "--durations": "0,1,5,3,2,2,0"}
    exits = {}

    def target(text):
        # one value a line, so deleted and duplicated lines are deleted and duplicated values
        argv = ["check", "--instance", str(EXAMPLE)]
        argv += [f"{f}={','.join(text.split()) if f == flag else v}" for f, v in values.items()]
        try:
            code = bench.main(argv)
        except SystemExit as usage:  # argparse rejected the value
            code = usage.code
        exits[code] = exits.get(code, 0) + 1
        capsys.readouterr()

    _fuzz(5, 600, [values[flag].replace(",", "\n")], target)
    assert set(exits) <= {0, 1, 2}
    assert min(exits.values()) > 50
