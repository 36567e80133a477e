"""Mutated inputs never crash the CLI.

Each example drops, renames or retypes a few keys anywhere in a bundled
scenario and runs ``validate``, ``simulate`` and ``cost`` on it: every
run must end in exit code 0, 1 or 2, never in an exception. Mutated
saved simulation results go through ``cost --result`` the same way and
must end in exit code 0 or 2.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from faasplan import GB, LatencyProfile, SimulationConfig, TrafficPattern, load_pricing, simulate
from faasplan.cli import main
from faasplan.simulator import result_to_dict

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BUNDLED = {p.name: json.loads(p.read_text()) for p in sorted(SCENARIOS.glob("*.json"))}


RETYPES = {
    "str": str,
    "list": lambda value: [value],
    "null": lambda value: None,
    "bool": lambda value: True,
    "nan": lambda value: math.nan,
    "inf": lambda value: math.inf,
}


def shrink(doc: dict) -> dict:
    """Fewer requests and profile samples, so an example runs in milliseconds.

    Numbers only ever get smaller here, and mutations never enlarge one.
    """
    traffic = doc.get("traffic")
    if isinstance(traffic, dict) and "duration_s" in traffic:
        traffic["duration_s"] = min(traffic["duration_s"], 2)
    profile = doc.get("profile")
    if isinstance(profile, dict) and "n_samples" in profile:
        profile["n_samples"] = min(profile["n_samples"], 200)
    return doc


def _paths(node, prefix=()):
    """Paths to every object key, looking inside lists too (a result's records)."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(node, dict):
            yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


ALL_KEYS = sorted({path[-1] for doc in BUNDLED.values() for path in _paths(doc)})


def mutate(draw, doc: dict, retypes: dict, keys: list) -> dict:
    """Drop, rename (to one of ``keys``) or retype one to three keys anywhere in ``doc``."""
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        block = doc
        for parent in parents:
            block = block[parent]
        op = draw(st.sampled_from(["drop", "rename", *retypes]))
        if op == "drop":
            del block[key]
        elif op == "rename":
            block[draw(st.sampled_from([key + "_", *keys]))] = block.pop(key)
        else:
            block[key] = retypes[op](block[key])
    return doc


@st.composite
def mutated_scenarios(draw):
    doc = shrink(copy.deepcopy(BUNDLED[draw(st.sampled_from(sorted(BUNDLED)))]))
    return mutate(draw, doc, RETYPES, ALL_KEYS)


@settings(max_examples=150, deadline=None)
@given(doc=mutated_scenarios())
def test_mutated_scenarios_exit_cleanly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc))
        for command in ("validate", "simulate", "cost"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--scenario", str(path), "--format", "json"])
            assert code in (0, 1, 2), (command, doc, err.getvalue())


RESULT = result_to_dict(simulate(
    LatencyProfile.from_quantile_anchors({0.5: 20.0, 0.99: 80.0}, 100, GB),
    TrafficPattern.poisson(5, 1), SimulationConfig(seed=1, memory_bytes=GB), load_pricing()["aws"]))
RESULT_RETYPES = {**RETYPES, "negative": lambda value: -1}
RESULT_KEYS = sorted({path[-1] for path in _paths(RESULT)})


@st.composite
def mutated_results(draw):
    return mutate(draw, copy.deepcopy(RESULT), RESULT_RETYPES, RESULT_KEYS)


@settings(max_examples=150, deadline=None)
@given(doc=mutated_results())
def test_mutated_results_exit_cleanly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "result.json"
        path.write_text(json.dumps(doc))
        for fmt in ("table", "json"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["cost", "--result", str(path), "--format", fmt])
            assert code in (0, 2), (doc, err.getvalue())
