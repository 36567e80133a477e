"""Mutated inputs never crash the CLI.

Each example drops, renames or retypes a few keys anywhere in a bundled
scenario and runs ``validate``, ``simulate`` and ``cost`` on it: every
run must end in exit code 0, 1 or 2, never in an exception, and an exit 2
must name the scenario file first. A scenario with a profile may instead
read its samples from a ``samples_csv`` of drawn bytes. Mutated saved
simulation results go through ``cost --result`` the same way and must end
in exit code 0 or 2, an exit 2 naming the result file first; there a
retype may also grow a number, since no run length depends on a saved
result. In either file a retype may write an integer literal of 5,000
digits, past what ``int()`` converts from text, which no loader reads.
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


# json.dumps cannot write an integer past the int-string limit, so dump() writes
# this literal as text in place of the DIGITS marker.
DIGITS, DIGITS_LITERAL = "<5000 digits>", "9" * 5000

RETYPES = {
    "digits": lambda value: DIGITS,
    "str": str,
    "list": lambda value: [value],
    "null": lambda value: None,
    "bool": lambda value: True,
    "nan": lambda value: math.nan,
    "inf": lambda value: math.inf,
    "negative": lambda value: -1,
}


def dump(doc) -> str:
    """``doc`` as JSON text, each DIGITS marker written as a 5,000-digit literal."""
    return json.dumps(doc).replace(json.dumps(DIGITS), DIGITS_LITERAL)


def shrink(doc: dict) -> dict:
    """Fewer requests and profile samples, so an example runs in milliseconds.

    Numbers only ever get smaller here, and mutations never enlarge one
    that a loader reads.
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


CSV_HEADER = b"timestamp_ms,duration_ms,cold,instance"
CSV_ROWS = [
    b"12.5,40.0,0,i-0", b",52.5,,", b"1.0,61.0,1,",  # good
    b"\xff\xfe1.0,2.0,,", b"1.0,\xe9,,",  # not UTF-8
    b"1.0,\x00,,", b"\x00",  # NUL
    b"1.0", b"1.0,2.0", b"",  # short
    b"1.0,2.0,maybe,", b"1.0,2.0,true,",  # bad cold cell
]
samples_csv = st.builds(
    lambda header, rows: b"\n".join([header, *rows]) + b"\n",
    st.sampled_from([CSV_HEADER, b"\xff\xfe" + CSV_HEADER, b"duration_ms"]),
    st.lists(st.sampled_from(CSV_ROWS), max_size=6),
)


@st.composite
def mutated_scenarios(draw):
    """A mutated scenario, and the bytes of its ``samples.csv`` (None if it reads none)."""
    doc = shrink(copy.deepcopy(BUNDLED[draw(st.sampled_from(sorted(BUNDLED)))]))
    csv = None
    if "profile" in doc and draw(st.booleans()):
        doc["profile"] = {"reference_memory_mb": 1024, "samples_csv": "samples.csv"}
        csv = draw(samples_csv)
    return mutate(draw, doc, RETYPES, ALL_KEYS), csv


@settings(max_examples=150, deadline=None)
@given(example=mutated_scenarios())
def test_mutated_scenarios_exit_cleanly(example):
    doc, csv = example
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(dump(doc))
        if csv is not None:
            (Path(tmp) / "samples.csv").write_bytes(csv)
        for command in ("validate", "simulate", "cost"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--scenario", str(path), "--format", "json"])
            assert code in (0, 1, 2), (command, example, err.getvalue())
            if code == 2:
                assert err.getvalue().startswith(f"error: {path}: "), (command, example,
                                                                      err.getvalue())


RESULT = result_to_dict(simulate(
    LatencyProfile.from_quantile_anchors({0.5: 20.0, 0.99: 80.0}, 100, GB),
    TrafficPattern.poisson(5, 1), SimulationConfig(seed=1, memory_bytes=GB), load_pricing()["aws"]))
RESULT_KEYS = sorted({path[-1] for path in _paths(RESULT)})
RESULT_RETYPES = {**RETYPES, "huge": lambda value: 10**400}


@st.composite
def mutated_results(draw):
    return mutate(draw, copy.deepcopy(RESULT), RESULT_RETYPES, RESULT_KEYS)


@settings(max_examples=150, deadline=None)
@given(doc=mutated_results())
def test_mutated_results_exit_cleanly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "result.json"
        path.write_text(dump(doc))
        for fmt in ("table", "json"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["cost", "--result", str(path), "--format", fmt])
            assert code in (0, 2), (doc, err.getvalue())
            if code == 2:
                assert err.getvalue().startswith(f"error: {path}: "), (doc, err.getvalue())
