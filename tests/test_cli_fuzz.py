"""Mutated bundled scenarios never crash the CLI.

Each example drops, renames or retypes a few keys anywhere in a bundled
scenario and runs ``validate``, ``simulate`` and ``cost`` on it: every
run must end in exit code 0, 1 or 2, never in an exception.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from faasplan.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BUNDLED = {p.name: json.loads(p.read_text()) for p in sorted(SCENARIOS.glob("*.json"))}


def _keys(doc: dict) -> set[str]:
    out = set(doc)
    for value in doc.values():
        if isinstance(value, dict):
            out |= _keys(value)
    return out


ALL_KEYS = sorted(set().union(*(_keys(doc) for doc in BUNDLED.values())))
RETYPES = {
    "str": str,
    "list": lambda value: [value],
    "null": lambda value: None,
    "bool": lambda value: True,
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


def _paths(doc: dict, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


@st.composite
def mutated_scenarios(draw):
    doc = shrink(copy.deepcopy(BUNDLED[draw(st.sampled_from(sorted(BUNDLED)))]))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        block = doc
        for parent in parents:
            block = block[parent]
        op = draw(st.sampled_from(["drop", "rename", *RETYPES]))
        if op == "drop":
            del block[key]
        elif op == "rename":
            block[draw(st.sampled_from([key + "_", *ALL_KEYS]))] = block.pop(key)
        else:
            block[key] = RETYPES[op](block[key])
    return doc


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
