"""Malformed-input fuzzing of the command line: one change to the line5
instance or trace must end in exit 0, or in exit 2 with one ``error:`` line,
never in a traceback."""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from netfloc.harness import main

DATA = Path(__file__).parent / "data"
INSTANCE = json.loads((DATA / "line5.json").read_text())
TRACE = (DATA / "line5.trace").read_text().splitlines()
VALUES = [math.nan, math.inf, 1e308, -1e308, True, "x", [0], {"a": 0}]
DROP = object()
COMMANDS = ["run", "verify", "opt", "dump-tree"]


def _locations(node, prefix=()):
    """(path to container, key) for every value in a JSON tree."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield prefix, key
        if isinstance(value, (dict, list)):
            yield from _locations(value, prefix + (key,))


def mutations():
    """Every single change: a JSON value or trace token replaced or dropped."""
    out = []
    for prefix, key in _locations(INSTANCE):
        out.extend(("instance", prefix, key, v) for v in VALUES + [DROP])
    for line_no, line in enumerate(TRACE):
        for pos in range(len(line.split())):
            out.extend(("trace", line_no, pos, v) for v in VALUES + [DROP])
    return out


def apply(mutation) -> tuple[str, str]:
    """Instance JSON and trace text with one mutation applied."""
    target, where, key, value = mutation
    data, lines = copy.deepcopy(INSTANCE), list(TRACE)
    if target == "instance":
        node = data
        for step in where:
            node = node[step]
        if value is DROP:
            del node[key]
        else:
            node[key] = value
    else:
        tokens = lines[where].split()
        if value is DROP:
            del tokens[key]
        else:
            tokens[key] = json.dumps(value)
        lines[where] = " ".join(tokens)
    return json.dumps(data), "\n".join(lines) + "\n"


def run_cli(command: str, instance_text: str, trace_text: str) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        inst, trace = Path(tmp, "i.json"), Path(tmp, "t.trace")
        inst.write_text(instance_text)
        trace.write_text(trace_text)
        argv = [command, str(inst)] + ([] if command == "dump-tree" else [str(trace)])
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, err.getvalue()


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.sampled_from(mutations()), st.sampled_from(COMMANDS))
def test_single_mutation_exits_cleanly(mutation, command):
    code, err = run_cli(command, *apply(mutation))
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    else:
        assert code == 2 and err.startswith("error:") and err.count("\n") == 1
