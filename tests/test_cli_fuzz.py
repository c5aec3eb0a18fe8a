"""The CLI contract under malformed input: hypothesis mutates one field of a
map, block or generator spec, or of a dilation triple, runs the CLI in
process, and requires an exit code in 0-4 with no exception escaping.

A mutation drops a field (or list item) or replaces it with a null, a
boolean, a string, a negative number, a float or a nested list.  The
``@example`` cases, which run on every test run, are inputs that once ended
in a traceback, were read as something else or were answered with the
wrong exit code; each must exit with its own expected code.
"""

import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icpmaps import cli, serialize
from icpmaps.factory import schur_block_map, trace_example
from icpmaps.stinespring import dilate

DROP = object()
REPLACEMENTS = [DROP, None, True, False, "x", "3", -1, -2.5, 2.5, [[1.0, 0.0]], []]


def _plain(obj):
    """The object as json.load returns it."""
    return json.loads(serialize.dumps(obj))


TRACE = trace_example(2)
BASES = {
    "map": _plain(serialize.map_to_json(TRACE)),
    "block": _plain(serialize.block_to_json(schur_block_map([[1.0, 0.5], [0.5, 1.0]]))),
    "dilation": {"kind": "dilation", "algebra": {"blocks": [2]}, "k": 3, "n": 2, "h": 1, "seed": 0},
    "trace": {"kind": "trace", "n": 2},
    "eval": {"kind": "eval", "dim": 2, "point": 0},
    "schur": {"kind": "schur", "lam": [[[1.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [1.0, 0.0]]]},
    "triple": _plain(serialize.triple_to_json(dilate(TRACE))),
}
SPEC_COMMANDS = [
    ("validate", "{doc}"),
    ("check", "{doc}", "--levels", "1,2", "--trials", "2"),
    ("dilate", "{doc}", "--minimal"),
    ("russo-dye", "{doc}", "--restarts", "1", "--iters", "2", "--trials", "2"),
    ("russo-dye", "{doc}", "--cb", "--tmax", "1", "--restarts", "1", "--iters", "2"),
]
TRIPLE_COMMANDS = [("equiv", "{doc}", "{doc}", "{spec}"), ("equiv", "{spec_triple}", "{doc}", "{spec}")]


@st.composite
def mutated_inputs(draw):
    """(argv template, document, expected exit code): one field of a base
    document mutated, with no exit code expected."""
    name = draw(st.sampled_from(sorted(BASES)))
    doc = copy.deepcopy(BASES[name])
    parent, key, node = None, None, doc
    # walk down from the root, stopping at any field on the way
    while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
        parent = node
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        node = node[key]
    value = draw(st.sampled_from(REPLACEMENTS))
    if value is DROP:
        del parent[key]
    else:
        parent[key] = value
    commands = TRIPLE_COMMANDS if name == "triple" else SPEC_COMMANDS
    return draw(st.sampled_from(commands)), doc, None


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    spec, spec_triple = work / "spec.json", work / "spec-triple.json"
    spec.write_text(json.dumps(BASES["map"]))
    spec_triple.write_text(json.dumps(BASES["triple"]))
    return {"work": work, "spec": str(spec), "spec_triple": str(spec_triple)}


def _run(files, argv, doc) -> tuple[int, str]:
    path = files["work"] / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [a.format(doc=path, spec=files["spec"], spec_triple=files["spec_triple"]) for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--out", str(files["work"] / "report.json")])
    return code, err.getvalue()


def _map_with(value):
    """The map base with ``value`` as the real part of its first coefficient."""
    doc = copy.deepcopy(BASES["map"])
    doc["coeffs"][0][0][0][0][0][0] = value
    return doc


MALFORMED = [  # each once ended in a traceback or was read as something else
    {"n": 1, "entries": 5},
    {**BASES["dilation"], "seed": None},
    {**BASES["dilation"], "seed": -1},
    {**BASES["dilation"], "algebra": {"blocks": "22"}},
    {**BASES["dilation"], "algebra": {"blocks": [2.5]}},
    {**BASES["dilation"], "algebra": {"blocks": [True]}},
    {**BASES["map"], "algebra": {"blocks": [True]}},
    {"kind": "schur", "lam": [[[True, 1.5]]]},
    {"kind": "trace", "n": 2.5},
    {"kind": "trace", "n": True},
    {**BASES["dilation"], "k": "3"},
    {**BASES["map"], "h": float(BASES["map"]["h"])},
    {**BASES["block"], "n": True},
    {"kind": "eval", "dim": 10**30},  # overflowed an intp
    {**BASES["dilation"], "k": 10**30},  # hung, as did the next
    {**BASES["dilation"], "n": 10**30},
    _map_with(math.nan),  # exit 4, SVD did not converge
    _map_with(math.inf),  # a nan residual or a fail verdict
    {"n": 1, "entries": [_map_with(-math.inf)]},
    {**BASES["schur"], "lam": [[[1.0, 0.0], [math.nan, 0.0]], [[0.5, 0.0], [1.0, 0.0]]]},
    {"algebra": {"blocks": [1]}, "k": 10**30, "h": 1, "coeffs": [[0.5, 0.0]]},  # overflowed an intp
]


def _triple_of(blocks, k, n, h) -> dict:
    """The standard-form triple of a `gen dilation` map, as its file holds it."""
    spec = {"kind": "dilation", "algebra": {"blocks": blocks}, "k": k, "n": n, "h": h, "seed": 0}
    return _plain(serialize.triple_to_json(dilate(serialize.load_map_spec(spec))))


MALFORMED_TRIPLES = [  # read as the triple they were written from (the first two), or as commented
    {**BASES["triple"], "kappa": BASES["triple"]["kappa"] + 0.5},
    {**BASES["triple"], "k": str(BASES["triple"]["k"])},
    {**BASES["triple"], "layout": [1000000], "kappa": 4},  # its images asked numpy for 1.82 PiB
    {**BASES["triple"], "layout": [10**30], "kappa": 4},  # overflowed an intp
    {**_triple_of([3], 4, 1, 2), "k": 10**30},  # overflowed an intp
    {**_triple_of([2, 2], 3, 2, 2), "k": 10**9},  # took n_blocks**m for seconds, then failed to print it
]


PLAIN = {"kind": "dilation", "algebra": {"blocks": [2]}, "k": 5, "n": 1, "h": 2, "seed": 0}


def _examples(test):
    """Each malformed spec through every spec command and each malformed
    triple through every triple command, and a negative ``--iters``: all
    must be input errors.  Under ``dilate --minimal``, ``--rank-tol 0`` is
    an input error where it keeps a pivot of round-off (on ``PLAIN``) and
    passes where no pivot above 0 is round-off (on the ``dilation`` base);
    ``--rank-tol 0.5`` drops part of ``PLAIN`` and is an obstruction."""
    cases = [(argv, doc, 2) for doc in MALFORMED for argv in SPEC_COMMANDS]
    cases += [(argv, doc, 2) for doc in MALFORMED_TRIPLES for argv in TRIPLE_COMMANDS]
    cases.append(((*SPEC_COMMANDS[-1], "--iters", "-1"), BASES["dilation"], 2))
    cases.append(((*SPEC_COMMANDS[2], "--rank-tol", "0"), PLAIN, 2))
    cases.append(((*SPEC_COMMANDS[2], "--rank-tol", "0"), BASES["dilation"], 0))
    cases.append(((*SPEC_COMMANDS[2], "--rank-tol", "0.5"), PLAIN, 3))
    for case in cases:
        test = example(case)(test)
    return test


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(mutated_inputs())
@_examples
def test_cli_exits_0_to_4_on_mutated_input(files, case):
    argv, doc, expected = case
    code, err = _run(files, argv, doc)
    assert code in range(5), (argv, doc, err)
    if code == 2:
        assert err.startswith("input error: ") and err.count("\n") == 1, err
    assert expected in (None, code), (argv, doc, err)
