import json
import math
import re

import numpy as np
import pytest

from icpmaps import cli, serialize
from icpmaps.algebra import Algebra, MatrixOverAlgebra, random_element
from icpmaps.errors import SpecFormatError
from icpmaps.factory import noninvariant_block_example, point_evaluation_example, schur_block_map, trace_example
from icpmaps.gram import cp_refute, positivity_falsify
from icpmaps.stinespring import DilationTriple, dilate, verify_dilation


def test_algebra_roundtrip():
    alg = Algebra([2, 1])
    again = serialize.algebra_from_json(serialize.algebra_to_json(alg))
    assert again == alg


def test_algebra_rejects_bad_blocks():
    for bad in ({}, {"blocks": []}, {"blocks": [0]}, {"blocks": "x"}, [1]):
        with pytest.raises(SpecFormatError):
            serialize.algebra_from_json(bad)


def test_element_roundtrip(rng):
    alg = Algebra([2, 1])
    x = random_element(alg, rng)
    again = serialize.element_from_json(alg, serialize.element_to_json(x))
    assert x.allclose(again, atol=0)


def test_matrix_over_algebra_roundtrip(rng):
    alg = Algebra([1, 1])
    x = MatrixOverAlgebra(alg, rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2)))
    again = serialize.matrix_over_algebra_from_json(serialize.matrix_over_algebra_to_json(x))
    assert np.array_equal(x.coords, again.coords)


def test_map_roundtrip():
    phi = trace_example(2)
    again = serialize.map_from_json(serialize.map_to_json(phi))
    assert np.array_equal(phi.coeffs, again.coeffs)
    assert again.algebra == phi.algebra


def test_block_roundtrip():
    block = noninvariant_block_example()
    again = serialize.block_from_json(serialize.block_to_json(block))
    assert again.n == 2
    for i in range(2):
        for j in range(2):
            assert np.array_equal(block.entries[i][j].coeffs, again.entries[i][j].coeffs)


def test_map_spec_shape_validation():
    spec = serialize.map_to_json(point_evaluation_example(2))
    spec["coeffs"] = spec["coeffs"][0]  # arity now wrong
    with pytest.raises(SpecFormatError):
        serialize.map_from_json(spec)
    spec2 = serialize.map_to_json(point_evaluation_example(2))
    del spec2["k"]
    with pytest.raises(SpecFormatError):
        serialize.map_from_json(spec2)


def test_load_map_spec_dispatch():
    assert serialize.load_map_spec({"kind": "trace", "n": 2}).h == 2
    block = serialize.load_map_spec(serialize.block_to_json(noninvariant_block_example()))
    assert block.n == 2
    phi = serialize.load_map_spec(serialize.map_to_json(point_evaluation_example(2)))
    assert phi.k == 3
    with pytest.raises(SpecFormatError):
        serialize.load_map_spec({"weird": 1})
    with pytest.raises(SpecFormatError):
        serialize.load_map_spec("not an object")


def test_triple_roundtrip():
    phi = point_evaluation_example(2)
    triple = dilate(phi)
    data = serialize.triple_to_json(triple, verify_dilation(phi, triple).to_dict())
    again = serialize.triple_from_json(data)
    assert again.kappa == triple.kappa
    assert verify_dilation(phi, again).reconstruction <= 1e-12
    for p in range(triple.m):
        assert np.allclose(triple.reps[p], again.reps[p], atol=1e-15)


def test_dumps_is_deterministic():
    payload = {"b": 1.5, "a": [1, 2], "c": {"y": 0.1, "x": -2}}
    assert serialize.dumps(payload) == serialize.dumps(dict(reversed(payload.items())))


# -- report layout: serialize.dumps against json.dumps ---------------------------


def to_lists(obj):
    """The payload json.dumps can take: every float64 array as its tolist()."""
    if isinstance(obj, np.ndarray) and obj.dtype == np.float64:
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: to_lists(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_lists(value) for value in obj]
    return obj


def assert_json_layout(obj):
    assert serialize.dumps(obj) == json.dumps(to_lists(obj), sort_keys=True, indent=2) + "\n"


# (algebra, k, n, h) of the benchmark's workload shapes, with the CLI calls of each
ESTIMATE = ["--restarts", "2", "--iters", "5"]
REPORT_CASES = {
    "block-n2": ("2", 4, 2, 2, [["check", "--trials", "20"], ["russo-dye", "--cb", "--tmax", "2", *ESTIMATE]]),
    "block-n2-wide": ("2,2", 3, 2, 2, [["check", "--cp", "--levels", "1", "--trials", "5"]]),
    "plain-n1": (
        "2", 5, 1, 2,
        [["check", "--levels", "1,2", "--trials", "20"], ["russo-dye", "--cb", "--tmax", "2", *ESTIMATE]],
    ),
    "dilate-wide": (
        "3", 4, 1, 2,
        [["check", "--cp", "--levels", "1", "--trials", "10"], ["russo-dye", *ESTIMATE, "--trials", "10"]],
    ),
}


@pytest.mark.parametrize("case", sorted(REPORT_CASES))
def test_reports_have_the_json_layout(tmp_path, monkeypatch, capsys, case):
    algebra, k, n, h, commands = REPORT_CASES[case]
    spec = str(tmp_path / "spec.json")
    gen = ["gen", "dilation", "--algebra", algebra, "--k", str(k), "--n", str(n), "--h", str(h), "--out", spec]
    assert cli.main(gen) == 0
    written = []
    real_dumps = serialize.dumps

    def recording_dumps(obj):
        text = real_dumps(obj)
        written.append((obj, text))
        return text

    monkeypatch.setattr(serialize, "dumps", recording_dumps)
    triple = str(tmp_path / "triple.json")
    for argv in [*commands, ["dilate", "--minimal", "--out", triple]]:
        assert cli.main([argv[0], spec, *argv[1:]]) in (0, 1), argv
    assert cli.main(["equiv", triple, triple, spec]) == 0
    capsys.readouterr()
    assert [obj["command"] for obj, _ in written] == [argv[0] for argv in commands] + ["dilate", "equiv"]
    for obj, text in written:
        assert text == json.dumps(to_lists(obj), sort_keys=True, indent=2) + "\n", obj["command"]


def test_refutation_and_counterexample_reports_have_the_json_layout():
    # a non-PSD Schur multiplier: the falsifier's tuple and the refuter's witness are arrays
    block = schur_block_map(np.array([[1.0, 2.0], [2.0, 1.0]]))
    refutation = cp_refute(block)
    assert refutation is not None
    assert_json_layout(refutation.to_dict())
    counterexample = positivity_falsify(block, trials=50, levels=(1, 2), seed=0)
    assert counterexample is not None
    assert_json_layout(counterexample.to_dict())


def _empty_triple(blocks=(2, 1), k=3, n=2, h=3):
    alg = Algebra(list(blocks))
    return DilationTriple(
        algebra=alg,
        k=k,
        n=n,
        h=h,
        kappa=0,
        reps=tuple(np.zeros((alg.dim, 0, 0), dtype=np.complex128) for _ in range((k + 1) // 2)),
        V=tuple(np.zeros((0, h), dtype=np.complex128) for _ in range(n)),
    )


def test_kappa_zero_triple_has_the_json_layout_and_round_trips():
    triple = _empty_triple()
    data = serialize.triple_to_json(triple, {"reconstruction": 0.0})
    assert_json_layout(data)
    assert data["V"][0].shape == (0, 3, 2)
    again = serialize.triple_from_json(json.loads(serialize.dumps(data)))
    assert again.kappa == 0
    assert [v.shape for v in again.V] == [(0, 3)] * 2
    assert [r.shape for r in again.reps] == [(5, 0, 0)] * 2


EDGE_FLOATS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1 / 3, 1e-7, 1e16, 123456789.0
]


def test_edge_payload_has_the_json_layout():
    rng = np.random.default_rng(0)
    payload = {
        "floats": EDGE_FLOATS,
        "numpy": [np.float64(0.1), np.float64(-0.0), np.float64(math.nan)],
        "ints": [0, -1, 2**70, True, False, None],
        "strings": ["", "plain", "café κ ⊗ \U0001d49c", "tab\tnew\nline\r\x00\x1f\x7f \"quoted\" \\"],
        "empty": [[], {}, (), np.zeros(0), np.zeros((0, 3, 2)), np.zeros((2, 0, 2)), np.zeros((3, 0))],
        "arrays": [
            np.array(EDGE_FLOATS),
            np.array(EDGE_FLOATS[:12]).reshape(2, 3, 2),
            np.float64(2.5) * np.ones(()),
            rng.standard_normal((2, 2, 3, 2)),
            [[rng.standard_normal((1, 2))], {"deep": np.array([[-0.0, 5e-324]])}],
        ],
        "nested": {"b": {"z": 1, "a": [1.5, {"y": None}]}, "a": ()},
        3: "int key",
        "über": "non-ASCII key",
    }
    # json sorts the keys before it converts them to strings, so they must be comparable
    with pytest.raises(TypeError):
        serialize.dumps(payload)
    del payload[3]
    assert_json_layout(payload)
    assert_json_layout({2: "a", 10: "b", -1: [np.ones(2)]})
    assert_json_layout({1.5: 0, math.inf: 1})
    for scalar in [*EDGE_FLOATS, 7, None, True, "sé"]:
        assert_json_layout(scalar)


@pytest.mark.parametrize(
    "bad",
    [np.int64(1), np.bool_(True), np.float32(1.0), 1j, {1, 2}, object(), np.zeros(2, dtype=np.complex128),
     np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.float32), {(1, 2): 0}],
    ids=lambda x: type(x).__name__ + str(getattr(x, "dtype", "")),
)
def test_dumps_rejects_what_json_rejects(bad):
    with pytest.raises(TypeError):
        json.dumps(to_lists({"x": [bad]}), sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        serialize.dumps({"x": [bad]})


def test_dumps_rejects_circular_payloads():
    loop = {"a": []}
    loop["a"].append(loop)
    with pytest.raises(ValueError, match="Circular"):
        serialize.dumps(loop)


def test_triple_round_trip_is_bit_exact():
    phi = point_evaluation_example(2)
    triple = dilate(phi)
    reps = [r.copy() for r in triple.reps]
    reps[0][0, 0, 0] = complex(-0.0, -0.0)
    reps[0][1, 0, 0] = complex(math.inf, -math.inf)
    reps[-1][-1, 0, 0] = complex(5e-324, -0.0)
    v_ops = [v.copy() for v in triple.V]
    v_ops[0][0, 0] = complex(-0.0, 1e308)
    triple = DilationTriple(triple.algebra, triple.k, triple.n, triple.h, triple.kappa, tuple(reps), tuple(v_ops))
    again = serialize.triple_from_json(json.loads(serialize.dumps(serialize.triple_to_json(triple))))
    for got, want in zip(again.reps + again.V, triple.reps + triple.V):
        assert got.dtype == np.complex128
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.signbit(again.reps[0][0, 0, 0].real) and np.signbit(again.reps[0][0, 0, 0].imag)
    assert np.signbit(again.reps[-1][-1, 0, 0].imag)
    assert np.signbit(again.V[0][0, 0].real)


def _schur_spec_exit(tmp_path, lam) -> int:
    spec = tmp_path / "schur.json"
    spec.write_text(json.dumps({"kind": "schur", "lam": lam}))
    return cli.main(["check", str(spec), "--out", str(tmp_path / "report.json")])


def test_matrix_from_json_refuses_string_entries(tmp_path):
    # quoted numbers: float64 conversion alone would read "1_000" as 1000
    lam = [[["1_000", 0.0], [" 2.5 ", 0.0]], [["nan", 0.0], [1.0, 0.0]]]
    with pytest.raises(SpecFormatError, match="string entries"):
        serialize.matrix_from_json(lam, (2, 2))
    with pytest.raises(SpecFormatError, match="str entry"):  # a string beside a null
        serialize.matrix_from_json([[["1.5", None]]], (1, 1))
    assert _schur_spec_exit(tmp_path, lam) == 2


def test_matrix_from_json_refuses_boolean_entries(tmp_path):
    lam = [[[True, False], [False, False]], [[False, False], [True, False]]]
    with pytest.raises(SpecFormatError, match="boolean entries"):
        serialize.matrix_from_json(lam, (2, 2))
    assert _schur_spec_exit(tmp_path, lam) == 2


def test_matrix_from_json_rejects_malformed_entries():
    good = [[[1.0, 0.0], [0.5, -0.0]], [[0.5, 0.0], [1.0, 0.0]]]
    assert serialize.matrix_from_json(good, (2, 2))[0, 1] == 0.5
    for bad in [
        [[[1.0, 0.0], [0.5, 0.0]], [[0.5, 0.0]]],  # ragged row
        [[[1.0, 0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [1.0, 0.0]]],  # three-element pair
        [[["x", 0.0], [0.5, 0.0]], [[0.5, 0.0], [1.0, 0.0]]],  # non-numeric string
        [[[None, 0.0], [0.5, 0.0]], [[0.5, 0.0], [1.0, 0.0]]],  # null entry
        [[[1.0, 0.0]]],  # wrong shape
        [[[1.0, 0.0, 0.0, 0.0]] * 2] * 2,  # four-element pairs throughout
        [[[1.0]] * 2] * 2,  # one-element pairs throughout
        [[[10**400, 0.0], [0.5, 0.0]], [[0.5, 0.0], [1.0, 0.0]]],  # too large for a double
        [[{"re": 1.0}]],
        "matrix",
        5.0,
        [],
    ]:
        with pytest.raises(SpecFormatError):
            serialize.matrix_from_json(bad, (2, 2))
    # NaN written by json is a value, not a null
    assert math.isnan(serialize.matrix_from_json([[[math.nan, 0.0]]], (1, 1))[0, 0].real)


def test_matrix_from_json_refuses_a_boolean_among_numbers(tmp_path):
    # float64 inference reads true beside numbers as 1.0, and beside integers as 1
    with pytest.raises(SpecFormatError, match="bool entry"):
        serialize.matrix_from_json([[[True, 1.5]]])
    with pytest.raises(SpecFormatError, match="bool entry"):
        serialize.matrix_from_json([[[1, 0], [0, False]]], (1, 2))
    with pytest.raises(SpecFormatError, match="bool entry"):  # a vector
        serialize.matrix_from_json([[0.5, 0.0], [False, 2.0]], (2,))
    coeffs = serialize.map_to_json(point_evaluation_example(2))
    coeffs = json.loads(serialize.dumps(coeffs))
    coeffs["coeffs"][1][0][1][0][0][1] = True  # a coefficient tensor
    with pytest.raises(SpecFormatError, match="map coefficients: bool entry"):
        serialize.map_from_json(coeffs)
    assert _schur_spec_exit(tmp_path, [[[True, 0.0], [0.5, 0.0]], [[0.5, 0.0], [1.0, 0.0]]]) == 2
    assert serialize.matrix_from_json([[[1, 0], [0.5, -2]]], (1, 2))[0, 1] == 0.5 - 2j


def test_algebra_from_json_refuses_booleans():
    for bad in ([True], [2, False], [1, True]):
        with pytest.raises(SpecFormatError, match="positive integers"):
            serialize.algebra_from_json({"blocks": bad})
    spec = json.loads(serialize.dumps(serialize.map_to_json(point_evaluation_example(1))))
    spec["algebra"]["blocks"] = [True]  # loaded as M_1 before
    with pytest.raises(SpecFormatError, match="positive integers"):
        serialize.load_map_spec(spec)


def test_block_spec_entries_must_be_a_list():
    with pytest.raises(SpecFormatError, match="needs a list of 1 entry maps .*got int$"):
        serialize.block_from_json({"n": 1, "entries": 5})
    with pytest.raises(SpecFormatError, match="needs a list of 4 entry maps .*got 1"):
        serialize.block_from_json({"n": 2, "entries": [{}]})


def _loaders_with_integer_fields():
    """(loader, document, key) for every integer field that a loader reads."""
    plain = json.loads(serialize.dumps(serialize.map_to_json(trace_example(2))))
    block = json.loads(serialize.dumps(serialize.block_to_json(noninvariant_block_example())))
    triple = json.loads(serialize.dumps(serialize.triple_to_json(dilate(trace_example(2)))))
    mat = MatrixOverAlgebra.identity(Algebra([1, 1]), 2)
    over = json.loads(serialize.dumps(serialize.matrix_over_algebra_to_json(mat)))
    dilation = {"kind": "dilation", "algebra": {"blocks": [2]}, "k": 3, "n": 2, "h": 1, "seed": 0}
    return (
        [(serialize.map_from_json, plain, key) for key in ("k", "h")]
        + [(serialize.block_from_json, block, "n")]
        + [(serialize.triple_from_json, triple, key) for key in ("k", "n", "h", "kappa")]
        + [(serialize.matrix_over_algebra_from_json, over, "t")]
        + [(serialize.load_map_spec, {"kind": "trace", "n": 2}, "n")]
        + [(serialize.load_map_spec, {"kind": "eval", "dim": 2, "point": 0}, key) for key in ("dim", "point")]
        + [(serialize.load_map_spec, dilation, key) for key in ("k", "n", "h", "seed")]
    )


@pytest.mark.parametrize("loader, doc, key", _loaders_with_integer_fields())
def test_integer_fields_refuse_booleans_floats_and_strings(loader, doc, key):
    # int() read each of these as an integer: true as 1, 2.5 as 2, "3" as 3
    loader(doc)
    value = doc[key]
    for bad in (True, False, value + 0.5, float(value), str(value), None):
        with pytest.raises(SpecFormatError, match=f"'{key}' is not an integer: {re.escape(repr(bad))}$"):
            loader({**doc, key: bad})


def test_integer_fields_through_the_cli(tmp_path, capsys):
    for spec in ({"kind": "trace", "n": 2.5}, {"kind": "trace", "n": True}):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert cli.main(["validate", str(path)]) == 2
        assert "'n' is not an integer" in capsys.readouterr().err
    spec = tmp_path / "trace.json"
    spec.write_text(json.dumps({"kind": "trace", "n": 2}))
    good = tmp_path / "triple.json"
    assert cli.main(["dilate", str(spec), "--minimal", "--out", str(good)]) == 0
    triple = json.loads(good.read_text())
    for key, bad in (("kappa", triple["kappa"] + 0.5), ("k", str(triple["k"]))):
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps({**triple, key: bad}))
        assert cli.main(["equiv", str(broken), str(good), str(spec)]) == 2
        assert f"'{key}' is not an integer" in capsys.readouterr().err
