import dataclasses
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from icpmaps import cli, gram, serialize
from icpmaps.algebra import Algebra
from icpmaps.cli import main
from icpmaps.factory import (
    commutative_invariant_family,
    from_dilation_data,
    point_evaluation_example,
    random_icp,
    trace_example,
)
from icpmaps.gram import Counterexample
from icpmaps.multimap import MultilinearMap
from icpmaps.stinespring import EquivalenceReport, dilate, unitary_equivalence
from icpmaps.tolerances import EQUIVALENCE_TOLS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_spec(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(serialize.dumps(payload))
    return str(path)


def test_validate_ok(tmp_path, capsys):
    spec = write_spec(tmp_path, "trace.json", {"kind": "trace", "n": 2})
    code, out = run(capsys, "validate", spec)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_validate_truncated_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "trace"')
    assert main(["validate", str(path)]) == 2


def test_validate_wrong_arity_coeffs(tmp_path, capsys):
    spec = serialize.map_to_json(point_evaluation_example(2))
    spec["coeffs"] = spec["coeffs"][0]
    path = write_spec(tmp_path, "bad_arity.json", spec)
    assert main(["validate", path]) == 2


def test_check_eval_cp_attaches_discrepancy_note(tmp_path, capsys):
    spec = write_spec(tmp_path, "eval.json", {"kind": "eval", "dim": 2, "point": 0})
    code, out = run(capsys, "check", spec, "--cp")
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["cp"] == "pass"
    assert report["checks"]["cp"]["certificate"]["kappa"] == 1
    note = report["notes"][0]["worked_level2"]
    assert note["entry_11"] == [-1.0, 0.0]
    assert note["tuple_admissible"] is False


def test_check_psi_invariant_fails_block_passes_entries(tmp_path, capsys):
    spec = write_spec(tmp_path, "psi.json", {"kind": "psi"})
    code, out = run(capsys, "check", spec, "--invariant")
    assert code == 1
    report = json.loads(out)
    assert report["verdicts"]["invariant"] == "fail"
    assert report["checks"]["invariant"]["entries"] == [[True, True], [True, True]]


def test_check_negated_trace_positivity_serializes_counterexample(tmp_path, capsys):
    phi = trace_example(2)
    from icpmaps.multimap import MultilinearMap

    neg = MultilinearMap(phi.algebra, 3, 2, -phi.coeffs)
    spec = write_spec(tmp_path, "neg.json", serialize.map_to_json(neg))
    code, out = run(capsys, "check", spec, "--positivity", "--trials", "60")
    assert code == 1
    report = json.loads(out)
    assert report["verdicts"]["positivity"] == "fail"
    ce = report["checks"]["positivity"]["counterexample"]
    assert ce["min_eigenvalue"] < 0
    assert len(ce["tuple"]) == 3


def test_check_positivity_inconclusive_on_trace(tmp_path, capsys):
    spec = write_spec(tmp_path, "trace.json", {"kind": "trace", "n": 2})
    code, out = run(capsys, "check", spec, "--positivity", "--trials", "40")
    assert code == 0
    assert json.loads(out)["verdicts"]["positivity"] == "inconclusive"


def test_check_reports_are_byte_identical(tmp_path, capsys):
    spec = write_spec(tmp_path, "trace.json", {"kind": "trace", "n": 2})
    args = ("check", spec, "--invariant", "--positivity", "--seed", "7", "--trials", "30")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_check_all_runs_falsifier_once(tmp_path, capsys, monkeypatch, non_invariant_psd_map):
    # no valid certificate: the positivity section and the cp section's obstruction branch share one run
    spec = write_spec(tmp_path, "non_invariant.json", serialize.map_to_json(non_invariant_psd_map))
    common = ("--seed", "3", "--trials", "30")
    _, pos_only = run(capsys, "check", spec, "--positivity", *common)
    _, cp_only = run(capsys, "check", spec, "--cp", *common)
    calls = []
    falsify = cli.positivity_falsify

    def counting(*args, **kwargs):
        calls.append(args)
        return falsify(*args, **kwargs)

    monkeypatch.setattr(cli, "positivity_falsify", counting)
    code, out = run(capsys, "check", spec, *common)
    assert code == 1  # the map is not invariant
    assert len(calls) == 1
    report = json.loads(out)
    assert report["verdicts"]["positivity"] == report["verdicts"]["cp"] == "inconclusive"
    assert report["checks"]["positivity"] == json.loads(pos_only)["checks"]["positivity"]
    assert report["checks"]["positivity"]["source"] == "falsifier"
    assert report["checks"]["cp"] == json.loads(cp_only)["checks"]["cp"]


def _certified_spec(tmp_path, kind):
    if kind == "trace":
        return write_spec(tmp_path, "trace.json", {"kind": "trace", "n": 2})
    spec = str(tmp_path / "dilation.json")
    assert main(["gen", "dilation", "--algebra", "2", "--k", "3", "--n", "2", "--h", "2", "--out", spec]) == 0
    return spec


@pytest.mark.parametrize("kind", ["trace", "dilation"])
def test_check_takes_positivity_from_a_valid_certificate(tmp_path, capsys, monkeypatch, kind):
    # CP is positivity at every level: on a certified map default `check` samples no tuple and forms no Gram
    spec = _certified_spec(tmp_path, kind)

    def forbidden(*args, **kwargs):
        raise AssertionError("called on a certified map")

    monkeypatch.setattr(gram, "build_gram", forbidden)
    monkeypatch.setattr(cli, "positivity_falsify", forbidden)
    code, out = run(capsys, "check", spec)
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["positivity"] == report["verdicts"]["cp"] == "pass"
    positivity = report["checks"]["positivity"]
    assert positivity["source"] == "certificate"
    margin = positivity["margin"]
    assert margin["reconstruction"] == report["checks"]["cp"]["certificate"]["residuals"]["reconstruction"]
    assert margin["reconstruction"] <= margin["bound"]


@pytest.mark.parametrize("kind", ["trace", "dilation"])
@pytest.mark.parametrize("argv", [["--positivity"], ["--positivity", "--cp"]], ids=["positivity", "positivity-cp"])
def test_check_positivity_flag_still_samples_a_certified_map(tmp_path, capsys, monkeypatch, kind, argv):
    spec = _certified_spec(tmp_path, kind)
    calls = []
    falsify = cli.positivity_falsify

    def counting(*args, **kwargs):
        calls.append(args)
        return falsify(*args, **kwargs)

    monkeypatch.setattr(cli, "positivity_falsify", counting)
    code, out = run(capsys, "check", spec, *argv, "--trials", "20")
    assert code == 0
    report = json.loads(out)
    assert len(calls) == 1
    assert report["verdicts"]["positivity"] == "inconclusive"
    assert report["checks"]["positivity"] == {
        "source": "falsifier",
        "counterexample": None,
        "levels": [1, 2],
        "trials": 20,
    }
    assert report["verdicts"].get("cp") == ("pass" if "--cp" in argv else None)


@pytest.mark.parametrize(
    "spec, min_eigenvalue",
    [
        ({"kind": "psi"}, -0.8793485685923398),
        ({"kind": "schur", "lam": [[[1.0, 0.0], [2.0, 0.0]], [[2.0, 0.0], [1.0, 0.0]]]}, -0.35934203231489054),
    ],
    ids=["psi", "schur"],
)
def test_check_falsifier_still_fires_without_a_certificate(tmp_path, capsys, spec, min_eigenvalue):
    # neither map has a certificate, so default `check` finds the falsifier's hit where
    # `check --positivity` finds it: the same level-1 trial as before the certificate could decide
    path = write_spec(tmp_path, "map.json", spec)
    code, out = run(capsys, "check", path)
    assert code == 1
    report = json.loads(out)
    assert report["verdicts"]["cp"] == report["verdicts"]["positivity"] == "fail"
    positivity = report["checks"]["positivity"]
    assert positivity["source"] == "falsifier"
    assert positivity["counterexample"]["level"] == 1
    # the trial's eigenvalue, to a tolerance that allows another BLAS its last bits
    assert positivity["counterexample"]["min_eigenvalue"] == pytest.approx(min_eigenvalue, rel=1e-9)
    _, explicit = run(capsys, "check", path, "--positivity")
    assert json.loads(explicit)["checks"]["positivity"] == positivity


def test_check_reduces_each_entry_scale_once(tmp_path, capsys, monkeypatch):
    # the invariance tolerance, the symmetry tolerance and the CP certificate
    # all read the coefficient scale: one reduction per entry serves them
    spec = str(tmp_path / "grid.json")
    assert main(["gen", "dilation", "--algebra", "2", "--k", "3", "--n", "2", "--out", spec]) == 0
    reduce = MultilinearMap.__dict__["_coefficient_scale"].func
    reduced = []

    def counting(phi):
        reduced.append(id(phi))
        return reduce(phi)

    scale = functools.cached_property(counting)
    scale.__set_name__(MultilinearMap, "_coefficient_scale")
    monkeypatch.setattr(MultilinearMap, "_coefficient_scale", scale)
    code, out = run(capsys, "check", spec, "--trials", "5")
    assert code == 0
    assert set(json.loads(out)["verdicts"]) == {"invariant", "symmetric", "positivity", "cp"}
    assert len(reduced) == len(set(reduced)) == 4


def test_equiv_fails_when_triples_do_not_dilate_the_map(tmp_path, capsys):
    own = str(tmp_path / "own.json")
    other = str(tmp_path / "other.json")
    t1 = str(tmp_path / "t1.json")
    t2 = str(tmp_path / "t2.json")
    assert main(["gen", "dilation", "--seed", "0", "--out", own]) == 0
    assert main(["gen", "dilation", "--seed", "5", "--out", other]) == 0
    assert main(["dilate", own, "--minimal", "--out", t1]) == 0
    assert main(["dilate", own, "--minimal", "--out", t2]) == 0
    code, out = run(capsys, "equiv", t1, t2, other)
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert report["equivalence"]["isometry"] <= 1e-9
    assert report["triple1_residuals"]["reconstruction"] > 1.0
    assert main(["equiv", t1, t2, own]) == 0


def test_dilate_and_equiv_flow(tmp_path, capsys):
    spec = write_spec(tmp_path, "trace.json", {"kind": "trace", "n": 2})
    t1 = str(tmp_path / "t1.json")
    t2 = str(tmp_path / "t2.json")
    assert main(["dilate", spec, "--minimal", "--out", t1]) == 0
    assert main(["dilate", spec, "--out", t2]) == 0
    capsys.readouterr()
    code, out = run(capsys, "equiv", t1, t2, spec)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["equivalence"]["isometry"] <= 1e-9
    assert report["triple1_residuals"]["reconstruction"] <= 1e-8


def test_dilate_reports_residuals(tmp_path, capsys):
    spec = write_spec(tmp_path, "eval.json", {"kind": "eval", "dim": 2})
    code, out = run(capsys, "dilate", spec)
    assert code == 0
    report = json.loads(out)
    assert report["kappa"] == 1
    assert report["residuals"]["reconstruction"] <= 1e-12
    # a standard-form triple is written as its layout (mu over the block tuples) and V
    assert report["layout"] == [1, 0, 0, 0] and "reps" not in report


def test_dilate_non_psd_is_obstruction(tmp_path, capsys):
    lam = [[[1.0, 0.0], [2.0, 0.0]], [[2.0, 0.0], [1.0, 0.0]]]
    spec = write_spec(tmp_path, "schur.json", {"kind": "schur", "lam": lam})
    assert main(["dilate", spec]) == 3


@pytest.mark.parametrize("minimal", [False, True], ids=["raw", "minimal"])
@pytest.mark.parametrize(
    "spec, diagnosis",
    [
        ({"kind": "psi"}, "Gram matrix is non-Hermitian"),
        ({"kind": "schur", "lam": [[[1.0, 0.0], [2.0, 0.0]], [[2.0, 0.0], [1.0, 0.0]]]}, "Gram kernel is not positive"),
    ],
    ids=["psi", "schur"],
)
def test_dilate_diagnoses_a_map_its_anchors_do_not_certify(tmp_path, capsys, spec, diagnosis, minimal):
    # the anchors' triple fails the certificate; the Gram, built only then, says why
    path = write_spec(tmp_path, "spec.json", spec)
    capsys.readouterr()
    assert main(["dilate", path] + (["--minimal"] if minimal else [])) == 3
    assert capsys.readouterr().err.startswith(f"construction obstruction: {diagnosis}")


def test_lapack_failure_is_internal_error(tmp_path, capsys, monkeypatch):
    # LinAlgError subclasses ValueError, and was reported as an input error;
    # dilate's certificate decomposes the reconstruction differences, which are
    # round-off on a generated map (on the trace map they are exactly zero)
    spec = write_spec(tmp_path, "gen.json", {"kind": "dilation", "algebra": {"blocks": [2]}, "k": 3, "n": 1, "h": 1, "seed": 0})
    out = tmp_path / "triple.json"

    def failing_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    assert main(["dilate", spec, "--out", str(out)]) == cli.EXIT_INTERNAL == 4
    assert capsys.readouterr().err == "internal error: SVD did not converge\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "spec",
    [{"kind": "dilation", "algebra": {"blocks": [2]}, "k": 40}, {"kind": "eval", "dim": 100000}],
    ids=["dilation-k40", "eval-dim-1e5"],
)
def test_refused_allocation_is_internal_error(tmp_path, spec):
    # numpy refuses these PiB-sized arrays at once; the MemoryError escaped as a
    # traceback with exit 1, the code of a failed assertion
    proc = _run_cli("validate", write_spec(tmp_path, "spec.json", spec))
    assert proc.returncode == cli.EXIT_INTERNAL == 4
    assert proc.stderr.startswith("internal error: Unable to allocate ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "eval", "dim": 10**30},
        {"kind": "dilation", "algebra": {"blocks": [2]}, "k": 10**30},
        {"kind": "dilation", "algebra": {"blocks": [2]}, "k": 3, "n": 10**30},
    ],
    ids=["eval-dim-1e30", "dilation-k-1e30", "dilation-n-1e30"],
)
def test_unbounded_generator_field_is_input_error(tmp_path, spec):
    # the first overflowed an intp with a traceback (exit 1), the other two hung
    proc = _run_cli("validate", write_spec(tmp_path, "spec.json", spec))
    assert proc.returncode == cli.EXIT_INPUT == 2
    assert proc.stderr.startswith("input error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def _layout_triple_with_arity(blocks, k, n, h, arity) -> dict:
    """The standard-form triple of a `gen dilation` map, as its file holds it,
    with its 'k' replaced by ``arity``."""
    spec = {"kind": "dilation", "algebra": {"blocks": blocks}, "k": k, "n": n, "h": h, "seed": 0}
    triple = json.loads(serialize.dumps(serialize.triple_to_json(dilate(serialize.load_map_spec(spec)))))
    assert "layout" in triple
    return {**triple, "k": arity}


@pytest.mark.parametrize(
    "command,doc",
    [
        ("validate", {"algebra": {"blocks": [1]}, "k": 10**30, "h": 1, "coeffs": [[0.5, 0.0]]}),
        ("equiv", _layout_triple_with_arity([3], 4, 1, 2, 10**30)),
        ("equiv", _layout_triple_with_arity([2, 2], 3, 2, 2, 10**9)),
    ],
    ids=["map-k-1e30", "triple-m3-k-1e30", "triple-m2-m2-k-1e9"],
)
def test_unbounded_arity_in_a_map_or_triple_file_is_input_error(tmp_path, command, doc):
    # the first two overflowed an intp with a traceback (exit 1); the third took
    # n_blocks**m for seconds and then failed to print that number
    path = write_spec(tmp_path, "doc.json", doc)
    spec = write_spec(tmp_path, "spec.json", {"kind": "trace", "n": 2})
    proc = _run_cli(command, *((path,) if command == "validate" else (path, path, spec)))
    assert proc.returncode == cli.EXIT_INPUT == 2
    assert proc.stderr.startswith("input error: ") and proc.stderr.count("\n") == 1
    assert f"'k' must be in [1, 63), got {doc['k']}" in proc.stderr


def test_validate_on_a_large_single_block_algebra_forms_no_quartic_temporary(tmp_path):
    # the associativity check einsummed the dense structure table with itself:
    # at M_10 (d = 100) that took 9 s and peaked at 1.7 GB
    coeffs = [[[[0.5, 0.0]]]] * 100
    path = write_spec(tmp_path, "m10.json", {"algebra": {"blocks": [10]}, "k": 1, "h": 1, "coeffs": coeffs})
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-m", "icpmaps.cli", "validate", path], env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert usage.ru_maxrss / 1024 < 150


def _c2_map_spec(value) -> dict:
    """A C^2, k = 2, h = 1 map spec with ``value`` as its first coefficient."""
    coeffs = [[[[[value, 0.0]]], [[[0.0, 0.0]]]], [[[[0.0, 0.0]]], [[[1.0, 0.0]]]]]
    return {"algebra": {"blocks": [1, 1]}, "k": 2, "h": 1, "coeffs": coeffs}


@pytest.mark.parametrize(
    "spec,field",
    [(_c2_map_spec(x), "'coeffs'") for x in (float("nan"), float("inf"), float("-inf"))]
    + [({"n": 1, "entries": [_c2_map_spec(float("nan"))]}, "'coeffs'")]
    + [({"kind": "schur", "lam": [[[1.0, 0.0], [float("inf"), 0.0]], [[0.5, 0.0], [1.0, 0.0]]]}, "'lam'")],
    ids=["coeffs-nan", "coeffs-inf", "coeffs-minus-inf", "block-entry-nan", "schur-lam-inf"],
)
def test_non_finite_coefficient_is_input_error(tmp_path, spec, field):
    # NaN ended in "internal error: SVD did not converge" (exit 4), and +inf in a
    # reconstruction residual of nan (exit 3) or invariant and symmetric fails (exit 1)
    proc = _run_cli("check", write_spec(tmp_path, "spec.json", spec))
    assert proc.returncode == cli.EXIT_INPUT == 2
    assert proc.stderr.startswith("input error: ") and field in proc.stderr and "non-finite" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_check_cp_refutes_non_psd(tmp_path, capsys):
    lam = [[[1.0, 0.0], [2.0, 0.0]], [[2.0, 0.0], [1.0, 0.0]]]
    spec = write_spec(tmp_path, "schur.json", {"kind": "schur", "lam": lam})
    code, out = run(capsys, "check", spec, "--cp")
    assert code == 1
    report = json.loads(out)
    assert report["verdicts"]["cp"] == "fail"
    assert report["checks"]["cp"]["refutation"]["min_eigenvalue"] < -0.5


def test_check_cp_flags_asymmetric_source(tmp_path, capsys):
    spec = write_spec(tmp_path, "psi.json", {"kind": "psi"})
    code, out = run(capsys, "check", spec, "--cp")
    assert code == 1
    report = json.loads(out)
    assert report["verdicts"]["cp"] == "fail"
    assert report["checks"]["cp"]["gram_hermitian"] is False


@pytest.mark.parametrize(
    "gamma", [[[1, -3e-9], [0.5, 1]], [[1, -1e-8], [0.5, 1]], [[1, 1.5e-8j], [0.5, 1]]], ids=["3e-9", "1e-8", "1.5e-8j"]
)
def test_check_cp_refutes_maps_within_the_certificate_tolerance(tmp_path, capsys, gamma):
    # the anchors' triple reconstructs these maps within the certificate's tolerance, but an
    # anchor block, a class of the Gram, fails the Gram's PSD or Hermitian test: the refuter decides
    spec = write_spec(tmp_path, "comm.json", serialize.map_to_json(commutative_invariant_family(gamma)))
    code, out = run(capsys, "check", spec, "--cp")
    assert code == 1
    report = json.loads(out)
    assert report["verdicts"]["cp"] == "fail"
    cp = report["checks"]["cp"]
    if gamma[0][1].real:
        assert cp["gram_psd"] is False and cp["refutation"]["min_eigenvalue"] == pytest.approx(gamma[0][1])
    else:
        assert cp["gram_hermitian"] is False and cp["hermiticity_residual"] == pytest.approx(1.5e-8)


def test_check_cp_certificate_includes_falsifier_silence(tmp_path, capsys, monkeypatch):
    # a certified dilation proves CP: the certificate is the whole cp section, and
    # neither the Gram nor the falsifier runs, so no trial is spent on a certified map
    spec = write_spec(tmp_path, "trace.json", {"kind": "trace", "n": 2})

    def forbidden(*args, **kwargs):
        raise AssertionError("called on a certified map")

    monkeypatch.setattr(gram, "build_gram", forbidden)
    monkeypatch.setattr(cli, "positivity_falsify", forbidden)
    code, out = run(capsys, "check", spec, "--cp", "--trials", "40")
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["cp"] == "pass"
    assert set(report["checks"]["cp"]) == {"certificate"}
    assert report["checks"]["cp"]["certificate"]["valid"] is True


@pytest.mark.parametrize("argv", [["--cp"], []], ids=["cp", "default"])
def test_check_cp_is_inconclusive_on_a_psd_map_its_anchors_do_not_certify(
    tmp_path, capsys, non_invariant_psd_map, argv
):
    # a Hermitian PSD Gram refutes nothing and the falsifier finds nothing, so the failed
    # certificate is reported with its residuals (this exited 3 with no report)
    spec = write_spec(tmp_path, "non_invariant.json", serialize.map_to_json(non_invariant_psd_map))
    code, out = run(capsys, "check", spec, *argv, "--trials", "50")
    report = json.loads(out)
    # by default the map also fails the invariance check, the theorems' hypothesis
    assert report["verdicts"].get("invariant") == (None if argv else "fail")
    assert code == (0 if argv else 1)
    assert report["verdicts"]["cp"] == "inconclusive"
    cp = report["checks"]["cp"]
    assert cp["falsifier"] is None
    assert cp["certificate"]["valid"] is False and cp["certificate"]["kappa"] == 4
    assert cp["certificate"]["residuals"]["reconstruction"] == pytest.approx(3.8746, abs=1e-4)
    assert cp["certificate"]["residuals"]["commutation"] == 0.0


def test_check_cp_falsifier_hit_fails_a_map_its_anchors_do_not_certify(tmp_path, capsys, monkeypatch, non_invariant_psd_map):
    spec = write_spec(tmp_path, "non_invariant.json", serialize.map_to_json(non_invariant_psd_map))
    hit = Counterexample(mats=[], level=1, min_eigenvalue=-1.0, value_norm=1.0)
    monkeypatch.setattr(cli, "positivity_falsify", lambda *args, **kwargs: hit)
    code, out = run(capsys, "check", spec, "--cp")
    assert code == 1
    report = json.loads(out)
    assert report["verdicts"]["cp"] == "fail"
    assert report["checks"]["cp"]["falsifier"] == hit.to_dict()
    assert report["checks"]["cp"]["certificate"]["valid"] is False


def test_russo_dye_command(tmp_path, capsys):
    spec = write_spec(tmp_path, "trace.json", {"kind": "trace", "n": 2})
    code, out = run(capsys, "russo-dye", spec, "--restarts", "6", "--iters", "15")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["passed"] is True
    assert report["result"]["margin"] >= -1e-6


def test_russo_dye_cb_command(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        "dil.json",
        {"kind": "dilation", "algebra": {"blocks": [1, 1]}, "k": 2, "n": 2, "h": 1, "seed": 1},
    )
    code, out = run(capsys, "russo-dye", spec, "--cb", "--tmax", "2", "--restarts", "2", "--iters", "6")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["passed"] is True
    assert report["result"]["v_bound_consistent"] is True


def test_russo_dye_block_requires_cb(tmp_path, capsys):
    spec = write_spec(tmp_path, "psi.json", {"kind": "psi"})
    assert main(["russo-dye", spec]) == 2


def test_gen_emits_buildable_specs(tmp_path, capsys):
    for argv in (
        ["gen", "trace", "--n", "3"],
        ["gen", "eval", "--dim", "3", "--point", "1"],
        ["gen", "psi"],
        ["gen", "schur"],
        ["gen", "dilation", "--algebra", "2", "--k", "2", "--n", "1", "--h", "2"],
    ):
        code, out = run(capsys, *argv)
        assert code == 0
        serialize.load_map_spec(json.loads(out))


def assert_input_error(capsys, *argv):
    assert main(list(argv)) == 2
    assert capsys.readouterr().err.startswith("input error: ")


def test_gen_dilation_zero_arity_is_input_error(capsys):
    assert_input_error(capsys, "gen", "dilation", "--k", "0")


def test_gen_dilation_zero_grid_size_is_input_error(capsys):
    assert_input_error(capsys, "gen", "dilation", "--n", "0")


def test_gen_eval_point_outside_the_space_is_input_error(capsys):
    assert_input_error(capsys, "gen", "eval", "--point", "5")


def test_check_eval_spec_point_outside_the_space_is_input_error(tmp_path, capsys):
    spec = write_spec(tmp_path, "eval.json", {"kind": "eval", "dim": 2, "point": 5})
    assert_input_error(capsys, "check", spec)


def test_check_invariant_verdict_is_the_theorem_hypothesis(tmp_path, capsys):
    # invariant entries and a symmetric grid pass; block invariance over
    # M_2(A) fails for every nonzero n = 2, k = 4 grid and is only reported
    spec = str(tmp_path / "grid.json")
    assert main(["gen", "dilation", "--algebra", "2", "--k", "4", "--n", "2", "--h", "2", "--out", spec]) == 0
    code, out = run(capsys, "check", spec, "--invariant")
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["invariant"] == "pass"
    invariant = report["checks"]["invariant"]
    assert invariant["entries"] == [[True, True], [True, True]]
    assert invariant["grid_symmetric"] is True
    assert invariant["block"]["exhaustive"] and not invariant["block"]["invariant"]


def test_each_command_diagonalizes_its_gram_once(tmp_path, capsys, monkeypatch):
    # M_2, k = 3, n = 2, h = 1: a certified `check --cp` or `dilate` forms no Gram; the non-CP
    # Schur map's Gram (size 2) is not split.  Every eigensolve outside the falsifier is
    # a Gram class: together they must cover the Gram's indices exactly once
    spec = str(tmp_path / "map.json")
    assert main(["gen", "dilation", "--algebra", "2", "--k", "3", "--out", spec]) == 0
    lam = [[[1.0, 0.0], [2.0, 0.0]], [[2.0, 0.0], [1.0, 0.0]]]
    non_cp = write_spec(tmp_path, "schur.json", {"kind": "schur", "lam": lam})
    solved = []

    def counting(original):
        def wrapper(a, *args, **kwargs):
            if sys._getframe(1).f_code.co_name != "positivity_falsify":
                solved.append(np.shape(a))
            return original(a, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh))
    for argv, code, gram_size, shapes in [
        (["check", spec, "--cp", "--trials", "20"], 0, 0, []),
        (["dilate", spec], 0, 0, []),
        (["check", non_cp, "--cp"], 1, 2, [(1, 2, 2)]),  # the refuter inside `dilate`
    ]:
        solved.clear()
        assert main(argv) == code, argv
        capsys.readouterr()
        assert sum(int(np.prod(shape[:-1])) for shape in solved) == gram_size, (argv, solved)
        assert solved == shapes, argv


def _minimal_triple(tmp_path, general=True):
    """A map spec and its minimal triple file; with ``general`` the triple is
    rewritten in the general form, its images under every basis element."""
    spec = str(tmp_path / "map.json")
    assert main(["gen", "dilation", "--algebra", "2", "--k", "3", "--out", spec]) == 0
    triple = str(tmp_path / "triple.json")
    assert main(["dilate", spec, "--minimal", "--out", triple]) == 0
    if general:
        read = serialize.triple_from_json(json.loads(open(triple).read()))
        write_spec(tmp_path, "triple.json", serialize.triple_to_json(dataclasses.replace(read, layout=None)))
    return spec, triple


@pytest.mark.parametrize(
    "defect",
    [
        lambda t: t.update(reps=t["reps"][:1]),
        lambda t: t.update(reps=[]),
        lambda t: t.update(V=[]),
        lambda t: t.update(k=0),
        lambda t: t.update(kappa=-1),
        lambda t: t["reps"][0].pop("e0"),
        lambda t: t["reps"][0]["e1"][-1].pop(),
        lambda t: t["reps"][-1]["e0"][0][0].append(0.0),
        lambda t: t["V"][0][0].__setitem__(0, ["one", 0.0]),
        lambda t: t["reps"][0]["e2"][0][-1].__setitem__(1, None),
        lambda t: t["reps"][0].update(e3=[row[:-1] for row in t["reps"][0]["e3"][:-1]]),
    ],
    ids=[
        "one-of-two-reps",
        "no-reps",
        "empty-V",
        "zero-arity",
        "negative-kappa",
        "rep-without-e0",
        "ragged-row",
        "three-element-pair",
        "non-numeric-string",
        "null-entry",
        "wrong-kappa-matrix",
    ],
)
def test_equiv_malformed_triple_is_input_error(tmp_path, capsys, defect):
    spec, triple = _minimal_triple(tmp_path)
    data = json.loads(open(triple).read())
    defect(data)
    broken = write_spec(tmp_path, "broken.json", data)
    capsys.readouterr()
    assert main(["equiv", broken, triple, spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "dilation triple" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "defect",
    [
        lambda t: t.update(layout=t["layout"][:-1]),
        lambda t: t.update(layout=5),
        lambda t: t["layout"].__setitem__(0, -1),
        lambda t: t["layout"].__setitem__(0, True),
        lambda t: t["layout"].__setitem__(0, 1.0),
        lambda t: t.update(kappa=t["kappa"] + 1),
        lambda t: t["V"][0].pop(),
        lambda t: t.update(V=t["V"] + t["V"]),
    ],
    ids=["short-layout", "layout-not-a-list", "negative-multiplicity", "boolean-multiplicity",
         "float-multiplicity", "kappa-not-the-layouts", "short-V", "two-V-for-n-1"],
)
def test_equiv_malformed_layout_triple_is_input_error(tmp_path, capsys, defect):
    spec, triple = _minimal_triple(tmp_path, general=False)
    data = json.loads(open(triple).read())
    assert "layout" in data and "reps" not in data
    defect(data)
    broken = write_spec(tmp_path, "broken.json", data)
    capsys.readouterr()
    assert main(["equiv", broken, triple, spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "dilation triple" in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize("minimal", [False, True], ids=["raw", "minimal"])
def test_dilate_that_does_not_dilate_the_map_is_obstruction(tmp_path, capsys, minimal):
    # a cut of 0.5 drops part of the map: the triple (kappa 16, reconstruction
    # residual 2.97) was written with exit 0, and `equiv` of it with itself exited 1
    spec = str(tmp_path / "plain.json")
    assert main(["gen", "dilation", "--algebra", "2", "--k", "5", "--n", "1", "--h", "2", "--seed", "0", "--out", spec]) == 0
    out = tmp_path / "triple.json"
    capsys.readouterr()
    argv = ["dilate", spec, "--rank-tol", "0.5", "--out", str(out)] + (["--minimal"] if minimal else [])
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("construction obstruction: ") and "reconstruction residual" in err, err
    assert not out.exists()


def test_dilate_minimal_is_stable_under_round_off(tmp_path, capsys):
    # eigh picks any basis inside a degenerate Gram eigenspace, so the minimal
    # triple moved by O(1) when the generator's V moved by 1e-15
    algebra = Algebra([2])
    block, source = random_icp(algebra, 3, 2, 2, seed=0)
    rng = np.random.default_rng(1)
    nudged = [v + 1e-15 * (rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)) for v in source.V]
    triples, specs, paths = [], [], []
    for i, grid in enumerate([block, from_dilation_data(algebra, source.reps, nudged, 3)]):
        specs.append(write_spec(tmp_path, f"grid{i}.json", serialize.block_to_json(grid)))
        paths.append(str(tmp_path / f"triple{i}.json"))
        assert main(["dilate", specs[-1], "--minimal", "--out", paths[-1]]) == 0
        report = json.loads(open(paths[-1]).read())
        walk = report["minimality"]
        assert walk["is_minimal"] and walk["spanning_rank"] == report["kappa"] == source.kappa
        assert walk["smallest_kept"] > 1e-3 and walk["largest_rejected"] < 1e-12
        triples.append(serialize.triple_from_json(report))
    first, second = triples
    assert max(np.abs(x - y).max() for x, y in zip(first.reps + first.V, second.reps + second.V)) <= 1e-12

    # equiv of the triple file and a seeded Haar conjugate of it passes and recovers U
    z = np.random.default_rng(2).standard_normal((2, first.kappa, first.kappa))
    q, r = np.linalg.qr(z[0] + 1j * z[1])
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    conj = serialize.triple_to_json(dataclasses.replace(
        first, reps=tuple(u @ rp @ u.conj().T for rp in first.reps), V=tuple(u @ vj for vj in first.V)
    ))
    conj_path = write_spec(tmp_path, "conjugate.json", conj)
    code, out = run(capsys, "equiv", paths[0], conj_path, specs[0])
    assert code == 0 and json.loads(out)["passed"] is True
    eq = unitary_equivalence(first, serialize.triple_from_json(json.loads(open(conj_path).read())))
    assert np.abs(eq.U - u).max() <= 1e-10


def test_dilate_output_is_deterministic(tmp_path, capsys):
    spec = write_spec(tmp_path, "eval.json", {"kind": "eval", "dim": 2})
    _, first = run(capsys, "dilate", spec, "--minimal")
    _, second = run(capsys, "dilate", spec, "--minimal")
    assert first == second


def test_missing_file_is_input_error():
    assert main(["check", "/nonexistent/spec.json"]) == 2


def test_equiv_echoes_the_tolerances_it_applies(tmp_path, capsys):
    spec = write_spec(tmp_path, "trace.json", {"kind": "trace", "n": 2})
    t1 = str(tmp_path / "t1.json")
    assert main(["dilate", spec, "--minimal", "--out", t1]) == 0
    capsys.readouterr()
    code, out = run(capsys, "equiv", t1, t1, spec)
    assert code == 0
    echoed = json.loads(out)["tolerances"]
    assert echoed == EQUIVALENCE_TOLS == {"isometry": 1e-9, "intertwining": 1e-7, "v_match": 1e-7}
    for name, tol in EQUIVALENCE_TOLS.items():
        assert EquivalenceReport(U=None, **{name: tol}).within()
        assert not EquivalenceReport(U=None, **{name: 2 * tol}).within()


def _run_cli(*argv):
    """The CLI in a fresh process, on this checkout's sources."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "icpmaps.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )


def test_out_into_a_missing_directory_is_input_error(tmp_path):
    out = tmp_path / "nodir" / "x.json"
    proc = _run_cli("gen", "dilation", "--k", "3", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error: cannot write report to ")
    assert str(out) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "{spec}", "--levels", "0"),
        ("check", "{spec}", "--positivity", "--levels", "1,-1"),
        ("check", "{spec}", "--invariant", "--levels", "0"),
        ("russo-dye", "{spec}", "--cb", "--tmax", "0"),
    ],
    ids=["check-levels-0", "check-levels-negative", "check-invariant-levels-0", "russo-dye-tmax-0"],
)
def test_level_below_one_is_input_error(tmp_path, argv):
    spec = write_spec(tmp_path, "trace.json", {"kind": "trace", "n": 2})
    out = tmp_path / "report.json"
    proc = _run_cli(*(a.format(spec=spec) for a in argv), "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error: ")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "{spec}", "--invariant", "--trials", "-4"),
        ("check", "{spec}", "--trials", "0"),
        ("russo-dye", "{spec}", "--trials", "0"),
    ],
    ids=["check-invariant-trials-negative", "check-trials-0", "russo-dye-trials-0"],
)
def test_trials_below_one_is_input_error(tmp_path, argv):
    # a sampled check with no trials reads nothing, yet reported a pass
    spec = write_spec(tmp_path, "k5.json", {"kind": "dilation", "algebra": {"blocks": [3]}, "k": 5, "n": 2, "h": 1, "seed": 0})
    out = tmp_path / "report.json"
    proc = _run_cli(*(a.format(spec=spec) for a in argv), "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error: --trials must be >= 1")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("rank_tol", ["-1", "nan", "inf"])
def test_bad_rank_tol_is_input_error(tmp_path, rank_tol):
    # a negative cutoff kept negative Gram eigenvalues, took their square
    # roots (NaN) and ended in a LAPACK failure reported as an input error
    spec = write_spec(tmp_path, "trace.json", {"kind": "trace", "n": 2})
    out = tmp_path / "triple.json"
    proc = _run_cli("dilate", spec, "--minimal", "--rank-tol", rank_tol, "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr == f"input error: rank_tol must be a finite number >= 0, got {float(rank_tol)}\n"
    assert not out.exists()


@pytest.mark.parametrize("rank_tol", ["0", "1e-300"])
@pytest.mark.parametrize("blocks,k", [([2], 5), ([3], 4)], ids=["plain", "wide"])
def test_rank_tol_that_keeps_round_off_columns_is_input_error(tmp_path, blocks, k, rank_tol):
    # a cut at 0 kept spanning columns of round-off, whose final QR diagonal is
    # exactly 0: the canonical basis divided by it and LAPACK failed on the NaN
    spec = write_spec(tmp_path, "gen.json", {"kind": "dilation", "algebra": {"blocks": blocks}, "k": k, "n": 1, "h": 2, "seed": 0})
    out = tmp_path / "triple.json"
    proc = _run_cli("dilate", spec, "--minimal", "--rank-tol", rank_tol, "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"input error: rank_tol {float(rank_tol):g} keeps a spanning column")
    assert proc.stderr.count("\n") == 1 and "Warning" not in proc.stderr
    assert not out.exists()


def test_negative_iters_is_input_error(tmp_path):
    spec = write_spec(tmp_path, "trace.json", {"kind": "trace", "n": 2})
    out = tmp_path / "report.json"
    proc = _run_cli("russo-dye", spec, "--cb", "--iters", "-1", "--out", str(out))
    assert (proc.returncode, proc.stderr) == (2, "input error: iters must be >= 0, got -1\n")
    assert not out.exists()
    proc = _run_cli("russo-dye", spec, "--cb", "--iters", "0", "--tmax", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["result"]["estimates"][0]["iters"] == 0
