"""Correctness gate for the reports the benchmark's commands write.

Every workload map comes from `gen dilation`, so it is completely positive,
entrywise invariant and symmetric. A command fails the gate when it raises,
exits with an input or obstruction code, reports a verdict that contradicts
those properties, or reports dilation residuals above the CP certificate's
thresholds. `equiv` does not read its map when it decides `passed`, so the
gate checks both triples' residuals itself.

The block-invariance verdict of `check` is not gated: for a nonzero grid with
n >= 2 and k >= 3 it fails by construction, and `check` then exits 1. The
benchmark records that exit code and verdict instead.
"""

from __future__ import annotations

# The thresholds `icpmaps check` applies to its CP certificate.
RECONSTRUCTION_TOL = 1e-8  # times 1 + the map's coefficient scale
STRUCTURAL_TOL = 1e-6
RESIDUAL_KEYS = ("reconstruction", "multiplicativity", "star", "unitality", "commutation")
EXIT_ERRORS = (2, 3)


def residual_errors(label: str, residuals, scale: float) -> list[str]:
    if not isinstance(residuals, dict) or any(key not in residuals for key in RESIDUAL_KEYS):
        return [f"{label}: residuals missing"]
    errors = []
    if not residuals["reconstruction"] <= RECONSTRUCTION_TOL * (1.0 + scale):
        errors.append(f"{label}: reconstruction residual {residuals['reconstruction']:.3e}")
    for key in RESIDUAL_KEYS[1:]:
        if not residuals[key] <= STRUCTURAL_TOL:
            errors.append(f"{label}: {key} residual {residuals[key]:.3e}")
    return errors


def _check_errors(rc: int, report: dict, scale: float) -> list[str]:
    verdicts = report.get("verdicts", {})
    checks = report.get("checks", {})
    errors = []
    cp = checks.get("cp", {})
    if verdicts.get("cp") != "pass":
        errors.append(f"cp verdict {verdicts.get('cp')!r}")
    if cp.get("falsifier") is not None:
        errors.append("falsifier fired inside the CP check")
    certificate = cp.get("certificate") or {}
    if certificate.get("valid") is not True:
        errors.append("CP certificate not valid")
    errors += residual_errors("certificate", certificate.get("residuals"), scale)
    if "positivity" in verdicts and (
        verdicts["positivity"] == "fail" or checks["positivity"].get("counterexample") is not None
    ):
        errors.append("positivity falsifier fired")
    if "symmetric" in verdicts and verdicts["symmetric"] != "pass":
        errors.append(f"symmetric verdict {verdicts['symmetric']!r}")
    if "invariant" in verdicts:
        entries = checks["invariant"]["entries"]
        if not all(all(row) for row in entries):
            errors.append(f"entrywise invariance {entries}")
    expected_rc = 1 if "fail" in verdicts.values() else 0
    if rc != expected_rc:
        errors.append(f"exit {rc} with verdicts {verdicts}")
    return errors


def _russo_dye_errors(rc: int, report: dict) -> list[str]:
    result = report.get("result", {})
    errors = []
    if result.get("passed") is not True:
        errors.append("russo-dye not passed")
    if report.get("cb"):
        if not result.get("per_level_ok") or not all(result["per_level_ok"]):
            errors.append(f"per-level check {result.get('per_level_ok')}")
        if result.get("v_bound_consistent") is not True:
            errors.append("V bound inconsistent with the unit value")
    elif result.get("hypothesis_failure") is not False:
        errors.append("russo-dye hypothesis failure")
    if rc != 0:
        errors.append(f"exit {rc}")
    return errors


def _dilate_errors(rc: int, report: dict, scale: float) -> list[str]:
    errors = residual_errors("dilation", report.get("residuals"), scale)
    if rc != 0:
        errors.append(f"exit {rc}")
    return errors


def _equiv_errors(rc: int, report: dict, scale: float) -> list[str]:
    errors = []
    if report.get("passed") is not True:
        errors.append(f"equiv not passed: {report.get('error', report.get('equivalence'))}")
    errors += residual_errors("triple1", report.get("triple1_residuals"), scale)
    errors += residual_errors("triple2", report.get("triple2_residuals"), scale)
    if rc != 0:
        errors.append(f"exit {rc}")
    return errors


def command_errors(command: str, rc, report, scale: float) -> list[str]:
    """Reasons the report of one command fails the gate (empty when it passes).

    ``scale`` is the coefficient scale of the map the command ran on.
    """
    if rc is None:
        return ["raised"]
    if rc in EXIT_ERRORS:
        return [f"exit {rc}"]
    if not isinstance(report, dict):
        return ["no report"]
    if command == "check":
        return _check_errors(rc, report, scale)
    if command == "russo-dye":
        return _russo_dye_errors(rc, report)
    if command == "dilate":
        return _dilate_errors(rc, report, scale)
    if command == "equiv":
        return _equiv_errors(rc, report, scale)
    raise ValueError(f"no gate for command {command!r}")


class Digests:
    """sha256 of each command's report, which must repeat within one run."""

    def __init__(self):
        self.first: dict[str, str] = {}

    def errors(self, command: str, digest: str | None) -> list[str]:
        expected = self.first.setdefault(command, digest)
        if digest is None or digest != expected:
            return [f"report digest {digest} differs from {expected}"]
        return []


# Tampered copies of a passing report that the gate must reject: a flipped
# verdict or a residual above its threshold, at paths that exist in the report.
TAMPERING = {
    "check": (
        (("verdicts", "cp"), "fail"),
        (("verdicts", "symmetric"), "fail"),
        (("checks", "cp", "certificate", "valid"), False),
        (("checks", "cp", "certificate", "residuals", "reconstruction"), 1.0),
    ),
    "russo-dye": (
        (("result", "passed"), False),
        (("result", "per_level_ok", 0), False),
        (("result", "v_bound_consistent"), False),
        (("result", "hypothesis_failure"), True),
    ),
    "dilate": (
        (("residuals", "reconstruction"), 1.0),
        (("residuals", "star"), 1.0),
    ),
    "equiv": (
        (("passed",), False),
        (("triple1_residuals", "reconstruction"), 1.0),
        (("triple2_residuals", "commutation"), 1.0),
    ),
}


def _replaced(node, path, value):
    """Copy of ``node`` with the item at ``path`` replaced; only the
    containers along the path are copied. None when the path is absent."""
    key = path[0]
    if (isinstance(node, dict) and key in node) or (
        isinstance(node, list) and isinstance(key, int) and key < len(node)
    ):
        child = value if len(path) == 1 else _replaced(node[key], path[1:], value)
        if child is None:
            return None
        copy = node.copy()
        copy[key] = child
        return copy
    return None


def self_check(passing: dict) -> list[str]:
    """Problems with the gate itself, found by tampering with reports it passed.

    ``passing`` maps command name to (exit code, report, scale) of reports
    that passed.
    """
    problems = []
    for command, (rc, report, scale) in passing.items():
        tampered = 0
        for path, value in TAMPERING[command]:
            bad = _replaced(report, path, value)
            if bad is None:
                continue
            tampered += 1
            if not command_errors(command, rc, bad, scale):
                problems.append(f"gate accepts a {command} report with {'/'.join(map(str, path))} = {value}")
        if not tampered:
            problems.append(f"no tampering applies to the {command} report")
    digests = Digests()
    if digests.errors("check", "a" * 64) or not digests.errors("check", "b" * 64):
        problems.append("gate accepts a changed report digest")
    return problems
