"""Command-line front end: load specs, run analyses, emit deterministic JSON.

Subcommands: validate | check | dilate | equiv | russo-dye | gen.
All randomness sits behind --seed, every report echoes the seeds it used,
and every threshold a verdict rests on is fixed in ``tolerances``, so
identical inputs produce byte-identical reports.

Exit codes: 0 pass, 1 assertion failure (with witness), 2 input error,
3 construction obstruction (only from dilate and russo-dye --cb: a
non-Hermitian or non-PSD Gram, or a triple that does not dilate the map;
check reports these as its cp section), 4 internal error (a LAPACK routine
failed, or numpy could not allocate an array the input asks for).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import factory, norms, serialize
from .blockmap import as_block_map
from .errors import (
    DilationObstructionError,
    NonHermitianGramError,
    NotCompletelyPositiveError,
    SpecFormatError,
)
from .gram import admissibility_report, positivity_falsify
from .multimap import MultilinearMap, amplified_evaluate
from .stinespring import dilate, minimal_compress, unitary_equivalence, verify_dilation
from .tolerances import EQUIVALENCE_TOLS, RANK_TOL, certifies, reconstruction_bound

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_OBSTRUCTION = 3
EXIT_INTERNAL = 4


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecFormatError(f"cannot read spec {path!r}: {exc}") from exc


def _emit(report: dict, out: str | None) -> None:
    text = serialize.dumps(report)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SpecFormatError(f"cannot write report to {out!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _require_trials(args) -> None:
    """Refuse ``--trials`` below 1 before any work: a check that samples no
    tuple reads nothing."""
    if args.trials < 1:
        raise SpecFormatError(f"--trials must be >= 1, got {args.trials}")


def _map_summary(obj) -> dict:
    block = as_block_map(obj)
    return {
        "algebra": serialize.algebra_to_json(block.algebra),
        "k": block.k,
        "n": block.n,
        "h": block.h,
    }


# -- subcommands -----------------------------------------------------------


def cmd_validate(args) -> int:
    data = _read_json(args.spec)
    obj = serialize.load_map_spec(data)
    block = as_block_map(obj)
    block.algebra.validate_structure()
    report = {
        "command": "validate",
        "ok": True,
        "map": _map_summary(obj),
        "structure": "associative, unital, involutive",
    }
    _emit(report, args.out)
    return EXIT_PASS


def cmd_check(args) -> int:
    _require_trials(args)
    data = _read_json(args.spec)
    obj = serialize.load_map_spec(data)
    block = as_block_map(obj)
    levels = [int(x) for x in args.levels.split(",")] if args.levels else [1, 2]
    if min(levels) < 1:
        # echoed in every report, so rejected whichever checks run
        raise SpecFormatError(f"--levels must list amplification levels >= 1, got {levels}")
    wanted = {
        name
        for name, on in [
            ("invariant", args.invariant),
            ("symmetric", args.symmetric),
            ("positivity", args.positivity),
            ("cp", args.cp),
        ]
        if on
    } or {"invariant", "symmetric", "positivity", "cp"}
    checks: dict = {}
    verdicts: dict = {}
    notes: list = []

    sym = block.block_is_symmetric() if wanted & {"invariant", "symmetric"} else None
    if "invariant" in wanted:
        # the theorems' hypothesis: invariant entries and a symmetric grid;
        # block invariance over M_n(A) is reported as information only
        block_rep = block.block_invariance_report()
        entries = block.entries_invariant()
        checks["invariant"] = {"block": block_rep, "entries": entries, "grid_symmetric": sym}
        verdicts["invariant"] = "pass" if sym and all(all(row) for row in entries) else "fail"
    if "symmetric" in wanted:
        checks["symmetric"] = {"symmetric": sym}
        verdicts["symmetric"] = "pass" if sym else "fail"
    # the falsifier is seeded: it runs at most once, and both sections read that one result
    falsify = functools.cache(lambda: positivity_falsify(block, levels=levels, trials=args.trials, seed=args.seed))
    certified = None
    if "cp" in wanted:
        # a certified dilation proves CP (claim (e)); `dilate` builds the Gram only for a map it does not clear
        try:
            triple = dilate(block)
        except NonHermitianGramError as exc:
            # non-real quadratic form: some admissible value is non-Hermitian
            checks["cp"] = {"gram_hermitian": False, "hermiticity_residual": exc.residual, "detail": str(exc)}
            verdicts["cp"] = "fail"
        except NotCompletelyPositiveError as exc:
            checks["cp"] = {
                "gram_psd": False,
                "gram_min_eigenvalue": exc.min_eigenvalue,
                "refutation": exc.witness.to_dict(),
            }
            verdicts["cp"] = "fail"
        except DilationObstructionError as exc:
            # a PSD Gram the anchors do not certify: only a sampled tuple can still refute
            falsified = falsify()
            checks["cp"] = {
                "certificate": {"kappa": exc.kappa, "residuals": exc.report.to_dict(), "valid": False},
                "falsifier": None if falsified is None else falsified.to_dict(),
            }
            verdicts["cp"] = "inconclusive" if falsified is None else "fail"
        else:
            certified = verify_dilation(block, triple)  # the report `dilate` certified, kept for the map
            checks["cp"] = {"certificate": {"kappa": triple.kappa, "residuals": certified.to_dict(), "valid": True}}
            verdicts["cp"] = "pass"
    if "positivity" in wanted:
        if certified is not None and not args.positivity:
            # CP is positivity at every level, so the certificate decides and no trial is spent
            checks["positivity"] = {
                "source": "certificate",
                "margin": {
                    "reconstruction": certified.reconstruction,
                    "bound": reconstruction_bound(block.coefficient_scale()),
                },
            }
            verdicts["positivity"] = "pass"
        else:
            falsified = falsify()
            if falsified is None:
                checks["positivity"] = {
                    "source": "falsifier",
                    "counterexample": None,
                    "levels": levels,
                    "trials": args.trials,
                }
                verdicts["positivity"] = "inconclusive"
            else:
                checks["positivity"] = {"source": "falsifier", "counterexample": falsified.to_dict()}
                verdicts["positivity"] = "fail"
    if data.get("kind") == "eval" and int(data.get("dim", 2)) == 2:
        mats = factory.worked_level2_tuple()
        phi = obj if isinstance(obj, MultilinearMap) else block.entries[0][0]
        value = amplified_evaluate(phi, 2, mats)
        adm = admissibility_report(mats)
        notes.append(
            {
                "worked_level2": {
                    "entry_11": serialize.complex_to_pair(value[0, 0]),
                    "tuple_admissible": adm["admissible"],
                    "admissibility": adm,
                    "note": (
                        "the displayed level-2 tuple produces entry -1 but does not "
                        "satisfy the palindromic admissibility condition; the CP verdict "
                        "comes from the certificate/falsifier pipeline"
                    ),
                }
            }
        )
    report = {
        "command": "check",
        "map": _map_summary(obj),
        "seed": args.seed,
        "levels": levels,
        "trials": args.trials,
        "checks": checks,
        "verdicts": verdicts,
        "notes": notes,
    }
    _emit(report, args.out)
    return EXIT_FAIL if "fail" in verdicts.values() else EXIT_PASS


def cmd_dilate(args) -> int:
    data = _read_json(args.spec)
    obj = serialize.load_map_spec(data)
    block = as_block_map(obj)
    triple = dilate(block, rank_tol=args.rank_tol)
    walk = None
    if args.minimal:
        triple, walk = minimal_compress(triple, rank_tol=args.rank_tol)
    residuals = verify_dilation(block, triple)
    if not certifies(residuals, block.coefficient_scale()):
        raise DilationObstructionError(residuals, triple.kappa)
    report = serialize.triple_to_json(triple, residuals.to_dict())
    report["command"] = "dilate"
    report["minimal"] = bool(args.minimal)
    if walk is not None:
        report["minimality"] = walk.to_dict()
    _emit(report, args.out)
    return EXIT_PASS


def cmd_equiv(args) -> int:
    t1 = serialize.triple_from_json(_read_json(args.triple1))
    t2 = serialize.triple_from_json(_read_json(args.triple2))
    obj = serialize.load_map_spec(_read_json(args.spec))
    block = as_block_map(obj)
    res1 = verify_dilation(block, t1)
    res2 = verify_dilation(block, t2)
    try:
        eq = unitary_equivalence(t1, t2)
    except ValueError as exc:
        _emit({"command": "equiv", "error": str(exc)}, args.out)
        return EXIT_FAIL
    # an equivalence between triples that do not dilate the map proves nothing about it
    scale = block.coefficient_scale()
    ok = eq.within() and certifies(res1, scale) and certifies(res2, scale)
    report = {
        "command": "equiv",
        "map": _map_summary(obj),
        "triple1_residuals": res1.to_dict(),
        "triple2_residuals": res2.to_dict(),
        "equivalence": eq.to_dict(),
        "tolerances": dict(EQUIVALENCE_TOLS),
        "passed": ok,
    }
    _emit(report, args.out)
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_russo_dye(args) -> int:
    _require_trials(args)
    data = _read_json(args.spec)
    obj = serialize.load_map_spec(data)
    block = as_block_map(obj)
    if args.cb:
        rep = norms.cb_russo_dye_check(
            block,
            t_max=args.tmax,
            restarts=args.restarts,
            iters=args.iters,
            seed=args.seed,
        )
        report = {
            "command": "russo-dye",
            "cb": True,
            "map": _map_summary(obj),
            "seed": args.seed,
            "result": rep.to_dict(),
        }
        _emit(report, args.out)
        return EXIT_PASS if rep.passed else EXIT_FAIL
    if block.n != 1:
        raise SpecFormatError("plain norm attainment check needs n = 1; use --cb for block maps")
    phi = obj if isinstance(obj, MultilinearMap) else block.entries[0][0]
    rep = norms.russo_dye_check(
        phi, seed=args.seed, restarts=args.restarts, iters=args.iters, trials=args.trials
    )
    report = {
        "command": "russo-dye",
        "cb": False,
        "map": _map_summary(obj),
        "seed": args.seed,
        "result": rep.to_dict(),
    }
    _emit(report, args.out)
    return EXIT_PASS if rep.passed and not rep.hypothesis_failure else EXIT_FAIL


def cmd_gen(args) -> int:
    kind = args.kind
    spec: dict
    if kind == "trace":
        spec = {"kind": "trace", "n": args.n}
    elif kind == "eval":
        spec = {"kind": "eval", "dim": args.dim, "point": args.point}
    elif kind == "schur":
        lam = json.loads(args.lam) if args.lam else [[[1.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [1.0, 0.0]]]
        spec = {"kind": "schur", "lam": lam}
    elif kind == "psi":
        spec = {"kind": "psi"}
    elif kind == "dilation":
        blocks = [int(x) for x in args.algebra.split(",")]
        spec = {
            "kind": "dilation",
            "algebra": {"blocks": blocks},
            "k": args.k,
            "n": args.n,
            "h": args.h,
            "seed": args.seed,
        }
    else:  # unreachable through argparse choices
        raise SpecFormatError(f"unknown fixture kind {kind!r}")
    serialize.load_map_spec(spec)  # sanity: the emitted spec must build
    _emit(spec, args.out)
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icpmaps",
        description=(
            "invariant block multilinear CP maps: validation, positivity checks, "
            "Stinespring-type dilations, and norm attainment reports (JSON in/out)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="schema and algebra-structure validation of a spec")
    p.add_argument("spec", help="path to a map / block / generator spec (or - for stdin)")
    p.add_argument("--out", default=None, help="write the report to this file instead of stdout")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("check", help="invariance / symmetry / positivity / CP checks")
    p.add_argument("spec")
    p.add_argument("--invariant", action="store_true")
    p.add_argument("--symmetric", action="store_true")
    p.add_argument(
        "--positivity",
        action="store_true",
        help="sample admissible tuples for a positivity counterexample, even where a valid CP certificate decides",
    )
    p.add_argument("--cp", action="store_true")
    p.add_argument("--seed", type=int, default=0, help="seed for all randomized probes (default 0)")
    p.add_argument("--levels", default=None, help="comma-separated amplification levels (default 1,2)")
    p.add_argument("--trials", type=int, default=500, help="falsifier trials per level (default 500)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("dilate", help="construct (optionally minimal) dilation triple")
    p.add_argument("spec")
    p.add_argument("--minimal", action="store_true", help="compress to the minimal triple")
    p.add_argument("--rank-tol", type=float, default=RANK_TOL, help=f"relative eigenvalue cutoff (default {RANK_TOL:g})")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_dilate)

    p = sub.add_parser("equiv", help="unitary equivalence of two minimal triples of one map")
    p.add_argument("triple1")
    p.add_argument("triple2")
    p.add_argument("spec")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("russo-dye", help="norm attainment report (--cb for the amplified levels)")
    p.add_argument("spec")
    p.add_argument("--cb", action="store_true", help="check amplified levels against the unit value")
    p.add_argument("--tmax", type=int, default=3, help="highest amplification level for --cb (default 3)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--iters", type=int, default=20)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_russo_dye)

    p = sub.add_parser("gen", help="emit a named fixture spec")
    p.add_argument("kind", choices=["trace", "eval", "schur", "psi", "dilation"])
    p.add_argument("--n", type=int, default=2, help="matrix size (trace) / block size (dilation)")
    p.add_argument("--dim", type=int, default=2, help="space size for eval fixtures")
    p.add_argument("--point", type=int, default=0, help="marked point for eval fixtures")
    p.add_argument("--lam", default=None, help="JSON [re,im] matrix for schur fixtures")
    p.add_argument("--k", type=int, default=3, help="arity for dilation fixtures")
    p.add_argument("--h", type=int, default=1, help="codomain dimension for dilation fixtures")
    p.add_argument("--algebra", default="1,1", help="comma-separated block dims for dilation fixtures")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecFormatError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except NonHermitianGramError as exc:
        sys.stderr.write(f"construction obstruction: {exc}\n")
        return EXIT_OBSTRUCTION
    except (np.linalg.LinAlgError, MemoryError) as exc:
        # LinAlgError is a ValueError subclass, yet a numerical fault rather than bad input
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL
    except ValueError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except (NotCompletelyPositiveError, DilationObstructionError) as exc:
        sys.stderr.write(f"construction obstruction: {exc}\n")
        return EXIT_OBSTRUCTION


if __name__ == "__main__":
    sys.exit(main())
