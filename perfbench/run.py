"""Benchmark of the icpmaps command-line tool.

    python3 perfbench/run.py --workload block-n2 --seed 0 --seconds 25 --trace 0

Run it from the root of a source checkout: it imports the package from the
checkout's `src/` and writes only under `.bench_build/perfbench/`. A run
first times the workload's set-up (prepare.py) in a few fresh processes,
then runs the workload's command sequence (workloads.py) through
`icpmaps.cli.main` in this process, one command at a time in a closed loop,
until --seconds have passed. Every report must pass the correctness gate
(gate.py) and have the same sha256 every time its command runs in the run.

--trace 0 reports the end-to-end metrics: for each command, the median over
sequences of its mean time in a sequence (a repeated command's batch is one
sample); wall_s is their sum.
--trace 1 runs the sequence once untraced, then traced (tracer.py) until
--seconds have passed, each command once per sequence, and reports the
per-layer metrics. The last line of stdout is the result; the line before it
holds the details: environment, problem sizes, exit codes, verdicts, digests.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60
# Single-threaded BLAS: the contractions are small, and a second BLAS thread
# on a shared 2-core host made the timings slower and far less steady.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
EXIT_BROKEN = 2
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "check_s": "s",
    "russo_dye_s": "s",
    "dilate_s": "s",
    "equiv_s": "s",
    "peak_rss_mb": "MB",
}


class BenchmarkError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class Outcome:
    command: str
    rc: int | None
    seconds: float
    report: dict | None = None
    digest: str | None = None
    errors: list = field(default_factory=list)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def check_definition(workload_names, per_layer) -> None:
    """BENCHMARK.json must name the workloads and metrics this file reports."""
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchmarkError(f"cannot read BENCHMARK.json: {exc}") from exc
    declared = {
        "workloads": {w["name"] for w in spec["workloads"]},
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    reported = {"workloads": set(workload_names), "end_to_end": END_TO_END, "per_layer": per_layer}
    for key, value in reported.items():
        if declared[key] != value:
            raise BenchmarkError(f"BENCHMARK.json {key} differ from what perfbench reports")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "env": {k: os.environ.get(k) for k in BLAS_ENV},
        "machine": platform.machine(),
    }


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when it cannot be asked."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def set_up(workload: str, seed: int, work: Path) -> tuple[dict, list[float], list[str]]:
    """Run prepare.py SETUP_REPEATS times; returns its output, the wall time of
    each process, and problems (set-ups that disagreed)."""
    argv = [sys.executable, str(HERE / "prepare.py"), "--workload", workload,
            "--seed", str(seed), "--work", str(work)]
    times, outputs = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up exited {proc.returncode}: {proc.stderr[-2000:]}")
        outputs.append(proc.stdout.strip().splitlines()[-1])
    problems = [] if len(set(outputs)) == 1 else [f"set-up outputs differ: {outputs}"]
    return json.loads(outputs[-1]), times, problems


# -- command sequences -----------------------------------------------------------


class Runner:
    """Runs the workload's commands and gates every report as it arrives."""

    def __init__(self, cli, gate, workload, inputs: dict, seed: int, work: Path):
        self.cli, self.gate, self.workload = cli, gate, workload
        self.inputs, self.seed, self.work = inputs, seed, work
        self.digests = gate.Digests()

    def argv(self, cmd) -> list[str]:
        paths = self.inputs["paths"]
        out = ["--out", str(self.work / f"{cmd.name}.json")]
        if cmd.name == "equiv":
            return ["equiv", str(self.work / "dilate.json"), paths["provenance"], paths[cmd.spec], *out]
        if cmd.name == "dilate":
            return ["dilate", paths[cmd.spec], *cmd.flags, *out]
        return [cmd.name, paths[cmd.spec], *cmd.flags, "--seed", str(self.seed), *out]

    def run(self, cmd, keep_report: bool, tracer=None, label: str = "") -> Outcome:
        argv = self.argv(cmd)
        out = Path(argv[-1])
        out.unlink(missing_ok=True)
        gc.collect()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = self.cli.main(argv)
            else:
                with tracer.command(label):
                    rc = self.cli.main(argv)
        except Exception:  # a raising command fails the gate; the run goes on
            rc = None
            traceback.print_exc()
        outcome = Outcome(cmd.name, rc, time.perf_counter() - t0)
        if out.is_file():
            data = out.read_bytes()
            outcome.digest = hashlib.sha256(data).hexdigest()
            outcome.report = json.loads(data)
        scale = self.inputs["scales"][cmd.spec]
        outcome.errors = self.gate.command_errors(cmd.name, rc, outcome.report, scale)
        outcome.errors += self.digests.errors(cmd.name, outcome.digest)
        if not keep_report:
            outcome.report = None
        return outcome

    def sequence(self, index: int, repeat: bool = True, tracer=None) -> list[Outcome]:
        """The workload's commands in order; with ``repeat`` each runs
        ``cmd.repeat`` times. Reports are kept for the first sequence only."""
        return [
            self.run(cmd, keep_report=index == 0 and r == 0, tracer=tracer, label=f"{index}:{cmd.name}")
            for cmd in self.workload.commands
            for r in range(cmd.repeat if repeat else 1)
        ]


def timed_loop(seconds: float, body) -> list:
    """Closed loop: call ``body`` again until ``seconds`` have passed (at least once)."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(body(len(results)))
    return results


def observed(cmd, outcome: Outcome, sizes: dict) -> dict:
    """Problem size and verdicts of one command, for the details line."""
    size = {key: value for key, value in sizes[cmd.spec].items() if key != "gen_seed"}
    size["t"] = cmd.level
    report = outcome.report or {}
    verdicts = {}
    if cmd.name == "check":
        verdicts = report.get("verdicts", {})
        size["kappa"] = report.get("checks", {}).get("cp", {}).get("certificate", {}).get("kappa")
    elif cmd.name == "russo-dye":
        verdicts = {"passed": report.get("result", {}).get("passed")}
    elif cmd.name == "dilate":
        size["kappa"] = report.get("kappa")
    elif cmd.name == "equiv":
        verdicts = {"passed": report.get("passed")}
        size["kappa"] = report.get("equivalence", {}).get("kappa")
    return {"command": cmd.name, "size": size, "exit": outcome.rc, "verdicts": verdicts,
            "sha256": outcome.digest, "errors": outcome.errors}


# -- main ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "icpmaps" / "__init__.py").is_file():
        print(f"perfbench: no icpmaps package under {SRC}", file=sys.stderr)
        return EXIT_BROKEN
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    import gate
    import tracer as tracing
    from icpmaps import cli
    from workloads import WORKLOADS

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: icpmaps imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return EXIT_BROKEN
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return EXIT_BROKEN
    work = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        check_definition(WORKLOADS, tracing.PER_LAYER)
        result, detail = measure(args, WORKLOADS[args.workload], cli, gate, tracing, work)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return EXIT_BROKEN
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps(result))
    return 0


def measure(args, workload, cli, gate, tracing, work: Path):
    inputs, setup_times, problems = set_up(workload.name, args.seed, work)
    runner = Runner(cli, gate, workload, inputs, args.seed, work)

    if args.trace:
        baseline = runner.sequence(0, repeat=False)
        tracer = tracing.Tracer()
        bounds = []

        def traced(i):
            first = len(tracer.spans)
            outcomes = runner.sequence(i + 1, repeat=False, tracer=tracer)
            bounds.append((first, len(tracer.spans)))
            return outcomes

        tracer.install()
        try:
            sequences = [baseline] + timed_loop(args.seconds, traced)
        finally:
            not_restored = tracer.uninstall()
        if not_restored:
            raise BenchmarkError(f"wrappers not undone after the traced run: {not_restored}")
    else:
        sequences = timed_loop(args.seconds, runner.sequence)

    first = {o.command: o for o in reversed(sequences[0])}
    scales = {cmd.name: inputs["scales"][cmd.spec] for cmd in workload.commands}
    broken = gate.self_check({c: (o.rc, o.report, scales[c]) for c, o in first.items() if not o.errors})
    if broken:
        raise BenchmarkError("; ".join(broken))

    if args.trace:
        walls = [sum(o.seconds for o in seq) for seq in sequences]
        values, mismatches = tracing.summarize([tracing.layer_metrics(tracer.spans[a:b]) for a, b in bounds])
        problems += mismatches
        values["trace.overhead_pct"] = 100.0 * (statistics.median(walls[1:]) / walls[0] - 1.0)
        units = tracing.PER_LAYER
        spans_file = work.parent / f"spans-{workload.name}-s{args.seed}.jsonl"
        tracer.write(spans_file)
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for cmd in workload.commands:
            values[cmd.metric] = statistics.median(
                statistics.fmean(o.seconds for o in seq if o.command == cmd.name) for seq in sequences
            )
        values["wall_s"] = sum(values[cmd.metric] for cmd in workload.commands)
        units = END_TO_END
        spans_file = None

    outcomes = [o for seq in sequences for o in seq]
    failed = sum(bool(o.errors) for o in outcomes) + len(problems)
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "inputs": inputs,
        "setup_samples_s": setup_times,
        "sequence_wall_s": [sum(o.seconds for o in seq) for seq in sequences],
        "commands": [observed(cmd, first[cmd.name], inputs["sizes"]) for cmd in workload.commands],
        "failures": [
            {"sequence": i, "command": o.command, "errors": o.errors}
            for i, seq in enumerate(sequences) for o in seq if o.errors
        ],
        "problems": problems,
        "spans_file": str(spans_file) if spans_file else None,
    }
    return result, detail


if __name__ == "__main__":
    sys.exit(main())
