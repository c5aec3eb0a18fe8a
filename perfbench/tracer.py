"""Spans around the icpmaps layers, recorded from outside the package.

`Tracer.install` replaces each traced callable in every icpmaps namespace
that binds it (module globals filled by ``from .x import f``, and class
attributes for methods) with a wrapper that records a span: its name, the
namespace it was called through, its parent span, the command it ran under,
and its start and end. Spans stay in memory until `write` is called.
`uninstall` puts the originals back and reports any binding it could not
restore.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field


def _chain_terms(args, result):
    return {"chain_terms": args["phi"].algebra.dim ** args["phi"].k * args["t"] ** 2}


def _chain_mb(args, result):
    kappa = args["reps"][0].shape[1]
    return {"chain_mb": args["algebra"].dim ** args["k"] * kappa**2 * 16 / 1e6}


# (module, callable) of each traced function or method, with what its span
# records beyond timing, taken from the call's arguments or its result.
TRACED = (
    ("algebra", "amplified_algebra", None),
    ("algebra", "project_unit_ball", None),
    ("multimap", "amplified_evaluate", _chain_terms),
    ("multimap", "MultilinearMap.invariance_report", None),
    ("blockmap", "BlockMultilinearMap.induced_map", None),
    ("blockmap", "BlockMultilinearMap.block_invariance_report", None),
    ("blockmap", "BlockMultilinearMap.entries_invariant", None),
    ("gram", "positivity_falsify", None),
    ("gram", "sample_admissible_tuple", None),
    ("gram", "build_gram", lambda args, result: {"size": result.size}),
    ("gram", "gram_is_psd", None),
    ("stinespring", "dilate", lambda args, result: {"kappa": result.kappa}),
    ("stinespring", "theorem_form_values", _chain_mb),
    ("stinespring", "verify_dilation", None),
    ("stinespring", "minimal_compress", None),
    ("stinespring", "unitary_equivalence", None),
    ("norms", "norm_estimate", None),
    ("factory", "from_generator_spec", None),
    ("factory", "from_dilation_data", None),
    ("serialize", "load_map_spec", None),
    ("serialize", "dumps", lambda args, result: {"bytes": len(result)}),
    ("serialize", "triple_from_json", None),
)

COMMAND_SPAN = "cli"

# Per-layer metrics: name -> unit. `<span>.calls` counts spans, `<span>.self_s`
# is span time minus the time of its direct child spans, summed per sequence.
PER_LAYER = {
    "algebra.amplified_algebra.calls": "count",
    "algebra.amplified_algebra.self_s": "s",
    "algebra.project_unit_ball.calls": "count",
    "algebra.project_unit_ball.self_s": "s",
    "multimap.amplified_evaluate.calls": "count",
    "multimap.amplified_evaluate.self_s": "s",
    "multimap.amplified_evaluate.chain_terms": "count",
    "multimap.invariance_report.calls": "count",
    "multimap.invariance_report.self_s": "s",
    "blockmap.induced_map.calls": "count",
    "blockmap.induced_map.self_s": "s",
    "blockmap.block_invariance_report.self_s": "s",
    "blockmap.entries_invariant.self_s": "s",
    "gram.positivity_falsify.calls": "count",
    "gram.positivity_falsify.self_s": "s",
    "gram.falsifier_trials": "count",
    "gram.sample_admissible_tuple.self_s": "s",
    "gram.build_gram.self_s": "s",
    "gram.gram_is_psd.self_s": "s",
    "gram.gram_size": "count",
    "stinespring.dilate.calls": "count",
    "stinespring.dilate.self_s": "s",
    "stinespring.theorem_form_values.calls": "count",
    "stinespring.theorem_form_values.self_s": "s",
    "stinespring.theorem_form_values.chain_mb": "MB",
    "stinespring.verify_dilation.calls": "count",
    "stinespring.verify_dilation.self_s": "s",
    "stinespring.minimal_compress.self_s": "s",
    "stinespring.unitary_equivalence.self_s": "s",
    "stinespring.kappa": "count",
    "norms.norm_estimate.calls": "count",
    "norms.norm_estimate.self_s": "s",
    "norms.sigma_evals": "count",
    "factory.from_generator_spec.calls": "count",
    "factory.from_generator_spec.self_s": "s",
    "factory.from_dilation_data.self_s": "s",
    "serialize.load_map_spec.self_s": "s",
    "serialize.dumps.self_s": "s",
    "serialize.triple_from_json.self_s": "s",
    "serialize.report_bytes": "B",
    "cli.self_s": "s",
    "trace.overhead_pct": "%",
}

_WRAPPER_MARK = "__perfbench_span__"


@dataclass
class Span:
    sid: int
    parent: int | None
    command: str
    name: str
    via: str
    start: float
    end: float = 0.0
    extra: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._command = ""
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str, via: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), parent, self._command, name, via, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def command(self, command_id: str):
        """Root span of one CLI command; wrapped spans inside it are its children."""
        self._command = command_id
        span = self._open(COMMAND_SPAN, "perfbench")
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name: str, via: str, original, extra):
        signature = inspect.signature(original) if extra else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self._open(name, via)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if extra:
                span.extra = extra(signature.bind(*args, **kwargs).arguments, result)
            return result

        setattr(wrapper, _WRAPPER_MARK, True)
        return wrapper

    # -- patching ------------------------------------------------------------

    @staticmethod
    def _namespaces() -> dict:
        return {
            name: module
            for name, module in sys.modules.items()
            if name == "icpmaps" or name.startswith("icpmaps.")
        }

    def install(self) -> None:
        namespaces = self._namespaces()
        for module_name, qualname, extra in TRACED:
            module = namespaces[f"icpmaps.{module_name}"]
            name = f"{module_name}.{qualname.rsplit('.', 1)[-1]}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                self._patch(owner, attr, self._wrap(name, cls_name, vars(owner)[attr], extra))
                continue
            original = getattr(module, qualname)
            for ns_name, namespace in namespaces.items():
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        via = ns_name.rsplit(".", 1)[-1]
                        self._patch(namespace, attr, self._wrap(name, via, original, extra))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> list[str]:
        """Put every original back. Returns the bindings that do not hold their
        original afterwards and the wrappers still bound anywhere in the
        package; both lists are empty when the restore worked."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        wrong = [f"{owner.__name__}.{attr}" for owner, attr, original in self._patched
                 if vars(owner)[attr] is not original]
        self._patched.clear()
        return wrong + self._leftovers()

    def _leftovers(self) -> list[str]:
        found = []
        for ns_name, namespace in self._namespaces().items():
            for attr, value in vars(namespace).items():
                owners = [(attr, value)]
                if isinstance(value, type) and value.__module__ == ns_name:
                    owners += [(f"{attr}.{a}", v) for a, v in vars(value).items()]
                found += [f"{ns_name}.{a}" for a, v in owners if getattr(v, _WRAPPER_MARK, False)]
        return found

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.sid, s.parent, s.command, s.name, s.via, s.start, s.end, s.extra]))
                fh.write("\n")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one command sequence (all but trace.overhead_pct)."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    extra: dict[str, list] = defaultdict(list)
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += s.end - s.start - child_time[s.sid]
        for key, value in s.extra.items():
            extra[f"{s.name}.{key}"].append(value)
    out = {}
    for metric in PER_LAYER:
        span, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls[span]
        elif kind == "self_s":
            out[metric] = self_s[span]
    out["multimap.amplified_evaluate.chain_terms"] = sum(extra["multimap.amplified_evaluate.chain_terms"])
    out["gram.falsifier_trials"] = calls["gram.sample_admissible_tuple"]
    out["gram.gram_size"] = max(extra["gram.build_gram.size"], default=0)
    out["stinespring.theorem_form_values.chain_mb"] = max(
        extra["stinespring.theorem_form_values.chain_mb"], default=0.0
    )
    out["stinespring.kappa"] = max(extra["stinespring.dilate.kappa"], default=0)
    out["norms.sigma_evals"] = sum(
        1 for s in spans if s.name == "multimap.amplified_evaluate" and s.via == "norms"
    )
    out["serialize.report_bytes"] = sum(extra["serialize.dumps.bytes"])
    out["cli.self_s"] = self_s[COMMAND_SPAN]
    return out


COUNT_METRICS = [m for m, unit in PER_LAYER.items() if unit in ("count", "B", "MB")]


def summarize(per_sequence: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Medians of the timings over sequences, and the counts, which must repeat
    exactly from one sequence to the next (mismatches are returned)."""
    out = {}
    mismatches = []
    for metric in per_sequence[0]:
        values = [seq[metric] for seq in per_sequence]
        if metric in COUNT_METRICS:
            out[metric] = values[0]
            if any(v != values[0] for v in values):
                mismatches.append(f"{metric} varies across sequences: {values}")
        else:
            out[metric] = statistics.median(values)
    return out, mismatches
