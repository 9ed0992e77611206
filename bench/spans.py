"""Outside-in span recorder for the traced benchmark run.

The recorder wraps public functions of ``freebycyclic`` from outside the
package: it rebinds every module attribute that refers to a listed
function (``cli`` from-imports ``decompose``, ``bns`` binds
``dual_basis``, ...) and replaces listed methods on their class.  Each call
records one span ``(name, start, end, parent, work)``; spans stay in memory
until the run ends.  Wrapped calls return their value unchanged and
re-raise their exception unchanged (``survey`` relies on
``cone_membership`` raising).

A layer is a package module.  A layer's self time is the time its spans
cover minus the time covered by their child spans, so time spent in an
unlisted function counts towards the nearest listed caller.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("cli", "graphs", "words", "folding", "torus", "cohomology",
          "linalg", "section", "traintrack", "bns")

TRACED = (
    "cli.main", "cli.load_workspace",
    "graphs.load_map_file", "graphs.GraphMap.apply_tight",
    "graphs.GraphMap.iterate_tight",
    "words.FreeGroupMap.apply",
    "folding.decompose", "folding.FoldSequence.verify",
    "torus.build_torus",
    "cohomology.dual_basis", "cohomology.integral_cocycle",
    "cohomology.cone_membership", "cohomology.axis_dim_lower_bound",
    "linalg.solve_inequalities", "linalg.minimum_of_coordinate",
    "linalg.lexmin_nonnegative", "linalg.rational_solve",
    "section.build_section", "section.first_return",
    "section.section_audit", "section.monodromy", "section.line_section",
    "section.crossing_rank",
    "traintrack.transition_matrix", "traintrack.is_train_track",
    "traintrack.is_irreducible", "traintrack.eigen_metric",
    "traintrack.nielsen_search", "traintrack.traintrack_report",
    "bns.sigma_report", "bns.trace_polygon",
)


# Work counts read from arguments and results; each repeats exactly from
# run to run, unlike the times.
WORK = {
    "words.FreeGroupMap.apply":
        ("letters_out", lambda args, kwargs, result: len(result)),
    "folding.decompose":
        ("folds", lambda args, kwargs, result: result.fold_count),
    "torus.build_torus":
        ("cells", lambda args, kwargs, result: (
            len(result.zero_cells) + len(result.verticals)
            + len(result.skews) + len(result.trapezoids))),
    "linalg.solve_inequalities":
        ("rows_in", lambda args, kwargs, result:
            len(args[0] if args else kwargs["rows"])),
    "section.build_section":
        ("edges", lambda args, kwargs, result: len(result.graph.edge_names)),
    "traintrack.eigen_metric":
        ("iterations", lambda args, kwargs, result: result.iterations),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    for name in TRACED:
        units[f"{name}.s"] = "s"
        units[f"{name}.calls"] = "count"
    for name, (work, _count) in WORK.items():
        units[f"{name}.{work}"] = "count"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class SpanRecorder:
    """Records spans of the listed functions while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = WORK.get(name, (None, None))[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, 0)
            if count is not None:
                spans[index] = (name, start, end, parent,
                                count(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every listed function for the duration of the block.

        A listed name the package no longer has is skipped; its metrics
        then read 0.
        """
        patches = []
        try:
            for target in TRACED:
                module_name, *attrs = target.split(".")
                module = importlib.import_module(f"freebycyclic.{module_name}")
                if len(attrs) == 2:
                    cls = getattr(module, attrs[0], None)
                    original = vars(cls).get(attrs[1]) if cls else None
                    if original is not None:
                        patches.append((cls, attrs[1], original))
                        setattr(cls, attrs[1], self._wrap(target, original))
                    continue
                original = getattr(module, attrs[0], None)
                if original is None:
                    continue
                wrapper = self._wrap(target, original)
                for loaded in _package_modules():
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            patches.append((loaded, key, original))
                            setattr(loaded, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)

    def pass_metrics(self, offset: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded from ``offset`` on."""
        spans = self.spans[offset:]
        child = [0.0] * len(spans)
        for _name, start, end, parent, _work in spans:
            if parent >= offset:
                child[parent - offset] += end - start
        metrics = dict.fromkeys(metric_units(), 0)
        for (name, start, end, _parent, work), covered in zip(spans, child):
            layer = name.split(".", 1)[0]
            metrics[f"{layer}.self_s"] += end - start - covered
            metrics[f"{name}.s"] += end - start
            metrics[f"{name}.calls"] += 1
            if name in WORK:
                metrics[f"{name}.{WORK[name][0]}"] += work
        return metrics

    def write(self, path: Path) -> None:
        """Write every span as one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _package_modules():
    return [module for name, module in list(sys.modules.items())
            if name == "freebycyclic" or name.startswith("freebycyclic.")]
