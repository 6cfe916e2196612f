"""Tracing the library from outside, at the calls into its public functions.

:meth:`Tracer.install` replaces every function named in the package's
``__all__`` by a timing wrapper, at every module binding (so ``cli``,
``moves``, ``invariants`` and ``assembly`` all call the wrapper).  Private
helpers are not wrapped: their time counts as self time of the public
function, or the CLI, that calls them.  A name listed in ``__all__`` but no
longer present is skipped.

A span records (function, parent span, start, end, busy time, yields,
raised).  A plain call is busy from entry to return.  A generator gets one
span per instance, busy only while it runs between yields, so consumer
code interleaved with it is not charged to it.  Self time is busy time
minus the busy time of the span's children.  Within one op the self times
of all spans plus the CLI's own time (op wall minus its root spans) add up
to the op's wall time exactly; the only slack left against a traced pass's
wall time is the benchmark loop between ops, which ``trace.accounted_ratio``
reports (it should stay within 2% of 1).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable

LAYERS = ("cli", "graph", "invariants", "rotation", "moves", "hyperbolic", "assembly")

WALK_TRACERS = ("boundary_walks", "vertex_boundary_incidence", "boundary_count", "fat_genus")
BUILDERS = ("assemble_sigma_surface", "cap_standard", "cap_target_genus", "naive_embedding")

# Per-layer metrics: name, unit, which way is better.  Times are per traced pass.
METRICS = (
    ("cli.self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("graph.busy_s", "s", "lower"),
    ("invariants.self_s", "s", "lower"),
    ("invariants.zeta_s", "s", "lower"),
    ("invariants.zeta_calls", "count", "lower"),
    ("invariants.trees_enumerated", "count", "lower"),
    ("invariants.xi_calls", "count", "lower"),
    ("invariants.tree_count_s", "s", "lower"),
    ("rotation.self_s", "s", "lower"),
    ("rotation.sweep_s", "s", "lower"),
    ("rotation.rotations_swept", "count", "lower"),
    ("rotation.sweep_rate", "1/s", "higher"),
    ("rotation.walk_trace_s", "s", "lower"),
    ("rotation.walk_traces", "count", "lower"),
    ("rotation.rotations_enumerated", "count", "lower"),
    ("moves.self_s", "s", "lower"),
    ("moves.minimize_s", "s", "lower"),
    ("moves.maximize_s", "s", "lower"),
    ("moves.reduce_calls", "count", "lower"),
    ("moves.increase_calls", "count", "lower"),
    ("moves.moves_applied", "count", "lower"),
    ("moves.restarts_used", "count", "lower"),
    ("moves.enum_fallbacks", "count", "lower"),
    ("moves.certified_ratio", "1", "higher"),
    ("hyperbolic.self_s", "s", "lower"),
    ("hyperbolic.scale_s", "s", "lower"),
    ("hyperbolic.errors", "count", "lower"),
    ("assembly.self_s", "s", "lower"),
    ("assembly.build_s", "s", "lower"),
    ("assembly.verify_s", "s", "lower"),
    ("assembly.verify_calls", "count", "lower"),
    ("assembly.json_out_s", "s", "lower"),
    ("assembly.json_in_s", "s", "lower"),
    ("assembly.schema_bytes", "bytes", "lower"),
    ("assembly.errors", "count", "lower"),
    ("trace.overhead_ratio", "1", "lower"),
    ("trace.accounted_ratio", "1", "higher"),
    ("trace.spans", "count", "lower"),
    ("probe.failing", "count", "lower"),
)

# Spans kept for writing out; the ops after this many are folded but not kept.
MAX_LOGGED_SPANS = 200_000

# Row layout of a span while its op runs.
NAME, PARENT, START, END, BUSY, YIELDS, RAISED = range(7)


def self_times(rows: list[list]) -> list[float]:
    """Busy time of each span minus the busy time of its direct children."""
    child = [0.0] * len(rows)
    for row in rows:
        if row[PARENT] >= 0:
            child[row[PARENT]] += row[BUSY]
    return [row[BUSY] - c for row, c in zip(rows, child)]


class PassStats:
    """Per-pass aggregates, keyed by (function, parent function)."""

    def __init__(self) -> None:
        self.calls: dict[tuple[int, int], list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.escaped: dict[str, int] = defaultdict(int)  # exceptions leaving a layer
        self.cli_self = 0.0
        self.searches: list[tuple[int, int, bool, bool]] = []
        self.rotations_swept = 0
        self.schema_bytes = 0
        self.spans = 0


class Tracer:
    def __init__(self, package) -> None:
        self.package = package
        self.names: list[str] = []
        self.layers: list[str] = []
        self.rows: list[list] = []
        self.stack: list[int] = [-1]
        # (module, name, original, wrapper) for every binding of a public function
        self.bindings: list[tuple[object, str, Callable, Callable]] = []
        self.stats = PassStats()
        self.fold_seconds = 0.0
        # kept spans, for writing out at the end
        self.unlogged = 0
        self.log_name = array("i")
        self.log_op = array("i")
        self.log_parent = array("i")
        self.log_times = array("d")  # start, end, busy, self per span
        self.op_ids: list[str] = []

    # -- installing -------------------------------------------------------

    def _modules(self) -> list:
        prefix = self.package.__name__ + "."
        return [self.package] + [
            m for name, m in sorted(sys.modules.items()) if name.startswith(prefix)
        ]

    def install(self) -> None:
        """Put the wrappers in place; they are built on the first call only."""
        if not self.bindings:
            self._build()
        for module, name, _, wrapper in self.bindings:
            setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, fn, _ in self.bindings:
            setattr(module, name, fn)

    def _build(self) -> None:
        modules = self._modules()
        hooks = self._hooks()
        for name in self.package.__all__:
            fn = getattr(self.package, name, None)
            if not inspect.isfunction(fn):
                continue  # classes, constants and names that no longer exist
            nid = len(self.names)
            self.names.append(name)
            self.layers.append(fn.__module__.rsplit(".", 1)[-1])
            wrapper = self._wrap(fn, nid, hooks.get(name))
            for module in modules:
                if getattr(module, name, None) is fn:
                    self.bindings.append((module, name, fn, wrapper))

    def _hooks(self) -> dict[str, Callable]:
        stats = lambda: self.stats  # noqa: E731 - stats is replaced every pass

        def search(result) -> None:
            stats().searches.append(
                (
                    len(getattr(result, "moves", ())),
                    getattr(result, "restarts_used", 0),
                    bool(getattr(result, "enumerated", False)),
                    bool(getattr(result, "certified", False)),
                )
            )

        def swept(profile) -> None:
            stats().rotations_swept += sum(profile.values())

        def emitted(text) -> None:
            stats().schema_bytes += len(text)

        return {
            "minimize_boundaries": search,
            "maximize_boundaries": search,
            "boundary_profile": swept,
            "schema_to_json": emitted,
        }

    def _wrap(self, fn: Callable, nid: int, hook: Callable | None) -> Callable:
        rows, stack, clock = self.rows, self.stack, time.perf_counter

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                row = [nid, stack[-1], 0.0, 0.0, 0.0, 0, 0]
                rows.append(row)
                sid = len(rows) - 1
                try:
                    while True:
                        stack.append(sid)
                        start = clock()
                        if not row[START]:
                            row[START] = start
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        except BaseException:
                            row[RAISED] = 1
                            raise
                        finally:
                            end = clock()
                            stack.pop()
                            row[END] = end
                            row[BUSY] += end - start
                        row[YIELDS] += 1
                        yield item
                finally:
                    inner.close()

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [nid, stack[-1], 0.0, 0.0, 0.0, 0, 0]
            rows.append(row)
            stack.append(len(rows) - 1)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                row[RAISED] = 1
                raise
            finally:
                end = clock()
                stack.pop()
                row[START], row[END], row[BUSY] = start, end, end - start
            if hook is not None:
                hook(result)
            return result

        return traced

    # -- per op -----------------------------------------------------------

    def begin_op(self, op_id: str) -> None:
        self.rows.clear()
        del self.stack[1:]
        self.op_ids.append(op_id)

    def end_op(self, wall: float) -> None:
        """Fold the op's spans into the pass totals and the span log."""
        began = time.perf_counter()
        rows, stats = self.rows, self.stats
        selfs = self_times(rows)
        base = len(self.log_name)
        op = len(self.op_ids) - 1
        log = len(self.log_name) + len(rows) <= MAX_LOGGED_SPANS
        if not log:
            self.unlogged += len(rows)
        root_busy = 0.0
        for row, own in zip(rows, selfs):
            nid, parent = row[NAME], row[PARENT]
            pnid = rows[parent][NAME] if parent >= 0 else -1
            agg = stats.calls[(nid, pnid)]
            agg[0] += 1
            agg[1] += row[BUSY]
            agg[2] += own
            agg[3] += row[YIELDS]
            if parent < 0:
                root_busy += row[BUSY]
            if row[RAISED] and (pnid < 0 or self.layers[pnid] != self.layers[nid]):
                stats.escaped[self.layers[nid]] += 1
            if log:
                self.log_name.append(nid)
                self.log_op.append(op)
                self.log_parent.append(base + parent if parent >= 0 else -1)
                self.log_times.extend((row[START], row[END], row[BUSY], own))
        stats.spans += len(rows)
        stats.cli_self += wall - root_busy
        self.rows.clear()
        self.fold_seconds += time.perf_counter() - began

    def take_pass(self) -> PassStats:
        stats, self.stats = self.stats, PassStats()
        return stats

    # -- metrics ----------------------------------------------------------

    def metrics(self, stats: PassStats, traced_wall: float, untraced_wall: float,
                import_s: float) -> dict[str, float]:  # fmt: skip
        ids = {name: i for i, name in enumerate(self.names)}

        def pick(names: Iterable[str], col: int, parents=None, exclude=()) -> float:
            want = {ids[n] for n in names if n in ids}
            parent_ids = None if parents is None else {ids[n] for n in parents if n in ids}
            skip = {ids[n] for n in exclude if n in ids}
            total = 0.0
            for (nid, pnid), agg in stats.calls.items():
                if nid in want and pnid not in skip and (parent_ids is None or pnid in parent_ids):
                    total += agg[col]
            return total

        def layer_self(layer: str) -> float:
            return sum(
                agg[2] for (nid, _), agg in stats.calls.items() if self.layers[nid] == layer
            )

        COUNT, BUSY_S, SELF_S, YIELDED = 0, 1, 2, 3
        searches = stats.searches
        sweep_s = pick(["boundary_profile"], BUSY_S)
        layer_total = sum(layer_self(layer) for layer in LAYERS if layer != "cli")
        out = {
            "cli.self_s": stats.cli_self,
            "cli.import_s": import_s,
            "graph.busy_s": layer_self("graph"),
            "invariants.self_s": layer_self("invariants"),
            "invariants.zeta_s": pick(["betti_deficiency"], BUSY_S),
            "invariants.zeta_calls": pick(["betti_deficiency"], COUNT),
            "invariants.trees_enumerated": pick(["spanning_trees"], YIELDED),
            "invariants.xi_calls": pick(["xi"], COUNT),
            "invariants.tree_count_s": pick(["spanning_trees"], BUSY_S, parents=["analyze"]),
            "rotation.self_s": layer_self("rotation"),
            "rotation.sweep_s": sweep_s,
            "rotation.rotations_swept": stats.rotations_swept,
            "rotation.sweep_rate": stats.rotations_swept / sweep_s if sweep_s else 0.0,
            "rotation.walk_trace_s": pick(WALK_TRACERS, SELF_S),
            "rotation.walk_traces": pick(WALK_TRACERS, COUNT, exclude=WALK_TRACERS),
            "rotation.rotations_enumerated": pick(["enumerate_rotations"], YIELDED),
            "moves.self_s": layer_self("moves"),
            "moves.minimize_s": pick(["minimize_boundaries"], SELF_S),
            "moves.maximize_s": pick(["maximize_boundaries"], SELF_S),
            "moves.reduce_calls": pick(["reduce_move"], COUNT),
            "moves.increase_calls": pick(["increase_move"], COUNT),
            "moves.moves_applied": sum(s[0] for s in searches),
            "moves.restarts_used": sum(s[1] for s in searches),
            "moves.enum_fallbacks": sum(s[2] for s in searches),
            "moves.certified_ratio": (
                sum(s[3] for s in searches) / len(searches) if searches else 0.0
            ),
            "hyperbolic.self_s": layer_self("hyperbolic"),
            "hyperbolic.scale_s": pick(["choose_scale"], BUSY_S),
            "hyperbolic.errors": stats.escaped["hyperbolic"],
            "assembly.self_s": layer_self("assembly"),
            "assembly.build_s": pick(BUILDERS, SELF_S),
            "assembly.verify_s": pick(["verify_schema"], SELF_S),
            "assembly.verify_calls": pick(["verify_schema"], COUNT),
            "assembly.json_out_s": pick(["schema_to_json"], SELF_S),
            "assembly.json_in_s": pick(["schema_from_json"], SELF_S),
            "assembly.schema_bytes": stats.schema_bytes,
            "assembly.errors": stats.escaped["assembly"],
            "trace.overhead_ratio": traced_wall / untraced_wall if untraced_wall else 0.0,
            "trace.accounted_ratio": (layer_total + stats.cli_self) / traced_wall,
            "trace.spans": stats.spans,
            "probe.failing": 0,  # filled in by the runner
        }
        return out

    def write_spans(self, path: Path) -> None:
        """Write every kept span as tab-separated text."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("span\top\tfunction\tlayer\tparent\tstart\tend\tbusy\tself\n")
            t = self.log_times
            for i, nid in enumerate(self.log_name):
                fh.write(
                    f"{i}\t{self.op_ids[self.log_op[i]]}\t{self.names[nid]}\t{self.layers[nid]}"
                    f"\t{self.log_parent[i]}\t{t[4 * i]:.9f}\t{t[4 * i + 1]:.9f}"
                    f"\t{t[4 * i + 2]:.9f}\t{t[4 * i + 3]:.9f}\n"
                )
