"""Span tracer for the benchmark's traced run.

`Tracer.install` wraps every public function of each layer module, and every
public method of the classes those modules define (plus `FgMonoid.__init__`,
so constructions are counted), at every name it is bound under in the
package: `from .qarith import nth_prime` in `families` binds a second name
that wrapping `qarith.nth_prime` alone would miss.  `Budget.spend` is wrapped
too, and each unit spent is charged to the innermost open span.  Spans are
kept in flat arrays and written out by `dump`; self time (duration minus the
time covered by child spans) and budget units are summed per layer as spans
close.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = ("qarith", "monoid", "families", "lattice2", "dsl", "reports", "cli")
BENCH = "bench"   # the benchmark's own code inside an op: the root span of each op


class Tracer:
    def __init__(self, pkg):
        self.pkg = pkg
        self.names: list[str] = []
        self.layer_of: dict[str, str] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op_id = -1
        # frames of open spans: [span id, layer, child seconds, inclusive budget units]
        self.stack: list[list] = []
        self.self_s: Counter = Counter()
        self.units: Counter = Counter()
        self.counts: Counter = Counter()
        self.max_scaled_target = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str):
        name_id = len(self.names)
        self.names.append(name)
        self.layer_of[name] = layer
        hook = _HOOKS.get(name)
        stack, self_s = self.stack, self.self_s
        span_name, span_parent, span_op = self.span_name, self.span_parent, self.span_op
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1][0] if stack else -1)
            span_op.append(tracer.op_id)
            span_end.append(0.0)
            frame = [sid, layer, 0.0, 0]
            stack.append(frame)
            t0 = clock()
            span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                span_end[sid] = t1
                stack.pop()
                dur = t1 - t0
                self_s[layer] += dur - frame[2]
                if stack:
                    parent = stack[-1]
                    parent[2] += dur
                    parent[3] += frame[3]
            if hook is not None:
                hook(tracer, args, result, frame[3])
            return result

        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr) if not inspect.isclass(owner)
                           else owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "puiseux" or n.startswith("puiseux.")]
        budget_cls = self.pkg.monoid.Budget
        for layer in LAYERS:
            mod = getattr(self.pkg, layer)
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, layer, f"{layer}.{name}")
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is obj:
                                self._replace(m, attr, wrapped)
                elif inspect.isclass(obj) and obj is not budget_cls and not issubclass(obj, BaseException):
                    for attr, member in list(vars(obj).items()):
                        full = f"{layer}.{name}.{attr}"
                        if attr.startswith("_") and full != "monoid.FgMonoid.__init__":
                            continue
                        if inspect.isfunction(member):
                            self._replace(obj, attr, self._wrap(member, layer, full))
                        elif isinstance(member, staticmethod):
                            self._replace(obj, attr, staticmethod(self._wrap(member.__func__, layer, full)))

        spend = budget_cls.spend
        stack, units = self.stack, self.units

        def counted_spend(budget, amount=1):
            if stack:
                frame = stack[-1]
                frame[3] += amount
                units[frame[1]] += amount
            else:
                units[BENCH] += amount
            return spend(budget, amount)

        self._replace(budget_cls, "spend", counted_spend)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def op_runner(self, run):
        """`run` wrapped as the root span of each op, in the bench layer,
        numbering the ops it runs."""
        traced = self._wrap(run, BENCH, "op")

        def run_op(lib, inp):
            self.op_id += 1
            return traced(lib, inp)

        return run_op

    # -- results --------------------------------------------------------------

    def per_name(self) -> tuple[Counter, Counter]:
        """Calls and inclusive seconds per span name."""
        calls: Counter = Counter()
        seconds: Counter = Counter()
        for nid, start, end in zip(self.span_name, self.span_start, self.span_end):
            calls[nid] += 1
            seconds[nid] += end - start
        return (Counter({self.names[k]: v for k, v in calls.items()}),
                Counter({self.names[k]: v for k, v in seconds.items()}))

    def dump(self, path: Path) -> None:
        """Write every span as one tab-separated line of a gzip file, times
        relative to the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.span_start[0] if self.span_start else 0.0
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\top\tparent\tname\tstart_s\tend_s\n")
            fh.writelines(
                f"{sid}\t{op}\t{parent}\t{names[nid]}\t{start - origin:.9f}\t{end - origin:.9f}\n"
                for sid, (op, parent, nid, start, end) in enumerate(zip(
                    self.span_op, self.span_parent, self.span_name, self.span_start, self.span_end))
            )


# -- counters read where the work happens ---------------------------------------------


def _count_construction(tracer: Tracer, args, result, units) -> None:
    # the atom check builds one bitset per generator, up to the largest one
    tracer.max_scaled_target = max(tracer.max_scaled_target, max(args[0].int_gens))


def _count_contains(tracer: Tracer, args, result, units) -> None:
    # the cover the membership bitset has grown to, which may exceed the target
    tracer.max_scaled_target = max(tracer.max_scaled_target, args[0]._state[0])


def _enumeration(layer: str):
    def hook(tracer: Tracer, args, result, units) -> None:
        tracer.counts[f"{layer}.factorizations"] += len(result)
        tracer.counts[f"{layer}.enum_units"] += units
    return hook


def _count_statements(tracer: Tracer, args, result, units) -> None:
    tracer.counts["dsl.statements"] += len(result)


def _count_box(tracer: Tracer, args, result, units) -> None:
    tracer.counts["lattice2.box_points"] += (2 * args[1] + 1) ** 2


def _count_claims(tracer: Tracer, args, result, units) -> None:
    tracer.counts["reports.claims"] += len(result.claims)


_HOOKS = {
    "monoid.FgMonoid.__init__": _count_construction,
    "monoid.FgMonoid.contains": _count_contains,
    "monoid.FgMonoid.factorizations": _enumeration("monoid"),
    "monoid.FgMonoid.factorizations_of_length": _enumeration("monoid"),
    "families.family_factorizations": _enumeration("families"),
    "families.interval_length_factorizations": _enumeration("families"),
    "dsl.parse": _count_statements,
    "lattice2.lat_atoms_in_box": _count_box,
    "reports.run_paper_example": _count_claims,
}


def layer_metrics(tracer: Tracer, total_s: float, slowdown: float, ops_per_s: float,
                  untraced_ops_per_s: float) -> dict:
    """Every per-layer metric, as {name: (value, unit)}; seconds are divided
    by `slowdown`, the traced pass's reference-kernel scale."""
    calls, seconds = tracer.per_name()
    layer_calls: Counter = Counter()
    for name, n in calls.items():
        layer_calls[tracer.layer_of[name]] += n
    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (layer_calls[layer], "count")
        out[f"{layer}.self_s"] = (tracer.self_s[layer] / slowdown, "s")
        out[f"{layer}.self_share"] = (tracer.self_s[layer] / total_s, "share")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out.update({
        "monoid.budget_units": (tracer.units["monoid"], "unit"),
        "monoid.max_scaled_target": (tracer.max_scaled_target, "count"),
        "monoid.factorizations": (counts["monoid.factorizations"], "count"),
        "monoid.enum_yield": (ratio(counts["monoid.factorizations"], counts["monoid.enum_units"]), "count/unit"),
        "monoid.constructions": (calls["monoid.FgMonoid.__init__"], "count"),
        "monoid.contains_calls": (calls["monoid.FgMonoid.contains"], "count"),
        "families.budget_units": (tracer.units["families"], "unit"),
        "families.factorizations": (counts["families.factorizations"], "count"),
        "families.enum_yield": (ratio(counts["families.factorizations"], counts["families.enum_units"]), "count/unit"),
        "qarith.nth_prime_calls": (calls["qarith.nth_prime"], "count"),
        "lattice2.atoms_in_box_calls": (calls["lattice2.lat_atoms_in_box"], "count"),
        "lattice2.box_points": (counts["lattice2.box_points"], "count"),
        "dsl.statements": (counts["dsl.statements"], "count"),
        "dsl.parse_s": (seconds["dsl.parse"] / slowdown, "s"),
        "dsl.render_s": (seconds["dsl.render"] / slowdown, "s"),
        "reports.claims": (counts["reports.claims"], "count"),
        "trace.overhead_share": (1 - ops_per_s / untraced_ops_per_s, "share"),
    })
    return out
