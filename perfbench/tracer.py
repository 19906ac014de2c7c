"""Span tracing for the kposet layers, installed from outside the package.

`install()` wraps the public functions of every layer module and four
`PosetInstance` methods plus `Evaluator.__call__` on their classes. A name
is replaced in every kposet module that holds it, because `complexity`,
`vm` and `cli` call most of their hot functions through `from .x import y`
bindings that patching the defining module alone would miss.

Each call opens a span on a stack. When it closes, its duration and self
time (duration minus the time its child spans cover) are folded into one
[calls, total_s, self_s] record per span name. The estimate workload makes
millions of calls, so the spans are aggregated as they close instead of
being kept one by one. Result hooks add the deterministic counters the
layer metrics need (steps charged, parses that succeed, rows filled).

`layer_metrics()` turns the records of one or more commands into the
per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("cli", "complexity", "vm", "codec", "limits", "posets", "analysis", "automata")

# Methods are wrapped on their class, so an instance built by reverse() --
# which copies the inner callables -- is counted once per call.
CLASS_METHODS = {
    "posets": ("PosetInstance", ("leq", "lt", "unrank", "rank")),
    "limits": ("Evaluator", ("__call__",)),
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self.distinct: dict[str, set] = {}
        self._stack: list[list[float]] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn, hook=None):
        record = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                record[0] += 1
                record[1] += duration
                record[2] += duration - child[0]
                if stack:
                    stack[-1][0] += duration
            if hook is not None:
                hook(self, result)
            return result

        return traced

    def snapshot(self) -> dict:
        counters = dict(self.counters)
        for name, seen in self.distinct.items():
            counters[name] = len(seen)
        return {"spans": self.stats, "counters": counters}


# ------------------------------------------------------------ result hooks


def _parsed(tr, instrs):
    tr.count("vm.parse_ok", instrs is not None)


def _ran(tr, res):
    tr.count("vm.steps_charged", res.steps_used)
    tr.count("vm.halted", res.halted)


def _decoded(tr, dec):
    tr.count("codec.decode_ok", dec is not None)


def _reported(tr, report):
    tr.count("limits.stabilized", report.status == "stabilized-within-budget")


def _rows(attr, key):
    def hook(tr, table):
        tr.count(key, sum(1 for row in table.rows.values() if getattr(row, attr) is not None))
        if attr != "k_plain":
            tr.count("complexity.censored_ranks", len(table.censored))

    return hook


def _canonical(tr, dfa):
    tr.distinct.setdefault("automata.distinct", set()).add(dfa)


HOOKS = {
    "vm.parse_program": _parsed,
    "vm.run_emitting": _ran,
    "vm.run_raw": _ran,
    "codec.decode_padded": _decoded,
    "limits.limit_report_from_trace": _reported,
    "complexity.k_plain_table": _rows("k_plain", "complexity.plain_rows_filled"),
    "complexity.k_max_table": _rows("k_max", "complexity.max_rows_filled"),
    "complexity.k_min_table": _rows("k_min", "complexity.min_rows_filled"),
    "automata.to_canonical_dfa": _canonical,
    "automata.canonicalize_dfa": _canonical,
}


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ != module.__name__ or inspect.isgeneratorfunction(obj):
            continue  # a generator's body runs in its consumer's span
        yield name, obj


def install(tracer: Tracer) -> None:
    """Wrap every layer below `cli`; the caller wraps `cli.main` itself."""
    import importlib

    modules = {layer: importlib.import_module(f"kposet.{layer}") for layer in LAYERS}
    replaced: dict[int, object] = {}
    for layer, module in modules.items():
        if layer == "cli":
            continue
        for name, fn in _public_functions(module):
            span = f"{layer}.{name}"
            replaced[id(fn)] = tracer.wrap(span, fn, HOOKS.get(span))
        if layer in CLASS_METHODS:
            cls_name, methods = CLASS_METHODS[layer]
            cls = getattr(module, cls_name)
            for name in methods:
                fn = vars(cls)[name]
                setattr(cls, name, tracer.wrap(f"{layer}.{cls_name}.{name}", fn))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "kposet" and not mod_name.startswith("kposet."):
            continue
        for name, obj in list(vars(module).items()):
            wrapper = replaced.get(id(obj))
            if wrapper is not None:
                setattr(module, name, wrapper)


# ------------------------------------------------------------ layer metrics


def merge(snapshots) -> dict:
    """Sum the span records and counters of several commands."""
    spans: dict[str, list] = {}
    counters: dict[str, int] = {}
    for snap in snapshots:
        for name, (calls, total, self_s) in snap["spans"].items():
            rec = spans.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for name, value in snap["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return {"spans": spans, "counters": counters}


def self_time_by_layer(merged: dict) -> dict[str, float]:
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for name, (_, _, self_s) in merged["spans"].items():
        by_layer[name.split(".")[0]] += self_s
    return by_layer


CLI_COMMANDS = ("estimate", "diagonal", "conditions", "dilworth", "bb", "cardre", "interact", "quotient")


def layer_metrics(merged: dict) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) for every per-layer metric."""
    spans = merged["spans"]
    counters = merged["counters"]

    def calls(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_s(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[2] for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    def c(name):
        return counters.get(name, 0)

    runs = ("vm.run_emitting", "vm.run_raw")
    tm = ("vm.run_tm", "vm.busy_beaver_row", "vm.busy_beaver_bb")
    canonical = ("automata.to_canonical_dfa", "automata.canonicalize_dfa")
    codec = [n for n in spans if n.startswith("codec.")]
    by_layer = self_time_by_layer(merged)
    out: dict[str, tuple[float, str]] = {}
    for command in CLI_COMMANDS:
        out[f"cli.{command}_s"] = (total(f"cli.{command}"), "s")
    for layer in ("cli", "complexity", "vm", "limits", "analysis", "automata"):
        out[f"{layer}.self_s"] = (by_layer[layer], "s")
    out.update({
        "complexity.plain_scan_s": (total("complexity.k_plain_table"), "s"),
        "complexity.max_scan_s": (total("complexity.k_max_table"), "s"),
        "complexity.min_scan_s": (total("complexity.k_min_table"), "s"),
        "complexity.verify_s": (total("complexity.verify_table"), "s"),
        "complexity.wrap_s": (total("complexity.measure_wrap_constant"), "s"),
        "complexity.render_s": (self_s("complexity.hierarchy_report"), "s"),
        "complexity.diagonal_s": (total("complexity.diagonal_hard"), "s"),
        "complexity.plain_rows_filled": (c("complexity.plain_rows_filled"), "count"),
        "complexity.max_rows_filled": (c("complexity.max_rows_filled"), "count"),
        "complexity.min_rows_filled": (c("complexity.min_rows_filled"), "count"),
        "complexity.censored_ranks": (c("complexity.censored_ranks"), "count"),
        "vm.parse_calls": (calls("vm.parse_program"), "count"),
        "vm.parse_ok_ratio": (ratio(c("vm.parse_ok"), calls("vm.parse_program")), "ratio"),
        "vm.parse_s": (self_s("vm.parse_program"), "s"),
        "vm.runs": (calls(*runs), "count"),
        "vm.run_s": (self_s(*runs), "s"),
        "vm.steps_charged": (c("vm.steps_charged"), "count"),
        "vm.halted_ratio": (ratio(c("vm.halted"), calls(*runs)), "ratio"),
        "vm.steps_per_s": (ratio(c("vm.steps_charged"), self_s(*runs)), "1/s"),
        "vm.tm_machines": (calls("vm.run_tm"), "count"),
        "vm.tm_s": (self_s(*tm), "s"),
        "codec.calls": (calls(*codec), "count"),
        "codec.s": (self_s(*codec), "s"),
        "codec.decode_ok_ratio": (ratio(c("codec.decode_ok"), calls("codec.decode_padded")), "ratio"),
        "limits.report_calls": (calls("limits.limit_report_from_trace"), "count"),
        "limits.report_s": (self_s("limits.limit_report_from_trace"), "s"),
        "limits.stabilized_ratio": (
            ratio(c("limits.stabilized"), calls("limits.limit_report_from_trace")), "ratio"),
        "limits.budgeted_limit_calls": (calls("limits.budgeted_limit"), "count"),
        "limits.budgeted_limit_s": (self_s("limits.budgeted_limit"), "s"),
        "limits.evaluator_calls": (calls("limits.Evaluator.__call__"), "count"),
        "posets.leq_calls": (calls("posets.PosetInstance.leq", "posets.PosetInstance.lt"), "count"),
        "posets.unrank_calls": (calls("posets.PosetInstance.unrank"), "count"),
        "posets.rank_calls": (calls("posets.PosetInstance.rank"), "count"),
        "posets.s": (by_layer["posets"], "s"),
        "analysis.search_s": (self_s("analysis.check_star", "analysis.check_dagger"), "s"),
        "analysis.cover_calls": (calls("analysis.min_chain_cover"), "count"),
        "analysis.cover_s": (self_s("analysis.min_chain_cover"), "s"),
        "analysis.antichain_s": (self_s("analysis.max_antichain"), "s"),
        "analysis.family_s": (self_s("analysis.chain_antichain_family", "analysis.family_posets"), "s"),
        "analysis.fragment_s": (self_s("analysis.order_pair_fragment"), "s"),
        "automata.canonical_calls": (calls(*canonical), "count"),
        "automata.canonical_s": (self_s(*canonical), "s"),
        "automata.distinct_ratio": (ratio(c("automata.distinct"), calls(*canonical)), "ratio"),
        "automata.leq_calls": (calls("automata.language_leq"), "count"),
        "automata.leq_s": (self_s("automata.language_leq"), "s"),
        "automata.quotient_s": (self_s("automata.quotient", "automata.quotient_evaluator"), "s"),
        "automata.regex_render_s": (self_s("automata.canonical_regex", "automata.render_ast"), "s"),
    })
    return out
