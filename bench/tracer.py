"""Timing wrappers installed from outside the program, and the per-layer
metrics computed from the spans they record.

``Tracer.install`` builds a wrapper for every public function of ``ctlz`` (the names
in ``ctlz.__all__`` plus ``cli.run_command``) and
``enable`` puts it in every ``ctlz.*`` module namespace that binds the
same object, so calls between modules are traced too; ``disable`` puts
the originals back.  Generator functions are left alone: their span
would end before any work is done.  A call made while the same function
is already open on the span stack folds into the outer span, which keeps
recursive walkers from flooding the span log.  ``eval_relation`` on the
domain classes is only counted.

Spans live in memory as parallel arrays (name, start, end, parent,
operation id, phase); self time is a span minus its children.  Counts
that come from return values (windows, automaton states, pool sizes,
sentence nodes) are added as the wrappers return.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# Phases a span can belong to.  Per-layer time, call counts and counts
# from return values come from SETUP and OP spans; error counts also
# include PROBE; REF is reference checking, reported only as the oracle's
# cost.
SETUP, OP, REF, PROBE = 0, 1, 2, 3


def _windows(tracer, span, args, result):
    tracer.count["modelcheck.windows"] += len(result.windows)


def _buchi(tracer, span, args, result):
    tracer.count["modelcheck.buchi_states"] += len(result.states)
    tracer.count["modelcheck.buchi_transitions"] += sum(len(t) for t in result.transitions.values())


def _pool(tracer, span, args, result):
    tracer.count["satsearch.candidate_values.pool_size"] += len(result)


def _sentence(tracer, span, args, result):
    tracer.count["mso.sentence_nodes"] += _tree_size(result, tracer.mso_node)


def _checked(tracer, span, args, result):
    if result:
        tracer.nonempty.add(span)


def _eval_size(tracer, span, args, result):
    tracer.tag[span] = len(args[1].elements)


COUNTERS = {
    "modelcheck.expand_windows": _windows,
    "modelcheck.ltl_to_buchi": _buchi,
    "satsearch.candidate_values": _pool,
    "mso.emit_hom_sentence": _sentence,
    "modelcheck.check_ctlstar": _checked,
    "msoeval.eval_finite": _eval_size,
}


def _tree_size(formula, node_class) -> int:
    """Nodes of an MSO formula counted as a tree (shared subtrees count
    once per occurrence)."""
    total, todo = 0, [formula]
    while todo:
        node = todo.pop()
        total += 1
        for field in dataclasses.fields(node):
            value = getattr(node, field.name)
            if isinstance(value, node_class):
                todo.append(value)
    return total


class Tracer:
    def __init__(self):
        self.names: list = []
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.phase = array("b")
        self.error = array("b")
        self.stack: list = []
        self.open_depth: list = []
        self.current_op = -1
        self.current_phase = None  # None: calls pass through unrecorded
        self.count: dict = defaultdict(float)
        self.nonempty: set = set()
        self.tag: dict = {}
        self.absent: list = []
        self.relation_calls = 0
        self.mso_node = object
        self.patches: list = []  # (namespace, attribute, original, wrapper)
        self.enabled = False

    # -- installation ---------------------------------------------------

    def install(self, package) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))]
        targets = []
        for name in list(package.__all__):
            if not hasattr(package, name):
                self.absent.append(name)
                continue
            targets.append(getattr(package, name))
        self.mso_node = getattr(package, "MsoFormula", object)
        cli = sys.modules.get(package.__name__ + ".cli")
        if cli is not None and hasattr(cli, "run_command"):
            targets.append(cli.run_command)
        else:
            self.absent.append("cli.run_command")
        for fn in targets:
            if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                continue
            layer = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            wrapper = self._wrap(layer, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self.patches.append((module, attr, fn, wrapper))
        domains = sys.modules.get(package.__name__ + ".domains")
        for cls in list(vars(domains).values()) if domains else ():
            if isinstance(cls, type) and "eval_relation" in vars(cls):
                method = vars(cls)["eval_relation"]
                self.patches.append((cls, "eval_relation", method, self._counted(method)))

    def enable(self) -> None:
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)
        self.enabled = True

    def disable(self) -> None:
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)
        self.enabled = False

    def _wrap(self, layer: str, fn):
        nid = len(self.names)
        self.names.append(layer)
        self.open_depth.append(0)
        counter = COUNTERS.get(layer)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.current_phase is None or tracer.open_depth[nid]:
                return fn(*args, **kwargs)
            span = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(span, nid, error=True)
                raise
            tracer._close(span, nid, error=False)
            if counter is not None and tracer.current_phase in (SETUP, OP):
                counter(tracer, span, args, result)
            return result

        return traced

    def _counted(self, method):
        tracer = self

        @functools.wraps(method)
        def counted(*args, **kwargs):
            if tracer.current_phase == OP:
                tracer.relation_calls += 1
            return method(*args, **kwargs)

        return counted

    def _open(self, nid: int) -> int:
        span = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.phase.append(self.current_phase)
        self.error.append(0)
        self.end.append(0.0)
        self.open_depth[nid] += 1
        self.stack.append(span)
        self.start.append(perf_counter())
        return span

    def _close(self, span: int, nid: int, error: bool) -> None:
        self.end[span] = perf_counter()
        self.stack.pop()
        self.open_depth[nid] -= 1
        if error:
            self.error[span] = 1

    # -- aggregation ----------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics keyed by name, as {name: (value, unit)}."""
        n = len(self.name_id)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        errors = defaultdict(int)
        total = defaultdict(float)
        by_size = defaultdict(float)
        oracle_s = 0.0
        find_id = self._id("satsearch.find_model")
        check_id = self._id("modelcheck.check_ctlstar")
        eval_id = self._id("msoeval.eval_finite")
        models_checked = hits = 0
        for i in range(n):
            nid, phase = self.name_id[i], self.phase[i]
            name = self.names[nid]
            own = self.end[i] - self.start[i] - child[i]
            if self.error[i] and phase in (OP, PROBE):
                errors[name] += 1
            if phase == REF and name == "modelcheck.check_ctl_oracle":
                oracle_s += own
            if phase not in (SETUP, OP):
                continue
            calls[name] += 1
            self_s[name] += own
            total[name] += self.end[i] - self.start[i]
            if nid == eval_id:
                by_size[self.tag.get(i, 0)] += own
            if nid == check_id and self._under(i, find_id):
                models_checked += 1
                hits += i in self.nonempty
        out = {}
        for layer in self.names:
            out[f"{layer}.calls"] = (calls[layer], "count")
            out[f"{layer}.self_s"] = (self_s[layer], "s")
            out[f"{layer}.errors"] = (errors[layer], "count")
        for k in range(1, 13):  # the evaluator takes at most 12 elements
            out[f"msoeval.eval_finite.n{k}.self_s"] = (by_size[k], "s")
        find_s = total["satsearch.find_model"]
        out["satsearch.models_checked"] = (models_checked, "count")
        out["satsearch.models_checked_per_s"] = (models_checked / find_s if find_s else 0.0, "1/s")
        out["satsearch.hit_ratio"] = (hits / models_checked if models_checked else 0.0, "ratio")
        pool_calls = calls["satsearch.candidate_values"]
        pool = self.count["satsearch.candidate_values.pool_size"]
        out["satsearch.candidate_values.pool_size"] = (pool / pool_calls if pool_calls else 0.0, "count")
        for key in ("modelcheck.windows", "modelcheck.buchi_states",
                    "modelcheck.buchi_transitions", "mso.sentence_nodes"):
            out[key] = (self.count[key], "count")
        out["domains.eval_relation.calls"] = (self.relation_calls, "count")
        out["modelcheck.check_ctl_oracle.self_s"] = (oracle_s, "s")
        return out

    def _id(self, layer: str) -> int:
        return self.names.index(layer) if layer in self.names else -2

    def _under(self, span: int, ancestor_id: int) -> bool:
        p = self.parent[span]
        while p >= 0:
            if self.name_id[p] == ancestor_id:
                return True
            p = self.parent[p]
        return False

    def span_count(self) -> int:
        return len(self.name_id)
