"""Outside-in tracing of the cotverify layers.

The tracer wraps functions and methods of the program's modules from the
benchmark's own files; the program's source is not touched.  Each wrapped
call records a span (id, name, start, end, parent span, the op's trace id).
A span's self time is its duration minus the time its child spans cover.
Spans are kept in memory, up to a cap, and written out when the run ends;
the per-layer metrics are accumulated as the calls happen, so the cap never
loses a metric.  The hottest leaf methods are only counted, not timed.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from fractions import Fraction

SPAN_CAP = 200_000

# (module, class or None, attributes, span name).  A function is replaced
# in every cotverify module that binds it, so calls through a
# `from .x import f` name are traced as well.
TIMED = [
    ("dimensions", None, ("ldim_value", "sc_value", "wsc_value", "scl_value"),
     "kernels.value"),
    ("kernels", None, ("ldim_engine", "sc_engine", "wsc_engine", "scl_engine"),
     "kernels.engine"),
    ("dimensions", None, ("ldim", "sc_ldim", "wsc_ldim", "scl_ldim"),
     "dimensions.query"),
    ("dimensions", None, ("_extract_plain", "_extract_sc", "_extract_wsc",
                          "_extract_scl"), "dimensions.witness"),
    ("dimensions", None, ("verify_shattered",), "dimensions.verify"),
    ("core", "VersionSpace", ("restrict_cot",), "core.restrict_cot"),
    ("families", None, ("load_class",), "families.load"),
    ("families", None, ("singleton_bitstring_class", "complement_class",
                        "indicator_class", "river_crossing_class",
                        "product_class", "with_fail_token"),
     "families.build"),
    ("cli", None, ("main",), "cli.main"),
    ("cli", None, ("tree_json", "tree_dot", "emit"), "cli.report"),
    ("learners", None, ("run_online",), "learners.run_online"),
    ("adversary", None, ("play_tree_adversary",), "adversary.play"),
    ("boosting", None, ("alpha_goodness",), "boosting.goodness"),
    ("boosting", None, ("build_vhp",), "boosting.build"),
    ("boosting", None, ("process_example",), "boosting.s1"),
    ("boosting", None, ("test_hypothesis",), "boosting.s2"),
    ("boosting", None, ("evaluate_vhp",), "boosting.eval"),
    ("boosting", "Prover", ("sample",), "boosting.sample"),
]
LEARNERS = ("MajorityVote", "SoundConservative", "RiverCrossingSound", "ScSoa",
            "WscSoa", "SclSoa", "RejectAll", "ConservativeWrapper")
REDUCTIONS = ("CotFromPrefix", "PrefixFromCot")
COUNTED = [
    ("core", "VersionSpace", "restrict", "core.restrict"),
    ("core", "VerifierClass", "cot_label_of", "core.cot_label"),
    ("core", "Oracle", "prefix_label", "core.oracle_prefix_label"),
]

# Per-layer metrics: name -> (unit, better).
PER_LAYER = {
    "kernels.value_s": ("s", "lower"),
    "kernels.value_calls": ("count", "lower"),
    "kernels.nodes_expanded": ("count", "lower"),
    "kernels.memo_hits": ("count", "lower"),
    "kernels.memo_entries": ("count", "lower"),
    "kernels.setup_nodes_expanded": ("count", "lower"),
    "dimensions.witness_s": ("s", "lower"),
    "dimensions.verify_s": ("s", "lower"),
    "dimensions.witness_nodes": ("count", "lower"),
    "core.restrict_calls": ("count", "lower"),
    "core.restrict_cot_s": ("s", "lower"),
    "core.cot_label_calls": ("count", "lower"),
    "families.load_s": ("s", "lower"),
    "families.build_s": ("s", "lower"),
    "cli.report_s": ("s", "lower"),
    "learners.predict_s": ("s", "lower"),
    "learners.update_s": ("s", "lower"),
    "learners.rounds": ("count", "higher"),
    "reductions.predict_s": ("s", "lower"),
    "adversary.play_s": ("s", "lower"),
    "boosting.s1_s": ("s", "lower"),
    "boosting.s2_s": ("s", "lower"),
    "boosting.eval_s": ("s", "lower"),
    "boosting.sample_calls": ("count", "lower"),
    "boosting.sample_s": ("s", "lower"),
    "boosting.goodness_s": ("s", "lower"),
    "boosting.oracle_calls_train": ("count", "lower"),
    "boosting.oracle_calls_test": ("count", "lower"),
    "boosting.oracle_calls_per_run": ("count", "lower"),
    "boosting.s2_tests": ("count", "lower"),
    "boosting.s2_tests_wasted": ("count", "lower"),
    "boosting.train_full_proof": ("count", "higher"),
    "boosting.train_timeout": ("count", "lower"),
    "boosting.train_made_mistake": ("count", "lower"),
    "trace.untraced_ops_per_s": ("op/s", "higher"),
    "trace.traced_ops_per_s": ("op/s", "higher"),
    "trace.overhead": ("x", "lower"),
}

# Per-op metric -> (span name, field): field 0 calls, 1 inclusive s, 2 self s.
# Boosting phases are reported inclusive (phase wall time); the rest as self.
_FROM_SPANS = {
    "kernels.value_s": ("kernels.value", 2),
    "kernels.value_calls": ("kernels.value", 0),
    "dimensions.witness_s": ("dimensions.witness", 2),
    "dimensions.verify_s": ("dimensions.verify", 2),
    "core.restrict_cot_s": ("core.restrict_cot", 2),
    "families.load_s": ("families.load", 2),
    "cli.report_s": ("cli.report", 2),
    "learners.predict_s": ("learners.predict", 2),
    "learners.update_s": ("learners.update", 2),
    "reductions.predict_s": ("reductions.predict", 2),
    "adversary.play_s": ("adversary.play", 2),
    "boosting.s1_s": ("boosting.s1", 1),
    "boosting.s2_s": ("boosting.s2", 1),
    "boosting.eval_s": ("boosting.eval", 1),
    "boosting.sample_calls": ("boosting.sample", 0),
    "boosting.sample_s": ("boosting.sample", 2),
    "boosting.s2_tests": ("boosting.s2", 0),
}
_FROM_COUNTS = {
    "core.restrict_calls": "core.restrict",
    "core.cot_label_calls": "core.cot_label",
}
_TRAIN_OUTCOMES = {
    "full-proof": "boosting.train_full_proof",
    "timeout": "boosting.train_timeout",
    "made-mistake": "boosting.train_made_mistake",
}


def _tree_nodes(tree) -> int:
    count, stack = 0, [tree.root]
    while stack:
        node = stack.pop()
        if node is not None:
            count += 1
            stack.extend(e.child for e in node.edges)
    return count


def s2_wasted(tests, params, mistake_bounds, n2) -> int:
    """Tests run on a snapshot whose error count already exceeds its cap.

    tests is the sequence of (snapshot key, TestResult value) in call
    order.  A snapshot qualifies only if both of its error rates stay
    within 3/4 epsilon M_s/M and 3/4 epsilon M_c/M, so once either count
    passes its cap times |S2| no further test can change the selection.
    """
    m_s, m_c = mistake_bounds
    total = m_s + m_c
    caps = {
        "soundness-mistake": Fraction(3, 4) * params.epsilon * Fraction(m_s, total) * n2,
        "completeness-mistake": Fraction(3, 4) * params.epsilon * Fraction(m_c, total) * n2,
    }
    errors: dict = {}
    wasted = 0
    for key, result in tests:
        seen = errors.setdefault(key, {"soundness-mistake": 0, "completeness-mistake": 0})
        if any(seen[kind] > caps[kind] for kind in caps):
            wasted += 1
        if result in seen:
            seen[result] += 1
    return wasted


class Tracer:
    """Records spans and per-layer metrics for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self._next_span = 0
        self._stack: list[list] = []  # frames: [child seconds, span id]
        self._trace_id = -1
        self._patches: list[tuple] = []
        # Per-op accumulators, cleared in place between ops.
        self._agg: dict[str, list] = {}
        self._counts: dict[str, int] = {}
        self._facts: dict[str, float] = {}
        self._tests: list = []
        # Kernel engines: weakly held once seen, strongly while their op runs.
        self._engines = weakref.WeakSet()
        self._born: list = []
        self._engine_before: dict[int, tuple] = {}
        # Run totals.
        self.ops = 0
        self.totals: dict[str, float] = {}
        self.memo_entries_max = 0
        self.setup: dict[str, float] = {}

    # -- installation -------------------------------------------------

    def install(self, package):
        """Wrap the layers of an imported cotverify package."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == package.__name__
                   or name.startswith(package.__name__ + ".")]
        mod = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for module, owner, attrs, span in TIMED:
            for attr in attrs:
                if owner is None:
                    fn = getattr(mod[module], attr)
                    self._replace_everywhere(
                        modules, fn, self._timed(span, fn, self._observer(span)))
                else:
                    cls = getattr(mod[module], owner)
                    fn = cls.__dict__[attr]
                    self._set(cls, attr, self._timed(span, fn, None))
        for layer, names in (("learners", LEARNERS), ("reductions", REDUCTIONS)):
            for cls_name in names:
                cls = getattr(mod[layer], cls_name)
                for method in ("predict", "update"):
                    fn = cls.__dict__[method]
                    self._set(cls, method,
                              self._timed(f"{layer}.{method}", fn, None))
        for module, owner, attr, name in COUNTED:
            cls = getattr(mod[module], owner)
            self._set(cls, attr, self._counted(name, cls.__dict__[attr]))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, modules, fn, wrapper):
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is fn:
                    self._set(m, attr, wrapper)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- wrappers -----------------------------------------------------

    def _timed(self, name, fn, on_result):
        nid = self._name_id(name)
        stack = self._stack
        agg = self._agg
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = tracer._next_span
            tracer._next_span += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                if stack:
                    stack[-1][0] += duration
                acc = agg.get(name)
                if acc is None:
                    acc = agg[name] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += duration
                acc[2] += duration - frame[0]
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, nid, t0, t1, parent, tracer._trace_id))
                else:
                    tracer.dropped += 1
            if on_result is not None:
                on_result(args, result)
            return result

        return functools.wraps(fn)(wrapper)

    def _counted(self, name, fn):
        counts = self._counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def _observer(self, span):
        return {
            "kernels.engine": self._on_engine,
            "dimensions.witness": self._on_witness,
            "learners.run_online": self._on_transcript,
            "adversary.play": self._on_transcript,
            "boosting.s1": self._on_train,
            "boosting.s2": self._on_test,
            "boosting.build": self._on_build,
        }.get(span)

    def _fact(self, name, amount):
        self._facts[name] = self._facts.get(name, 0) + amount

    def _on_engine(self, args, engine):
        try:
            self._engines.add(engine)
        except TypeError:  # engine type without weak references
            pass
        self._born.append(engine)

    def _on_witness(self, args, tree):
        self._fact("dimensions.witness_nodes", _tree_nodes(tree))

    def _on_transcript(self, args, transcript):
        self._fact("learners.rounds", len(transcript.rounds))

    def _on_train(self, args, result):
        self._fact(_TRAIN_OUTCOMES[result[0].value], 1)

    def _on_test(self, args, result):
        self._tests.append((id(args[3]), result[0].value))

    def _on_build(self, args, vhp):
        report = vhp.report
        self._fact("boosting.oracle_calls_train", report["train_oracle_calls"])
        self._fact("boosting.oracle_calls_test", report["test_oracle_calls"])
        self._fact("boosting.oracle_calls_per_run",
                   report["train_oracle_calls"] + report["test_oracle_calls"])
        self._fact("boosting.s2_tests_wasted",
                   s2_wasted(self._tests, args[2], args[5], report["s2_size"]))
        self._tests.clear()

    # -- ops ----------------------------------------------------------

    def begin(self, trace_id: int, name: str):
        """Open the root span of one op (or of a set-up)."""
        self._agg.clear()
        self._counts.clear()
        self._facts.clear()
        self._born.clear()
        self._engine_before = {id(e): tuple(e.stats()) for e in self._engines}
        self._trace_id = trace_id
        self._root_name = name
        self._root_id = self._next_span
        self._next_span += 1
        self._stack.append([0.0, self._root_id])
        self._root_start = time.perf_counter()

    def end(self) -> dict:
        """Close the op's root span; return the op's per-layer figures."""
        t1 = time.perf_counter()
        self._stack.pop()
        if len(self.spans) < SPAN_CAP:
            self.spans.append((self._root_id, self._name_id(self._root_name),
                               self._root_start, t1, -1, self._trace_id))
        else:
            self.dropped += 1
        figures = {m: self._agg.get(span, (0, 0.0, 0.0))[field]
                   for m, (span, field) in _FROM_SPANS.items()}
        figures.update({m: self._counts.get(c, 0) for m, c in _FROM_COUNTS.items()})
        figures.update(self._facts)
        nodes = hits = memo = 0
        born = {id(e): e for e in self._born}
        touched = {id(e): e for e in self._engines}
        touched.update(born)
        for key, engine in touched.items():
            n0, h0 = (0, 0) if key in born else self._engine_before.get(key, (0, 0))
            n1, h1 = engine.stats()
            if key in born or (n1, h1) != (n0, h0):
                memo += len(getattr(engine, "memo", ()))
            nodes += n1 - n0
            hits += h1 - h0
        figures["kernels.nodes_expanded"] = nodes
        figures["kernels.memo_hits"] = hits
        figures["kernels.memo_entries"] = memo
        self._born.clear()
        self._trace_id = -1
        return figures

    def add_op(self, figures: dict):
        self.ops += 1
        for m, v in figures.items():
            if m == "kernels.memo_entries":
                self.memo_entries_max = max(self.memo_entries_max, v)
            else:
                self.totals[m] = self.totals.get(m, 0) + v

    def end_setup(self):
        """Close a set-up's root span and keep its figures."""
        build = self._agg.get("families.build", (0, 0.0, 0.0))[2]
        goodness = self._agg.get("boosting.goodness", (0, 0.0, 0.0))[1]
        figures = self.end()
        self.setup = {
            "families.build_s": build,
            "boosting.goodness_s": goodness,
            "kernels.setup_nodes_expanded": figures["kernels.nodes_expanded"],
        }

    # -- output -------------------------------------------------------

    def metrics(self, untraced_ops_per_s: float, traced_ops_per_s: float) -> dict:
        """Every per-layer metric: per-op means over the traced ops, the
        largest memo seen, the set-up figures and the tracing overhead."""
        ops = max(self.ops, 1)
        out = {}
        for name, (unit, _better) in PER_LAYER.items():
            if name in self.setup:
                value = self.setup[name]
            elif name == "kernels.memo_entries":
                value = self.memo_entries_max
            elif name.startswith("trace."):
                continue
            else:
                value = self.totals.get(name, 0) / ops
            out[name] = {"value": value, "unit": unit}
        out["trace.untraced_ops_per_s"] = {"value": untraced_ops_per_s, "unit": "op/s"}
        out["trace.traced_ops_per_s"] = {"value": traced_ops_per_s, "unit": "op/s"}
        out["trace.overhead"] = {
            "value": untraced_ops_per_s / traced_ops_per_s if traced_ops_per_s else 0.0,
            "unit": "x",
        }
        return out

    def write(self, path):
        with open(path, "w") as f:
            json.dump({
                "names": self.names,
                "fields": ["span", "name", "start_s", "end_s", "parent", "trace"],
                "spans": self.spans,
                "dropped_spans": self.dropped,
            }, f)
