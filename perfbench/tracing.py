"""Tracing reldet from outside the program.

A traced run swaps selected module attributes (``training.hungarian``,
``model.decoder_forward``, ...) for wrappers that record one span per call,
so no file of the program is instrumented. The wrappers work because the
program looks these names up in its module globals at call time. Spans,
garbage-collector pauses, per-op tape counts and the inputs the off-span
checks need all go to memory and are summarised when the run ends.
"""

from __future__ import annotations

import functools
import gc
import time
from collections import Counter, defaultdict

# (module, attribute, span): every call of module.attribute becomes one span.
# training.forward and model.forward are two bindings of the same function:
# train_step calls the first, the evaluation loop the second.
SPANS = (
    ("training", "forward", "model.forward"),
    ("model", "forward", "model.forward"),
    ("model", "backbone_forward", "model.backbone"),
    ("model", "channel_reduce", "model.reduce"),
    ("model", "encoder_forward", "model.encoder"),
    ("model", "decoder_forward", "model.decoder"),
    ("model", "predict_heads", "model.heads"),
    ("model", "build_knn_graph", "relation.knn"),
    ("model", "aggregate", "relation.aggregate"),
    ("training", "build_cost_matrix", "matching.cost"),
    ("training", "hungarian", "matching.hungarian"),
    ("training", "hungarian_loss_terms", "matching.loss"),
    ("numeric", "backward", "numeric.backward"),
    ("training", "adam_step", "training.adam"),
    ("training", "save_checkpoint", "training.save"),
    ("training", "load_checkpoint", "training.load"),
    ("data", "generate_scene", "data.generate"),
    ("data", "save_dataset", "data.save"),
    ("data", "load_dataset", "data.load"),
    ("evaluation", "extract_detections", "evaluation.extract"),
    ("evaluation", "evaluate_detections", "evaluation.score"),
)

# (module, attribute, counter): calls are counted, without a span, because
# they are too many and too short to time one by one.
COUNTS = (
    ("matching", "box_loss", "geometry.box_loss_calls"),
    ("evaluation", "iou", "geometry.iou_calls"),
)

# tape ops reported one by one; any other op name is summed into "other"
OPS = (
    "add", "sub", "mul", "div", "maximum", "minimum", "neg", "absolute", "relu", "sigmoid", "log",
    "sum_all", "softmax", "layer_norm", "matmul", "transpose", "reshape", "concat", "narrow",
    "take_rows", "take_pairs", "add_rowvec", "im2col",
)

ROOT_SPAN = "scene"  # the benchmark's own span around one train step or one evaluated image


def op_name(record) -> str:
    """The op that recorded a tape entry: an explicit name if the record
    carries one, else the backward rule's ``__qualname__`` prefix."""
    for item in record:
        if isinstance(item, str):
            return item
    for item in record:
        if callable(item):
            return item.__qualname__.split(".", 1)[0]
    return "unknown"


class Tracer:
    """In-memory spans, GC pauses and counters for one phase of a run."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1, scene id]
        self.stack: list[int] = []
        self.scene = None
        self.counts: Counter = Counter()
        self.ops: Counter = Counter()
        self.tape_lengths: list[int] = []
        self.tape_sum_mismatches = 0
        self.gc_events: list[tuple] = []  # (generation, start_ns, end_ns, scene id)
        self.assignments: list[tuple] = []  # (cost matrix, hungarian total) for the scipy check
        self.graphs: list = []  # relation graphs, for the mean degree
        self.missing: list[str] = []
        self._restore: list[tuple] = []
        self._gc_start = 0

    # -- spans -------------------------------------------------------------

    def open(self, name: str, scene=None) -> int:
        if scene is not None:
            self.scene = scene
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.scene])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self.stack.pop()
        if not self.stack:
            self.scene = None

    def _span(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(result, args)
            return result

        return traced

    def _count(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- hooks that inspect inputs or results outside the timed span --------

    def _before_backward(self, fn):
        span = self._span("numeric.backward", fn)

        @functools.wraps(fn)
        def traced(loss, *args, **kwargs):
            records = loss.tape.records
            per_op = Counter(op_name(r) for r in records)
            if sum(per_op.values()) != len(loss.tape):
                self.tape_sum_mismatches += 1
            self.ops.update(per_op)
            self.tape_lengths.append(len(loss.tape))
            return span(loss, *args, **kwargs)

        return traced

    def _after_hungarian(self, result, args):
        self.assignments.append((args[0].copy(), result.total_cost))

    def _after_knn(self, graph, args):
        self.graphs.append(graph)

    def mean_degree(self) -> float:
        degrees = [sum(len(g.neighbors(i)) for i in range(g.n)) / g.n for g in self.graphs if g.n]
        return sum(degrees) / len(degrees) if degrees else 0.0

    # -- install / uninstall -----------------------------------------------

    def _swap(self, mod_name, attr, make):
        module = self.modules[mod_name]
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{mod_name}.{attr}")
            return
        self._restore.append((module, attr, fn))
        setattr(module, attr, make(fn))

    def __enter__(self) -> "Tracer":
        after = {"matching.hungarian": self._after_hungarian, "relation.knn": self._after_knn}
        for mod_name, attr, name in SPANS:
            if name == "numeric.backward":
                self._swap(mod_name, attr, self._before_backward)
            else:
                self._swap(mod_name, attr, lambda fn, n=name: self._span(n, fn, after.get(n)))
        for mod_name, attr, name in COUNTS:
            self._swap(mod_name, attr, lambda fn, n=name: self._count(n, fn))
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _on_gc(self, phase, info):
        now = time.perf_counter_ns()
        if phase == "start":
            self._gc_start = now
        else:
            self.gc_events.append((info["generation"], self._gc_start, now, self.scene))

    # -- summaries ---------------------------------------------------------

    def times_ms(self) -> tuple[dict, dict, Counter]:
        """Total inclusive and self milliseconds per span name, and call counts.

        A span's self time is its duration minus that of its direct children;
        children run inside their parent one after another, never overlapping.
        """
        incl: dict = defaultdict(float)
        child: dict = defaultdict(float)
        calls: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            dur = (end - start) / 1e6
            incl[name] += dur
            calls[name] += 1
            if parent >= 0:
                child[parent] += dur
        self_ms: dict = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_ms[name] += (end - start) / 1e6 - child[i]
        return dict(incl), dict(self_ms), calls

    def scene_ms(self) -> dict:
        """Duration of each root scene span, by scene id."""
        return {s[4]: (s[2] - s[1]) / 1e6 for s in self.spans if s[0] == ROOT_SPAN}

    def gc_summary(self, n_scenes: int) -> dict:
        pause = [0.0, 0.0, 0.0]
        count = [0, 0, 0]
        for gen, start, end, _ in self.gc_events:
            pause[gen] += (end - start) / 1e6
            count[gen] += 1
        scenes = self.scene_ms()
        tail = sorted(scenes, key=scenes.get)[-10:]
        gen2_scenes = {scene for gen, _, _, scene in self.gc_events if gen == 2}
        return {
            "numeric.gc_pause_ms": sum(pause) / n_scenes,
            "numeric.gc_gen0_per_1k": 1000.0 * count[0] / n_scenes,
            "numeric.gc_gen1_per_1k": 1000.0 * count[1] / n_scenes,
            "numeric.gc_gen2_per_1k": 1000.0 * count[2] / n_scenes,
            "numeric.gc_gen2_pause_ms": pause[2] / count[2] if count[2] else 0.0,
            "numeric.gc_tail_gen2_frac": sum(s in gen2_scenes for s in tail) / len(tail) if tail else 0.0,
        }


def check_assignments(assignments) -> tuple[bool | None, str]:
    """Compare every recorded Hungarian total with scipy's on the same matrix;
    None when scipy is missing."""
    try:
        from scipy.optimize import linear_sum_assignment
    except ImportError:
        return None, "scipy is not importable"
    worst = 0.0
    for cost, total in assignments:
        rows, cols = linear_sum_assignment(cost)
        ref = float(sum(cost[r, c] for r, c in zip(rows, cols)))
        worst = max(worst, abs(ref - total) / max(1.0, abs(ref)))
    return worst <= 1e-12, f"{len(assignments)} matrices, worst relative gap {worst:.3g} (limit 1e-12)"


def print_table(tracer: Tracer, n_scenes: int) -> None:
    """Per-span calls, inclusive and self ms per scene, and self share of all root time."""
    incl, self_ms, calls = tracer.times_ms()
    roots = sum((s[2] - s[1]) / 1e6 for s in tracer.spans if s[3] < 0)
    print(f"{'span':<22}{'calls':>8}{'incl ms/scene':>15}{'self ms/scene':>15}{'self share':>12}")
    for name in sorted(self_ms, key=self_ms.get, reverse=True):
        print(
            f"{name:<22}{calls[name]:>8}{incl[name] / n_scenes:>15.4f}{self_ms[name] / n_scenes:>15.4f}"
            f"{self_ms[name] / roots if roots else 0.0:>12.1%}"
        )
