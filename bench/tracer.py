"""Span tracing of netrecon from outside the package.

`Tracer.install()` replaces the public functions listed in `TRACED` with
wrappers that record one span per call: name, start, end, parent span and
process id. netrecon modules import each other's functions by name (for
example `train.py` does `from .network import backward_mse`), so every module
attribute that holds the original function is replaced, not only the one in
the defining module; calls made inside the package are then traced too.

Forked pool workers inherit the installed wrappers. A process that finds
itself forked starts a fresh span buffer and appends it to
`<trace_dir>/spans-<pid>.jsonl` each time its outermost span ends. CLI stage
subprocesses are started through `launch.py`, which installs a tracer and
writes its spans to the same directory. `load_spans` gathers every file and
`span_stats` computes per-name call counts, total time and self time.

Each tracer also clocks its own cost: the time its wrappers spend outside the
calls they wrap (span bookkeeping, span attributes, writing span files). A
span file ends each batch with the process's running total.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# module -> public functions wrapped by the tracer. `fit_mse` and `_fit` are
# deliberately absent, so the self time of train_student and fine_tune is the
# optimizer loop's own overhead (shuffling, batch gathering, scheduling).
TRACED = {
    "network": ("forward", "backward_mse", "backprop_from_dout", "mse_loss",
                "activation", "activation_prime", "load_mlp", "save_mlp"),
    "train": ("adam_step", "train_student", "train_teacher", "query_teacher",
              "train_ensemble"),
    "augment": ("build",),
    "data": ("save_queryset", "load_queryset", "load_idx"),
    "reconstruct": ("extract_neurons", "cluster_neurons", "collapse", "fine_tune",
                    "evaluate_reconstruction"),
    "metrics": ("scatter_table", "preactivation_variability",
                "preactivation_histogram"),
    "cli": ("cmd_train_teacher", "cmd_build_queries", "cmd_train_students",
            "cmd_reconstruct"),
}


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Attributes recorded per span, computed from the call's arguments and result.
def _attrs_backward_mse(args, kwargs, result):
    net, X = args[0], args[1]
    B = X.shape[0]
    # forward X@W.T and h@A.T, backward dout.T@h, dout@A and dpre.T@X
    return {"flop": 4 * B * net.d * net.r + 6 * B * net.r * net.c}


def _attrs_history(args, kwargs, result):
    history = result[1]
    return {"steps": history[-1][0] if history else 0,
            "evals": max(len(history) - 1, 0)}


def _attrs_build(args, kwargs, result):
    return {"rows": int(result.inputs.shape[0]), "bytes": int(result.inputs.nbytes)}


def _attrs_path_arg(args, kwargs, result):
    return {"bytes": _file_bytes(args[0])}


def _attrs_path_second(args, kwargs, result):
    return {"bytes": _file_bytes(args[1])}


def _attrs_clusters(args, kwargs, result):
    n = len(args[0])
    return {"neurons": n, "clusters": len(result.clusters),
            "accepted": int(sum(result.accepted)), "matrix_bytes": n * n * 8}


ATTRS = {
    "network.backward_mse": _attrs_backward_mse,
    "network.load_mlp": _attrs_path_arg,
    "data.load_queryset": _attrs_path_arg,
    "data.save_queryset": _attrs_path_second,
    "train.train_student": _attrs_history,
    "reconstruct.fine_tune": _attrs_history,
    "augment.build": _attrs_build,
    "reconstruct.cluster_neurons": _attrs_clusters,
}
# spans that also record the process's peak-RSS high-water mark before and after
RSS_SPANS = ("reconstruct.cluster_neurons",)


class Tracer:
    """Records spans in memory; forked children write theirs to `trace_dir`."""

    def __init__(self, trace_dir, root_parent: str | None = None):
        self.trace_dir = Path(trace_dir)
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[str] = [root_parent] if root_parent else []
        self.base_depth = len(self.stack)
        self.forked = False
        self.seq = 0
        self.overhead_s = 0.0
        self._restore: list[tuple[object, str, object]] = []

    def _adopt_fork(self):
        """First call in a forked child: drop the parent's buffer, keep its open spans as parents."""
        self.pid = os.getpid()
        self.spans = []
        self.base_depth = len(self.stack)
        self.forked = True
        self.seq = 0
        self.overhead_s = 0.0

    def flush(self):
        """Append the buffered spans, then this process's tracer overhead so far."""
        if not self.spans:
            return
        t0 = time.perf_counter()
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        with open(self.trace_dir / f"spans-{self.pid}.jsonl", "a", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
            self.spans = []
            self.overhead_s += time.perf_counter() - t0
            f.write(json.dumps({"pid": self.pid, "overhead_s": self.overhead_s}) + "\n")

    @contextmanager
    def span(self, name: str, track_rss: bool = False):
        """Record one span around the body; yields the span dict for extra attributes."""
        if os.getpid() != self.pid:
            self._adopt_fork()
        sid = f"{self.pid}.{self.seq}"
        self.seq += 1
        span = {"name": name, "id": sid, "parent": self.stack[-1] if self.stack else None,
                "pid": self.pid}
        self.stack.append(sid)
        if track_rss:
            span["rss_before_mb"] = _maxrss_mb()
        span["start"] = time.perf_counter()
        try:
            yield span
        except BaseException as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            span["end"] = time.perf_counter()
            if track_rss:
                span["rss_after_mb"] = _maxrss_mb()
            self.stack.pop()
            self.spans.append(span)

    def wrap(self, name: str, fn):
        attrs_fn = ATTRS.get(name)
        track_rss = name in RSS_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_enter = time.perf_counter()
            call_s = 0.0
            try:
                with self.span(name, track_rss) as span:
                    call_start = time.perf_counter()
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        call_s = time.perf_counter() - call_start
                    if attrs_fn is not None:
                        span.update(attrs_fn(args, kwargs, result))
                    return result
            finally:
                self.overhead_s += time.perf_counter() - t_enter - call_s
                if self.forked and len(self.stack) == self.base_depth:
                    self.flush()

        return traced

    def install(self) -> None:
        """Wrap every TRACED function wherever a netrecon module holds a reference to it."""
        modules = {name: importlib.import_module(f"netrecon.{name}") for name in TRACED}
        holders = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "netrecon" or key.startswith("netrecon."))]
        for mod_name, names in TRACED.items():
            for fn_name in names:
                original = getattr(modules[mod_name], fn_name)
                wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._restore.append((holder, attr, original))
                            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore = []


def load_spans(tracer: Tracer) -> tuple[list[dict], float]:
    """Every span of a traced run, and the tracer overhead summed over its processes."""
    spans = list(tracer.spans)
    overhead = {tracer.pid: tracer.overhead_s}
    for path in sorted(tracer.trace_dir.glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as f:
            for line in f:
                if not line.strip():
                    continue
                record = json.loads(line)
                if "overhead_s" in record:  # a running total: the last one counts
                    overhead[record["pid"]] = record["overhead_s"]
                else:
                    spans.append(record)
    return spans, sum(overhead.values())


def span_stats(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total seconds and self seconds.

    Self time is a span's duration minus the durations of its direct children
    in the same process; work a span hands to another process (a pool worker,
    a CLI subprocess) runs concurrently and is not subtracted.
    """
    child_time: dict[str, float] = {}
    pid_of = {s["id"]: s["pid"] for s in spans}
    for s in spans:
        parent = s["parent"]
        if parent is not None and pid_of.get(parent) == s["pid"]:
            child_time[parent] = child_time.get(parent, 0.0) + s["end"] - s["start"]
    stats: dict[str, dict] = {}
    for s in spans:
        st = stats.setdefault(s["name"], {"calls": 0, "s": 0.0, "self_s": 0.0})
        dur = s["end"] - s["start"]
        st["calls"] += 1
        st["s"] += dur
        st["self_s"] += dur - child_time.get(s["id"], 0.0)
    return stats
