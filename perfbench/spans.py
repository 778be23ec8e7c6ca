"""Outside-in tracer for btem.

The tracer times btem's layers without touching its source: it wraps
each public function (the names in a layer module's ``__all__``) and
installs the wrapper at every module attribute that refers to the
function, because that attribute is where callers look it up.  ``em``
imports ``as_binary`` by name, ``metrics`` imports ``e_step`` and so on;
patching ``core.as_binary`` alone would miss those calls.

Each wrapped call records a span: id, name, start, end, parent span,
root span (the trial, fit or CLI call it belongs to), thread id and the
exception type if it raised.  Functions called once per example only
bump a counter, since a span would cost more than the call.  Spans stay
in memory until ``write`` puts them in a file.
"""

import functools
import gzip
import importlib
import itertools
import json
import sys
import threading
import time
import types
from collections import Counter, defaultdict

LAYERS = ("sampler", "core", "em", "metrics", "theory", "harness")
COUNT_ONLY = frozenset({"sampler.child_seed", "sampler.child_stream",
                        "sampler.sample_example"})


def _size_as_binary(args, kwargs, result):
    return {"bytes": getattr(args[0], "nbytes", 0)}


def _size_l1_cross(args, kwargs, result):
    m, n = args[0].shape
    r = result.shape[1]
    # the uint8 input, its float64 copy, the templates and the output
    return {"bytes": m * n * (args[0].itemsize + 8) + r * n * 8 + m * r * 8,
            "flops": 2 * m * n * r}


def _size_rows(args, kwargs, result):
    return {"rows": result.m}


# Work counts derived from argument and result shapes.
SIZERS = {
    "core.as_binary": _size_as_binary,
    "core.l1_cross_matrix": _size_l1_cross,
    "sampler.sample_dataset": _size_rows,
    "sampler.load_dataset": _size_rows,
}


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []
        self.registered = False


class Tracer:
    """Context manager that patches btem while active and restores it on exit."""

    def __init__(self):
        self.spans = []  # (sid, name, start, end, parent, root, thread, error)
        self._tallies = []  # (calls, sizes) Counters, one pair per thread
        self._local = _ThreadState()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches = []

    # -- installation ---------------------------------------------------

    def __enter__(self):
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"btem.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if isinstance(fn, types.FunctionType):
                    targets[fn] = self._wrap(fn, f"{layer}.{attr}")
        cli = importlib.import_module("btem.cli")
        targets[cli.main] = self._wrap(cli.main, "cli", name_from_argv=True)
        callers = [mod for name, mod in sys.modules.items()
                   if name == "btem" or name.startswith("btem.")]
        for mod in callers:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in targets:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, targets[value])
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()
        return False

    def _thread(self):
        local = self._local
        if not local.registered:
            local.calls, local.sizes = Counter(), Counter()
            with self._lock:
                self._tallies.append((local.calls, local.sizes))
            local.registered = True
        return local

    def _wrap(self, fn, name, name_from_argv=False):
        tracer = self
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer._thread().calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        sizer = SIZERS.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            local = tracer._thread()
            label = f"{name}.{args[0][0]}" if name_from_argv else name
            sid = next(tracer._ids)
            stack = local.stack
            parent = stack[-1] if stack else None
            root = stack[0] if stack else sid
            stack.append(sid)
            error = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, label, t0, t1, parent, root,
                                     threading.get_ident(), error))
            if sizer is not None:
                for key, value in sizer(args, kwargs, result).items():
                    local.sizes[f"{name}.{key}"] += value
            return result
        return spanned

    # -- reading --------------------------------------------------------

    def _merged(self, which):
        total = Counter()
        with self._lock:
            for tally in self._tallies:
                total.update(tally[which])
        return total

    @property
    def sizes(self):
        """Shape-derived work counts, keyed "<span name>.<quantity>"."""
        return self._merged(1)

    def summary(self):
        """Per span name: calls, inclusive seconds, self seconds, errors."""
        child_time = Counter()
        for _, _, t0, t1, parent, _, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                   "errors": Counter()})
        for sid, name, t0, t1, _, _, _, error in self.spans:
            row = out[name]
            row["calls"] += 1
            row["s"] += t1 - t0
            row["self_s"] += t1 - t0 - child_time[sid]
            if error:
                row["errors"][error] += 1
        for name, calls in self._merged(0).items():
            out[name]["calls"] += calls
        return out

    def busy_s(self, name, start, end):
        """Summed duration of the spans called name that start in [start, end]."""
        return sum(t1 - t0 for _, n, t0, t1, _, _, _, _ in self.spans
                   if n == name and start <= t0 <= end)

    def write(self, path):
        """Write the spans as gzipped JSON lines, one span per line."""
        keys = ("id", "name", "start", "end", "parent", "root", "thread", "error")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
