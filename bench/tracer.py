"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public functions of the ``interfero`` package from the
outside.  A function can be reached through several names: ``characterize``
imports ``fit_curve`` by name and ``harness`` imports ``characterize_dataset``
by name, so replacing ``curvefit.fit_curve`` alone would miss every call made
through those bindings.  ``install`` therefore replaces the function object at
every module attribute of the package that refers to it, and ``uninstall``
puts every one back.

Each call records one span: [name, start, end, parent index, op id, error
class].  Spans stay in memory until ``write_jsonl`` is called at exit.  A
layer's self time is its span duration minus the durations of its direct
child spans.
"""
import functools
import json
import sys
import time
from collections import defaultdict

PACKAGE = "interfero"
_NAME, _START, _END, _PARENT, _OP, _ERROR = range(6)


class Tracer:
    def __init__(self, targets):
        """``targets`` lists "module.function" names inside the package."""
        self.targets = list(targets)
        self.spans = []
        self.op_id = None
        self.counters = defaultdict(float)
        self._stack = []
        self._patched = []
        self._observers = {
            "curvefit.fit_curve": self._observe_fit,
            "characterize.bootstrap": self._observe_bootstrap,
        }

    # -- patching -----------------------------------------------------------
    def install(self):
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None and (name == PACKAGE or
                                           name.startswith(PACKAGE + "."))]
        for target in self.targets:
            mod_name, func_name = target.rsplit(".", 1)
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            original = getattr(home, func_name)
            wrapper = self._wrap(target, original)
            bound = 0
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
                        bound += 1
            if not bound:
                raise RuntimeError(f"trace target {target} has no binding")

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def _wrap(self, name, fn):
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self.op_id, None]
            self.spans.append(span)
            self._stack.append(idx)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                span[_ERROR] = type(err).__name__
                raise
            finally:
                span[_END] = time.perf_counter()
                self._stack.pop()
                if observe is not None:
                    observe(args, kwargs, result, exc)

        return wrapper

    # -- counters read from return values ------------------------------------
    def _observe_fit(self, args, kwargs, result, exc):
        if result is not None:
            starts = result.starts
        else:
            starts = getattr(exc, "details", {}).get("starts", [])
        self.counters["fit_starts"] += len(starts)
        self.counters["fit_converged_starts"] += sum(
            1 for s in starts if s.get("converged"))

    def _observe_bootstrap(self, args, kwargs, result, exc):
        requested = kwargs.get("n_replicates", args[1] if len(args) > 1 else 100)
        self.counters["bootstrap_replicates"] += requested
        if result is not None:
            failed = sum(d.get("count", 0) for d in result.diagnostics
                         if isinstance(d, dict)
                         and d.get("type") == "bootstrap-failures")
        else:
            rate = getattr(exc, "details", {}).get("failure_rate")
            failed = requested if rate is None else round(rate * requested)
        self.counters["bootstrap_failed_replicates"] += failed

    # -- aggregation ------------------------------------------------------------
    def layer_stats(self):
        """{name: {"calls", "self_s", "fails"}} over every recorded span."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] is not None:
                child_time[span[_PARENT]] += span[_END] - span[_START]
        stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "fails": 0})
        for idx, span in enumerate(self.spans):
            entry = stats[span[_NAME]]
            entry["calls"] += 1
            entry["self_s"] += span[_END] - span[_START] - child_time[idx]
            entry["fails"] += span[_ERROR] is not None
        return stats

    def covered_time(self, op_id):
        """Total duration of the root spans recorded under ``op_id``."""
        return sum(s[_END] - s[_START] for s in self.spans
                   if s[_OP] == op_id and s[_PARENT] is None)

    def fired(self):
        return {span[_NAME] for span in self.spans}

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({"name": span[_NAME], "start": span[_START],
                                     "end": span[_END], "parent": span[_PARENT],
                                     "op": span[_OP], "error": span[_ERROR]})
                         + "\n")
