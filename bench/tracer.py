"""Span wrappers around opfold's public functions, for the traced run.

`Tracer.installed()` swaps every binding of each traced function (the
defining module, re-exports such as `opfold.multiply`, and names other
modules imported with `from ... import`) for a wrapper that records one
span per call: name, start, end and the parent span. Leaving the block
puts the original objects back, so untraced batches run the program as
shipped. Spans stay in memory until the caller writes them out.
"""

import contextlib
import functools
import importlib
import sys
import time

# (layer.function, module that defines the binding the program calls,
# attribute); kernel.fold_multiply is whichever lane _kernel selected
TRACED = (
    ("rng.default_rng", "numpy.random", "default_rng"),
    ("bitnum.random_bitnum", "opfold.bitnum", "random_bitnum"),
    ("folding.multiply", "opfold.folding", "multiply"),
    ("kernel.fold_multiply", "opfold._kernel", "fold_multiply"),
    ("folding.split", "opfold.folding", "split"),
    ("folding.characteristic_vectors", "opfold.folding",
     "characteristic_vectors"),
    ("density.bernoulli_block", "opfold.density", "bernoulli_block"),
    ("density.simulate_split", "opfold.density", "simulate_split"),
    ("density.simulate_tree", "opfold.density", "simulate_tree"),
    ("baselines.classical_multiply", "opfold.baselines",
     "classical_multiply"),
    ("baselines.csd_recode", "opfold.baselines", "csd_recode"),
    ("baselines.csd_multiply", "opfold.baselines", "csd_multiply"),
    ("costmodel.measure_mean", "opfold.costmodel", "measure_mean"),
    ("cli.main", "opfold.cli", "main"),
)

LEDGER_FIELDS = ("accumulate_adds", "combine_adds", "horner_adds")


def bindings():
    """[(name, module, attribute, original)] for every traced binding."""
    modules = [m for key, m in sorted(sys.modules.items())
               if key == "opfold" or key.startswith("opfold.")]
    modules.append(importlib.import_module("numpy.random"))
    out = []
    for name, module_name, attr in TRACED:
        original = getattr(importlib.import_module(module_name), attr)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    out.append((name, module, key, original))
    return out


class Tracer:
    """Collects spans and ledger sums while its wrappers are installed."""

    def __init__(self):
        self.names = [name for name, _, _ in TRACED]
        self.spans = []  # (name index, start ns, end ns, parent or -1)
        self.ledger = dict.fromkeys(LEDGER_FIELDS, 0)
        self._stack = []
        self._bindings = bindings()
        wrappers = {}
        for name, _, _, original in self._bindings:
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(
                    self.names.index(name), original,
                    name == "folding.multiply")
        self._wrappers = wrappers

    def _wrap(self, name_id, fn, count_ledger):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        ledger = self.ledger

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name_id, start, end, parent)
            if count_ledger:
                led = result[1]
                for field in LEDGER_FIELDS:
                    ledger[field] += getattr(led, field)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Run the block with every traced binding wrapped."""
        try:
            for _, module, key, original in self._bindings:
                setattr(module, key, self._wrappers[id(original)])
            yield self
        finally:
            for _, module, key, original in self._bindings:
                setattr(module, key, original)

    def originals_restored(self):
        """True when every traced binding holds its original object."""
        return all(getattr(module, key) is original
                   for _, module, key, original in self._bindings)

    def layer_totals(self):
        """{name: (calls, self ns)}; self = duration minus direct children."""
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        child_ns = [0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for sid, (name_id, start, end, _) in enumerate(self.spans):
            calls[name_id] += 1
            self_ns[name_id] += end - start - child_ns[sid]
        return {name: (calls[i], self_ns[i])
                for i, name in enumerate(self.names)}
