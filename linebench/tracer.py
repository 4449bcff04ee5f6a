"""Spans recorded from outside the program.

The tracer replaces each public function of each linenet module, in
every module namespace that binds it (``amc`` imports ``build_emc`` and
``stationary`` from ``emc`` by name), with a wrapper that records a span:
name, start, end and the span that was open when it started.  The
methods ``GF2m.mul`` and ``GeometricMixture.convolve``/``compact`` are
wrapped on their classes.  ``GF2m.mul`` runs hundreds of thousands of
times per coded simulation, so it is counted, not spanned.  Spans stay
in memory until :meth:`Tracer.dump`.  Nothing in the program changes.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

# Layer functions whose results carry a quantity worth summing per call.
# Each extractor maps (result, seconds of the span) to {quantity: value}.
QUANTITIES = {
    "emc.build_emc": lambda r, s: {"states": r.n},
    "emc.stationary": lambda r, s: {"states": int(r.shape[0])},
    "amc.build_amc": lambda r, s: {"states": r.n},
    "rbie.solve_batch": lambda r, s: {"candidates": int(r["capacity"].shape[0]), "sweeps": int(r["iterations"])},
    "dbie.solve": lambda r, s: {"sweeps": r.iterations, "dps_max": r.dps},
    "dbie.dj_distribution": lambda r, s: {"terms": len(r)},
    "delay.delay_profile": lambda r, s: {"pmf_len": int(r.pmf.size)},
    "sim.simulate_feedback": lambda r, s: {"epochs": r.epochs},
    "sim.simulate_delay_fcfs": lambda r, s: {"epochs": r.epochs},
    "netcod.simulate_no_feedback": lambda r, s: {f"q{r.q}.epochs": r.epochs, f"q{r.q}.s": s},
    "allocate.allocate": lambda r, s: {"evaluated": r.evaluated},
}
MAXED = {"dps_max"}  # quantities reported as a maximum, not a sum

# Methods wrapped on their classes: (module, class, method, spanned).
METHODS = (
    ("gf", "GF2m", "mul", False),
    ("mixtures", "GeometricMixture", "convolve", True),
    ("mixtures", "GeometricMixture", "compact", True),
)

# In the CLI only the entry point is a layer; the cmd_* handlers are its
# dispatch, so their time counts as the CLI's own.
CLI_ENTRY = "main"


class Tracer:
    """Install with :meth:`install`, record while ``active``, then :meth:`uninstall`."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index or -1)
        self.counts: dict[str, int] = defaultdict(int)
        self.quantities: dict[str, float] = defaultdict(float)
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith(package.__name__ + ".") and m]
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__ or name.startswith("_"):
                    continue
                if short == "cli" and name != CLI_ENTRY:
                    continue
                wrapper = self._wrap(f"{short}.{name}", fn, spanned=True)
                for other in modules:
                    for bound, obj in list(vars(other).items()):
                        if obj is fn:
                            self._set(other, bound, wrapper)
        for short, cls_name, meth, spanned in METHODS:
            cls = getattr(sys.modules[f"{package.__name__}.{short}"], cls_name)
            fn = vars(cls)[meth]
            self._set(cls, meth, self._wrap(f"{short}.{meth}", fn, spanned=spanned))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _set(self, owner, name, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, name, fn, spanned):
        measure = QUANTITIES.get(name)
        if not spanned:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self.active:
                    self.counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent)
                self.counts[name] += 1
            if measure is not None:
                for q, v in measure(result, end - start).items():
                    key = f"{name}.{q}"
                    if q in MAXED:
                        self.quantities[key] = max(self.quantities[key], v)
                    else:
                        self.quantities[key] += v
            return result
        return wrapper

    # -- results -----------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self seconds per span name.

        A span's self time is its duration minus the durations of its
        direct children.  No public linenet function calls itself, so
        summing spans by name counts no interval twice.
        """
        inclusive: dict[str, float] = defaultdict(float)
        children: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            inclusive[name] += end - start
            own[name] += end - start - children[i]
        return inclusive, own

    def dump(self, path) -> None:
        doc = {
            "fields": ["name", "start", "end", "parent"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "quantities": dict(self.quantities),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
