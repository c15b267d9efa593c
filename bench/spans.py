"""Per-layer spans recorded from outside the package.

instrumented(tracer) swaps each target function for a wrapper in every
qclock module namespace that holds it (so `from .spectral import assemble`
bindings are caught too) and restores the originals on exit. Spans stay in
memory; summary() turns them into per-layer calls and self time, where self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from time import perf_counter

TARGETS = {
    "cli": ("cmd_compile", "cmd_spectrum", "cmd_witness", "cmd_gibbs", "cmd_amplify"),
    "circuit": ("parse_circuit", "apply_gates", "circuit_unitary",
                "accept_probability", "optimal_witness"),
    "clockham": ("compile_circuit", "history_transform", "parse_hamiltonian",
                 "serialize_hamiltonian"),
    "spectral": ("min_eigenvalue", "assemble", "matvec"),
    "witness": ("prepare_witness", "hamiltonian_energy"),
    "thermal": ("gibbs_state", "ground_projector_state", "mean_energy_bound"),
    "qcore": ("DensityMatrix", "partial_trace", "write_matrix"),
    "amplify": ("tail_bounds", "simulate_majority_vote"),
}
SPAN_NAMES = tuple(f"{m}.{f}" for m, funcs in TARGETS.items() for f in funcs)


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index]
        self._stack = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()
        return traced

    def summary(self, ops: int) -> dict:
        """Per-op calls and self seconds per span name, plus matvecs per solve."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
        solves = calls["spectral.min_eigenvalue"]
        solve_matvecs = sum(1 for name, _, _, parent in self.spans
                            if name == "spectral.matvec" and parent >= 0
                            and self.spans[parent][0] == "spectral.min_eigenvalue")
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name] / max(ops, 1), "count/op")
            out[f"{name}.self_s"] = (self_s[name] / max(ops, 1), "s/op")
        out["spectral.matvec.per_solve"] = (solve_matvecs / solves if solves else 0.0, "count")
        return out


@contextmanager
def instrumented(tracer: Tracer):
    modules = [m for name, m in list(sys.modules.items())
               if name == "qclock" or name.startswith("qclock.")]
    patches = []
    try:
        for name in SPAN_NAMES:
            modname, attr = name.split(".")
            module = importlib.import_module(f"qclock.{modname}")
            if name == "qcore.DensityMatrix":
                # a class: the span covers the validation in __post_init__,
                # which runs on every construction
                cls = module.DensityMatrix
                patches.append((cls, "__post_init__", cls.__post_init__))
                cls.__post_init__ = tracer.wrap(name, cls.__post_init__)
                continue
            original = getattr(module, attr)
            wrapped = tracer.wrap(name, original)
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is original]:
                    patches.append((m, key, original))
                    setattr(m, key, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
