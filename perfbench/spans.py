"""Span recorder for the traced benchmark run.

Wraps public functions of the gubcover modules from outside the program.
Every call becomes a span (name, start, end, parent span), kept in memory
and written out as JSONL, tagged with the run id, when the run ends.
A function is rebound wherever a gubcover module holds a reference to it,
so callers that imported the name (``driver.wls``, ``weighting.two_fnls``)
reach the wrapper; methods are wrapped on their class.  Private helpers are
left alone.  A target that no longer exists is listed as missing and its
metrics are absent; the run carries on.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute) pairs; "Class.method" wraps the method on the class.
TARGETS = (
    ("io", "read_instance"),
    ("model", "validate"),
    ("model", "coverage_counts"),
    ("model", "penalized_objective"),
    ("model", "Instance.matrix"),
    ("relaxation", "subgradient_method"),
    ("relaxation", "solve_lr"),
    ("localsearch", "greedy_construct"),
    ("localsearch", "two_fnls"),
    ("localsearch", "SearchState.__init__"),
    ("localsearch", "SearchState.trial_flip_down"),
    ("localsearch", "SearchState.undo_trial"),
    ("localsearch", "SearchState.two_flip_delta"),
    ("localsearch", "SearchState.set_weights"),
    ("weighting", "wls"),
    ("weighting", "increase_weights"),
    ("weighting", "decrease_weights"),
    ("reduction", "fix_columns"),
    ("reduction", "apply_fixing"),
    ("reduction", "pseudo_scores"),
    ("reduction", "build_core"),
    ("pathrelink", "walk"),
    ("pathrelink", "draw_pair"),
    ("pathrelink", "ReferenceSet.update"),
    ("driver", "solve"),
    ("driver", "build_id"),
)

# Return values kept for the per-layer extras, reduced to what those need.
KEEP_RETURNS = {
    "relaxation.subgradient_method":
        lambda r: (r.iterations, r.evaluations, r.step_final),
    "weighting.wls": lambda r: r.iterations,
    "weighting.decrease_weights": lambda r: r is None,
    "pathrelink.ReferenceSet.update": bool,
}


class Recorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []   # [name, start, end, parent]; list index = span id
        self.returns: dict[str, list] = {}
        self.wrapped: list[str] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def install(self, targets=TARGETS):
        """Wrap every target that exists; call before the solve runs."""
        for module, attr in targets:
            name = f"{module}.{attr}"
            try:
                mod = importlib.import_module(f"gubcover.{module}")
            except ImportError:
                self.missing.append(name)
                continue
            owner_name, _, member = attr.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name, None)
                orig = vars(owner).get(member) if isinstance(owner, type) else None
                if not callable(orig):
                    self.missing.append(name)
                    continue
                setattr(owner, member, self._wrap(name, orig))
            else:
                orig = getattr(mod, member, None)
                if not callable(orig):
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, orig)
                for loaded in [m for k, m in sys.modules.items()
                               if k == "gubcover" or k.startswith("gubcover.")]:
                    for key, value in list(vars(loaded).items()):
                        if value is orig:
                            setattr(loaded, key, wrapper)
            self.wrapped.append(name)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep = KEEP_RETURNS.get(name)
        kept = self.returns.setdefault(name, []) if keep else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if kept is not None:
                kept.append(keep(out))
            return out

        return wrapper

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        out = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def layers(self) -> dict[str, dict]:
        """{name: {"calls", "self_s"}} for every wrapped target, called or not."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.wrapped}
        for (name, *_), own in zip(self.spans, self.self_times()):
            out[name]["calls"] += 1
            out[name]["self_s"] += own
        return out

    def subtree_self_sum(self, name: str) -> tuple[float, float]:
        """(duration, summed self time of its subtree) for the first span `name`.

        A span is stored after its parent, so one pass marks the subtree.
        """
        root = next(sid for sid, span in enumerate(self.spans) if span[0] == name)
        inside = [False] * len(self.spans)
        inside[root] = True
        total = 0.0
        for sid, own in enumerate(self.self_times()):
            parent = self.spans[sid][3]
            if sid > root and parent >= 0:
                inside[sid] = inside[parent]
            if inside[sid]:
                total += own
        _, start, end, _ = self.spans[root]
        return end - start, total

    def write_jsonl(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": self.run_id, "id": sid,
                    "parent": parent if parent >= 0 else None, "name": name,
                    "start": start - t0, "end": end - t0,
                }) + "\n")
