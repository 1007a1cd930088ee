"""Span tracing of `superstable` from outside the package.

`Tracer.install` replaces each traced callable by a wrapper, in the module
or class that defines it and in every `superstable` module namespace that
imported the same object by name, and `uninstall` puts the originals back.
Each wrapped call records its self time (duration minus the time of
wrapped calls nested inside it) and a call count under a span name; calls
of names marked `span=True` also append a span record
(name, start, end, parent span, query id) kept in memory until `dump`.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """One traced callable: `owner.attr`, reported under `name`.

    `hook(tracer, args)` runs before the call; it must be O(1) because its
    cost falls inside the caller's self time.
    """

    name: str
    owner: object
    attr: str
    span: bool = True
    hook: object = None


class Tracer:
    def __init__(self):
        self.spans = []         # (name, start, end, parent index, query id)
        self.stats = {}         # name -> [calls, self seconds]
        self.counts = {}        # free-form counters filled by hooks
        self.query = None       # id of the query being run
        self.enabled = False    # wrappers pass straight through when False
        self._stack = []        # open calls: [child seconds, span index, name]
        self._patches = []      # (owner, attr, original)

    # -- wrapping --------------------------------------------------------

    def _wrap(self, t: Target, fn):
        stats = self.stats.setdefault(t.name, [0, 0.0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        name, keep, hook = t.name, t.span, t.hook

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if hook is not None:
                hook(self, args)
            parent = stack[-1][1] if stack else -1
            idx = len(spans) if keep else parent
            if keep:
                spans.append(None)
            frame = [0.0, idx, name]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                stats[0] += 1
                stats[1] += d - frame[0]
                if stack:
                    stack[-1][0] += d
                if keep:
                    spans[idx] = (name, t0, t1, parent, self.query)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def install(self, targets):
        """Wrap every target; returns the names whose attribute is missing."""
        missing = []
        namespaces = [m for k, m in sys.modules.items() if k.split(".")[0] == "superstable"]
        for t in targets:
            fn = getattr(t.owner, t.attr, None)
            if fn is None:
                missing.append(t.name)
                continue
            w = self._wrap(t, fn)
            if isinstance(t.owner, type):
                self._patches.append((t.owner, t.attr, fn))
                setattr(t.owner, t.attr, w)
                continue
            for mod in namespaces:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, w)
        return missing

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- reading ---------------------------------------------------------

    def open_names(self):
        """Names of the wrapped calls currently open, innermost first."""
        return [f[2] for f in reversed(self._stack)]

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def dump(self, path, extra=None):
        """Write spans as compact rows [name id, start, end, parent, query]."""
        names = sorted(self.stats)
        ids = {n: k for k, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [ids[s[0]], round(s[1] - t0, 7), round(s[2] - t0, 7), s[3], s[4]]
            for s in self.spans
            if s is not None
        ]
        doc = {
            "columns": ["name", "start_s", "end_s", "parent", "query"],
            "names": names,
            "spans": rows,
            **(extra or {}),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
