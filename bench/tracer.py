"""In-memory span tracer that wraps library entry points from outside.

A span is ``(name, start, end, parent, info)``: ``parent`` is the index of
the enclosing span in :attr:`Tracer.spans` (or -1) and ``info`` is whatever
the wrapper's ``measure`` callback extracted from the call's result (a row
count, a tree count, the nominated pairs). Spans are kept in memory and
written out once, at the end of a run.

Entry points are replaced on the object the caller looks them up on, so
``wrap(ilmart.trainer, "compute_lambdas", ...)`` sees exactly the calls the
trainer makes. A missing attribute fails at wrap time and
:meth:`Tracer.check_called` fails for an entry point that never ran, so a
refactor that moves a call out from under the tracer cannot silently turn a
layer's numbers into zeros.
"""
from __future__ import annotations

import functools
import json
import time


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, object]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object, str]] = []
        # Wrappers made with always=False record only while this is True.
        self.enabled = True

    def span(self, name: str):
        """Context manager recording one span (for the benchmark's own phases)."""
        return _Span(self, name)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, None))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int, info=None) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, _, parent, _ = self.spans[index]
        self.spans[index] = (name, start, end, parent, info)

    def wrap(self, owner, attr: str, name: str, measure=None, always=False) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``measure(result)`` may return a value stored as the span's info.
        With ``always`` the wrapper records even while tracing is disabled.
        """
        if not hasattr(owner, attr):
            raise RuntimeError(f"traced entry point {name} ({owner!r}.{attr}) is missing")
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not (always or tracer.enabled):
                return original(*args, **kwargs)
            index = tracer._open(name)
            info = None
            try:
                result = original(*args, **kwargs)
                if measure is not None:
                    info = measure(result)
                return result
            finally:
                tracer._close(index, info)

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original, name))

    def unwrap_all(self) -> None:
        for owner, attr, original, _ in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def check_called(self) -> None:
        called = {s[0] for s in self.spans}
        missing = [name for _, _, _, name in self._patched if name not in called]
        if missing:
            raise RuntimeError(f"traced entry points never called: {', '.join(missing)}")

    def last(self, name: str):
        """The most recent closed span called ``name``."""
        for span in reversed(self.spans):
            if span[0] == name:
                return span
        raise RuntimeError(f"no span named {name}")

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "info": info}, default=str))
                fh.write("\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self):
        self.index = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.index)
        return False


def summarize(spans, root: int) -> dict[str, dict[str, float]]:
    """Per-name totals over the subtree under span ``root``.

    For each span name: ``s`` (summed duration), ``self_s`` (duration minus
    the part covered by direct children), ``calls``, ``info`` (summed numeric
    info) and ``within.<ancestor>`` counts of spans below an ancestor span
    of that name, which is how rounds are attributed to stages.
    """
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        children.setdefault(span[3], []).append(i)
    out: dict[str, dict[str, float]] = {}
    stack = [(root, ())]
    while stack:
        i, ancestors = stack.pop()
        name, start, end, _, info = spans[i]
        kids = children.get(i, [])
        covered = sum(spans[k][2] - spans[k][1] for k in kids)
        entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "info": 0.0})
        entry["s"] += end - start
        entry["self_s"] += end - start - covered
        entry["calls"] += 1
        if isinstance(info, (int, float)):
            entry["info"] += info
        for anc in set(ancestors):
            key = f"within.{anc}"
            entry[key] = entry.get(key, 0) + 1
        stack.extend((k, ancestors + (name,)) for k in kids)
    return out
