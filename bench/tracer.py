"""Call tracing of infercost from outside the package.

`Tracer.install` replaces each selected public function with a timing wrapper
at every module binding the package calls it through (``servesim.predict_at``,
``costmodel.validate_config``, the ``infercost`` namespace, ...), so nothing
under ``src/`` changes. Every wrapped call updates an in-memory counter
(calls, total seconds, self seconds); functions marked as spans also append
one span (id, parent id, name, start, end) per call. Per-step leaf functions
are counters only, which keeps memory bounded on runs of a million calls.

Self time is a call's duration minus the time covered by the wrapped calls
and harness regions nested in it. The wrapper's own cost lands in the
caller's self time; the benchmark reports it as ``trace_overhead_frac``.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

_clock = time.perf_counter


class Tracer:
    def __init__(self, package, modules):
        self.package = package
        self.modules = modules  # modules whose bindings get patched
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[tuple] = []  # (id, parent_id, name, start_s, end_s)
        self._stack: list[list] = []  # frames: [child_s, span_id or None]
        self._next_span = 0
        self._patched: list[tuple] = []  # (module, attr, original)

    # -- recording ----------------------------------------------------------

    def _enter(self, span: bool) -> list:
        span_id = None
        if span:
            span_id = self._next_span
            self._next_span += 1
        frame = [0.0, span_id]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += duration
        st[2] += duration - frame[0]
        if stack:
            stack[-1][0] += duration
        if frame[1] is not None:
            parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
            self.spans.append((frame[1], parent, name, start, end))

    def _wrap(self, name: str, fn, span: bool):
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(span)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(name, frame, start, _clock())

        return traced

    @contextmanager
    def region(self, name: str):
        """Time a block of harness code as a span of its own.

        Work the harness does inside a traced call (output checks run from a
        hook on ``servesim.run``) is then excluded from that call's self time.
        """
        frame = self._enter(True)
        start = _clock()
        try:
            yield
        finally:
            self._exit(name, frame, start, _clock())

    # -- patching -----------------------------------------------------------

    def install(self, targets: dict[str, bool]) -> None:
        """Wrap each ``"<module>.<function>"`` in targets (value: record spans)."""
        for qualname, span in targets.items():
            mod_name, fn_name = qualname.split(".")
            original = getattr(self.modules[mod_name], fn_name)
            wrapper = self._wrap(qualname, original, span)
            for module in [self.package, *self.modules.values()]:
                bound = [attr for attr, value in vars(module).items() if value is original]
                for attr in bound:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def snapshot(self) -> dict[str, tuple]:
        return {name: tuple(st) for name, st in self.stats.items()}
