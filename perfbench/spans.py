"""Span tracing installed from outside the program.

A ``Tracer`` replaces named functions with wrappers that time each call
on ``perf_counter_ns`` and charge its duration to the enclosing span, so
every span's self time is its duration minus the spans it directly
encloses. The wrappers exist only between ``install`` and ``uninstall``;
the timed runs of the benchmark never see them.

Names are patched where the caller looks them up (``from x import f``
copies ``f`` into the caller's module), so each target is the pair
(namespace the caller reads, attribute).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


@dataclass
class Target:
    """One function to wrap: ``owner.attr``, recorded under ``name``.

    ``name`` may be a callable of the call's positional arguments, to split
    one function's spans by an argument (run_quantized by mode).
    ``on_result`` sees (args, kwargs, result) after each call.
    """

    owner: Any
    attr: str
    name: str | Callable[[tuple], str]
    on_result: Callable[[tuple, dict, Any], None] | None = None


@dataclass
class Tracer:
    stats: dict[str, SpanStats] = field(default_factory=dict)
    missing: list[str] = field(default_factory=list)
    _stack: list[list[int]] = field(default_factory=list)
    _saved: list[tuple[Any, str, Any]] = field(default_factory=list)

    def _span(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        frame = [0]  # nanoseconds spent in directly enclosed spans
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter_ns() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += duration
            st = self.stats.setdefault(name, SpanStats())
            st.calls += 1
            st.total_ns += duration
            st.self_ns += duration - frame[0]

    def call(self, name: str, fn: Callable, *args: Any) -> Any:
        """Run ``fn(*args)`` as a root span."""
        return self._span(name, fn, args, {})

    def install(self, targets: list[Target]) -> None:
        for target in targets:
            raw = vars(target.owner).get(target.attr)
            if raw is None:
                self.missing.append(f"{getattr(target.owner, '__name__', target.owner)}.{target.attr}")
                continue
            self._saved.append((target.owner, target.attr, raw))
            wrapper = self._wrapper(getattr(target.owner, target.attr), target)
            # a classmethod looked up on its class is already bound, so the
            # wrapper must not bind again
            setattr(target.owner, target.attr, staticmethod(wrapper) if isinstance(raw, classmethod) else wrapper)

    def _wrapper(self, fn: Callable, target: Target) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            name = target.name if isinstance(target.name, str) else target.name(args)
            result = self._span(name, fn, args, kwargs)
            if target.on_result is not None:
                target.on_result(args, kwargs, result)
            return result

        return wrapper

    def uninstall(self) -> None:
        """Restore every patched attribute; raises if one did not come back."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
            if vars(owner)[attr] is not raw:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    def total_ns(self, prefix: str) -> int:
        return sum(st.total_ns for name, st in self.stats.items() if name.startswith(prefix))

    def self_ns(self, prefix: str) -> int:
        return sum(st.self_ns for name, st in self.stats.items() if name.startswith(prefix))

    def calls(self, prefix: str) -> int:
        return sum(st.calls for name, st in self.stats.items() if name.startswith(prefix))
