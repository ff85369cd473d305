"""In-memory spans around calls into the program, and their self times.

A :class:`Recorder` replaces chosen functions and methods with wrappers that
open a span (name, start, end, parent) around each call.  Everything lives in
the benchmark: the program under test is not edited, and
:meth:`Recorder.uninstall` puts every original object back.

A call made while the innermost open span has the same name (a method that
delegates to another method of the same layer) opens no span of its own, so
a layer's call count is the number of times it was entered.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Attribute carried by every wrapper (value: the span name).
MARKER = "_perfbench_span"

Annotate = Callable[["Span", tuple, dict, Any], None]


class Span:
    """One timed call: ``name``, ``start``/``end`` and the parent's index."""

    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, end: float = 0.0,
                 parent: Optional[int] = None,
                 attrs: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.attrs = attrs

    @property
    def duration(self) -> float:
        """``end - start`` in seconds."""
        return self.end - self.start


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover.

    Spans are nested calls on one thread, so the children of a span never
    overlap each other and the sum of their durations is the time they
    cover.
    """
    times = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            times[span.parent] -= span.duration
    return times


class Recorder:
    """Collects spans from wrapped callables; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._open: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording

    def call(self, name: str, function: Callable, args: tuple, kwargs: dict,
             annotate: Optional[Annotate] = None) -> Any:
        """Call ``function`` inside a span called ``name``."""
        if self._open and self.spans[self._open[-1]].name == name:
            return function(*args, **kwargs)
        span = Span(name, 0.0, parent=self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = self.clock()
        try:
            result = function(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._open.pop()
        if annotate is not None:
            annotate(span, args, kwargs, result)
        return result

    def drain(self) -> List[Span]:
        """Return the finished spans and start a new list."""
        spans, self.spans = self.spans, []
        return spans

    # ------------------------------------------------------------- wrapping

    def _wrapper(self, name: str, original: Callable,
                 annotate: Optional[Annotate]) -> Callable:
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return recorder.call(name, original, args, kwargs, annotate)

        setattr(wrapper, MARKER, name)
        return wrapper

    def wrap_method(self, owner: type, attribute: str, name: str,
                    annotate: Optional[Annotate] = None) -> None:
        """Wrap the method ``attribute`` defined on class ``owner``."""
        original = owner.__dict__[attribute]
        setattr(owner, attribute, self._wrapper(name, original, annotate))
        self._patches.append((owner, attribute, original))

    def wrap_function(self, module: Any, attribute: str, name: str,
                      annotate: Optional[Annotate] = None,
                      package: str = "repro") -> None:
        """Wrap a module function in every ``package`` module that names it.

        ``from x import f`` copies the reference, so each importing module
        gets the wrapper too.
        """
        original = getattr(module, attribute)
        wrapper = self._wrapper(name, original, annotate)
        for owner in _package_modules(package):
            if vars(owner).get(attribute) is original:
                setattr(owner, attribute, wrapper)
                self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Put back every original object this recorder replaced."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def installed(self, install: Callable[["Recorder"], None]
                  ) -> Iterator["Recorder"]:
        """Install wrappers with ``install(self)``; always remove them."""
        try:
            install(self)
            yield self
        finally:
            self.uninstall()


def _package_modules(package: str) -> List[Any]:
    """Every imported module of ``package``."""
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == package or name.startswith(package + "."))]


def installed_wrappers(package: str = "repro") -> List[str]:
    """``module.attribute`` of every wrapper still reachable in ``package``.

    Looks at module globals and at the attributes of the classes those
    modules define.
    """
    found = []
    for module in _package_modules(package):
        for attribute, value in list(vars(module).items()):
            if hasattr(value, MARKER):
                found.append(f"{module.__name__}.{attribute}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for member, candidate in vars(value).items():
                    if hasattr(candidate, MARKER):
                        found.append(
                            f"{module.__name__}.{attribute}.{member}")
    return found
