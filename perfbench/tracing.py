"""Spans around calls into bipcorr's public functions, and the self-time arithmetic.

The benchmark records spans from its own files: ``Hooks`` replaces a public
function or method of the program with a wrapper that opens a span, calls the
original and closes the span, and puts the original back afterwards.  A hook
whose target no longer exists is recorded as missing, with the reason, and
every metric that needs it is reported as ``null`` instead of failing the run.

A span's self time is its duration minus the durations of its child spans.
Spans opened in a thread other than the one that made the tracer have no
parent, so every span's children ran one after another, and the self
times of all spans under one root add up to the root's duration, which is
how the traced run shows that the layers account for the whole task.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass(eq=False)
class Span:
    name: str
    layer: str
    parent: Optional["Span"]
    start: float
    end: float = 0.0
    tag: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory, with the stack of open spans of the thread that
    made the tracer.  A span opened in another thread has no parent."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.instances: list = []
        self._stack: list = []
        self._thread = threading.get_ident()

    def call(self, name: str, layer: str, tag: str, fn, *args, **kwargs):
        stack = self._stack if threading.get_ident() == self._thread else []
        span = Span(name, layer, stack[-1] if stack else None, self.clock(), tag=tag)
        self.spans.append(span)
        stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            stack.pop()


def self_times(spans: list) -> list:
    """(span, self time) for every span, in the order given."""
    child_s: dict = {}
    for span in spans:
        if span.parent is not None:
            child_s[id(span.parent)] = child_s.get(id(span.parent), 0.0) + span.duration
    return [(span, span.duration - child_s.get(id(span), 0.0)) for span in spans]


def is_entry(span: Span) -> bool:
    """True for a span that enters its layer from another layer or from the root."""
    return span.parent is None or span.parent.layer != span.layer


@dataclass
class LayerSummary:
    self_s: float = 0.0
    busy_s: float = 0.0
    entries: int = 0
    entry_s: dict = field(default_factory=dict)
    self_by_name: dict = field(default_factory=dict)
    count_by_name_tag: dict = field(default_factory=dict)


def summarize(spans: list) -> dict:
    """Layer name -> LayerSummary.

    ``busy_s`` sums the durations of entry spans, so a layer calling itself
    is not counted twice; ``entry_s`` splits that sum by span name.
    """
    out: dict = {}
    for span, own in self_times(spans):
        layer = out.setdefault(span.layer, LayerSummary())
        layer.self_s += own
        layer.self_by_name[span.name] = layer.self_by_name.get(span.name, 0.0) + own
        key = (span.name, span.tag)
        layer.count_by_name_tag[key] = layer.count_by_name_tag.get(key, 0) + 1
        if is_entry(span):
            layer.busy_s += span.duration
            layer.entries += 1
            layer.entry_s[span.name] = layer.entry_s.get(span.name, 0.0) + span.duration
    return out


# ---------------------------------------------------------------------------
# Hooks


class MissingHook(LookupError):
    """A public function, attribute or flag the benchmark measures is absent."""


@dataclass(frozen=True)
class HookSpec:
    """One public callable to wrap: ``path`` is ``func`` or ``Class.method``."""

    layer: str
    module: str
    path: str
    tag: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.path.rsplit('.', 1)[-1]}"


def resolve(module_name: str, path: str):
    """(owner, attribute, object) for ``module.path``; raises MissingHook."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise MissingHook(f"{module_name} cannot be imported: {exc}") from exc
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise MissingHook(f"{module_name}.{path} not found")
    obj = getattr(owner, parts[-1], None)
    if obj is None:
        raise MissingHook(f"{module_name}.{path} not found")
    return owner, parts[-1], obj


class Hooks:
    """Installs span wrappers and instance recorders, and removes them again.

    A module-level function is replaced in every module of the package that
    holds a reference to it, so ``from .simulate import estimate_correlators``
    style imports are traced too.
    """

    def __init__(self, tracer: Tracer, package: str, span_hooks, instance_hooks):
        self.tracer = tracer
        self.package = package
        self.specs = span_hooks
        self.instance_specs = instance_hooks
        self.missing: dict = {}
        self._undo: list = []

    def require(self, qualname: str) -> None:
        if qualname in self.missing:
            raise MissingHook(self.missing[qualname])

    def __enter__(self) -> "Hooks":
        for spec in self.specs:
            self._wrap(spec)
        for module_name, class_path in self.instance_specs:
            self._record_instances(module_name, class_path)
        return self

    def __exit__(self, *exc) -> None:
        for restore in reversed(self._undo):
            restore()
        self._undo.clear()

    def _resolve(self, module_name: str, path: str):
        try:
            return resolve(module_name, path)
        except MissingHook as exc:
            self.missing[f"{module_name}.{path}"] = str(exc)
            return None

    def _wrap(self, spec: HookSpec) -> None:
        found = self._resolve(spec.module, spec.path)
        if found is None:
            return
        owner, attr, original = found
        tracer, name, layer, tag = self.tracer, spec.name, spec.layer, spec.tag

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(name, layer, tag(*args, **kwargs) if tag else "", original, *args, **kwargs)

        if isinstance(owner, type):
            self._set(owner, attr, wrapper)
        else:
            for module in self._package_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)

    def _record_instances(self, module_name: str, class_path: str) -> None:
        found = self._resolve(module_name, class_path)
        if found is None:
            return
        _, _, cls = found
        original = cls.__init__
        instances = self.tracer.instances

        @functools.wraps(original)
        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            instances.append(obj)

        self._set(cls, "__init__", init)

    def _package_modules(self) -> list:
        prefix = self.package + "."
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == self.package or name.startswith(prefix))
        ]

    def _set(self, owner, attr: str, value) -> None:
        had_own = attr in vars(owner)
        previous = vars(owner).get(attr)

        def restore():
            if had_own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)

        setattr(owner, attr, value)
        self._undo.append(restore)
