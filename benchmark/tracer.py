"""Per-layer tracing from outside the package.

``Tracer.install`` replaces every public function of the six latinsq
modules at each module attribute where a caller looks it up (for example
both ``latinsq.validator.is_latin`` and ``latinsq.cli.is_latin``), and the
public methods of the classes those modules define.  Nothing under
``src/`` is edited, and ``uninstall`` puts every original back.

Functions of the layer modules get a span each: label, parent span, start
and end, kept in memory.  The primitives (``rng_choice``, ``mask_set``) run
once per cell or per draw, where a span would cost more than the call, so
they are only counted.
"""

import importlib
import types
from collections import Counter
from time import perf_counter

SPANNED = ("cli", "latin_gen", "validator", "oracle_enum")
COUNTED = ("rng_choice", "mask_set")

# Sizes recorded from a span's arguments and result, keyed by label.
# generate: (cells generated, row restarts when the report still has them)
# validator: cells checked
_SIZES = {
    "latin_gen.generate": lambda args, result: (
        args[0] ** 2, getattr(result, "row_restarts", 0)),
    "validator.is_latin": lambda args, result: len(args[0]) ** 2,
    "validator.is_exponential_latin": lambda args, result: len(args[0]) ** 2,
}


class Span:
    __slots__ = ("label", "parent", "start", "end", "size")

    def __init__(self, label, parent, start):
        self.label, self.parent, self.start = label, parent, start
        self.end, self.size = start, None

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._undo = []

    def install(self):
        seen_classes = set()
        for short in SPANNED + COUNTED:
            module = importlib.import_module(f"latinsq.{short}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith("latinsq."):
                    continue
                home = home.rsplit(".", 1)[1]
                if isinstance(obj, types.FunctionType):
                    self._patch(module, attr, f"{home}.{obj.__name__}", home in COUNTED)
                elif isinstance(obj, type) and home in COUNTED and obj not in seen_classes:
                    seen_classes.add(obj)
                    for name, member in list(vars(obj).items()):
                        if not name.startswith("_") and isinstance(member, types.FunctionType):
                            self._patch(obj, name, f"{home}.{obj.__name__}.{name}", True)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, label, counted):
        original = getattr(owner, attr) if isinstance(owner, types.ModuleType) else vars(owner)[attr]
        wrapper = self._counter(label, original) if counted else self._spanner(label, original)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _counter(self, label, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanner(self, label, fn):
        spans, stack = self.spans, self._stack
        size = _SIZES.get(label)

        def spanned(*args, **kwargs):
            span = Span(label, stack[-1] if stack else None, perf_counter())
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if size is not None:
                try:
                    span.size = size(args, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # a changed signature leaves the size unknown, never fails the call
            return result

        return spanned


def self_seconds(spans):
    """Each span's duration minus the time its direct child spans cover."""
    child = {}
    for span in spans:
        if span.parent is not None:
            child[id(span.parent)] = child.get(id(span.parent), 0.0) + span.seconds
    return {id(span): span.seconds - child.get(id(span), 0.0) for span in spans}
