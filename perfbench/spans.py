"""In-memory spans around calls into the program's layers.

The traced run installs wrappers on each layer's public entry points
from here, not from inside the program: ``src/`` carries no benchmark
hooks. Many modules import a function by name (``from
repro.xpath.evaluator import evaluate``), so a wrapper is installed on
every attribute a caller actually resolves, and :meth:`Patcher.restore`
puts every original back.

Spans are kept as parallel lists (name, start, end, parent, trace id)
and written out once, at the end, as Chrome trace-event JSON.
"""

import json
import time
from collections import Counter

_now = time.perf_counter


class SpanRecorder:
    """A single-threaded span stack: open/close pairs nest by call."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.traces = []
        self._stack = []
        #: Identifier stamped on every span opened from now on (the
        #: workload sets it per trace / recorded session).
        self.trace_id = 0
        #: Plain call counts for count-only instruments.
        self.counts = Counter()

    def __len__(self):
        return len(self.names)

    def open(self, name):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.traces.append(self.trace_id)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(_now())
        return index

    def close(self, index):
        self.ends[index] = _now()
        self._stack.pop()

    def spans(self):
        """``[(name, start, end, parent, trace_id)]`` in open order."""
        return list(zip(self.names, self.starts, self.ends, self.parents,
                        self.traces))

    def write_chrome_trace(self, path):
        """Write every span as a Chrome ``X`` (complete) event, with
        timestamps in µs from the first span."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w") as handle:
            handle.write('{"displayTimeUnit": "ms", "traceEvents": [\n')
            first = True
            for index, (name, start, end, parent, trace) in enumerate(
                    self.spans()):
                event = {"name": name, "cat": name.split(".", 1)[0],
                         "ph": "X", "pid": 1, "tid": 1,
                         "ts": round((start - origin) * 1e6, 3),
                         "dur": round((end - start) * 1e6, 3),
                         "args": {"id": index, "parent": parent,
                                  "trace": trace}}
                handle.write(("" if first else ",\n") + json.dumps(event))
                first = False
            handle.write("\n]}\n")
        return path


def self_times(spans):
    """Per-span self time: duration minus the part of it covered by the
    span's direct children (their union, clipped to the parent).

    ``spans`` is a list of ``(name, start, end, parent, trace_id)``
    tuples whose ``parent`` is an index into the same list (-1 for a
    root). Returns a list of self times aligned with ``spans``.
    """
    children = {}
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append((end - start) - covered)
    return result


# -- wrappers -----------------------------------------------------------------


def span_wrapper(recorder, name, function):
    """``function`` with one span per call."""
    open_span = recorder.open
    close_span = recorder.close

    def traced(*args, **kwargs):
        index = open_span(name)
        try:
            return function(*args, **kwargs)
        finally:
            close_span(index)

    traced.__wrapped__ = function
    return traced


def count_wrapper(recorder, name, function):
    """``function`` with a call count and no span (per-event hot paths
    where a span would cost more than the call it measures)."""
    counts = recorder.counts

    def counted(*args, **kwargs):
        counts[name] += 1
        return function(*args, **kwargs)

    counted.__wrapped__ = function
    return counted


class Patcher:
    """Installs wrappers on attributes and restores the originals."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attribute, value):
        self._saved.append((owner, attribute, owner.__dict__[attribute]
                            if isinstance(owner, type)
                            else getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def wrap_function(self, owners, attribute, wrapper):
        """Wrap one function everywhere it was imported by name: every
        owner must hold the *same* original, or the patch is refused."""
        original = getattr(owners[0], attribute)
        for owner in owners:
            if getattr(owner, attribute) is not original:
                raise RuntimeError("%s.%s is not the same function as %s.%s"
                                   % (owner.__name__, attribute,
                                      owners[0].__name__, attribute))
        wrapped = wrapper(original)
        for owner in owners:
            self.replace(owner, attribute, wrapped)

    def wrap_method(self, cls, attribute, wrapper):
        raw = cls.__dict__[attribute]
        if isinstance(raw, classmethod):
            self.replace(cls, attribute, classmethod(wrapper(raw.__func__)))
        elif isinstance(raw, property):
            self.replace(cls, attribute, property(
                wrapper(raw.fget), wrapper(raw.fset) if raw.fset else None,
                raw.fdel, raw.__doc__))
        else:
            self.replace(cls, attribute, wrapper(raw))

    def restore(self):
        while self._saved:
            owner, attribute, value = self._saved.pop()
            setattr(owner, attribute, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def install_layer_spans(patcher, recorder):
    """Wrap every layer entry point the per-layer table names.

    Span names are ``<layer>.<entry>``; :mod:`perfbench.layers` turns
    them into the per-layer metrics.
    """
    import sys

    from repro.browser.ipc import IpcChannel
    from repro.core.recorder import WarrRecorder
    from repro.core.relaxation import RelaxationEngine
    from repro.core.webdriver import WebDriver
    from repro.dom.node import Node
    from repro.layout.engine import LayoutEngine
    from repro.net.tape import Tape
    from repro.net.transport import Transport
    from repro.session.engine import SessionRun
    from repro.session.events import EventStream
    from repro.session.journal import RunJournal
    from repro.session.policies import LocatorPolicy

    def span(name):
        return lambda function: span_wrapper(recorder, name, function)

    def count(name):
        return lambda function: count_wrapper(recorder, name, function)

    def loaded(*names):
        return [sys.modules[name] for name in names if name in sys.modules]

    patcher.wrap_method(SessionRun, "step", span("session.step"))
    patcher.wrap_method(EventStream, "emit", count("session.event"))
    patcher.wrap_function(
        loaded("repro.events.dispatch", "repro.events",
               "repro.browser.webkit"),
        "dispatch_event", span("events.dispatch"))
    patcher.wrap_method(LocatorPolicy, "resolve", span("driver.locate"))
    patcher.wrap_method(WebDriver, "find_element", span("driver.locate"))
    patcher.wrap_method(RelaxationEngine, "resolve", span("relax.resolve"))
    patcher.wrap_function(
        loaded("repro.xpath.evaluator", "repro.xpath",
               "repro.core.relaxation", "repro.core.chromedriver",
               "repro.xpath.generator", "repro.auser.snapshot"),
        "evaluate", span("xpath.evaluate"))
    patcher.wrap_method(Node, "text_content", span("dom.text_content"))
    patcher.wrap_method(LayoutEngine, "relayout", span("layout.relayout"))
    patcher.wrap_method(LayoutEngine, "hit_test", span("layout.hit_test"))
    patcher.wrap_method(IpcChannel, "send", span("ipc.send"))
    patcher.wrap_method(IpcChannel, "pump", span("ipc.pump"))
    for hook in ("on_mouse_press", "on_key", "on_drag"):
        patcher.wrap_method(WarrRecorder, hook, span("recorder.log"))
    patcher.wrap_method(Transport, "perform", span("net.perform"))
    patcher.wrap_method(Tape, "encode", span("tape.encode"))
    patcher.wrap_method(Tape, "decode", span("tape.decode"))
    patcher.wrap_function(loaded("repro.session.wire", "repro.session"),
                          "encode_report", span("wire.encode"))
    def decode(function):
        traced = span_wrapper(recorder, "wire.decode", function)
        counts = recorder.counts

        def measured(blob, *args, **kwargs):
            counts["wire.decode"] += 1
            counts["wire.bytes"] += len(blob)
            return traced(blob, *args, **kwargs)
        measured.__wrapped__ = function
        return measured

    patcher.wrap_function(loaded("repro.session.wire", "repro.session"),
                          "decode_report", decode)
    patcher.wrap_method(RunJournal, "start", span("journal.append"))
    patcher.wrap_method(RunJournal, "finish", span("journal.append"))
    patcher.wrap_function(loaded("repro.session.journal", "repro.session"),
                          "read_journal", span("journal.read"))
