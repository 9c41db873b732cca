"""Per-layer metrics of the traced run.

Every metric is computed from the spans of one traced round (self time
per call, in µs, unless the name says otherwise), from call counts taken
at the same boundaries, from :mod:`repro.perf` cache counters, or from
the round's own report. A layer a workload bypasses reports 0: that is
the prediction the README's table makes for it.
"""

from perfbench import stats
from perfbench.spans import self_times

#: (name, unit) of every per-layer metric, in BENCHMARK.json order.
METRICS = (
    ("session.step_self_us", "us"),
    ("session.events_per_cmd", "count/cmd"),
    ("gc.gen2_collections", "count"),
    ("gc.pause_share", "ratio"),
    ("gc.gen2_pause_ms_max", "ms"),
    ("mem.retained_kb_per_trace", "kB"),
    ("events.dispatch_per_cmd", "count/cmd"),
    ("events.dispatch_self_us", "us"),
    ("dom.text_content_self_us", "us"),
    ("dom.index_hit_ratio", "ratio"),
    ("scripting.page_errors_per_cmd", "count/cmd"),
    ("driver.locate_self_us", "us"),
    ("relax.resolve_self_us", "us"),
    ("relax.relaxed_per_trace", "count"),
    ("relax.resolve_hit_ratio", "ratio"),
    ("xpath.evaluate_self_us", "us"),
    ("xpath.compile_hit_ratio", "ratio"),
    ("layout.relayouts_per_cmd", "count/cmd"),
    ("layout.self_us", "us"),
    ("layout.hit_ratio", "ratio"),
    ("ipc.messages_per_action", "count"),
    ("ipc.pump_self_us", "us"),
    ("recorder.log_self_us_p50", "us"),
    ("recorder.log_self_us_tail", "us"),
    ("tape.encode_ms_per_session", "ms"),
    ("tape.bytes_per_session", "bytes"),
    ("tape.playback_self_us_per_fetch", "us"),
    ("pool.worker_busy_share", "ratio"),
    ("pool.parent_wait_share", "ratio"),
    ("pool.requeues", "count"),
    ("pool.respawns", "count"),
    ("wire.decode_self_us_per_trace", "us"),
    ("wire.bytes_per_trace", "bytes"),
    ("journal.append_self_us", "us"),
    ("journal.bytes_per_trace", "bytes"),
    ("journal.read_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.spans_per_cmd", "count/cmd"),
)


def window(spans, start, end):
    """The spans opened inside ``[start, end]``, re-indexed; a span whose
    parent lies outside the window becomes a root."""
    mapping = {}
    result = []
    for index, span in enumerate(spans):
        if start <= span[1] <= end:
            mapping[index] = len(result)
            result.append(span)
    return [(name, s, e, mapping.get(parent, -1), trace)
            for name, s, e, parent, trace in result]


class SpanTable:
    """Self-time aggregates by span name over one set of spans."""

    def __init__(self, spans):
        self.spans = spans
        self.selfs = self_times(spans)
        self.by_name = {}
        self.roots_s = 0.0
        for span, self_s in zip(spans, self.selfs):
            entry = self.by_name.setdefault(span[0], [])
            entry.append((self_s, span[2] - span[1]))
            if span[3] < 0:
                self.roots_s += span[2] - span[1]

    def calls(self, *names):
        return sum(len(self.by_name.get(name, ())) for name in names)

    def self_samples(self, *names):
        return [s for name in names for s, _ in self.by_name.get(name, ())]

    def mean_self_us(self, *names):
        samples = self.self_samples(*names)
        return sum(samples) / len(samples) * 1e6 if samples else 0.0

    def mean_total_ms(self, *names):
        totals = [t for name in names for _, t in self.by_name.get(name, ())]
        return sum(totals) / len(totals) * 1e3 if totals else 0.0


def hit_ratio(perf_delta, cache):
    counts = perf_delta.get(cache)
    if not counts:
        return 0.0
    total = counts["hits"] + counts["misses"]
    return counts["hits"] / total if total else 0.0


def replay_layers(table, counts, perf_delta, commands, traces, batch,
                  unit_of_work=None):
    """Metrics of the in-process replay layers over one batch.

    ``unit_of_work`` is the per-action denominator (replayed commands,
    or recorded user inputs); ``batch`` supplies report-level counts
    (page errors, relaxed locators) and may be None.
    """
    actions = unit_of_work or commands
    out = {
        "session.step_self_us": table.mean_self_us("session.step"),
        "session.events_per_cmd": counts.get("session.event", 0) / commands,
        "events.dispatch_per_cmd": table.calls("events.dispatch") / actions,
        "events.dispatch_self_us": table.mean_self_us("events.dispatch"),
        "dom.text_content_self_us": table.mean_self_us("dom.text_content"),
        "dom.index_hit_ratio": hit_ratio(perf_delta, "dom.index"),
        "driver.locate_self_us": table.mean_self_us("driver.locate"),
        "relax.resolve_self_us": table.mean_self_us("relax.resolve"),
        "relax.resolve_hit_ratio": hit_ratio(perf_delta, "relax.resolve"),
        "xpath.evaluate_self_us": table.mean_self_us("xpath.evaluate"),
        "xpath.compile_hit_ratio": hit_ratio(perf_delta, "xpath.compile"),
        "layout.relayouts_per_cmd": table.calls("layout.relayout") / actions,
        "layout.self_us": table.mean_self_us("layout.relayout",
                                             "layout.hit_test"),
        "layout.hit_ratio": hit_ratio(perf_delta, "layout"),
        "ipc.messages_per_action": table.calls("ipc.send") / actions,
        "ipc.pump_self_us": table.mean_self_us("ipc.pump"),
    }
    if batch is not None:
        out["scripting.page_errors_per_cmd"] = (batch.page_error_count
                                                / commands)
        out["relax.relaxed_per_trace"] = (
            sum(run.report.relaxed_count for run in batch.runs) / traces)
    return out


def recorder_layers(table):
    samples = [s * 1e6 for s in table.self_samples("recorder.log")]
    if not samples:
        return {}
    value, _, _ = stats.tail(samples)
    return {"recorder.log_self_us_p50": stats.median(samples),
            "recorder.log_self_us_tail": value}


def fill(values):
    """Every metric in :data:`METRICS`, bypassed layers as 0."""
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in METRICS}
