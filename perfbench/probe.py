"""Host diagnostics: a fixed stdlib speed probe, cores, interpreter.

The probe times a JSON round trip plus a sort of the same fixed
records. It runs before and after each benchmark run; dividing a
workload's rate by the probe's rate separates a slow host from a slow
program. It is a diagnostic, never an end-to-end metric.
"""

import gc
import json
import os
import platform
import time

_RECORDS = [{"id": index, "name": "item-%05d" % ((index * 7919) % 10007),
             "tags": ["t%d" % (index % 7), "u%d" % (index % 11)],
             "score": (index * 31) % 97 / 7.0}
            for index in range(4000)]


def _probe_once():
    start = time.perf_counter()
    for _ in range(5):
        decoded = json.loads(json.dumps(_RECORDS))
        decoded.sort(key=lambda record: (record["name"], record["score"]))
    return time.perf_counter() - start


def probe(repeats=5):
    """Probe passes per second (median of ``repeats`` timings)."""
    gc.collect()
    timings = sorted(_probe_once() for _ in range(repeats))
    return 1.0 / timings[len(timings) // 2]


def host():
    """Static facts about the machine the run measured."""
    return {"cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "implementation": platform.python_implementation()}
