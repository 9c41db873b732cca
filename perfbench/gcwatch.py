"""Garbage-collector pauses per generation, from ``gc.callbacks``."""

import gc
import time


class GcWatch:
    """Times every collection while installed (use as a context)."""

    def __init__(self):
        #: {generation: [pause seconds, ...]}
        self.pauses = {0: [], 1: [], 2: []}
        self._started = None

    def _callback(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.pauses[info["generation"]].append(
                time.perf_counter() - self._started)
            self._started = None

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)
        return False

    def total(self):
        return sum(sum(pauses) for pauses in self.pauses.values())

    def summary(self, wall_seconds):
        """JSON-able per-generation counts and pause times."""
        return {
            "collections": {str(gen): len(p) for gen, p in self.pauses.items()},
            "pause_ms": {str(gen): round(sum(p) * 1e3, 3)
                         for gen, p in self.pauses.items()},
            "gen2_pause_ms_max": round(max(self.pauses[2], default=0.0)
                                       * 1e3, 3),
            "pause_share": round(self.total() / wall_seconds, 4)
            if wall_seconds > 0 else 0.0,
        }
