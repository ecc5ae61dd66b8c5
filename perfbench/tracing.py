"""In-memory span tracing of uplinksim's public functions.

The tracer wraps each listed function in every uplinksim module that holds
a reference to it.  The package's modules import names directly (for
example ``experiment`` calls its own ``bsm_apply``), so replacing only the
defining module's attribute would miss most calls.  No source file of the
package changes; `uninstall` restores every original reference.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (defining module, function) pairs that get a span.  The span name is
# "<module>.<function>", which is also the prefix of its per-layer metrics.
TRACED = (
    ("cli", "main"),
    ("config", "load_campaign_config"),
    ("experiment", "run_campaign"),
    ("experiment", "run_orbit"),
    ("experiment", "build_event_model"),
    ("experiment", "analytic_mean_fidelity"),
    ("experiment", "error_budget"),
    ("experiment", "calibrate"),
    ("bsm", "bsm_apply"),
    ("qstate", "condition"),
    ("qstate", "tensor"),
    ("photonsrc", "werner_pair"),
    ("linkgeom", "loss_profile"),
    ("linkgeom", "link_loss_db"),
    ("linkgeom", "polarization_distortion"),
    ("timesync", "generate_streams"),
    ("timesync", "fit_clock"),
    ("timesync", "match_coincidences"),
    ("timesync", "accidental_rate"),
)

OP_SPAN = "op"


class Tracer:
    """Records (name, start, end, parent index, op id) for every call of a
    traced function, plus the (config, state, feed_forward) key of every
    `build_event_model` call, keyed by op id."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.event_model_keys: dict[int, list] = defaultdict(list)
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        record_key = name == "experiment.build_event_model"

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            if record_key:
                feed_forward = args[2] if len(args) > 2 else kwargs.get("feed_forward", True)
                self.event_model_keys[self._op].append((args[0], args[1], feed_forward))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._op)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "uplinksim" or n.startswith("uplinksim.")]
        for module_name, func_name in TRACED:
            home = sys.modules.get(f"uplinksim.{module_name}")
            if home is None:  # a module the workload never imports is never called
                continue
            original = getattr(home, func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def run_op(self, op_id: int, fn, *args):
        """Call `fn(*args)` as the root span of op `op_id`."""
        self._op = op_id
        try:
            return self._wrap(OP_SPAN, fn)(*args)
        finally:
            self._op = -1

    def per_op(self) -> dict[int, dict[str, dict[str, float]]]:
        """Per op and span name: call count, self time and inclusive time.

        Calls are synchronous on one thread, so child spans are disjoint
        and lie inside their parent; self time is the span's duration
        minus the sum of its children's durations.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[int, dict[str, dict[str, float]]] = defaultdict(
            lambda: defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        )
        for i, (name, start, end, _, op) in enumerate(self.spans):
            entry = out[op][name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return out
