"""Per-layer tracing of shouldersim, applied from outside the package.

Each traced layer is a public function, wrapped at the module attribute its
caller looks up at call time (``harness.control_step`` is the name
``run_scenario`` calls, ``sysid.plant_step`` the one ``simulate_record``
calls). Nothing under ``src/`` is edited. A layer whose caller no longer looks
the function up by that name (because a later change inlined or vectorised it)
is simply not wrapped and reports ``calls = 0``; it never disappears from the
report.

Every call opens a span: layer, start, end and the span that caused it. Self
time is the span's duration minus the part covered by its child spans, kept
with a span stack. Counters and self time cover every call; span records are
kept in memory under one run id, up to a cap, and written out when the run
ends.
"""
from __future__ import annotations

import functools
import gzip
import os
import time
from pathlib import Path

from shouldersim import cli, harness, plotting, sysid


def _written_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


# (layer name, module whose attribute the caller looks up, attribute name,
#  optional measure of the returned value reported as <layer>.bytes)
PATCHES = (
    ("harness.load_scenario", harness, "load_scenario", None),
    ("harness.build_reference", harness, "build_reference", None),
    ("harness.run_scenario", harness, "run_scenario", None),
    ("harness.compute_metrics", harness, "compute_metrics", None),
    ("harness.export_csv", harness, "export_csv", _written_bytes),
    ("harness.export_plot", harness, "export_plot", None),
    ("trajectory.quintic_eval", harness, "quintic_eval", None),
    ("trajectory.sine_ref", harness, "sine_ref", None),
    ("trajectory.differentiate_teach", harness, "differentiate_teach", None),
    ("trajectory.clamp_to_limits", harness, "clamp_to_limits", None),
    ("gpi.compute_gains", harness, "compute_gains", None),
    ("gpi.control_step", harness, "control_step", None),
    ("plant.step", harness, "plant_step", None),
    ("plant.step", sysid, "plant_step", None),
    ("sysid.simulate_record", sysid, "simulate_record", None),
    ("sysid.decimate_record", sysid, "decimate_record", None),
    ("sysid.estimate_tf", sysid, "estimate_tf", None),
    ("sysid.fit_percent", sysid, "fit_percent", None),
    ("plotting.render_svg", plotting, "render_svg", None),
    ("cli.main", cli, "main", None),
)

MAX_SPANS = 50_000  # span records kept per run; counters cover every call
LAYERS = tuple(dict.fromkeys(name for name, *_ in PATCHES))
BYTE_LAYERS = tuple(dict.fromkeys(name for name, _, _, measure in PATCHES if measure))


class Tracer:
    """Span stack, per-layer counters and an in-memory span log for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.calls = dict.fromkeys(LAYERS, 0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.nbytes = dict.fromkeys(BYTE_LAYERS, 0)
        self.op_id = 0
        self.spans = []
        self.spans_seen = 0
        self._stack = []  # [span id, start ns, ns covered by children]
        self._saved = []

    def _wrap(self, layer, fn, measure):
        calls, errors, self_ns, stack, spans = (
            self.calls, self.errors, self.self_ns, self._stack, self.spans
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self.spans_seen
            self.spans_seen = span_id + 1
            frame = [span_id, clock(), 0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                calls[layer] += 1
                self_ns[layer] += duration - frame[2]
                parent = -1
                if stack:
                    stack[-1][2] += duration
                    parent = stack[-1][0]
                if len(spans) < MAX_SPANS:
                    spans.append((self.op_id, span_id, parent, layer, frame[1], end))
            if measure is not None:
                self.nbytes[layer] += measure(out)
            return out

        return traced

    def install(self):
        """Wrap every layer whose caller still looks it up by name."""
        for layer, module, attr, measure in PATCHES:
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(layer, fn, measure))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write_spans(self, path: Path) -> Path:
        """Write the kept spans as gzip CSV; times are ns from the first span."""
        t0 = min((span[4] for span in self.spans), default=0)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        with gzip.open(tmp, "wt", newline="") as fh:
            fh.write("run_id,op,span,parent,layer,start_ns,end_ns\n")
            for op, span, parent, layer, start, end in self.spans:
                fh.write(f"{self.run_id},{op},{span},{parent},{layer},{start - t0},{end - t0}\n")
        os.replace(tmp, path)
        return path

