"""Outside-in layer tracing: wrap module attributes, record spans, derive metrics.

The program has no timers of its own, so the benchmark times each layer
from the outside. ``Tracer.install`` replaces the module attributes
through which the engine calls each layer (listed in ``SPANS``) with
wrappers that record one span per call: name, start, end, parent. Counts
of the work a call did are taken from its arguments and return value at
the same boundary. ``layer_metrics`` turns the spans into per-layer self
times, inclusive times, counts and ratios.

A wrapped attribute that no longer exists stops the benchmark at install
time, and an expected span that never fired stops it after the run, so a
renamed call site cannot silently report 0 s for its layer.
"""

import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field
from pathlib import Path


def _n_streams(a, result):
    return len(a["indices"]) * a["num_users"]


def _n_phasors(a, result):
    # (n, K, L) waves onto M elements
    return a["aoa"].size * len(a["positions"])


def _n_draws(a, result):
    return a["n_cal"]


def _zf_counts(a, result):
    solves = int(result.ok.size)
    return {"solves": solves, "rejected": solves - int(result.ok.sum())}


def _n_slices(a, result):
    return a["h_bad"].shape[0]


def _n_values_pushed(a, result):
    return int(getattr(a["values_db"], "size", 0))


def _n_values_batched(a, result):
    return int(getattr(a["samples"], "size", 0))


def _bytes_written(a, result):
    out = Path(a["out_dir"])
    return sum((out / name).stat().st_size for name in result)


# (span name, module, attribute path, count name, count function).
# The module is the one whose attribute the engine looks up at call time:
# ``engine._zf_solve`` is beamform's solver as imported into engine.
SPANS = (
    ("channel.sample", "apermimo.channel", "sample_wave_blocks", "streams", _n_streams),
    ("channel.field", "apermimo.channel", "wave_field", "phasors", _n_phasors),
    ("channel.calibrate", "apermimo.channel", "calibrate_normalization", "draws", _n_draws),
    ("beamform.zf", "apermimo.engine", "_zf_solve", None, _zf_counts),
    ("beamform.refine", "apermimo.beamform", "_refine_inverse", "slices", _n_slices),
    ("metrics.push_db", "apermimo.metrics", "SinrCdf.push_db", "samples", _n_values_pushed),
    ("metrics.from_batch", "apermimo.metrics", "StreamingMoments.from_batch", "samples",
     _n_values_batched),
    ("metrics.merge", "apermimo.metrics", "StreamingMoments.merge", None, None),
    ("engine.block", "apermimo.engine", "_simulate_block", None, None),
    ("engine.reduce", "apermimo.engine", "_block_stats", None, None),
    ("engine.run", "apermimo.engine", "run_simulation", None, None),
    ("synthesis.reference", "apermimo.synthesis", "reference_profile", None, None),
    ("synthesis.taper", "apermimo.synthesis", "density_taper", None, None),
    ("cli.emit", "apermimo.cli", "emit_reports", None, None),
    ("cli.write", "apermimo.cli", "_write_outputs", "bytes", _bytes_written),
)

# Refinement fires only for draws that miss the residual gate, so it is the
# one span a correct run may skip; every other span a command reaches must fire.
OPTIONAL_SPANS = frozenset({"beamform.refine"})
_NOT_REACHED = {
    "simulate": {"synthesis.reference", "synthesis.taper"},
    "compare": set(),
    "synthesize": {"cli.emit"},  # synthesize writes through _write_outputs directly
}


def expected_spans(command: str) -> set:
    """Span names that must fire at least once in one run of ``command``."""
    names = {s[0] for s in SPANS}
    return names - OPTIONAL_SPANS - _NOT_REACHED[command]


class TraceIntegrityError(RuntimeError):
    """A wrapped call site is missing, or an expected span never fired."""


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root span
    start: float
    end: float = None
    counts: dict = field(default_factory=dict)


def _resolve(owner, path):
    """(object holding the attribute, attribute name) for a dotted path."""
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans from wrappers installed on module attributes."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._saved = []

    def install(self, table=SPANS):
        """Wrap every call site in ``table``; raise if any is missing."""
        targets = []
        for name, module, path, count_name, count in table:
            try:
                owner, attr = _resolve(importlib.import_module(module), path)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                raise TraceIntegrityError(
                    f"span {name}: call site {module}.{path} no longer exists"
                ) from None
            targets.append((name, owner, attr, raw, count_name, count))
        for name, owner, attr, raw, count_name, count in targets:
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            if not callable(fn):
                raise TraceIntegrityError(f"span {name}: {attr} is not callable")
            wrapped = self._wrap(name, fn, count_name, count)
            setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
            self._saved.append((owner, attr, raw))

    def uninstall(self):
        """Put every wrapped attribute back."""
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def _wrap(self, name, fn, count_name, count):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, self._stack[-1] if self._stack else -1, self.clock())
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                value = count(bound.arguments, result)
                span.counts = value if isinstance(value, dict) else {count_name: value}
            return result

        return wrapper

    def check_fired(self, expected):
        """Raise unless every name in ``expected`` has at least one span."""
        missing = sorted(set(expected) - {s.name for s in self.spans})
        if missing:
            raise TraceIntegrityError(f"expected spans never fired: {', '.join(missing)}")


def _union_length(intervals):
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for s, kids in zip(spans, children):
        clipped = [(max(k.start, s.start), min(k.end, s.end)) for k in kids]
        covered = _union_length((a, b) for a, b in clipped if b > a)
        out.append(s.end - s.start - covered)
    return out


def _inclusive(spans, name):
    """Wall time under spans called ``name``, counting nested ones once."""
    total = 0.0
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p >= 0 and spans[p].name != name:
            p = spans[p].parent
        if p < 0:
            total += s.end - s.start
    return total


def layer_metrics(spans, wall_s):
    """Per-layer metrics of one traced operation that took ``wall_s`` seconds."""
    self_s = {}
    counts = {}
    calls = {}
    for s, t in zip(spans, self_times(spans)):
        self_s[s.name] = self_s.get(s.name, 0.0) + t
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, value in s.counts.items():
            counts[(s.name, key)] = counts.get((s.name, key), 0) + value

    def st(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def ct(name, key):
        return counts.get((name, key), 0)

    def per(seconds, n, scale):
        return seconds / n * scale if n else 0.0

    streams = ct("channel.sample", "streams")
    phasors = ct("channel.field", "phasors")
    solves = ct("beamform.zf", "solves")
    rejected = ct("beamform.zf", "rejected")
    roots = [(s.start, s.end) for s in spans if s.parent < 0]
    return {
        "channel.sample.self_s": st("channel.sample"),
        "channel.sample.streams": streams,
        "channel.sample.us_per_stream": per(st("channel.sample"), streams, 1e6),
        "channel.field.self_s": st("channel.field"),
        "channel.field.phasors": phasors,
        "channel.field.bytes_computed": 16 * phasors,
        "channel.field.ns_per_phasor": per(st("channel.field"), phasors, 1e9),
        "channel.calibrate.total_s": _inclusive(spans, "channel.calibrate"),
        "channel.calibrate.draws": ct("channel.calibrate", "draws"),
        "beamform.zf.self_s": st("beamform.zf"),
        "beamform.zf.solves": solves,
        "beamform.zf.us_per_solve": per(st("beamform.zf"), solves, 1e6),
        "beamform.zf.rejected": rejected,
        "beamform.zf.accept_ratio": (solves - rejected) / solves if solves else 0.0,
        "beamform.refine.self_s": st("beamform.refine"),
        "beamform.refine.slices": ct("beamform.refine", "slices"),
        "engine.block.self_s": st("engine.block"),
        "engine.reduce.self_s": st("engine.reduce"),
        "engine.run.self_s": st("engine.run"),
        "engine.run.total_s": _inclusive(spans, "engine.run"),
        "engine.blocks": calls.get("engine.reduce", 0),
        "engine.runs": calls.get("engine.run", 0),
        "metrics.reduce.self_s": st("metrics.push_db", "metrics.from_batch", "metrics.merge"),
        "metrics.reduce.samples": ct("metrics.push_db", "samples")
        + ct("metrics.from_batch", "samples"),
        "synthesis.reference.total_s": _inclusive(spans, "synthesis.reference"),
        "synthesis.taper.self_s": st("synthesis.taper"),
        "cli.emit.self_s": st("cli.emit", "cli.write"),
        "cli.emit.bytes": ct("cli.write", "bytes"),
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - _union_length(roots),
    }
