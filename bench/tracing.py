"""Outside-in span recorder for the traced benchmark run.

Wrappers are installed on the module attributes through which callers reach
the package's public functions (for example ``survconcord.profiles.concordance``
is what ``run_multiverse`` calls), so spans nest
cli -> io / profiles -> resampling -> engine -> km without touching the
package.  Spans stay in memory and are written out when the run ends.  A
layer's self time is its spans' durations minus the time their child spans
cover.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

# (module path, attribute, span name); the span name's prefix is its layer.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("io", "read_subjects_csv", "io.read_subjects"),
    ("io", "read_matrix_csv", "io.read_matrix"),
    ("io", "write_json", "io.write_report"),
    ("io", "write_report_csv", "io.write_report"),
    ("io", "write_subjects_csv", "io.write_subjects"),
    ("cli", "interpolate", "transforms.interpolate"),
    ("profiles", "neg_rmst", "transforms.reduce"),
    ("profiles", "risk_at_time", "transforms.reduce"),
    ("profiles", "expected_mortality", "transforms.reduce"),
    ("synthetic", "neg_rmst", "transforms.reduce"),
    ("transforms", "neg_rmst", "transforms.reduce"),
    ("cli", "run_multiverse", "profiles.multiverse"),
    ("profiles", "run_multiverse", "profiles.multiverse"),
    ("profiles", "bootstrap_ci", "resampling.bootstrap"),
    ("profiles", "concordance", "engine.concordance"),
    ("synthetic", "concordance", "engine.concordance"),
    ("profiles", "concordance_td", "engine.concordance_td"),
    ("engine", "km_fit", "km.fit"),
    ("engine", "ipcw_weights", "km.ipcw"),
    ("data.SurvivalDataset", "subset", "data.subset"),
    ("cli", "generate_event_times", "synthetic.generate"),
    ("cli", "generate_censoring", "synthetic.generate"),
    ("cli", "assemble", "synthetic.generate"),
    ("synthetic.WeibullPHParams", "survival_matrix", "synthetic.generate"),
    ("cli", "oracle_cindex", "synthetic.oracle"),
)

_READS = {"io.read_subjects", "io.read_matrix"}
_WRITES = {"io.write_report", "io.write_subjects"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Recorder.spans, -1 for the job's root span
    job: int
    pairs: int = 0   # ordered pairs n(n-1) of an engine call
    repeat: bool = False
    resamples: int = 0
    failed: int = 0
    nbytes: int = 0
    scored: int = 0


@dataclass
class Recorder:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _seen: set = field(default_factory=set)
    job: int = -1

    def begin_job(self, job: int) -> None:
        self.job = job
        self._seen = set()

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.job))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def counted_before(self, key) -> bool:
        seen = key in self._seen
        self._seen.add(key)
        return seen

    def install(self, sc):
        """Wrap every target; returns a function that restores the originals."""
        saved = []
        for owner_path, attr, name in TARGETS:
            owner = sc
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(self, name, original))

        def uninstall():
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

        return uninstall


def _wrap(rec: Recorder, name: str, fn):
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        span = rec.spans[idx]
        if name in _READS or name in _WRITES:
            span.nbytes = os.path.getsize(args[0])
        elif name == "engine.concordance":
            ds, risks, policy = args[0], args[1], args[2]
            span.pairs = ds.n * (ds.n - 1)
            key = (ds.times.tobytes(), ds.events.tobytes(),
                   np.asarray(risks, dtype=float).tobytes(), policy.tie_tolerance)
            span.repeat = rec.counted_before(key)
        elif name == "engine.concordance_td":
            span.pairs = args[0].n * (args[0].n - 1)
        elif name == "resampling.bootstrap":
            span.resamples = kwargs["n_resamples"]
            span.failed = result.n_failed
        elif name == "profiles.multiverse":
            span.scored = sum(r.error is None for r in result.results)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def self_times(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


# Per-layer metrics: name -> unit.  Times are per-job medians of the summed
# self time; counts are per job; ratios are over the whole traced window.
PER_LAYER = {
    "cli.self_s": "s",
    "io.read_subjects_s": "s",
    "io.read_matrix_s": "s",
    "io.write_report_s": "s",
    "io.write_subjects_s": "s",
    "io.bytes_read": "bytes",
    "io.bytes_written": "bytes",
    "data.subset_s": "s",
    "data.subset_calls": "count",
    "transforms.interpolate_s": "s",
    "transforms.reduce_s": "s",
    "profiles.multiverse_self_s": "s",
    "profiles.profiles_scored": "count",
    "resampling.bootstrap_self_s": "s",
    "resampling.resamples": "count",
    "resampling.failed_ratio": "ratio",
    "engine.concordance_self_s": "s",
    "engine.concordance_calls": "count",
    "engine.ns_per_pair": "ns",
    "engine.repeat_count_ratio": "ratio",
    "engine.concordance_share": "ratio",
    "engine.td_self_s": "s",
    "engine.td_calls": "count",
    "engine.td_ns_per_pair": "ns",
    "engine.td_share": "ratio",
    "km.fit_s": "s",
    "km.fit_calls": "count",
    "km.ipcw_s": "s",
    "synthetic.generate_s": "s",
    "synthetic.oracle_self_s": "s",
    "io.read_matrix_share": "ratio",
    "trace.job_self_s": "s",
    "trace.layer_sum_s": "s",
    "trace.job_p50_s": "s",
    "trace.overhead_ratio": "ratio",
}

_SELF = {
    "cli.self_s": "cli.main",
    "io.read_subjects_s": "io.read_subjects",
    "io.read_matrix_s": "io.read_matrix",
    "io.write_report_s": "io.write_report",
    "io.write_subjects_s": "io.write_subjects",
    "data.subset_s": "data.subset",
    "transforms.interpolate_s": "transforms.interpolate",
    "transforms.reduce_s": "transforms.reduce",
    "profiles.multiverse_self_s": "profiles.multiverse",
    "resampling.bootstrap_self_s": "resampling.bootstrap",
    "engine.concordance_self_s": "engine.concordance",
    "engine.td_self_s": "engine.concordance_td",
    "km.fit_s": "km.fit",
    "km.ipcw_s": "km.ipcw",
    "synthetic.generate_s": "synthetic.generate",
    "synthetic.oracle_self_s": "synthetic.oracle",
    "trace.job_self_s": "job",
}
_CALLS = {
    "data.subset_calls": "data.subset",
    "engine.concordance_calls": "engine.concordance",
    "engine.td_calls": "engine.concordance_td",
    "km.fit_calls": "km.fit",
}


def summarize(spans: list[Span], untraced_times: list[float]) -> dict[str, float]:
    """Per-layer metrics from the traced jobs' spans (root span name: job)."""
    selfs = self_times(spans)
    jobs = sorted({s.job for s in spans})
    per_job = {j: {} for j in jobs}
    for s, st in zip(spans, selfs):
        acc = per_job[s.job]
        acc[s.name] = acc.get(s.name, 0.0) + st
        acc["#" + s.name] = acc.get("#" + s.name, 0) + 1
        if s.name == "job":
            acc["wall"] = s.end - s.start

    def median(fn) -> float:
        return statistics.median(fn(per_job[j]) for j in jobs)

    m: dict[str, float] = {}
    for metric, name in _SELF.items():
        m[metric] = median(lambda acc: acc.get(name, 0.0))
    for metric, name in _CALLS.items():
        m[metric] = median(lambda acc: acc.get("#" + name, 0))
    m["trace.layer_sum_s"] = sum(v for k, v in m.items()
                                 if k in _SELF and k != "trace.job_self_s")
    m["trace.job_p50_s"] = median(lambda acc: acc["wall"])
    m["trace.overhead_ratio"] = m["trace.job_p50_s"] / statistics.median(untraced_times) - 1.0

    n_jobs = len(jobs)

    def total(name, attr):
        return sum(getattr(s, attr) for s in spans if s.name == name)

    def total_self(name):
        return sum(st for s, st in zip(spans, selfs) if s.name == name)

    m["io.bytes_read"] = sum(s.nbytes for s in spans if s.name in _READS) / n_jobs
    m["io.bytes_written"] = sum(s.nbytes for s in spans if s.name in _WRITES) / n_jobs
    m["profiles.profiles_scored"] = total("profiles.multiverse", "scored") / n_jobs
    resamples = total("resampling.bootstrap", "resamples")
    m["resampling.resamples"] = resamples / n_jobs
    m["resampling.failed_ratio"] = (total("resampling.bootstrap", "failed") / resamples
                                    if resamples else 0.0)
    calls = [s for s in spans if s.name == "engine.concordance"]
    m["engine.repeat_count_ratio"] = (sum(s.repeat for s in calls) / len(calls)
                                      if calls else 0.0)
    for metric, name in (("engine.ns_per_pair", "engine.concordance"),
                         ("engine.td_ns_per_pair", "engine.concordance_td")):
        pairs = total(name, "pairs")
        m[metric] = total_self(name) / pairs * 1e9 if pairs else 0.0
    wall = sum(per_job[j]["wall"] for j in jobs)
    m["engine.concordance_share"] = total_self("engine.concordance") / wall
    m["engine.td_share"] = total_self("engine.concordance_td") / wall
    m["io.read_matrix_share"] = total_self("io.read_matrix") / wall
    return {k: m[k] for k in PER_LAYER}


def spans_to_json(spans: list[Span]) -> list[list]:
    return [[s.name, s.start, s.end, s.parent, s.job] for s in spans]
