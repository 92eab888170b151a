"""Statistics and bookkeeping of the benchmark, free of any package import.

* latency percentiles with the tail rule: report the median and the
  highest percentile of a fixed ladder that has at least ten samples
  beyond it.  The ladder stops at p90: on a shared 2-core VM the
  seed-to-seed spread of a pooled p99 of 1860 ribbon steps reached 27 %
  in a noisy period, against 13 % for p90, so higher percentiles mostly
  measured the host;
* span arithmetic: a span's self time is its duration minus the time its
  child spans cover, and the busy time of a group of spans counts each
  interval once even when spans of the group nest;
* the tally of attempted and failed units behind ``failed_share``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

LADDER = (50.0, 75.0, 90.0)
MIN_BEYOND = 10


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least MIN_BEYOND of n samples above it.

    Falls back to the median when n < 2 * MIN_BEYOND.  The comparison uses
    tenths of a percent so that fractional percentiles compare exactly.
    """
    best = LADDER[0]
    for p in LADDER:
        if n * (1000 - round(10 * p)) >= 1000 * MIN_BEYOND:
            best = p
    return best


def latency_summary(samples) -> dict:
    """Median and tail of per-operation latencies, with the sample count."""
    values = np.asarray(samples, dtype=float)
    if values.size == 0:
        raise ValueError("no operation completed; latency is undefined")
    p_tail = tail_percentile(values.size)
    return {
        "p50": float(np.percentile(values, 50.0)),
        "tail": float(np.percentile(values, p_tail)),
        "tail_percentile": p_tail,
        "samples": int(values.size),
    }


# ---------------------------------------------------------------------------
# spans: [name, parent index (-1 for a root), start, end]; parents precede
# their children in the list because a span is appended when it opens


def self_times(spans) -> list:
    """Duration of each span minus the summed durations of its children."""
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def module_self_times(spans) -> dict:
    """Self time summed per module, the part of a span name before the first dot."""
    out: dict = {}
    for (name, _, _, _), own in zip(spans, self_times(spans)):
        module = name.split(".", 1)[0]
        out[module] = out.get(module, 0.0) + own
    return out


def _under(spans, names) -> list:
    """For each span, whether one of its ancestors is named in ``names``."""
    flags = [False] * len(spans)
    for i, (_, parent, _, _) in enumerate(spans):
        if parent >= 0:
            flags[i] = flags[parent] or spans[parent][0] in names
    return flags


def group_stats(spans, names) -> tuple:
    """(calls, busy seconds) of the spans named in ``names``.

    A span nested inside another span of the group adds a call but no
    time, so recursion or a wrapper calling a sibling is not counted twice.
    """
    names = frozenset(names)
    under = _under(spans, names)
    calls = 0
    busy = 0.0
    for (name, _, start, end), nested in zip(spans, under):
        if name in names:
            calls += 1
            if not nested:
                busy += end - start
    return calls, busy


def count_within(spans, names, ancestors) -> int:
    """Number of spans named in ``names`` that run inside a span named in ``ancestors``."""
    under = _under(spans, frozenset(ancestors))
    return sum(1 for (name, _, _, _), inside in zip(spans, under) if inside and name in names)


# ---------------------------------------------------------------------------
# failed_share accounting


@dataclass
class Tally:
    """Attempted and failed units of a run.

    A unit is one timed operation, one correctness gate, or one probe.
    Probes exercise known-fragile defaults: they count towards
    ``failed_share`` but do not make the run's outputs incorrect.
    """

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    failed_outside_probes: int = 0

    def record(self, unit: str, ok: bool, detail: str = "", probe: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{unit}: {detail}" if detail else unit)
            if not probe:
                self.failed_outside_probes += 1

    @property
    def share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed_outside_probes == 0
