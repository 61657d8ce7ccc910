"""In-memory spans and work counts for the traced benchmark run.

Spans are recorded from the benchmark's own code, around each call into a
stopline layer.  A span's self time is its duration minus the time its
direct children cover.  Counts are read only from objects the library
returns (`LevelStats`, `GenealogyRecord`, `LineOutcome`), never from its
internals.
"""
from __future__ import annotations

import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# at most this many (seed, label) keys are kept for timing label_stream
STREAM_SAMPLE = 3000


class Tracer:
    """Nested timing spans, kept in memory until the run ends."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self._open = []

    @contextmanager
    def span(self, name: str):
        rec = [name, self._open[-1] if self._open else -1, perf_counter(), 0.0]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[3] = perf_counter()
            self._open.pop()

    def busy(self) -> dict:
        """Total duration per span name."""
        out = defaultdict(float)
        for name, _, start, end in self.spans:
            out[name] += end - start
        return out

    def self_times(self) -> dict:
        """Duration minus direct children's durations, summed per span name."""
        covered = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(float)
        for (name, _, start, end), child in zip(self.spans, covered):
            out[name] += end - start - child
        return out

    def durations(self, name: str) -> list:
        return [end - start for n, _, start, end in self.spans if n == name]

    def write(self, path) -> None:
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [[name, parent, start - t0, end - t0] for name, parent, start, end in self.spans]
        with open(path, "w") as f:
            json.dump({"columns": ["name", "parent", "start_s", "end_s"], "spans": rows}, f)


class Counts:
    """Work counters filled from the objects each layer returns."""

    def __init__(self):
        self.picard_steps = 0
        self.inner_iterations = 0
        self.forests = 0
        self.particles = 0
        self.path_samples = 0
        self.proposals = 0
        # every particle of the forests a line is evaluated on, including
        # those outside an evaluated subtree; the DPP forests are not counted
        self.line_particles = 0
        self.useful_particles = 0
        self.stops = 0
        self.forced_stops = 0
        self.abandoned = 0
        self.stops_at_birth = 0
        self.rewards = 0
        self.zero_rewards = 0
        self.stream_keys = []

    def grid(self, grid) -> None:
        for level in grid.stats:
            self.picard_steps += level.picard_iterations
            self.inner_iterations += sum(level.psor_sweeps)

    def forest(self, record, lined: bool = True) -> None:
        """One simulated forest; `lined` when a line is evaluated on it."""
        n = len(record.particles)
        self.forests += 1
        self.particles += n
        self.path_samples += sum(len(p.times) for p in record.particles.values())
        self.proposals += record.proposals
        if lined:
            self.line_particles += n
        room = STREAM_SAMPLE - len(self.stream_keys)
        if room > 0:
            self.stream_keys.extend((record.seed, lab) for lab in list(record.particles)[:room])

    def line(self, outcome) -> None:
        parts = outcome.record.particles
        stopped = {s.label for s in outcome.stops}
        self.stops += len(outcome.stops)
        self.forced_stops += sum(1 for s in outcome.stops if s.forced)
        self.abandoned += len(outcome.passed_alive)
        self.stops_at_birth += sum(1 for s in outcome.stops if s.time == parts[s.label].birth_time)
        self.useful_particles += sum(
            1 for lab in parts if not any(lab[:k] in stopped for k in range(len(lab)))
        )

    def reward(self, value: float) -> None:
        self.rewards += 1
        self.zero_rewards += value == 0.0


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(tracer: Tracer, counts: Counts, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass (stream cost and overhead added later)."""
    busy = tracer.busy()
    own = tracer.self_times()
    reps = sorted(tracer.durations("rep"))
    pct = (lambda q: 1e3 * statistics.quantiles(reps, n=100, method="inclusive")[q - 1]
           if len(reps) > 1 else 1e3 * sum(reps))
    return {
        "pde.busy_s": busy["pde"],
        "pde.picard_steps": counts.picard_steps,
        "pde.inner_iterations": counts.inner_iterations,
        "pde.us_per_inner_iteration": _ratio(busy["pde"], counts.inner_iterations, 1e6),
        "simulator.busy_s": busy["simulator"],
        "simulator.forests": counts.forests,
        "simulator.particles": counts.particles,
        "simulator.path_samples": counts.path_samples,
        "simulator.proposals": counts.proposals,
        "simulator.us_per_particle": _ratio(busy["simulator"], counts.particles, 1e6),
        "simulator.useful_particle_frac": _ratio(counts.useful_particles, counts.line_particles),
        "stopping.busy_s": busy["stopping"],
        "stopping.stops": counts.stops,
        "stopping.forced_stops": counts.forced_stops,
        "stopping.abandoned": counts.abandoned,
        "stopping.stops_at_birth": counts.stops_at_birth,
        "reward.busy_s": busy["reward"],
        "reward.zero_frac": _ratio(counts.zero_rewards, counts.rewards),
        # the replication loop's own time belongs to the estimator that runs it
        "verify.self_s": own["verify"] + own["rep"],
        "rep.count": len(reps),
        "rep.p50_ms": pct(50) if reps else 0.0,
        "rep.p99_ms": pct(99) if reps else 0.0,
        "trace.self_s": busy["trace"],
        "trace.accounted_frac": _ratio(sum(own.values()), wall_s),
    }


def stream_us(counts: Counts) -> float:
    """Mean cost of deriving one particle stream, over the traced labels."""
    from stopline.simulator import label_stream

    keys = counts.stream_keys
    if not keys:
        return 0.0
    start = perf_counter()
    for seed, label in keys:
        label_stream(seed, label)
    return 1e6 * (perf_counter() - start) / len(keys)
