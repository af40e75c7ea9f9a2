"""Timing hooks installed from outside the treegrowth package.

Nothing inside the package is edited.  Each hook replaces a module-level
name, or a class attribute, that the package calls through with a wrapper
that notes the call and then calls the original.

There are two levels:

- Phase hooks are always on and cost one clock read per call.  They mark
  where a campaign's set-up ends (its first per-trial stream derivation,
  ``harness.stream_for``) and where its trial phase ends (the call to
  ``harness.summarize``).  They also keep the graph the campaign built, so
  its output can be checked without building the graph again.
- Spans are on in traced rounds only.  Each call through a wrapped name opens
  a span linked to the span that was open when the call was made.  Spans are
  kept in memory and summarised, or written out, when the round ends.

While ``paused`` is set, every hook passes straight through, so the
benchmark's own checks are neither timed nor counted.
"""

from __future__ import annotations

import gzip
import time
from collections import defaultdict

import numpy as np


class PhaseError(RuntimeError):
    """A campaign ran without passing a phase boundary the benchmark needs."""


class Recorder:
    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.paused = False
        self.spans: list = []  # (name, start, end, parent index or -1)
        self._stack = [-1]
        self.exp_draws = 0
        self.csr_bytes = 0
        self.unwrapped: list[str] = []
        self.start_campaign()

    # -- phase marks ------------------------------------------------------------

    def start_campaign(self) -> None:
        self.first_trial: float | None = None
        self.summarize_start: float | None = None
        self.built = None

    def campaign_phases(self, called_at: float) -> tuple[float, float]:
        """(set-up seconds, trial-phase seconds) of the campaign just run."""
        if self.built is None or self.first_trial is None or self.summarize_start is None:
            raise PhaseError(
                "the campaign did not call harness.build_family, harness.stream_for"
                " and harness.summarize; the phase hooks need updating"
            )
        return self.first_trial - called_at, self.summarize_start - self.first_trial

    def _mark_first_trial(self, args, kwargs) -> None:
        if self.first_trial is None:
            self.first_trial = time.perf_counter()

    def _mark_summarize(self, args, kwargs) -> None:
        self.summarize_start = time.perf_counter()

    def _keep_graph(self, result) -> None:
        self.built = result
        g = result[0]
        self.csr_bytes += g.adj_indptr.nbytes + g.adj_indices.nbytes + g.adj_edge_ids.nbytes

    def _count_draws(self, args, kwargs) -> None:
        size = args[1] if len(args) > 1 else kwargs.get("size")
        self.exp_draws += 1 if size is None else int(np.prod(size))

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, span_name, fn, on_call=None, on_result=None):
        rec = self
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        traced = self.traced

        def hooked(*args, **kwargs):
            if rec.paused:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs)
            if traced:
                idx = len(spans)
                spans.append(None)
                parent = stack[-1]
                stack.append(idx)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[idx] = (span_name, start, end, parent)
            else:
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return hooked

    def install(self, harness, growth, randomness, graphs) -> None:
        """Wrap the names the package calls through.

        The phase hooks must exist; a missing span target is noted in
        ``unwrapped`` and its layer then reads zero.
        """
        phase = (
            (harness, "build_family", "families.build_family", None, self._keep_graph),
            (harness, "stream_for", "randomness.stream_for", self._mark_first_trial, None),
            (harness, "summarize", "harness.summarize", self._mark_summarize, None),
        )
        for owner, attr, name, on_call, on_result in phase:
            if not hasattr(owner, attr):
                raise PhaseError(f"{owner.__name__}.{attr} is gone; the phase hooks need updating")
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), on_call, on_result))
        if not self.traced:
            return
        count_draws = self._count_draws
        spans = (
            (harness, "run_experiment", "harness.run_experiment", None),
            (harness, "grow_fpp", "growth.grow_fpp", None),
            (growth, "grow_fpp", "growth.grow_fpp", None),
            (harness, "grow_discrete", "growth.grow_discrete", None),
            (growth, "grow_discrete", "growth.grow_discrete", None),
            (growth.RootedTree, "depths", "growth.depths", None),
            (growth, "law_equivalence_test", "growth.law_equivalence_test", None),
            (growth, "sample_exponential", "randomness.sample_exponential", count_draws),
            (randomness, "sample_exponential", "randomness.sample_exponential", count_draws),
            (randomness, "sample_erlang", "randomness.sample_erlang", None),
            (randomness, "sample_two_stage_min", "randomness.sample_two_stage_min", None),
            (graphs.Graph, "eccentricity", "graphs.eccentricity", None),
            (graphs.Graph, "masked_weight_csr", "graphs.masked_weight_csr", None),
            (harness, "dijkstra", "harness.events_dijkstra", None),
            (harness, "bound_matrix", "counting.bound_matrix", None),
            (harness, "write_records_jsonl", "harness.write", None),
            (harness, "write_summary_csv", "harness.write", None),
            (harness, "write_verdicts_csv", "harness.write", None),
            (harness, "write_events_csv", "harness.write", None),
        )
        for owner, attr, name, on_call in spans:
            if hasattr(owner, attr):
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), on_call))
            else:
                self.unwrapped.append(f"{owner.__name__}.{attr}")

    # -- summaries --------------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _) in enumerate(self.spans):
            row = totals[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return {name: tuple(row) for name, row in totals.items()}

    def write_spans(self, path, origin: float) -> None:
        """Write every span as gzipped CSV, times in seconds from ``origin``."""
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start - origin!r},{end - origin!r}\n")
