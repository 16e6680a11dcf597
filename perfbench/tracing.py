"""Span tracing from outside the program: wrap each layer's public entry points.

:func:`install` replaces the public functions and methods listed in
:func:`layer_targets` with thin wrappers that record one span per call —
layer, function name, start, end, parent span and the trace id of the
session, tenant or cell being worked on — plus a few counters taken at the
same boundary (tokens, probes, sandbox errors, admission sheds, breaker
opens).  Nothing under ``src/`` changes; :meth:`Recorder.uninstall` puts
every original back.

Spans stay in memory until the run ends.  A layer's self time is its
spans' durations minus the part covered by child spans, so nested layers
(the sandbox inside the analysis agent, the simulator inside the runner)
never count the same interval twice.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

#: Layer of the spans the benchmark opens itself around one unit of work.
ROOT = "root"

#: Frame dunders that do real work (construction and column access).
_FRAME_DUNDERS = ("__init__", "__getitem__", "__setitem__")


class Recorder:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        #: ``[layer, name, start, end, parent index or -1, trace id]``
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.trace_id = ""
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        #: Open breaker sites last seen per BreakerState, for open counting.
        self._open_sites: dict[int, frozenset] = {}

    # -- spans -----------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str, name: str) -> list:
        stack = self._stack()
        span = [layer, name, perf_counter(), 0.0, stack[-1] if stack else -1, self.trace_id]
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[3] = perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, layer: str, name: str):
        span = self._open(layer, name)
        try:
            yield
        finally:
            self._close(span)

    # -- summaries -------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[4] >= 0:
                covered[span[4]] += span[3] - span[2]
        totals: dict[str, float] = defaultdict(float)
        for span, child in zip(self.spans, covered):
            totals[span[0]] += span[3] - span[2] - child
        return dict(totals)

    def inclusive(self, layer: str) -> float:
        """Seconds inside ``layer``'s outermost spans, children included."""
        spans = self.spans
        return sum(
            s[3] - s[2]
            for s in spans
            if s[0] == layer and (s[4] < 0 or spans[s[4]][0] != layer)
        )

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def root_seconds(self) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[0] == ROOT)

    def write(self, path: Path) -> None:
        """Write every span, one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps(["layer", "name", "start", "end", "parent", "trace"]) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

    # -- wrapping --------------------------------------------------------
    def _traced(self, fn, layer: str, observe=None):
        recorder = self
        name = getattr(fn, "__qualname__", getattr(fn, "__name__", layer))

        if inspect.isgeneratorfunction(fn):
            # Time each step of the generator, not its creation.
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    span = recorder._open(layer, name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        recorder._close(span)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = recorder._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                recorder.counts[f"{layer}.errors"] += 1
                raise
            finally:
                recorder._close(span)
            if observe is not None:
                observe(recorder, result, args, kwargs)
            return result

        return traced

    def wrap_attr(self, owner, attr: str, layer: str, observe=None) -> None:
        """Wrap ``owner.attr`` (function, method, property, static/classmethod)."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, staticmethod):
            new = staticmethod(self._traced(raw.__func__, layer, observe))
        elif isinstance(raw, classmethod):
            new = classmethod(self._traced(raw.__func__, layer, observe))
        elif isinstance(raw, property):
            new = property(self._traced(raw.fget, layer, observe), raw.fset, raw.fdel)
        else:
            new = self._traced(raw, layer, observe)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, new)

    def wrap_function(self, fn, layer: str, observe=None, within: str = "repro") -> None:
        """Wrap a module-level function in every module under ``within``
        (a dotted prefix) that binds it."""
        traced = self._traced(fn, layer, observe)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith(within):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, fn))
                    setattr(module, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()


# -- counters taken at layer boundaries ----------------------------------------
def _count_tokens(recorder: Recorder, result, args, kwargs) -> None:
    usage = args[2] if len(args) > 2 else kwargs.get("usage")
    if usage is not None:
        recorder.counts["llm.input_tokens"] += usage.input_tokens
        recorder.counts["llm.output_tokens"] += usage.output_tokens
        recorder.counts["llm.cached_tokens"] += usage.cached_input_tokens


def _count_probe(recorder: Recorder, result, args, kwargs) -> None:
    recorder.counts["core.runner.probes"] += 1


def _count_items(recorder: Recorder, result, args, kwargs) -> None:
    recorder.counts["sim.sweep.items"] += len(result)


def _count_rules(recorder: Recorder, result, args, kwargs) -> None:
    recorder.counts["rules.merges"] += 1
    recorder.counts["rules.carried"] += len(result)


def _count_shed(recorder: Recorder, result, args, kwargs) -> None:
    if not result.accepted:
        recorder.counts["service.admission.rejected"] += 1


def _count_breaker_opens(recorder: Recorder, result, args, kwargs) -> None:
    state = args[0]
    now = state.open_sites()
    before = recorder._open_sites.get(id(state), frozenset())
    recorder.counts["faults.breaker_opens"] += len(now - before)
    recorder._open_sites[id(state)] = now


def layer_targets():
    """``(owner or function, attribute or None, layer, observe)`` per wrapped entry point."""
    from repro.agents import analysis, reflection, sandbox
    from repro.agents.policies import get_policy, list_policies
    from repro.baselines.search import OracleSearch
    from repro.core.pipeline import SESSION_PIPELINE
    from repro.core.runner import ConfigurationRunner
    from repro.darshan import parser, tracer
    from repro.faults.breaker import BreakerState
    from repro.frame import frame, ops
    from repro.llm.backend import MockLLM
    from repro.llm.tokens import UsageLedger
    from repro.pfs import simulator
    from repro.rag.extraction import ParameterExtractor
    from repro.rules.model import RuleSet
    from repro.rules.store import RuleJournal
    from repro.service import daemon, scheduler
    from repro.service.admission import AdmissionController
    from repro.sim import batch, sweep
    from repro.sim.random import RngStreams

    targets = [
        (MockLLM, "complete", "llm", None),
        (UsageLedger, "record", "llm.ledger", _count_tokens),
        (UsageLedger, "record_retry", "llm.ledger", None),
        (analysis.AnalysisAgent, "initial_report", "agents.analysis", None),
        (analysis.AnalysisAgent, "answer", "agents.analysis", None),
        (sandbox.run_in_sandbox, None, "agents.sandbox", None),
        (tracer.trace_run, None, "darshan.trace", None),
        (tracer.truncate_log, None, "darshan.trace", None),
        (parser.parse_log, None, "darshan.parse", None),
        (ops.concat, None, "frame", None),
        (ops.merge_columns, None, "frame", None),
        (ConfigurationRunner, "initial_execution", "core.runner", _count_probe),
        (ConfigurationRunner, "measure", "core.runner", _count_probe),
        (reflection.merge_rules_via_llm, None, "rules.merge", _count_rules),
        (simulator.Simulator, "run", "sim.run", None),
        (sweep.run_items, None, "sim.sweep", _count_items),
        (batch.run_batch, None, "sim.sweep", _count_items),
        (simulator.run_noise, None, "sim.random", None),
        (sweep.first_normals, None, "sim.random", None),
        (ParameterExtractor, "run", "rag", None),
        (OracleSearch, "run", "search", None),
        (AdmissionController, "decide", "service.admission", _count_shed),
        (daemon.TuningService, "submit", "service.submit", None),
        (daemon.TuningService, "iter_results", "service.wait", None),
        # The daemon calls run_tenant itself only to re-run a tenant in the
        # breaker fold; the scheduler's calls are the tenants of a wave.
        (scheduler.run_tenant, None, "service.rerun", None, daemon.__name__),
        (scheduler.run_tenant, None, "service.tenant", None, scheduler.__name__),
        (BreakerState, "observe", "faults.breaker", _count_breaker_opens),
    ]
    for name in ("stream", "spawn", "lognormal_noise", "lognormal_noise_vector", "rep_seed"):
        targets.append((RngStreams, name, "sim.random", None))
    for name in ("append", "current", "replay", "to_json", "seeded", "merged"):
        targets.append((RuleJournal, name, "rules.journal", None))
    targets.append((RuleSet, "to_json", "rules.journal", None))
    for name, value in vars(frame.Frame).items():
        callable_ = inspect.isfunction(value) or isinstance(value, (staticmethod, classmethod))
        if callable_ and (not name.startswith("_") or name in _FRAME_DUNDERS):
            targets.append((frame.Frame, name, "frame", None))
    for stage in SESSION_PIPELINE.stages:
        targets.append((type(stage), "run", f"core.stage.{stage.name}", None))
    # Every registered policy's ``run``, wrapped once where it is defined.
    seen: set[int] = set()
    for name in list_policies():
        for klass in type(get_policy(name)).__mro__:
            if "run" in vars(klass) and id(klass) not in seen:
                seen.add(id(klass))
                targets.append((klass, "run", "agents.policy", None))
    return targets


def install(recorder: Recorder) -> Recorder:
    for owner, attr, layer, observe, *within in layer_targets():
        if attr is None:
            recorder.wrap_function(owner, layer, observe, *within)
        else:
            recorder.wrap_attr(owner, attr, layer, observe)
    return recorder
