"""Golden digests of everything the agent/model conversation produces.

The digests pin, per scenario group, the sha256 of:

- every rendered prompt, with the session it was sent under (the text that
  drives token counting and the prompt cache);
- every completion the model returned (content, tool calls, usage);
- every ``session_to_dict`` record plus the transcript event payloads;
- the per-agent usage ledgers and LLM latency of each session;
- the merged rule journal and its flattened rule set.

Scenario groups: one ``tune_and_accumulate`` chain per backend over every
workload x policy; the four ablations (``use_rules``, ``use_descriptions``,
``use_analysis`` off, ``user_accessible_only`` on) on the chained engine;
one engine under ``FaultPlan.uniform(0.1)``; the offline extraction per
backend; and Figure 2 (the parametric-knowledge question per model, then
the RAG extraction it is contrasted with).

``tests/test_prompt_contract.py`` asserts the digests equal the recorded
fixture.  Regenerate the fixture only for an intended behaviour change::

    PYTHONPATH=src python tests/prompt_golden.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from repro.agents.policies import list_policies
from repro.backends import list_backends
from repro.cluster.hardware import make_cluster
from repro.core.engine import Stellar
from repro.experiments import fig2
from repro.faults.plan import FaultPlan
from repro.llm.backend import MockLLM
from repro.llm.client import LLMClient
from repro.llm.tokens import PromptCache
from repro.rag.extraction import ParameterExtractor
from repro.rules.store import session_to_dict
from repro.workloads import get_workload, list_workloads

FIXTURE = Path(__file__).parent / "fixtures" / "prompt_contract_golden.json"

CHAIN_SEED = 7
FAULT_SEED = 3
ABLATIONS = {
    "no_rules": {"use_rules": False},
    "no_descriptions": {"use_descriptions": False},
    "no_analysis": {"use_analysis": False},
    "user_accessible_only": {"user_accessible_only": True},
}


def _canon(value) -> bytes:
    return json.dumps(value, sort_keys=True, default=repr).encode()


class Capture:
    """Running sha256 digests of one scenario group."""

    def __init__(self):
        self.hashes = {
            name: hashlib.sha256()
            for name in ("prompts", "completions", "sessions", "ledgers", "journal")
        }

    def add(self, name: str, value) -> None:
        self.hashes[name].update(_canon(value))
        self.hashes[name].update(b"\n")

    def session(self, session) -> None:
        self.add("sessions", session_to_dict(session))
        self.add(
            "sessions",
            [[e.kind, e.detail, e.payload] for e in session.transcript.events],
        )
        self.add(
            "ledgers",
            {
                "usage": {
                    agent: dataclasses.asdict(usage)
                    for agent, usage in session.usage.items()
                },
                "llm_latency": session.llm_latency,
            },
        )

    def journal(self, engine: Stellar) -> None:
        self.add("journal", engine.journal.to_json())
        self.add("journal", engine.rule_set.to_json())

    def digests(self) -> dict[str, str]:
        return {name: h.hexdigest() for name, h in self.hashes.items()}


@contextmanager
def capturing(capture: Capture):
    """Route every prompt and completion of the mock model into ``capture``."""
    lookup = PromptCache.lookup_and_store
    complete = MockLLM.complete

    def traced_lookup(self, session, prompt):
        capture.add("prompts", [session, prompt])
        return lookup(self, session, prompt)

    def traced_complete(self, *args, **kwargs):
        completion = complete(self, *args, **kwargs)
        capture.add(
            "completions",
            [
                completion.content,
                [[c.name, c.arguments] for c in completion.tool_calls],
                dataclasses.asdict(completion.usage),
                completion.model,
            ],
        )
        return completion

    PromptCache.lookup_and_store = traced_lookup
    MockLLM.complete = traced_complete
    try:
        yield capture
    finally:
        PromptCache.lookup_and_store = lookup
        MockLLM.complete = complete


def _run(capture: Capture, engine: Stellar, workload: str, accumulate: bool, **kwargs):
    try:
        if accumulate:
            session = engine.tune_and_accumulate(get_workload(workload), **kwargs)
        else:
            session = engine.tune(get_workload(workload), **kwargs)
    except Exception as exc:  # noqa: BLE001 - a raised run is part of the record
        capture.add("sessions", ["raised", type(exc).__name__, str(exc)])
        return
    capture.session(session)


def compute() -> dict[str, dict[str, str]]:
    """Every scenario group's digests (a few seconds of work)."""
    groups: dict[str, dict[str, str]] = {}
    pairs = [(w, p) for w in list_workloads() for p in list_policies()]
    for backend in list_backends():
        cluster = make_cluster(backend=backend)

        capture = Capture()
        with capturing(capture):
            extraction = ParameterExtractor(cluster, LLMClient("gpt-4o", seed=0)).run()
        capture.add("sessions", dataclasses.asdict(extraction))
        groups[f"extraction/{backend}"] = capture.digests()

        capture = Capture()
        engine = Stellar(
            cluster=cluster, model="claude-3.7-sonnet", extraction=extraction,
            seed=CHAIN_SEED,
        )
        with capturing(capture):
            for workload, policy in pairs:
                _run(capture, engine, workload, accumulate=True, policy=policy)
        capture.journal(engine)
        groups[f"chain/{backend}"] = capture.digests()

        for name, flags in ABLATIONS.items():
            capture = Capture()
            with capturing(capture):
                for workload in list_workloads():
                    _run(capture, engine, workload, accumulate=False, **flags)
                for policy in list_policies():
                    _run(capture, engine, "IOR_64K", accumulate=False, policy=policy, **flags)
            groups[f"ablation/{name}/{backend}"] = capture.digests()

        capture = Capture()
        faulted = Stellar(
            cluster=cluster, model="claude-3.7-sonnet", extraction=extraction,
            seed=FAULT_SEED, faults=FaultPlan.uniform(0.1, seed=FAULT_SEED),
        )
        with capturing(capture):
            for workload, policy in pairs:
                _run(capture, faulted, workload, accumulate=True, policy=policy)
        capture.journal(faulted)
        groups[f"faulted/{backend}"] = capture.digests()

    capture = Capture()
    with capturing(capture):
        capture.add("sessions", dataclasses.asdict(fig2.run(make_cluster())))
    groups["fig2"] = capture.digests()
    return groups


if __name__ == "__main__":
    result = compute()
    if "--write" in sys.argv[1:]:
        FIXTURE.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result, indent=1, sort_keys=True))
