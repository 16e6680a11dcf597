"""The :class:`AgentPolicy` protocol and its registry.

A policy owns ONE turn-taking strategy for the tuning loop — which agent
talks when, how proposals become probe runs, and when the session ends —
over the narrow :class:`PolicyContext` seam.  Everything else (prompt
section builders, the probe, the analysis minor loop, fault absorption,
Reflect & Summarize) is shared machinery from :mod:`repro.agents.tuning`.

Import-graph rules (mirrored in ROADMAP "Architecture: agent policies"):
policies live in the agents layer, read cluster configuration only through
the facts and parameter infos already in their context, and hold no
backend-specific parameter tables — backend detection happens inside the
model (:func:`repro.backends.detect_backend`), exactly as for the default
loop.  ``core``/``service`` depend on this package, never the reverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.agents.analysis import AnalysisAgent
from repro.agents.transcript import Transcript
from repro.agents.tuning import ConfigurationRunnerLike, TuningLoopResult
from repro.llm.client import LLMClient
from repro.llm.promptparse import IOReport, ParameterInfo
from repro.llm.prompts import GlobalRules


@dataclass
class PolicyContext:
    """Everything one turn-taking strategy needs for one tuning run.

    Field-for-field the former :class:`~repro.agents.tuning.TuningAgent`
    constructor surface, so the default policy reconstructs the
    pre-refactor loop byte for byte.
    """

    client: LLMClient
    parameters: list[ParameterInfo]
    hardware_description: str
    facts: dict[str, float]
    runner: ConfigurationRunnerLike
    report: IOReport | None
    analysis_agent: AnalysisAgent | None = None
    #: The global rule set: the journal's rendered view, or plain rule dicts.
    rules_json: GlobalRules | list[dict] = field(default_factory=list)
    max_attempts: int = 5
    transcript: Transcript | None = None
    session: str = "tuning"
    fs_family: str = "Lustre"


@runtime_checkable
class AgentPolicy(Protocol):
    """One turn-taking strategy over a :class:`PolicyContext`."""

    name: str

    def run(self, ctx: PolicyContext) -> TuningLoopResult: ...


#: Registration order is presentation order (CLI choices, experiments).
_REGISTRY: dict[str, AgentPolicy] = {}


def register_policy(policy: AgentPolicy) -> AgentPolicy:
    if policy.name in _REGISTRY:
        raise ValueError(f"agent policy {policy.name!r} is already registered")
    _REGISTRY[policy.name] = policy
    return policy


def list_policies() -> list[str]:
    """Registered policy names, in registration order."""
    return list(_REGISTRY)


def get_policy(name: str) -> AgentPolicy:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown agent policy {name!r}; registered: "
            f"{', '.join(_REGISTRY)}"
        ) from None


def resolve_policy(policy: "AgentPolicy | str | None") -> AgentPolicy:
    """``None`` -> the default (reflection), a name -> its registration,
    an instance -> itself."""
    if policy is None:
        return _REGISTRY["reflection"]
    if isinstance(policy, str):
        return get_policy(policy)
    return policy
