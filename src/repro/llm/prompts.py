"""The typed prompt contract between the agents and the model backend.

Every request the agents send carries a :class:`Prompt` — a
:class:`PromptId` plus that task's typed input — next to its rendered chat
messages.  The contract has four rules:

1. **text = render(input).**  The task message of a request is exactly
   :func:`render_prompt` of its typed input; that text is what token
   counting, the prompt cache and the usage ledgers see.
2. **The model reads only the typed input.**  The mock backend dispatches
   on the id and never parses its prompt text back.
3. **Display precision.**  A typed input holds values as the text shows
   them, never more: attempt runtimes and speedups at ``:.3f``, hardware
   facts at ``:g``, I/O-report metrics at ``.12g``, change maps with sorted
   keys, rules as their JSON round trip.  The ``shown_*`` builders apply
   it, so a decision can never depend on a digit the prompt hides.
4. **Output stays text.**  Model answers are parsed strictly, with
   fallbacks, by the agents (the analysis ``REPORT READY`` section, the
   reflection and merge JSON, the critic verdict) — that is the seam a real
   model would use.

Typed inputs are frozen and expose read-only containers (tuples and
mapping proxies), so the model cannot reach agent-owned state through
them; the agents build each input once per run and update it in place
between turns through its ``add_*``/``show_*`` methods.

The global rule set (§4.4.1) is rendered once per rule-journal version as
a :class:`GlobalRules`: its frozen rule list, one JSON fragment per rule,
and the ``## GLOBAL RULE SET`` section joined from the fragments — byte
for byte ``json.dumps(rules, indent=1)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from json.encoder import encode_basestring_ascii
from collections.abc import Mapping, Sequence
from types import MappingProxyType
from typing import Any

from repro.llm.promptparse import (
    S_RULES,
    AttemptRecord,
    IOReport,
    ParameterInfo,
    build_hardware_section,
    build_history_section,
    build_io_report_section,
    build_parameter_section,
)


class PromptId(Enum):
    """Every task the model answers; the value is the prompt's task header."""

    TOOL_TURN = "TOOL TURN"  # the tool-bearing tuning turn has no header
    REACT_DECIDE = "REACT DECIDE"
    REACT_THOUGHT = "REACT THOUGHT"
    CRITIC_REVIEW = "CRITIC REVIEW"
    SUMMARIZE_RULES = "SUMMARIZE RULES"
    MERGE_RULES = "MERGE RULES"
    ANALYZE_IO = "ANALYZE IO"
    FOLLOWUP_ANALYSIS = "FOLLOWUP ANALYSIS"
    JUDGE_DOCUMENTATION = "JUDGE DOCUMENTATION"
    DESCRIBE_PARAMETER = "DESCRIBE PARAMETER"
    JUDGE_IMPACT = "JUDGE IMPACT"
    PARAM_INFO = "PARAM INFO"


@dataclass(frozen=True)
class Prompt:
    """One request's task: its id and typed input."""

    id: PromptId
    input: Any

    @property
    def text(self) -> str:
        return render_prompt(self.id, self.input)


# ---------------------------------------------------------------------------
# Display precision: values as the rendered text shows them.
# ---------------------------------------------------------------------------
#: Types a JSON value is made of that need no copying.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def freeze_json(value):
    """A read-only deep copy of a JSON-shaped value."""
    if type(value) in _SCALARS:
        return value
    if isinstance(value, Mapping):
        return MappingProxyType(
            {k: v if type(v) in _SCALARS else freeze_json(v) for k, v in value.items()}
        )
    if isinstance(value, (list, tuple)):
        return tuple([v if type(v) in _SCALARS else freeze_json(v) for v in value])
    return value


def _thaw_json(value):
    if isinstance(value, Mapping):
        return {k: _thaw_json(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [_thaw_json(v) for v in value]
    return value


def shown_changes(changes: Mapping[str, int]) -> Mapping[str, int]:
    """A change map as ``json.dumps(changes, sort_keys=True)`` shows it."""
    return MappingProxyType({str(k): int(changes[k]) for k in sorted(changes)})


def shown_attempt(attempt: AttemptRecord) -> AttemptRecord:
    """An attempt as its history line shows it (no rationale, ``:.3f``)."""
    return AttemptRecord(
        index=attempt.index,
        changes=shown_changes(attempt.changes),
        seconds=float(f"{attempt.seconds:.3f}"),
        speedup=float(f"{attempt.speedup:.3f}"),
    )


def shown_facts(facts: Mapping[str, float]) -> Mapping[str, float]:
    return MappingProxyType({k: float(f"{v:g}") for k, v in sorted(facts.items())})


def shown_report(report: IOReport) -> IOReport:
    return IOReport(
        summary=report.summary,
        metrics=MappingProxyType(
            {k: float(f"{v:.12g}") for k, v in sorted(report.metrics.items())}
        ),
        followups=MappingProxyType(dict(report.followups)),
    )


# ---------------------------------------------------------------------------
# The global rule set, rendered once per journal version.
# ---------------------------------------------------------------------------
_encode = encode_basestring_ascii


def _json_scalar(value) -> str:
    # The exact spellings of ``json.dumps``' encoder.
    if isinstance(value, str):
        return _encode(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (float("inf"), float("-inf")):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_key(key) -> str:
    return _encode(key if isinstance(key, str) else _json_scalar(key))


def _json_indented(value, pad: str) -> str:
    """``json.dumps(value, indent=1)`` at nesting ``pad``.

    Dispatches on the concrete type first and sends strings (most of a
    rule) straight to the C string encoder; ABC ``isinstance`` checks,
    which would dominate the cost, only run for other types.
    """
    cls = type(value)
    if cls is str:
        return _encode(value)
    if cls is dict or cls is MappingProxyType or (
        cls not in _SCALARS and isinstance(value, Mapping)
    ):
        return _json_object(value, pad)
    if cls is list or cls is tuple or (
        cls not in _SCALARS and isinstance(value, (list, tuple))
    ):
        return _json_array(value, pad)
    return _json_scalar(value)


def _json_object(obj: Mapping, pad: str) -> str:
    if not obj:
        return "{}"
    inner = pad + " "
    parts = []
    for key, value in obj.items():
        cls = type(value)
        if cls is str:
            text = _encode(value)
        elif value is None:
            text = "null"
        elif cls is int:
            text = int.__repr__(value)
        elif cls is float and value - value == 0.0:  # finite
            text = float.__repr__(value)
        else:
            text = _json_indented(value, inner)
        parts.append(f"{_encode(key) if type(key) is str else _json_key(key)}: {text}")
    return "{\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "}"


def _json_array(items: Sequence, pad: str) -> str:
    if not items:
        return "[]"
    inner = pad + " "
    if all(type(item) is str for item in items):
        parts = map(_encode, items)
    else:
        parts = [_json_indented(item, inner) for item in items]
    return "[\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "]"


def rule_fragment(rule: Mapping[str, Any]) -> str:
    """One rule as it appears inside ``json.dumps(rules, indent=1)``."""
    return " " + _json_indented(rule, " ")


def join_fragments(fragments: Sequence[str]) -> str:
    """The rule list whose per-rule fragments are ``fragments``."""
    return "[\n" + ",\n".join(fragments) + "\n]" if fragments else "[]"


def dumps_rules(rules: Sequence[Mapping[str, Any]]) -> str:
    """``json.dumps(rules, indent=1)``, rendered one rule at a time."""
    return join_fragments([rule_fragment(rule) for rule in rules])


class GlobalRules:
    """The global rule set as a prompt shows it.

    ``rules`` is the frozen rule list (the JSON round trip of the section);
    ``fragments`` (one rendered JSON fragment per rule) and ``section``
    (the ``## GLOBAL RULE SET`` block) are rendered on first use and kept.
    ``canonical`` marks rules that are ``Rule.to_dict`` output, so a
    model's merge answer may reuse the fragment of every rule it keeps.
    """

    def __init__(self, rules: Sequence[Mapping[str, Any]], canonical: bool = False):
        object.__setattr__(self, "rules", freeze_json(rules))
        object.__setattr__(self, "canonical", canonical)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    @classmethod
    def of(cls, rules: "GlobalRules | Sequence[Mapping[str, Any]] | None") -> "GlobalRules":
        """``rules`` itself, or a frozen view of a plain rule list."""
        return rules if isinstance(rules, GlobalRules) else cls(list(rules or []))

    def __len__(self) -> int:
        return len(self.rules)

    @cached_property
    def fragments(self) -> tuple[str, ...]:
        return tuple(rule_fragment(rule) for rule in self.rules)

    @cached_property
    def section(self) -> str:
        return f"## {S_RULES}\n" + join_fragments(self.fragments)

    def to_json(self) -> list[dict[str, Any]]:
        """A mutable copy of the rule list."""
        return _thaw_json(self.rules)


# ---------------------------------------------------------------------------
# Typed inputs
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TuningContext:
    """The Tuning Agent's context, as its prompts show it.

    The input of the tool turn, the ReACT decide and thought turns and
    Reflect & Summarize; each renders (and the model reads) a subset.
    """

    hardware_description: str
    parameters: tuple[ParameterInfo, ...]
    facts: Mapping[str, float]
    rules: GlobalRules
    report: IOReport | None
    initial_seconds: float
    attempts: tuple[AttemptRecord, ...] = ()
    max_attempts: int = 5
    #: Proposals a critic refused this run (propose/critic policy only);
    #: the policy treats them as tried so a veto can never livelock the loop.
    vetoed: tuple[Mapping[str, int], ...] = ()
    #: The running ReACT transcript (Thought / Action / Observation lines).
    transcript: tuple[str, ...] = ()

    @classmethod
    def build(
        cls,
        hardware_description: str,
        parameters: Sequence[ParameterInfo],
        facts: Mapping[str, float],
        rules: "GlobalRules | Sequence[Mapping[str, Any]] | None",
        report: IOReport | None,
        initial_seconds: float,
        max_attempts: int = 5,
    ) -> "TuningContext":
        return cls(
            hardware_description=hardware_description,
            parameters=tuple(parameters),
            facts=shown_facts(facts),
            rules=GlobalRules.of(rules),
            report=shown_report(report) if report is not None else None,
            initial_seconds=float(f"{initial_seconds:.3f}"),
            max_attempts=max_attempts,
        )

    # -- in-place updates between turns (the agent's, not the model's) ---
    def add_attempt(self, attempt: AttemptRecord) -> None:
        object.__setattr__(self, "attempts", (*self.attempts, shown_attempt(attempt)))

    def show_report(self, report: IOReport) -> None:
        object.__setattr__(self, "report", shown_report(report))
        self.__dict__.pop("report_section", None)

    def add_veto(self, changes: Mapping[str, int]) -> None:
        object.__setattr__(self, "vetoed", (*self.vetoed, shown_changes(changes)))

    def add_line(self, line: str) -> None:
        object.__setattr__(self, "transcript", (*self.transcript, line))

    # -- what the model reads ----------------------------------------------
    def parameter(self, name: str) -> ParameterInfo | None:
        for p in self.parameters:
            if p.name == name:
                return p
        return None

    def has_descriptions(self) -> bool:
        return any(p.description for p in self.parameters)

    # -- sections that never change within a run ---------------------------
    @cached_property
    def hardware_section(self) -> str:
        return build_hardware_section(self.hardware_description, self.facts)

    @cached_property
    def parameter_section(self) -> str:
        return build_parameter_section(list(self.parameters))

    @cached_property
    def report_section(self) -> str | None:
        """Rendered until :meth:`show_report` replaces the report."""
        return None if self.report is None else build_io_report_section(self.report)


@dataclass(frozen=True)
class ProposalReview:
    """CRITIC REVIEW: one drafted ``run_configuration`` against the context."""

    context: TuningContext
    changes: Mapping[str, int]
    rationale: str


@dataclass(frozen=True)
class RuleMerge:
    """MERGE RULES: new rules to fold into the global rule set."""

    existing: GlobalRules
    new: tuple[Mapping[str, Any], ...]


@dataclass(frozen=True)
class AnalysisTask:
    """ANALYZE IO / FOLLOWUP ANALYSIS over one parsed Darshan log.

    ``output`` is the latest sandbox output the conversation fed back
    (``None`` before the first execution).
    """

    header: str
    variables: tuple[str, ...]
    question: str = ""
    columns: str = ""
    preview: str = ""
    output: str | None = None

    def show_output(self, output: str) -> None:
        object.__setattr__(self, "output", output)


@dataclass(frozen=True)
class ParameterTask:
    """A one-parameter extraction or knowledge question.

    ``body`` is the retrieved context (JUDGE DOCUMENTATION, DESCRIBE
    PARAMETER), the description under judgment (JUDGE IMPACT) or the
    question itself (PARAM INFO).
    """

    parameter: str
    body: str


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------
S_REACT_TRANSCRIPT = "REACT TRANSCRIPT"
S_PROPOSED = "PROPOSED CONFIGURATION"
S_VETOED = "VETOED PROPOSALS"

REACT_DECIDE_TASK = (
    "## TASK: REACT DECIDE\n"
    "You are operating as a ReACT agent. Review the transcript above and "
    "reply with exactly one token: REASON to think before acting, TOOL to "
    "take an environment action now, or HALT when the final thought has "
    "concluded the run."
)
REACT_THOUGHT_TASK = (
    "## TASK: REACT THOUGHT\n"
    "Write the next thought for the transcript above: one short passage of "
    "reasoning about the tuning state. Prefix a concluding thought with "
    "'FINAL:' followed by the justification for stopping."
)
CRITIC_TASK = (
    "## TASK: CRITIC REVIEW\n"
    "You are the critic of a propose/critic tuning pair. Review the "
    "proposed configuration against the documented parameter ranges and "
    "the grounding of its rationale. Reply APPROVE, VETO: <reason>, or "
    "AMEND followed by a corrected JSON changes object on the next line."
)
SUMMARIZE_TASK = (
    "## TASK: SUMMARIZE RULES\n"
    "Summarize what was learned during this tuning run as a strict "
    "JSON rule set (a list of objects with parameter, "
    "rule_description and tuning_context). Exclude the application "
    "name; make recommendations general rather than specific."
)
MERGE_TASK = (
    "## TASK: MERGE RULES\n"
    "Augment the global rule set above with the new rules below. If a "
    "new rule directly contradicts an existing rule for the same "
    "parameter and tuning context, remove both. If two rules offer only "
    "slightly different guidance, keep both marked as alternatives. "
    "Drop alternatives whose guidance produced a negative outcome.\n"
    "NEW RULES:\n"
)


def build_react_transcript_section(lines: Sequence[str]) -> str:
    body = "\n".join(lines) if lines else "(empty)"
    return f"## {S_REACT_TRANSCRIPT}\n{body}"


def build_proposed_section(changes: Mapping[str, int], rationale: str) -> str:
    return (
        f"## {S_PROPOSED}\n"
        f"changes: {json.dumps(dict(changes), sort_keys=True)}\n"
        f"rationale: {rationale}"
    )


def build_vetoed_section(vetoed: Sequence[Mapping[str, int]]) -> str:
    lines = [f"## {S_VETOED}"]
    lines.extend(f"- {json.dumps(dict(changes), sort_keys=True)}" for changes in vetoed)
    return "\n".join(lines)


def _context_sections(ctx: TuningContext) -> list[str]:
    """The tuning context, stable-prefix first (§5.7)."""
    sections = [ctx.hardware_section, ctx.parameter_section, ctx.rules.section]
    if ctx.report is not None:
        sections.append(ctx.report_section)
    sections.append(build_history_section(ctx.initial_seconds, list(ctx.attempts)))
    if ctx.vetoed:
        # After the (stable) history, before the closing instruction.
        sections.append(build_vetoed_section(ctx.vetoed))
    return sections


def _tool_turn(ctx: TuningContext) -> str:
    return "\n\n".join(
        [
            *_context_sections(ctx),
            f"You may try at most {ctx.max_attempts} configurations. "
            "Choose your next action.",
        ]
    )


def _react_thought(ctx: TuningContext) -> str:
    return "\n\n".join(
        [
            *_context_sections(ctx),
            f"You may try at most {ctx.max_attempts} configurations.",
            build_react_transcript_section(ctx.transcript),
            REACT_THOUGHT_TASK,
        ]
    )


def _react_decide(ctx: TuningContext) -> str:
    return "\n\n".join(
        [
            ctx.hardware_section,
            ctx.parameter_section,
            build_react_transcript_section(ctx.transcript),
            REACT_DECIDE_TASK,
        ]
    )


def _summarize(ctx: TuningContext) -> str:
    sections = [ctx.hardware_section, ctx.parameter_section]
    if ctx.report is not None:
        sections.append(ctx.report_section)
    sections.append(build_history_section(ctx.initial_seconds, list(ctx.attempts)))
    sections.append(SUMMARIZE_TASK)
    return "\n\n".join(sections)


def _critic(review: ProposalReview) -> str:
    ctx = review.context
    return "\n\n".join(
        [
            ctx.hardware_section,
            ctx.parameter_section,
            build_proposed_section(review.changes, review.rationale),
            CRITIC_TASK,
        ]
    )


def _merge(merge: RuleMerge) -> str:
    return (
        merge.existing.section
        + "\n\n"
        + MERGE_TASK
        + json.dumps(merge.new, default=dict)
    )


def _analyze(task: AnalysisTask) -> str:
    return (
        "## TASK: ANALYZE IO\n"
        f"header: {task.header}\n"
        "Available variables: "
        + ", ".join(task.variables)
        + "\nColumn descriptions:\n"
        + task.columns
        + "\nData preview (first rows of each module frame):\n"
        + task.preview
        + "\nProvide a high-level summary of the application's I/O "
        "behaviour with quantitative metrics."
    )


def _followup(task: AnalysisTask) -> str:
    return (
        "## TASK: FOLLOWUP ANALYSIS\n"
        f"header: {task.header}\n"
        f"QUESTION: {task.question}\n"
        "Available variables: " + ", ".join(task.variables)
    )


#: Instruction and body marker of each one-parameter task.
_PARAMETER_TASKS = {
    PromptId.JUDGE_DOCUMENTATION: (
        "Does the retrieved documentation define this parameter's "
        "purpose and its valid range?\n",
        "RETRIEVED CONTEXT:\n",
    ),
    PromptId.DESCRIBE_PARAMETER: (
        "Describe the parameter's purpose, its intended impact on "
        "I/O, and its valid range. Use the dependent expression "
        "syntax for ranges that depend on other parameters or "
        "hardware facts.\n",
        "RETRIEVED CONTEXT:\n",
    ),
    PromptId.JUDGE_IMPACT: (
        "Is this parameter likely to have a significant impact on "
        "I/O performance? Answer with documented reasoning.\n",
        "DESCRIPTION:\n",
    ),
    PromptId.PARAM_INFO: ("", ""),
}

_RENDERERS = {
    PromptId.TOOL_TURN: _tool_turn,
    PromptId.REACT_DECIDE: _react_decide,
    PromptId.REACT_THOUGHT: _react_thought,
    PromptId.CRITIC_REVIEW: _critic,
    PromptId.SUMMARIZE_RULES: _summarize,
    PromptId.MERGE_RULES: _merge,
    PromptId.ANALYZE_IO: _analyze,
    PromptId.FOLLOWUP_ANALYSIS: _followup,
}


def render_prompt(prompt_id: PromptId, prompt_input) -> str:
    """The task message text of a request (rule 1 of the contract)."""
    if prompt_id in _PARAMETER_TASKS:
        instruction, marker = _PARAMETER_TASKS[prompt_id]
        return (
            f"## TASK: {prompt_id.value}\n"
            f"PARAMETER: {prompt_input.parameter}\n"
            f"{instruction}{marker}{prompt_input.body}"
        )
    return _RENDERERS[prompt_id](prompt_input)
