"""The MockLLM backend.

Every request carries a typed :class:`~repro.llm.prompts.Prompt` next to
its rendered messages; the backend dispatches on the prompt id and reads
only the typed input (:mod:`repro.llm.prompts` states the contract):

- ``TOOL_TURN`` (the Tuning Agent's loop) runs the
  :class:`~repro.llm.reasoning.TuningPolicy` over the
  :class:`~repro.llm.prompts.TuningContext` and answers with a tool call;
  the policy detects the backend from the context's parameter names;
- ``REACT_DECIDE`` / ``REACT_THOUGHT`` and ``CRITIC_REVIEW`` serve the
  alternative agent policies;
- ``ANALYZE_IO`` / ``FOLLOWUP_ANALYSIS`` follow the
  code-execute-summarize state machine of a code-executing agent;
- ``JUDGE_DOCUMENTATION`` / ``DESCRIBE_PARAMETER`` / ``JUDGE_IMPACT``
  implement the offline extraction judgments — answering from the
  retrieved chunks when they contain the documentation, and falling back
  to (possibly hallucinated) parametric beliefs when they do not;
- ``PARAM_INFO`` answers directly from parametric knowledge (the Figure 2
  no-RAG baseline);
- ``SUMMARIZE_RULES`` / ``MERGE_RULES`` produce and synthesize the
  strict-JSON rule sets.

A request without a typed prompt gets a generic reply.  Every request is
token-accounted on its rendered text against the session prompt cache.
"""

from __future__ import annotations

import json
import re

from repro.llm import analysis_codegen as codegen
from repro.llm.api import ChatMessage, Completion, ToolCall, ToolSpec
from repro.llm.knowledge import parametric_belief
from repro.llm.profiles import ModelProfile
from repro.llm.promptparse import build_io_report_section
from repro.llm.prompts import (
    AnalysisTask,
    ParameterTask,
    Prompt,
    PromptId,
    ProposalReview,
    RuleMerge,
    TuningContext,
    dumps_rules,
    join_fragments,
    rule_fragment,
)
from repro.llm.reasoning import (
    Decision,
    TuningPolicy,
    react_mode,
    render_react_thought,
    review_proposal,
)
from repro.llm.tokens import PromptCache, TokenUsage, count_tokens
from repro.rules.merge import merge_rule_sets
from repro.rules.model import Rule, RuleSet
from repro.sim.random import RngStreams

GENERIC_REPLY = (
    "I can help with parallel file system tuning tasks; please provide a "
    "structured task section."
)


class MockLLM:
    """Deterministic model backend for one profile."""

    def __init__(self, profile: ModelProfile, seed: int = 0):
        self.profile = profile
        # Different models must not share random draws for the same seed.
        self.rng_streams = RngStreams(seed).spawn(f"model:{profile.name}")
        self.cache = PromptCache()

    # ------------------------------------------------------------------
    def complete(
        self,
        messages: list[ChatMessage],
        tools: list[ToolSpec] | None = None,
        session: str = "default",
        prompt: Prompt | None = None,
    ) -> Completion:
        rendered = self._render_prompt(messages, tools)
        cached = self.cache.lookup_and_store(session, rendered)
        tool_calls: list[ToolCall] = []
        if prompt is None:
            content = GENERIC_REPLY
        elif prompt.id is PromptId.TOOL_TURN:
            decision = self._policy("tuning").decide(prompt.input)
            tool_calls = [self._decision_to_call(decision)]
            content = decision.rationale or decision.reason
        else:
            content = self._ANSWERS[prompt.id](self, prompt.input)

        output_text = content + "".join(
            json.dumps({"tool": c.name, "arguments": c.arguments}) for c in tool_calls
        )
        usage = TokenUsage(
            input_tokens=count_tokens(rendered),
            output_tokens=count_tokens(output_text),
            cached_input_tokens=min(cached, count_tokens(rendered)),
        )
        return Completion(
            content=content, tool_calls=tool_calls, usage=usage, model=self.profile.name
        )

    # ------------------------------------------------------------------
    def _render_prompt(
        self, messages: list[ChatMessage], tools: list[ToolSpec] | None
    ) -> str:
        # Tools are rendered after the conversation so that tool-bearing and
        # tool-free requests in the same session share a cacheable prefix.
        parts = [f"[{m.role}]\n{m.content}" for m in messages]
        if tools:
            parts.append("AVAILABLE TOOLS:\n" + "\n".join(t.render() for t in tools))
        return "\n\n".join(parts)

    def _policy(self, stream: str) -> TuningPolicy:
        return TuningPolicy(self.profile, self.rng_streams.stream(stream))

    # -- agent policies ----------------------------------------------------
    def _react_decide(self, ctx: TuningContext) -> str:
        return react_mode(ctx.transcript)

    def _react_thought(self, ctx: TuningContext) -> str:
        # Thought turns draw from their own stream: a policy that thinks
        # between actions must not perturb the act decisions other policies
        # (and the parity fixtures) take from the "tuning" stream.
        return render_react_thought(self._policy("react").decide(ctx))

    def _critic_review(self, review: ProposalReview) -> str:
        return review_proposal(
            review.changes, review.rationale, review.context.parameters
        )

    @staticmethod
    def _decision_to_call(decision: Decision) -> ToolCall:
        if decision.kind == "analyze":
            return ToolCall("analysis_question", {"question": decision.question})
        if decision.kind == "run":
            return ToolCall(
                "run_configuration",
                {"changes": decision.changes, "rationale": decision.rationale},
            )
        return ToolCall("end_tuning", {"reason": decision.reason})

    # -- rules -------------------------------------------------------------
    def _summarize_rules(self, ctx: TuningContext) -> str:
        # Reads the parameters, report and history the summarize prompt shows.
        return dumps_rules(self._policy("reflection").summarize_rules(ctx))

    def _merge_rules(self, merge: RuleMerge) -> str:
        existing = [Rule.from_dict(rule) for rule in merge.existing.rules]
        merged = merge_rule_sets(RuleSet(existing), RuleSet.from_json(merge.new))
        # A kept rule of a canonical rule set renders exactly as it did in
        # the prompt, so its fragment is reused; new and re-marked rules
        # are rendered afresh.
        known = (
            {id(rule): fragment for rule, fragment in zip(existing, merge.existing.fragments)}
            if merge.existing.canonical
            else {}
        )
        return join_fragments(
            [known.get(id(rule)) or rule_fragment(rule.to_dict()) for rule in merged.rules]
        )

    # -- extraction judgments ----------------------------------------------
    def _judge_documentation(self, task: ParameterTask) -> str:
        param = task.parameter
        base = param.rsplit(".", 1)[-1]
        body = _parameter_section_body(task.body, base, param)
        section_present = bool(body) and f"Parameter name: {param}" in body
        has_range = section_present and "Valid range:" in body
        if section_present and has_range:
            return (
                f"SUFFICIENT: the documentation defines {param} and states "
                "its valid range."
            )
        if section_present:
            return (
                f"INSUFFICIENT: {param} is mentioned but no valid range is "
                "documented."
            )
        return f"INSUFFICIENT: the retrieved context does not document {param}."

    def _describe_parameter(self, task: ParameterTask) -> str:
        param = task.parameter
        base = param.rsplit(".", 1)[-1]
        body = _parameter_section_body(task.body, base, param)
        if body and "Definition:" in body:
            definition = " ".join(_line_after(body, "Definition:").split())
            perf = " ".join(_line_after(body, "Performance notes:").split())
            range_match = re.search(
                r"Valid range: (.+?) \.\. (.+?)\. Default: (\d+)\.", body
            )
            unit_match = re.search(r"Unit: (\w+)\.", body)
            if range_match:
                low = _strip_expression(range_match.group(1))
                high = _strip_expression(range_match.group(2))
                default = range_match.group(3)
            else:
                low, high, default = "0", "0", "0"
            description = definition + (f" {perf}" if perf else "")
            binary = "yes" if (low == "0" and high == "1") else "no"
            return (
                f"grounded: yes\n"
                f"parameter: {param}\n"
                f"unit: {unit_match.group(1) if unit_match else 'count'}\n"
                f"default: {default}\n"
                f"range: {low} .. {high}\n"
                f"binary: {binary}\n"
                f"description: {description}"
            )
        # No grounding available: answer from (possibly hallucinated)
        # parametric knowledge.
        belief = parametric_belief(self.profile, param)
        return (
            f"grounded: no\n"
            f"parameter: {param}\n"
            f"unit: count\n"
            f"default: 0\n"
            f"range: {belief.min_value:g} .. {belief.max_value:g}\n"
            f"binary: no\n"
            f"description: {belief.definition}"
        )

    _POSITIVE_IMPACT = (
        "throughput",
        "bandwidth",
        "concurrency",
        "latency",
        "readahead",
        "prefetch",
        "operation rate",
        "creation and deletion",
        "metadata-intensive",
        "pipelin",
        "coalesce",
        "re-read",
        "into one rpc",
        "directly",
        "amortize",
        "lever",
    )
    _NEGATIVE_IMPACT = (
        "memory usage",
        "housekeeping",
        "testing",
        "availability",
        "fault handling",
        "accounting",
        "not a performance",
        "keep-alive",
    )

    def _judge_impact(self, task: ParameterTask) -> str:
        param = task.parameter
        description = task.body.lower()
        positive = sum(k in description for k in self._POSITIVE_IMPACT)
        negative = sum(k in description for k in self._NEGATIVE_IMPACT)
        if positive > negative and positive > 0:
            return (
                f"SIGNIFICANT: the documented behaviour of {param} directly "
                "influences I/O performance "
                f"({positive} performance-related aspects identified)."
            )
        return (
            f"MINOR: {param} primarily concerns resource management or "
            "testing rather than I/O performance."
        )

    def _param_info(self, task: ParameterTask) -> str:
        return parametric_belief(self.profile, task.parameter).render()

    # -- analysis state machine ---------------------------------------------
    def _analyze_io(self, task: AnalysisTask) -> str:
        return self._analysis_turn(task, followup=False)

    def _followup_analysis(self, task: AnalysisTask) -> str:
        return self._analysis_turn(task, followup=True)

    def _analysis_turn(self, task: AnalysisTask, followup: bool) -> str:
        if task.output is not None:
            metrics = codegen.metrics_from_output(task.output)
            if not metrics:
                # The code failed (or printed nothing usable): try again
                # rather than fabricating a report from thin air.
                if followup:
                    return (
                        "ANALYSIS FAILED: execution produced no metrics "
                        f"({task.output.strip()[:120]})"
                    )
                return f"```python\n{codegen.BASE_ANALYSIS_CODE}\n```"
            if followup:
                lines = [
                    f"ANSWER metric={name} value={value:g}"
                    for name, value in metrics.items()
                ]
                lines.append(
                    "These values were computed directly from the Darshan "
                    "counter dataframes."
                )
                return "\n".join(lines)
            header = task.header.partition("\n")[0] or "the trace"
            report = codegen.report_from_metrics(metrics, header)
            return "REPORT READY\n" + build_io_report_section(report)
        if followup:
            code = codegen.code_for_task(task.question.partition("\n")[0])
        else:
            code = codegen.BASE_ANALYSIS_CODE
        return f"```python\n{code}\n```"

    _ANSWERS = {
        PromptId.REACT_DECIDE: _react_decide,
        PromptId.REACT_THOUGHT: _react_thought,
        PromptId.CRITIC_REVIEW: _critic_review,
        PromptId.SUMMARIZE_RULES: _summarize_rules,
        PromptId.MERGE_RULES: _merge_rules,
        PromptId.ANALYZE_IO: _analyze_io,
        PromptId.FOLLOWUP_ANALYSIS: _followup_analysis,
        PromptId.JUDGE_DOCUMENTATION: _judge_documentation,
        PromptId.DESCRIBE_PARAMETER: _describe_parameter,
        PromptId.JUDGE_IMPACT: _judge_impact,
        PromptId.PARAM_INFO: _param_info,
    }


# ---------------------------------------------------------------------------
def _parameter_section_body(chunks: str, basename: str, fullname: str | None = None) -> str:
    """The section body for a parameter; disambiguates shared basenames
    (osc. and mdc. both expose max_rpcs_in_flight) via the full dotted name."""
    marker = f"=== The {basename} parameter ==="
    start = 0
    fallback = ""
    while True:
        start = chunks.find(marker, start)
        if start < 0:
            return fallback
        rest = chunks[start + len(marker):]
        end = rest.find("=== The ")
        body = rest[:end] if end >= 0 else rest
        if fullname is None or f"Parameter name: {fullname}" in body:
            return body
        if not fallback:
            fallback = body
        start += len(marker)


_FIELD_BOUNDARY = r"(?=Performance notes:|Valid range:|Refer to|Default:|===|$)"


def _line_after(body: str, marker: str) -> str:
    # Chunking collapses newlines, so fields are delimited by the next known
    # marker rather than by end-of-line.
    match = re.search(re.escape(marker) + r"\s*(.+?)" + _FIELD_BOUNDARY, body, re.DOTALL)
    return match.group(1).strip() if match else ""


def _strip_expression(token: str) -> str:
    token = token.strip()
    match = re.match(r"\(expression: (.+)\)", token)
    return match.group(1) if match else token
