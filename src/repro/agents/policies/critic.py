"""The propose/critic policy: a second model pass gates every probe run.

The proposer's turn is exactly the default tool turn; when it drafts a
``run_configuration`` the critic reviews the proposal (against the same
hardware and parameter sections, for the shared prompt-cache prefix)
before the probe spends a real execution:

- **APPROVE** — the run proceeds unchanged;
- **VETO: <reason>** — the proposal is recorded in a ``VETOED PROPOSALS``
  prompt section (the proposer treats it as tried, so vetoes can never
  livelock the loop) and the turn ends without a probe run;
- **AMEND** + corrected JSON — the run proceeds with the critic's values.

Vetoes park evaluations the default policy would have spent on speculative
exploration; they never change probe seeds or operand order — attempts
still derive their seeds from the execution count alone.
"""

from __future__ import annotations

import json

from repro.agents.policies.reflection import ReflectionPolicy
from repro.agents.tuning import TuningAgent, TuningLoopResult
from repro.llm.api import ToolCall
from repro.llm.prompts import PromptId, ProposalReview, shown_changes


class ProposeCriticAgent(TuningAgent):
    """The default loop with a critic between proposal and probe."""

    #: Vetoed turns consume no attempt, so the loop needs extra headroom.
    EXTRA_TURNS = 10

    def _dispatch(self, call: ToolCall, result: TuningLoopResult) -> bool:
        if call.name == "run_configuration":
            reviewed = self._review(call)
            if reviewed is None:
                return False
            call = reviewed
        return super()._dispatch(call, result)

    def _review(self, call: ToolCall) -> ToolCall | None:
        """The critic's verdict; ``None`` means the proposal was vetoed."""
        requested = {
            str(name): int(value)
            for name, value in dict(call.arguments.get("changes", {})).items()
        }
        rationale = str(call.arguments.get("rationale", ""))
        review = ProposalReview(self.context, shown_changes(requested), rationale)
        verdict = self._request(
            PromptId.CRITIC_REVIEW, review, agent="critic"
        ).content.strip()
        if verdict.startswith("VETO"):
            reason = verdict.partition(":")[2].strip()
            # The tool turn shows vetoed proposals after the history.
            self.context.add_veto(requested)
            self.transcript.add(
                "critic_veto",
                f"critic vetoed {json.dumps(requested, sort_keys=True)}: "
                f"{reason}",
                changes=requested,
                reason=reason,
            )
            return None
        if verdict.startswith("AMEND"):
            amended = {
                str(name): int(value)
                for name, value in json.loads(
                    verdict.partition("\n")[2]
                ).items()
            }
            self.transcript.add(
                "critic_amend",
                f"critic amended {json.dumps(requested, sort_keys=True)} -> "
                f"{json.dumps(amended, sort_keys=True)}",
                proposed=requested,
                amended=amended,
            )
            return ToolCall(
                "run_configuration",
                {"changes": amended, "rationale": rationale},
            )
        return call


class ProposeCriticPolicy(ReflectionPolicy):
    name = "propose_critic"
    agent_class = ProposeCriticAgent
