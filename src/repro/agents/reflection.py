"""Rule set synthesis through the model (§4.4.2).

After a run's rules are generated, the Tuning Agent is asked to *augment*
the existing global rule set rather than regenerate it; the model resolves
contradictions and marks alternatives.  (The mock model implements the
merge with :func:`repro.rules.merge.merge_rule_sets` — the same semantics
the prompt instructs a real model to follow.)
"""

from __future__ import annotations

import json

from repro.llm.client import LLMClient
from repro.llm.prompts import GlobalRules, Prompt, PromptId, RuleMerge, freeze_json


def merge_rules_via_llm(
    client: LLMClient,
    existing: GlobalRules | list[dict],
    new: list[dict],
    session: str = "rules-merge",
    agent: str = "tuning",
) -> list[dict]:
    """Ask the model to merge ``new`` rules into the ``existing`` global set.

    Usage is recorded on the client's ledger under ``agent`` — the engine
    passes ``rules_merge`` so the merge step shows up as its own line in
    session accounting instead of vanishing into a throwaway client.
    ``existing`` is typically the journal's rendered view of its head
    version, so the rule set is not re-rendered for the merge prompt.
    """
    existing = GlobalRules.of(existing)
    if not len(existing):
        return list(new)
    if not new:
        return existing.to_json()
    prompt = Prompt(PromptId.MERGE_RULES, RuleMerge(existing, freeze_json(new)))
    content = client.ask(prompt, agent=agent, session=session)
    return json.loads(content)
