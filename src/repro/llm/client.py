"""Client facade over an LLM backend.

What the agents program against: a ``complete`` call with usage recording,
simulated inference latency accounting, and seeded determinism.  Swapping in
a real provider SDK would only touch this module.
"""

from __future__ import annotations

from repro.llm.api import ChatMessage, Completion, ToolSpec
from repro.llm.backend import MockLLM
from repro.llm.profiles import ModelProfile, get_profile
from repro.llm.prompts import Prompt
from repro.llm.tokens import UsageLedger


class LLMClient:
    """One logical API client bound to a model profile and a usage ledger."""

    def __init__(
        self,
        model: str | ModelProfile = "claude-3.7-sonnet",
        seed: int = 0,
        ledger: UsageLedger | None = None,
    ):
        self.profile = model if isinstance(model, ModelProfile) else get_profile(model)
        self.backend = MockLLM(self.profile, seed=seed)
        self.ledger = ledger if ledger is not None else UsageLedger()

    def complete(
        self,
        messages: list[ChatMessage],
        tools: list[ToolSpec] | None = None,
        agent: str = "generic",
        session: str | None = None,
        prompt: Prompt | None = None,
    ) -> Completion:
        """One chat completion; usage is recorded under ``agent``.

        ``prompt`` is the request's typed task, whose rendered text the
        messages carry (:mod:`repro.llm.prompts`).
        """
        completion = self.backend.complete(
            messages, tools=tools, session=session or agent, prompt=prompt
        )
        self.ledger.record(
            agent, completion.usage, latency=self.profile.latency_per_request
        )
        return completion

    def ask(
        self, prompt: Prompt | str, agent: str = "generic", session: str | None = None
    ) -> str:
        """Single-turn convenience wrapper: a typed task, or bare text."""
        typed = prompt if isinstance(prompt, Prompt) else None
        text = typed.text if typed is not None else prompt
        completion = self.complete(
            [ChatMessage(role="user", content=text)],
            agent=agent,
            session=session,
            prompt=typed,
        )
        return completion.content

    def cost_usd(self) -> float:
        """Total API cost of everything this client has done."""
        total = self.ledger.total()
        return self.profile.cost_usd(
            total.input_tokens, total.output_tokens, total.cached_input_tokens
        )
