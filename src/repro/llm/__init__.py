"""Mock LLM substrate.

A deterministic stand-in for the commercial LLM APIs the paper uses.  The
design goal is *behavioural* fidelity on the axes the evaluation depends on:

- **Grounding beats parametric recall** — the backend answers from whatever
  structured context the request's typed prompt carries (exactly what its
  rendered text shows, :mod:`repro.llm.prompts`); when information is
  missing it falls back to a per-model *corrupted* knowledge base
  (hallucinated parameter definitions and ranges, Figure 2).
- **Tool calling** — the Tuning Agent's three environment interactions are
  modeled as real tool calls with JSON arguments.
- **Cost accounting** — every request is token-counted, with a prompt-cache
  model that reproduces the paper's 85–90% cache-hit observation for
  iterative agent loops (§5.7).
- **Model profiles** — Claude-3.7-Sonnet, GPT-4o, GPT-4.5, Gemini-2.5-Pro
  and Llama-3.1-70B differ in hallucination rates, reasoning noise, price
  and latency (Figures 2 and 9).
"""

from repro.llm.api import ChatMessage, Completion, ToolCall, ToolSpec
from repro.llm.client import LLMClient
from repro.llm.profiles import MODEL_PROFILES, ModelProfile, get_profile
from repro.llm.tokens import PromptCache, TokenUsage, UsageLedger, count_tokens

__all__ = [
    "ChatMessage",
    "Completion",
    "ToolCall",
    "ToolSpec",
    "LLMClient",
    "ModelProfile",
    "MODEL_PROFILES",
    "get_profile",
    "TokenUsage",
    "UsageLedger",
    "PromptCache",
    "count_tokens",
]
