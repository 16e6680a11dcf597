"""Prompt sections: the builders the typed prompt renderers use, and the
parser for the one section a model *answers* with.

Agents render their context as canonical ``## SECTION`` blocks
(:mod:`repro.llm.prompts` composes them per task).  The model reads the
typed input those blocks were rendered from, never the text; the only text
parsed here is model output — the Analysis Agent's ``REPORT READY`` answer
(:func:`split_sections` + :func:`parse_io_report`), the seam a real model
would answer through.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

SECTION_RE = re.compile(r"^## ([A-Z0-9 _:?]+)$", re.MULTILINE)

#: The exact character class of ``SECTION_RE``'s name group.
_NAME_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _:?")

S_HARDWARE = "HARDWARE"
S_PARAMETERS = "PFS TUNABLE PARAMETERS"
S_IO_REPORT = "IO REPORT"
S_RULES = "GLOBAL RULE SET"
S_HISTORY = "TUNING HISTORY"
S_TASK = "TASK"


def split_sections(text: str) -> dict[str, str]:
    """Map section name -> body for every ``## NAME`` block in ``text``.

    Candidate headers are located with ``str.find`` and validated against
    ``SECTION_RE``'s exact name charset — the accepted language is
    identical to running the regex.
    """
    find = text.find
    positions = [0] if text.startswith("## ") else []
    pos = find("\n## ")
    while pos != -1:
        positions.append(pos + 1)
        pos = find("\n## ", pos + 1)
    headers: list[tuple[int, str, int]] = []
    for start in positions:
        eol = find("\n", start)
        if eol == -1:
            eol = len(text)
        name = text[start + 3 : eol]
        if name and all(c in _NAME_CHARS for c in name):
            headers.append((start, name.strip(), eol))
    sections: dict[str, str] = {}
    for i, (start, name, body_start) in enumerate(headers):
        end = headers[i + 1][0] if i + 1 < len(headers) else len(text)
        sections[name] = text[body_start:end].strip()
    return sections


# ---------------------------------------------------------------------------
# Hardware facts
# ---------------------------------------------------------------------------
def build_hardware_section(description: str, facts: dict[str, float]) -> str:
    lines = [f"## {S_HARDWARE}", description.strip(), ""]
    for key, value in sorted(facts.items()):
        lines.append(f"fact {key} = {value:g}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Tunable parameter descriptions (output of the offline RAG phase)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ParameterInfo:
    """One tunable parameter as presented to the Tuning Agent."""

    name: str
    default: int
    min_expr: str  # number or expression string
    max_expr: str
    description: str = ""  # empty in the No-Descriptions ablation
    unit: str = "count"


def build_parameter_section(params: list[ParameterInfo]) -> str:
    lines = [f"## {S_PARAMETERS}"]
    for p in params:
        lines.append(f"- parameter: {p.name}")
        lines.append(f"  unit: {p.unit}")
        lines.append(f"  default: {p.default}")
        lines.append(f"  range: {p.min_expr} .. {p.max_expr}")
        if p.description:
            lines.append(f"  description: {p.description}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# I/O report
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class IOReport:
    """The Analysis Agent's distilled view of application I/O behaviour.

    The Tuning Agent grows ``metrics`` and ``followups`` in place as
    follow-up analyses answer; the fields themselves are never rebound.
    """

    summary: str = ""
    metrics: dict[str, float] = field(default_factory=dict)
    followups: dict[str, str] = field(default_factory=dict)  # question -> answer

    def get(self, name: str, default: float = 0.0) -> float:
        return self.metrics.get(name, default)

    def has(self, name: str) -> bool:
        return name in self.metrics


def build_io_report_section(report: IOReport) -> str:
    lines = [f"## {S_IO_REPORT}", f"summary: {report.summary}"]
    for key, value in sorted(report.metrics.items()):
        lines.append(f"metric {key} = {value:.12g}")
    for question, answer in report.followups.items():
        lines.append(f"followup {question!r}: {answer}")
    return "\n".join(lines)


def parse_io_report(body: str) -> IOReport:
    """The report a model answered with; lines that do not parse are skipped."""
    summary = ""
    report = IOReport()
    for raw in body.splitlines():
        line = raw.strip()
        if line.startswith("summary:"):
            summary = line.split(":", 1)[1].strip()
        elif line.startswith("metric "):
            match = re.match(r"metric (\w+) = ([-\d.eE+]+)", line)
            if match:
                report.metrics[match.group(1)] = float(match.group(2))
        elif line.startswith("followup "):
            match = re.match(r"followup '(.*)': (.*)", line)
            if match:
                report.followups[match.group(1)] = match.group(2)
    return IOReport(summary, report.metrics, report.followups)


# ---------------------------------------------------------------------------
# Tuning history
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AttemptRecord:
    """One configuration trial the Tuning Agent has observed."""

    index: int
    changes: dict[str, int]  # parameter -> value (diff against defaults)
    seconds: float
    speedup: float  # vs the initial (default-config) run
    rationale: str = ""


def build_history_section(initial_seconds: float, attempts: list[AttemptRecord]) -> str:
    lines = [f"## {S_HISTORY}", f"initial run (default configuration): {initial_seconds:.3f}s"]
    for attempt in attempts:
        lines.append(
            f"attempt {attempt.index}: changes {json.dumps(dict(attempt.changes), sort_keys=True)} "
            f"-> runtime {attempt.seconds:.3f}s (speedup {attempt.speedup:.3f}x)"
        )
    return "\n".join(lines)
