"""Robustness tests for the prompt sections.

The section splitter and the I/O-report parser read *model output* (the
Analysis Agent's ``REPORT READY`` answer); they must degrade gracefully on
malformed or partial sections rather than crash the agent loop.  The
history section is rendered from the typed context, which holds exactly
the values the text shows.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm import promptparse as pp
from repro.llm.prompts import TuningContext


def history_of(ctx: TuningContext) -> list[str]:
    """The rendered history lines of a typed context."""
    return pp.build_history_section(ctx.initial_seconds, list(ctx.attempts)).splitlines()[1:]


class TestSectionSplitting:
    def test_no_sections(self):
        assert pp.split_sections("just some text") == {}

    def test_section_without_body(self):
        sections = pp.split_sections("## IO REPORT\n## TUNING HISTORY\nx")
        assert sections["IO REPORT"] == ""
        assert sections["TUNING HISTORY"] == "x"

    def test_lowercase_headers_ignored(self):
        assert "io report" not in pp.split_sections("## io report\nbody")


class TestMalformedInputs:
    def test_history_empty(self):
        ctx = TuningContext.build("node", [], {}, [], None, 10.0)
        assert ctx.attempts == ()
        assert history_of(ctx) == ["initial run (default configuration): 10.000s"]

    def test_io_report_with_bad_metric_lines(self):
        report = pp.parse_io_report(
            "summary: ok\nmetric good = 1.5\nmetric bad = not-a-number\nmetric = 3"
        )
        assert report.metrics == {"good": 1.5}


@settings(max_examples=40, deadline=None)
@given(
    metrics=st.dictionaries(
        st.from_regex(r"[a-z][a-z_0-9]{0,15}", fullmatch=True),
        st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
        max_size=8,
    ),
    summary=st.text(
        alphabet=st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)),
        max_size=80,
        # The report format is line-oriented; exclude the exotic unicode
        # line separators str.splitlines() also honours (\x0b, \x0c, \x85,
        #  , ...).
    ).filter(lambda s: len(f"x{s}x".splitlines()) == 1),
)
def test_io_report_round_trip_property(metrics, summary):
    report = pp.IOReport(summary=summary.strip(), metrics=metrics)
    parsed = pp.parse_io_report(pp.build_io_report_section(report))
    assert parsed.summary == summary.strip()
    for name, value in metrics.items():
        assert parsed.metrics[name] == pytest.approx(value, rel=1e-9, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    changes=st.dictionaries(
        st.sampled_from(
            ["osc.max_rpcs_in_flight", "lov.stripe_count", "llite.statahead_max"]
        ),
        st.integers(min_value=-1, max_value=10**6),
        min_size=1,
        max_size=3,
    ),
    seconds=st.floats(min_value=0.001, max_value=1e6),
    speedup=st.floats(min_value=0.001, max_value=100),
)
def test_history_round_trip_property(changes, seconds, speedup):
    ctx = TuningContext.build("node", [], {}, [], None, 123.456)
    ctx.add_attempt(
        pp.AttemptRecord(index=1, changes=changes, seconds=seconds, speedup=speedup)
    )
    shown = ctx.attempts[0]
    assert ctx.initial_seconds == 123.456
    assert dict(shown.changes) == changes
    assert list(shown.changes) == sorted(changes)
    assert shown.seconds == pytest.approx(seconds, abs=1e-3)
    assert shown.speedup == pytest.approx(speedup, abs=1e-3)
    # The typed attempt is exactly what its rendered line shows.
    assert f"runtime {shown.seconds:.3f}s (speedup {shown.speedup:.3f}x)" in history_of(ctx)[1]
    assert f"{seconds:.3f}" == f"{shown.seconds:.3f}" and float(f"{seconds:.3f}") == shown.seconds
