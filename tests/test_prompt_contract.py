"""The typed prompt contract between the agents and the model backend.

- Golden parity: every prompt, completion, session record, ledger and
  merged journal of the scenario groups in ``prompt_golden`` hashes to the
  digests recorded before the mock stopped re-parsing its prompts.
- text = render(input): every request of a tuning chain (all policies),
  the offline extraction and Figure 2 carries a typed prompt whose
  rendering is exactly its task message, and every ``PromptId`` occurs.
- The model never sees more than the text shows: for every request, the
  typed fields the mock reads equal what the text shows, read back by the
  test-only parsers below; generated attempts, facts, metrics and rules
  round the same way.
- The rule fragment renderer is byte-equal to ``json.dumps(indent=1)``,
  and the mock's merge answer stays so when it reuses fragments.
- The model cannot mutate agent-owned state through a typed input.
"""

import dataclasses
import json
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prompt_golden import FIXTURE, compute
from repro.agents.policies import list_policies
from repro.cluster.hardware import make_cluster
from repro.core.engine import Stellar
from repro.experiments import fig2
from repro.experiments.harness import shared_extraction
from repro.llm import promptparse as pp
from repro.llm.api import ChatMessage
from repro.llm.backend import GENERIC_REPLY, MockLLM
from repro.llm.client import LLMClient
from repro.llm.prompts import (
    AnalysisTask,
    GlobalRules,
    ParameterTask,
    Prompt,
    PromptId,
    ProposalReview,
    RuleMerge,
    TuningContext,
    dumps_rules,
    freeze_json,
    shown_changes,
)
from repro.rules.merge import merge_rule_sets
from repro.rules.model import Rule, RuleSet
from repro.rules.store import session_to_dict
from repro.workloads import get_workload, list_workloads

TUNING_FAMILY = (PromptId.TOOL_TURN, PromptId.REACT_THOUGHT, PromptId.SUMMARIZE_RULES)
PARAMETER_TASKS = {
    PromptId.JUDGE_DOCUMENTATION: "RETRIEVED CONTEXT:\n",
    PromptId.DESCRIBE_PARAMETER: "RETRIEVED CONTEXT:\n",
    PromptId.JUDGE_IMPACT: "DESCRIPTION:\n",
    PromptId.PARAM_INFO: "",
}


# ---------------------------------------------------------------------------
# Golden parity
# ---------------------------------------------------------------------------
def test_golden_digests_unchanged():
    recorded = json.loads(FIXTURE.read_text())
    digests = compute()
    assert sorted(digests) == sorted(recorded)
    diverged = {
        f"{group}:{part}"
        for group, parts in recorded.items()
        for part, digest in parts.items()
        if digests[group][part] != digest
    }
    assert not diverged, f"diverged from the golden record: {sorted(diverged)}"


# ---------------------------------------------------------------------------
# What the text shows, read back with test-only parsers
# ---------------------------------------------------------------------------
def _thaw(value):
    return json.loads(json.dumps(value, default=dict))


def read_parameters(body):
    params = []
    for raw in body.splitlines():
        line = raw.strip()
        key, _, value = line.partition(":")
        value = value.strip()
        if line.startswith("- parameter:"):
            params.append({"name": value, "unit": "count", "description": ""})
        elif key == "range":
            low, _, high = value.partition("..")
            params[-1]["range"] = (low.strip(), high.strip())
        elif key in ("unit", "description"):
            params[-1][key] = value
        elif key == "default":
            params[-1]["default"] = int(float(value))
    return params


def read_facts(body):
    return {
        m.group(1): float(m.group(2))
        for m in re.finditer(r"^fact (\w+) = ([-\d.eE+infa]+)$", body, re.MULTILINE)
    }


def read_history(body):
    initial, attempts = None, []
    for line in body.splitlines():
        if line.startswith("initial run"):
            initial = float(re.search(r"([\d.]+)s$", line).group(1))
        match = re.match(
            r"attempt (\d+): changes (\{.*\}) -> runtime ([\d.]+)s "
            r"\(speedup ([\d.]+)x\)$",
            line,
        )
        if match:
            attempts.append(
                [
                    int(match.group(1)),
                    list(json.loads(match.group(2)).items()),
                    float(match.group(3)),
                    float(match.group(4)),
                ]
            )
    return initial, attempts


def read_transcript(body):
    return [] if body == "(empty)" else body.splitlines()


def read_changes_lines(body, prefix):
    return [
        list(json.loads(line[len(prefix):]).items())
        for line in body.splitlines()
        if line.startswith(prefix)
    ]


def shown_view(prompt_id, text, last_message):
    """What ``text`` shows of each field the mock reads for ``prompt_id``."""
    if prompt_id in PARAMETER_TASKS:
        return {
            "parameter": re.search(r"^PARAMETER: ([\w.]+)$", text, re.MULTILINE).group(1),
            "body": text.partition(PARAMETER_TASKS[prompt_id])[2]
            if PARAMETER_TASKS[prompt_id]
            else text.split("\n", 2)[2],
        }
    if prompt_id in (PromptId.ANALYZE_IO, PromptId.FOLLOWUP_ANALYSIS):
        output = None
        if last_message.startswith("EXECUTION OUTPUT:\n"):
            output = last_message[len("EXECUTION OUTPUT:\n"):]
        view = {"header": re.search(r"header: (.+)", text).group(1), "output": output}
        if prompt_id is PromptId.FOLLOWUP_ANALYSIS:
            view["question"] = re.search(r"QUESTION: (.+)", text).group(1)
        return view
    sections = pp.split_sections(text)
    if prompt_id is PromptId.MERGE_RULES:
        return {
            "existing": json.loads(sections[pp.S_RULES]),
            "new": json.loads(text.partition("NEW RULES:\n")[2]),
        }
    view = {"parameters": read_parameters(sections[pp.S_PARAMETERS])}
    if prompt_id is PromptId.REACT_DECIDE:
        view["transcript"] = read_transcript(sections["REACT TRANSCRIPT"])
        return view
    if prompt_id is PromptId.CRITIC_REVIEW:
        body = sections["PROPOSED CONFIGURATION"]
        view["changes"] = read_changes_lines(body, "changes: ")[0]
        view["rationale"] = body.partition("\nrationale: ")[2]
        return view
    report = pp.parse_io_report(sections[pp.S_IO_REPORT]) if pp.S_IO_REPORT in sections else None
    view["facts"] = read_facts(sections[pp.S_HARDWARE])
    view["report"] = None if report is None else [report.metrics, report.followups]
    view["history"] = read_history(sections[pp.S_HISTORY])
    if prompt_id is PromptId.SUMMARIZE_RULES:
        return view
    view["rules"] = json.loads(sections[pp.S_RULES])
    view["max_attempts"] = int(re.search(r"at most (\d+) configurations", text).group(1))
    view["vetoed"] = read_changes_lines(sections.get("VETOED PROPOSALS", ""), "- ")
    if prompt_id is PromptId.REACT_THOUGHT:
        view["transcript"] = read_transcript(sections["REACT TRANSCRIPT"])
    return view


def typed_view(prompt: Prompt):
    """The same fields, taken from the typed input the mock reads."""
    task = prompt.input
    if prompt.id in PARAMETER_TASKS:
        return {"parameter": task.parameter, "body": task.body}
    if prompt.id in (PromptId.ANALYZE_IO, PromptId.FOLLOWUP_ANALYSIS):
        view = {"header": task.header.partition("\n")[0], "output": task.output}
        if prompt.id is PromptId.FOLLOWUP_ANALYSIS:
            view["question"] = task.question.partition("\n")[0]
        return view
    if prompt.id is PromptId.MERGE_RULES:
        return {"existing": _thaw(task.existing.rules), "new": _thaw(task.new)}
    ctx = task.context if prompt.id is PromptId.CRITIC_REVIEW else task
    view = {
        "parameters": [
            {
                "name": p.name,
                "unit": p.unit,
                "description": p.description,
                "range": (p.min_expr, p.max_expr),
                "default": p.default,
            }
            for p in ctx.parameters
        ]
    }
    if prompt.id is PromptId.REACT_DECIDE:
        view["transcript"] = list(ctx.transcript)
        return view
    if prompt.id is PromptId.CRITIC_REVIEW:
        view["changes"] = list(task.changes.items())
        view["rationale"] = task.rationale
        return view
    view["facts"] = dict(ctx.facts)
    view["report"] = (
        None if ctx.report is None else [dict(ctx.report.metrics), dict(ctx.report.followups)]
    )
    view["history"] = (
        ctx.initial_seconds,
        [[a.index, list(a.changes.items()), a.seconds, a.speedup] for a in ctx.attempts],
    )
    if prompt.id is PromptId.SUMMARIZE_RULES:
        return view
    view["rules"] = _thaw(ctx.rules.rules)
    view["max_attempts"] = ctx.max_attempts
    view["vetoed"] = [list(v.items()) for v in ctx.vetoed]
    if prompt.id is PromptId.REACT_THOUGHT:
        view["transcript"] = list(ctx.transcript)
    return view


def _normalized(view):
    # Tuples and lists compare alike once through JSON.
    return json.loads(json.dumps(view))


# ---------------------------------------------------------------------------
# Every request of a chain, the extraction and Figure 2
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def recorded_requests():
    """``(prompt id, task text, rendered text, shown view, typed view)`` per
    request, taken when the request is made (typed inputs change in place)."""
    records = []
    complete = MockLLM.complete

    def recording(self, messages, tools=None, session="default", prompt=None):
        task_text = next(m.content for m in messages if m.role == "user")
        if prompt is not None:
            records.append(
                (
                    prompt.id,
                    task_text,
                    prompt.text,
                    shown_view(prompt.id, task_text, messages[-1].content),
                    typed_view(prompt),
                )
            )
        else:
            records.append((None, task_text, None, None, None))
        return complete(self, messages, tools, session, prompt)

    MockLLM.complete = recording
    try:
        for backend in ("lustre", "beegfs"):
            cluster = make_cluster(backend=backend)
            engine = Stellar(
                cluster=cluster,
                model="claude-3.7-sonnet",
                extraction=shared_extraction(cluster),
                seed=11,
            )
            for workload in list_workloads()[:4]:
                for policy in list_policies():
                    engine.tune_and_accumulate(get_workload(workload), policy=policy)
            engine.tune(get_workload("IOR_64K"), use_descriptions=False, policy="propose_critic")
        fig2.run(make_cluster())
    finally:
        MockLLM.complete = complete
    return records


def test_every_request_carries_a_typed_prompt(recorded_requests):
    assert all(record[0] is not None for record in recorded_requests)
    assert {record[0] for record in recorded_requests} == set(PromptId)


def test_text_is_render_of_input(recorded_requests):
    mismatched = [r[0] for r in recorded_requests if r[1] != r[2]]
    assert not mismatched


def test_mock_reads_only_what_the_text_shows(recorded_requests):
    for prompt_id, _, _, shown, typed in recorded_requests:
        assert _normalized(shown) == _normalized(typed), prompt_id


def test_request_without_typed_prompt_gets_generic_reply():
    client = LLMClient("gpt-4o", seed=0)
    completion = client.complete(
        [ChatMessage(role="user", content="## TASK: MERGE RULES\nNEW RULES:\n[]")],
        tools=[],
    )
    assert completion.content == GENERIC_REPLY
    assert completion.tool_calls == []


# ---------------------------------------------------------------------------
# Display precision on generated inputs
# ---------------------------------------------------------------------------
PARAMS = [
    pp.ParameterInfo("osc.max_rpcs_in_flight", 8, "1", "256", "Concurrent RPCs."),
    pp.ParameterInfo("lov.stripe_count", 1, "-1", "(expression: n_ost)"),
]
finite = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)
positive = st.floats(min_value=1e-4, max_value=1e7)
names = st.from_regex(r"[a-z][a-z_0-9]{0,12}", fullmatch=True)
change_maps = st.dictionaries(
    st.sampled_from([p.name for p in PARAMS] + ["llite.statahead_max"]),
    st.integers(min_value=-1, max_value=10**7),
    max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(
    prompt_id=st.sampled_from(TUNING_FAMILY),
    facts=st.dictionaries(names, finite, max_size=6),
    metrics=st.dictionaries(names, finite, max_size=6),
    initial=positive,
    attempts=st.lists(st.tuples(change_maps, positive, positive), max_size=4),
    vetoed=st.lists(change_maps, max_size=2),
    max_attempts=st.integers(min_value=1, max_value=9),
)
@example(
    prompt_id=PromptId.TOOL_TURN,
    facts={"n_ost": 1 / 3},
    metrics={"seq_fraction": 2 / 3},
    initial=10.0,
    attempts=[({"lov.stripe_count": -1}, 1.23456, 8.1000049)],
    vetoed=[],
    max_attempts=5,
)
def test_tuning_context_rounds_as_its_text(
    prompt_id, facts, metrics, initial, attempts, vetoed, max_attempts
):
    ctx = TuningContext.build(
        "cluster", PARAMS, facts, [], pp.IOReport("s", metrics), initial, max_attempts
    )
    for index, (changes, seconds, speedup) in enumerate(attempts, 1):
        ctx.add_attempt(pp.AttemptRecord(index, changes, seconds, speedup, "why"))
    for changes in vetoed:
        ctx.add_veto(changes)
    prompt = Prompt(prompt_id, ctx)
    text = prompt.text
    assert _normalized(shown_view(prompt_id, text, text)) == _normalized(typed_view(prompt))
    for shown, (_, seconds, speedup) in zip(ctx.attempts, attempts):
        assert shown.seconds == float(f"{seconds:.3f}")
        assert shown.speedup == float(f"{speedup:.3f}")
        assert shown.rationale == ""  # the history line does not show it
    if attempts and attempts[0][1] == 1.23456:
        assert ctx.attempts[0].seconds == 1.235 and ctx.attempts[0].speedup == 8.1


@settings(max_examples=40, deadline=None)
@given(
    changes=change_maps,
    rationale=st.text(
        alphabet=st.characters(blacklist_categories=("Cs", "Zl", "Zp", "Cc")), max_size=40
    ).map(str.strip),
    transcript=st.lists(
        st.text(alphabet="abc :FINAL", min_size=1, max_size=12).map(str.strip).filter(bool),
        max_size=4,
    ),
)
def test_policy_prompts_show_their_typed_fields(changes, rationale, transcript):
    ctx = TuningContext.build("cluster", PARAMS, {}, [], None, 1.0)
    for line in transcript:
        ctx.add_line(line)
    for prompt in (
        Prompt(PromptId.REACT_DECIDE, ctx),
        Prompt(PromptId.CRITIC_REVIEW, ProposalReview(ctx, shown_changes(changes), rationale)),
    ):
        text = prompt.text
        assert _normalized(shown_view(prompt.id, text, text)) == _normalized(
            typed_view(prompt)
        )


line_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")), max_size=30
)
finite_rules = st.lists(
    st.fixed_dictionaries(
        {
            "parameter": line_text,
            "context_tags": st.lists(line_text, max_size=2),
            "recommended_value": st.none() | st.integers(),
            "observed_speedup": st.floats(allow_nan=False, allow_infinity=False),
        }
    ),
    max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(
    prompt_id=st.sampled_from(
        [PromptId.MERGE_RULES, PromptId.ANALYZE_IO, PromptId.FOLLOWUP_ANALYSIS, *PARAMETER_TASKS]
    ),
    parameter=st.from_regex(r"[a-z][a-z_.]{0,20}", fullmatch=True),
    text=line_text.filter(lambda t: ":" not in t),
    body=st.text(max_size=60),
    existing=finite_rules,
    new=finite_rules,
)
def test_every_other_prompt_shows_its_typed_fields(
    prompt_id, parameter, text, body, existing, new
):
    last = None
    if prompt_id is PromptId.MERGE_RULES:
        task = RuleMerge(GlobalRules.of(existing), freeze_json(new))
    elif prompt_id in PARAMETER_TASKS:
        task = ParameterTask(parameter, body)
    else:
        task = AnalysisTask(header=text or "h", variables=("posix",), question=text or "q")
        task.show_output(body)
        last = f"EXECUTION OUTPUT:\n{body}"
    prompt = Prompt(prompt_id, task)
    text_shown = prompt.text
    assert _normalized(shown_view(prompt_id, text_shown, last or text_shown)) == _normalized(
        typed_view(prompt)
    )


# ---------------------------------------------------------------------------
# The rule fragment renderer
# ---------------------------------------------------------------------------
json_text = st.text(max_size=12)
json_leaf = (
    st.none() | st.booleans() | st.integers() | st.floats() | json_text
)
json_value = st.recursive(
    json_leaf,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(json_text | st.integers() | st.booleans() | st.none(), inner, max_size=3),
    max_leaves=8,
)
rule_dicts = st.fixed_dictionaries(
    {
        "parameter": json_text,
        "rule_description": json_text,
        "tuning_context": json_text,
        "context_tags": st.lists(json_text, max_size=3),
        "recommended_value": st.none() | st.integers(),
    },
    optional={
        "observed_speedup": st.floats(),
        "alternative": st.booleans(),
        "extra": json_value,
    },
)


@settings(max_examples=150, deadline=None)
@given(st.lists(rule_dicts, max_size=5))
@example([])
@example([{"parameter": "é ☃  ", "context_tags": [], "recommended_value": None,
           "observed_speedup": float("nan"), "alternative": True}])
def test_rule_fragments_match_json_dumps(rules):
    expected = json.dumps(rules, indent=1)
    assert dumps_rules(rules) == expected
    assert dumps_rules(freeze_json(rules)) == expected
    assert GlobalRules.of(rules).section == f"## {pp.S_RULES}\n{expected}"


canonical_rules = st.builds(
    Rule,
    parameter=st.sampled_from(["a", "b"]),
    rule_description=st.sampled_from(["raise it", "lower it", "keep it"]),
    tuning_context=st.sampled_from(["x", "y"]),
    context_tags=st.lists(st.sampled_from(["x", "y", "z"]), max_size=2),
    recommended_value=st.none() | st.integers(min_value=-4, max_value=64),
    observed_speedup=st.none() | st.floats(min_value=0.5, max_value=3.0),
    alternative=st.booleans(),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(canonical_rules, min_size=1, max_size=6), st.lists(canonical_rules, max_size=3))
def test_merge_answer_reusing_fragments_matches_json_dumps(existing, new):
    existing_set, new_json = RuleSet(existing), [r.to_dict() for r in new]
    expected = json.dumps(
        merge_rule_sets(existing_set, RuleSet.from_json(new_json)).to_json(), indent=1
    )
    mock = MockLLM(LLMClient("gpt-4o").profile)
    for view in (
        GlobalRules(existing_set.to_json(), canonical=True),
        GlobalRules.of(existing_set.to_json()),
    ):
        answer = mock._merge_rules(RuleMerge(view, freeze_json(new_json)))
        assert answer == expected


# ---------------------------------------------------------------------------
# The model cannot mutate agent-owned state through a typed input
# ---------------------------------------------------------------------------
def test_typed_context_is_read_only_and_a_copy():
    report = pp.IOReport("s", {"m": 1.0}, {"q": "a"})
    rules = [{"parameter": "p", "context_tags": ["t"], "recommended_value": 1}]
    ctx = TuningContext.build("node", PARAMS, {"n": 1.0}, rules, report, 10.0)
    ctx.add_attempt(pp.AttemptRecord(1, {"p": 2}, 5.0, 2.0))
    before = Prompt(PromptId.TOOL_TURN, ctx).text
    with pytest.raises(TypeError):
        ctx.report.followups["q2"] = "x"
    with pytest.raises(TypeError):
        ctx.report.metrics["m"] = 2.0
    with pytest.raises(TypeError):
        ctx.rules.rules[0]["parameter"] = "x"
    with pytest.raises(AttributeError):
        ctx.rules.rules[0]["context_tags"].append("u")
    with pytest.raises(TypeError):
        ctx.attempts[0].changes["p"] = 3
    with pytest.raises(TypeError):
        ctx.facts["n"] = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.report = None
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.parameters[0].default = 3
    # Nor does later agent-side mutation leak into what was shown.
    report.followups["q3"] = "y"
    rules[0]["parameter"] = "changed"
    assert Prompt(PromptId.TOOL_TURN, ctx).text == before


def _vandalize(value, depth=0):
    """Try every mutation a misbehaving model could attempt."""
    if depth > 4:
        return
    if dataclasses.is_dataclass(value) or isinstance(value, GlobalRules):
        for name, attr in list(vars(value).items()):
            with pytest.raises(AttributeError):  # FrozenInstanceError included
                setattr(value, name, None)
            _vandalize(attr, depth + 1)
        return
    if isinstance(value, (dict, list)):
        raise AssertionError(f"mutable {type(value).__name__} reachable from a typed input")
    if hasattr(value, "items"):
        for key, item in list(value.items()):
            with pytest.raises(TypeError):
                value[key] = "vandalized"
            _vandalize(item, depth + 1)
    elif isinstance(value, tuple):
        for item in value:
            _vandalize(item, depth + 1)


def test_vandalizing_model_changes_no_session():
    cluster = make_cluster(backend="lustre")
    extraction = shared_extraction(cluster)

    def chain():
        engine = Stellar(
            cluster=cluster, model="claude-3.7-sonnet", extraction=extraction, seed=5
        )
        sessions = [
            session_to_dict(engine.tune_and_accumulate(get_workload(w), policy=p))
            for w in ("IOR_64K", "MDWorkbench_8K")
            for p in list_policies()
        ]
        return sessions, engine.journal.to_json()

    expected = chain()
    complete = MockLLM.complete

    def vandalizing(self, messages, tools=None, session="default", prompt=None):
        completion = complete(self, messages, tools, session, prompt)
        if prompt is not None:
            _vandalize(prompt.input)
        return completion

    MockLLM.complete = vandalizing
    try:
        assert chain() == expected
    finally:
        MockLLM.complete = complete


def test_nan_metric_display():
    # Display precision keeps non-finite values as the text spells them.
    ctx = TuningContext.build("n", [], {}, [], pp.IOReport("s", {"m": math.inf}), 1.0)
    assert "metric m = inf" in Prompt(PromptId.TOOL_TURN, ctx).text
    assert ctx.report.metrics["m"] == math.inf
