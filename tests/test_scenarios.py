"""Scenario harness: the worked examples run end to end, deterministically."""

from __future__ import annotations

import re

import pytest

from refbus import ScenarioFailed
from refbus.scenarios import (
    EXPECTED,
    SCENARIOS,
    main,
    run_scenario,
    transcript_diff,
)

_PORT = re.compile(r":\d+/")


def _normalized(lines: list[str]) -> list[str]:
    # ephemeral ports are the one run-to-run difference
    return [_PORT.sub(":PORT/", line) for line in lines]


def test_every_scenario_matches_its_expectation():
    for name in SCENARIOS:
        run_scenario(name)  # raises ScenarioFailed on divergence


def test_figure1_transcript():
    transcript = run_scenario("figure1")
    assert re.fullmatch(r"http://127\.0\.0\.1:\d+/bob", transcript[0])
    assert transcript[-1] == "Bobby Jones"


def test_figure2_byref_ends_with_36():
    assert run_scenario("figure2-byref")[-1] == "36"


def test_figure2_byvalue_ends_with_35():
    assert run_scenario("figure2-byvalue")[-1] == "35"


def test_figure2_local_ends_with_36():
    assert run_scenario("figure2-local")[-1] == "36"


def test_figure2_variants_differ_only_in_the_policy_line():
    byref = _normalized(run_scenario("figure2-byref"))
    byvalue = _normalized(run_scenario("figure2-byvalue"))
    assert len(byref) == len(byvalue)
    differing = [i for i, (a, b) in enumerate(zip(byref, byvalue)) if a != b]
    # one differing setup line (the policy call) and the differing outcome
    assert differing == [1, len(byref) - 1]
    assert byref[1] == "setSpouse transmission policy: BY_REFERENCE"
    assert byvalue[1] == "setSpouse transmission policy: BY_VALUE"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenarios_are_deterministic_across_20_runs(name):
    first = _normalized(run_scenario(name))
    for _ in range(19):
        assert _normalized(run_scenario(name)) == first


def test_unknown_scenario_name():
    with pytest.raises(ValueError):
        run_scenario("figure9")


def test_transcript_diff_detects_divergence():
    diff = transcript_diff("figure2-byref", ["wrong", "lines"])
    assert any("!~" in line for line in diff)
    assert any("missing" in line for line in diff)


def test_run_scenario_raises_on_divergence(monkeypatch):
    monkeypatch.setitem(SCENARIOS, "figure2-local", lambda: ["bogus"])
    with pytest.raises(ScenarioFailed):
        run_scenario("figure2-local")


def test_cli_prints_transcript_and_exits_zero(capsys):
    assert main(["figure2-local"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "36"
    for line, pattern in zip(out, EXPECTED["figure2-local"]):
        assert re.fullmatch(pattern, line)
