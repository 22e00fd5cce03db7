"""Campaign orchestrator: specs, hooks, runner, HTTP/CLI surface, resume.

The resume tests pin the subsystem's central guarantee: an interrupted
campaign restarted on the same journal *re-derives* its completed stages
through the job-level fingerprint dedup — identical results, no
re-execution — and then carries on.  Determinism is what makes that safe:
hooks are deterministic functions of deterministic results, so a re-driven
stage resolves to the same requests (pinned by its stage fingerprint),
whose fingerprints hit the store the journal replay refilled.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.campaigns import (
    CampaignError,
    CampaignHookError,
    CampaignSpec,
    CampaignSpecError,
    CampaignState,
    StageSpec,
    StageState,
    UnknownCampaignError,
    get_campaign,
    list_campaigns,
    list_parameterizers,
    register_parameterizer,
    restore_campaign_records,
    stage_fingerprint,
    unregister_parameterizer,
)
from repro.campaigns.hooks import resolve_hook_output
from repro.campaigns.library import (
    PAPER_SIBLINGS,
    make_budget_escalation,
    make_search_refine_validate,
)
from repro.scenarios import (
    ScenarioSpec,
    register_scenario,
    unregister_scenario,
)
from repro.scenarios.registry import UnknownScenarioError
from repro.service import EvaluationService, JobRequest
from repro.service.__main__ import main as service_cli
from repro.service.journal import JobJournal
from test_service import _http, http_service, tiny_scenario, tiny_spec  # noqa: F401

HERE = pathlib.Path(__file__).resolve().parent


def _requests(name, *budgets):
    return tuple(JobRequest(scenario=name, generations=g, population_size=p)
                 for g, p in budgets)


@pytest.fixture
def sibling_scenario():
    spec = register_scenario(tiny_spec("svc-tiny-sibling"))
    try:
        yield spec
    finally:
        unregister_scenario(spec.name)


@pytest.fixture
def failing_custom():
    def explode(ctx):
        raise RuntimeError("deliberate campaign failure")

    spec = register_scenario(ScenarioSpec(
        name="camp-failing", title="Always fails", kind="custom",
        platform="nucleo-stm32f091rc", custom_run=explode))
    try:
        yield spec
    finally:
        unregister_scenario(spec.name)


@pytest.fixture
def gated_scenario():
    """A custom scenario whose runs wait until the test sets the gate."""
    gate = threading.Event()

    def run(ctx):
        assert gate.wait(300)
        return {"gated": True}

    spec = register_scenario(ScenarioSpec(
        name="camp-gated", title="Waits for its gate", kind="custom",
        platform="nucleo-stm32f091rc", custom_run=run))
    try:
        yield gate
    finally:
        gate.set()
        unregister_scenario(spec.name)


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------
class TestCampaignSpec:
    def test_stage_needs_requests_or_hook(self):
        with pytest.raises(CampaignSpecError, match="static requests"):
            StageSpec(name="empty")

    def test_stage_validation(self):
        with pytest.raises(CampaignSpecError, match="on_failure"):
            StageSpec(name="s", parameterize="h", on_failure="explode")
        with pytest.raises(CampaignSpecError, match="by name"):
            StageSpec(name="s", parameterize=lambda results: [])
        with pytest.raises(CampaignSpecError, match="priority"):
            StageSpec(name="s", parameterize="h", priority=True)
        with pytest.raises(CampaignSpecError, match="JSON-serialisable"):
            StageSpec(name="s", parameterize="h",
                      hook_args={"event": threading.Event()})
        with pytest.raises(CampaignSpecError, match="JobRequest"):
            StageSpec(name="s", requests=({"scenario": "x"},))

    def test_campaign_validation(self):
        stage = StageSpec(name="only", parameterize="h")
        with pytest.raises(CampaignSpecError, match="at least one stage"):
            CampaignSpec(name="c", stages=())
        with pytest.raises(CampaignSpecError, match="unique"):
            CampaignSpec(name="c", stages=(stage, stage))
        with pytest.raises(CampaignSpecError, match="non-empty name"):
            CampaignSpec(name="", stages=(stage,))

    def test_round_trip_and_fingerprint(self):
        spec = CampaignSpec(
            name="rt", title="round trip", tags=("a", "b"),
            stages=(
                StageSpec(name="one", requests=_requests("x", (1, 2))),
                StageSpec(name="two", parameterize="top-energy-refine",
                          hook_args={"k": 1}, on_failure="continue",
                          priority=3, use_cache=False),
            ))
        clone = CampaignSpec.from_dict(
            json.loads(json.dumps(spec.as_dict())))
        assert clone == spec
        assert clone.fingerprint() == spec.fingerprint()
        with pytest.raises(CampaignSpecError, match="unknown campaign"):
            CampaignSpec.from_dict(dict(spec.as_dict(), flavour="spicy"))
        with pytest.raises(CampaignSpecError, match="unknown stage"):
            CampaignSpec.from_dict({
                "name": "c",
                "stages": [{"name": "s", "parameterize": "h",
                            "retries": 3}]})

    def test_stage_fingerprint_tracks_resolved_requests(self):
        first = stage_fingerprint("s", _requests("x", (1, 2)))
        assert first == stage_fingerprint("s", _requests("x", (1, 2)))
        assert first != stage_fingerprint("s", _requests("x", (2, 2)))
        assert first != stage_fingerprint("other", _requests("x", (1, 2)))


# ---------------------------------------------------------------------------
# Hooks and registry
# ---------------------------------------------------------------------------
class TestHooksAndRegistry:
    def test_builtin_hooks_and_campaigns_registered(self):
        assert {"top-energy-refine", "pareto-refine", "still-improving",
                "companion-deployments"} <= set(list_parameterizers())
        names = {spec.name for spec in list_campaigns()}
        assert {"search-refine-validate", "budget-escalation",
                "dl-cross-platform"} <= names
        assert get_campaign("dl-cross-platform").stages[0].name == \
            "tk1-profile"
        with pytest.raises(UnknownCampaignError):
            get_campaign("no-such-campaign")

    def test_register_and_unregister_hook(self):
        def hook(results):
            return []

        register_parameterizer("camp-test-hook", hook)
        try:
            with pytest.raises(CampaignHookError, match="already"):
                register_parameterizer("camp-test-hook", hook)
            register_parameterizer("camp-test-hook", hook, replace=True)
        finally:
            unregister_parameterizer("camp-test-hook")
        with pytest.raises(CampaignHookError, match="unknown parameterize"):
            from repro.campaigns.hooks import get_parameterizer
            get_parameterizer("camp-test-hook")

    def test_resolve_hook_output(self):
        requests = resolve_hook_output("s", [
            JobRequest(scenario="x"),
            {"scenario": "y", "generations": 2},
        ])
        assert [r.scenario for r in requests] == ["x", "y"]
        assert resolve_hook_output("s", None) == []
        with pytest.raises(CampaignHookError, match="sequence"):
            resolve_hook_output("s", {"scenario": "x"})
        with pytest.raises(CampaignHookError, match="entry 1"):
            resolve_hook_output("s", [{"scenario": "x"},
                                      {"scenario": "y", "flavour": "hot"}])


# ---------------------------------------------------------------------------
# Runner semantics (in-process, tiny scenarios)
# ---------------------------------------------------------------------------
class TestCampaignRunner:
    def test_three_stage_campaign_matches_manual_submissions(
            self, tiny_scenario, sibling_scenario):  # noqa: F811
        campaign = make_search_refine_validate(
            name="camp-staged",
            scenarios=(tiny_scenario.name,),
            siblings={tiny_scenario.name: [sibling_scenario.name]},
            search_budget={"generations": 1, "population_size": 2},
            refine_budget={"generations": 2, "population_size": 2},
            keep=1,
        )
        with EvaluationService(workers=2) as service:
            record = service.submit_campaign(campaign)
            record = service.campaign_result(record.id, timeout=300)
            assert record.state is CampaignState.SUCCEEDED
            states = [stage.state for stage in record.stages]
            assert states == [StageState.SUCCEEDED] * 3
            assert [stage.name for stage in record.stages] == [
                "search", "refine", "validate"]
            # validate ran the refined winner plus its sibling.
            assert record.stages[2].jobs == 2

            # Bit-identical to manual submissions of the same requests: the
            # campaign is a transport over the job layer, not a computation.
            manual = service.result(service.submit(
                tiny_scenario.name, generations=1, population_size=2),
                timeout=120)
            assert record.stages[0].result_summaries[0] == manual.summary()
            manual_refine = service.result(service.submit(
                tiny_scenario.name, generations=2, population_size=2),
                timeout=120)
            assert (record.stages[1].result_summaries[0]
                    == manual_refine.summary())

            stats = service.stats()["campaigns"]
            assert stats["campaigns"] == 1
            assert stats["by_state"] == {"succeeded": 1}
            assert stats["jobs_submitted"] == sum(
                stage.jobs for stage in record.stages)
            row = stats["records"][0]
            assert row["id"] == record.id and row["resumed"] is False
            assert all(stage["wall_s"] is not None
                       for stage in row["stages"])

    def test_on_failure_stop_skips_remaining_stages(
            self, tiny_scenario, failing_custom):  # noqa: F811
        campaign = CampaignSpec(name="camp-stop", stages=(
            StageSpec(name="boom",
                      requests=(JobRequest(scenario=failing_custom.name),)),
            StageSpec(name="never",
                      requests=(JobRequest(scenario=tiny_scenario.name),)),
        ))
        with EvaluationService(workers=1) as service:
            record = service.submit_campaign(campaign)
            assert record.wait(120)
            assert record.state is CampaignState.FAILED
            assert "boom" in record.error
            assert record.stages[0].state is StageState.FAILED
            assert "deliberate campaign failure" in record.stages[0].error
            assert record.stages[1].state is StageState.SKIPPED
            with pytest.raises(CampaignError, match="failed"):
                service.campaign_result(record.id, timeout=1)

    def test_on_failure_skip_passes_previous_results_through(
            self, tiny_scenario, failing_custom):  # noqa: F811
        campaign = CampaignSpec(name="camp-skip", stages=(
            StageSpec(name="seed", requests=_requests(
                tiny_scenario.name, (1, 2))),
            StageSpec(name="flaky", on_failure="skip",
                      requests=(JobRequest(scenario=failing_custom.name),)),
            StageSpec(name="refine", parameterize="top-energy-refine",
                      hook_args={"k": 1, "generations": 2,
                                 "population_size": 2}),
        ))
        with EvaluationService(workers=1) as service:
            record = service.campaign_result(
                service.submit_campaign(campaign).id, timeout=300)
            assert record.state is CampaignState.SUCCEEDED
            assert record.stages[1].state is StageState.FAILED
            # The hook saw stage "seed"'s results, not the failed stage's.
            assert record.stages[2].state is StageState.SUCCEEDED
            assert record.stages[2].jobs == 1
            assert (record.stages[2].result_summaries[0]["name"]
                    == tiny_scenario.name)

    def test_on_failure_continue_feeds_successful_subset_forward(
            self, tiny_scenario, failing_custom):  # noqa: F811
        campaign = CampaignSpec(name="camp-continue", stages=(
            StageSpec(name="mixed", on_failure="continue", requests=(
                JobRequest(scenario=tiny_scenario.name, generations=1,
                           population_size=2),
                JobRequest(scenario=failing_custom.name),
            )),
            StageSpec(name="refine", parameterize="top-energy-refine",
                      hook_args={"k": 1, "generations": 2,
                                 "population_size": 2}),
        ))
        with EvaluationService(workers=1) as service:
            record = service.campaign_result(
                service.submit_campaign(campaign).id, timeout=300)
            assert record.state is CampaignState.SUCCEEDED
            assert record.stages[0].state is StageState.FAILED
            assert len(record.stages[0].result_summaries) == 1
            assert record.stages[1].state is StageState.SUCCEEDED
            assert (record.stages[1].result_summaries[0]["name"]
                    == tiny_scenario.name)

    def test_empty_hook_resolution_skips_stage(self, tiny_scenario):  # noqa: F811
        campaign = CampaignSpec(name="camp-empty", stages=(
            StageSpec(name="seed", requests=_requests(
                tiny_scenario.name, (1, 2))),
            # Nothing improves by 10**6 percent: resolves to zero requests.
            StageSpec(name="filter", parameterize="still-improving",
                      hook_args={"min_energy_improvement_pct": 1e6}),
            StageSpec(name="refine", parameterize="top-energy-refine",
                      hook_args={"k": 1, "generations": 2,
                                 "population_size": 2}),
        ))
        with EvaluationService(workers=1) as service:
            record = service.campaign_result(
                service.submit_campaign(campaign).id, timeout=300)
            assert record.state is CampaignState.SUCCEEDED
            assert record.stages[1].state is StageState.SKIPPED
            assert record.stages[1].jobs == 0
            # Stage "seed"'s results passed through the skipped stage.
            assert record.stages[2].state is StageState.SUCCEEDED
            assert record.stages[2].jobs == 1

    def test_batch_stage_runs_as_one_job(self, tiny_scenario,
                                         sibling_scenario):  # noqa: F811
        campaign = CampaignSpec(name="camp-batch", stages=(
            StageSpec(name="pair", batch=True, requests=(
                JobRequest(scenario=tiny_scenario.name),
                JobRequest(scenario=sibling_scenario.name),
            )),
        ))
        with EvaluationService(workers=1) as service:
            record = service.campaign_result(
                service.submit_campaign(campaign).id, timeout=300)
            stage = record.stages[0]
            assert len(stage.job_ids) == 1      # one queue entry
            assert stage.jobs == 2              # ...for two requests
            assert [row["name"] for row in stage.result_summaries] == [
                tiny_scenario.name, sibling_scenario.name]
            assert service.queue.stats()["submitted"] == 1

    def test_cancel_campaign(self, tiny_scenario):  # noqa: F811
        campaign = CampaignSpec(name="camp-cancel", stages=(
            StageSpec(name="wedged", requests=_requests(
                tiny_scenario.name, (1, 2), (2, 2))),
        ))
        # A stopped pool wedges the stage's jobs as pending forever, so the
        # cancellation window is deterministic.
        with EvaluationService(workers=1, autostart=False) as service:
            record = service.submit_campaign(campaign)
            deadline = time.monotonic() + 30
            while not record.stages[0].job_ids:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert service.cancel_campaign(record.id)
            assert record.wait(30)
            assert record.state is CampaignState.CANCELLED
            assert record.stages[0].state is StageState.SKIPPED
            # The unshared pending jobs were withdrawn with the campaign.
            assert service.queue.stats()["cancelled"] == 2
            assert not service.cancel_campaign(record.id)  # already terminal
            with pytest.raises(CampaignError, match="cancelled"):
                service.campaign_result(record.id, timeout=1)

    def test_submission_validation(self, tiny_scenario):  # noqa: F811
        with EvaluationService(workers=1, autostart=False) as service:
            with pytest.raises(UnknownCampaignError):
                service.submit_campaign("no-such-campaign")
            with pytest.raises(UnknownScenarioError):
                service.submit_campaign(CampaignSpec(name="c", stages=(
                    StageSpec(name="s", requests=(
                        JobRequest(scenario="no-such-scenario"),)),)))
            with pytest.raises(CampaignSpecError, match="priority"):
                service.submit_campaign(CampaignSpec(name="c", stages=(
                    StageSpec(name="s", requests=(
                        JobRequest(scenario=tiny_scenario.name),)),)),
                    priority=True)
            with pytest.raises(CampaignSpecError, match="needs a campaign"):
                service.submit_campaign(42)
            with pytest.raises(CampaignError, match="unknown campaign"):
                service.campaign_result("camp-999999", timeout=1)


# ---------------------------------------------------------------------------
# Record restoration from journal events
# ---------------------------------------------------------------------------
class TestRestoreCampaignRecords:
    SPEC = CampaignSpec(name="restore-me", stages=(
        StageSpec(name="one", requests=(JobRequest(scenario="x"),)),
        StageSpec(name="two", parameterize="top-energy-refine"),
    ))

    def test_terminal_and_non_terminal_records(self):
        events = [
            {"event": "campaign_submit", "id": "camp-000001",
             "spec": self.SPEC.as_dict(), "priority": 2,
             "submitted_at": 1.0},
            {"event": "campaign_stage", "id": "camp-000001", "index": 0,
             "name": "one", "state": "succeeded", "on_failure": "stop",
             "fingerprint": "abc", "job_ids": ["job-000001"], "jobs": 1,
             "dedup_hits": 0, "started_at": 1.0, "finished_at": 2.0,
             "wall_s": 1.0, "results": [{"name": "x"}]},
            {"event": "campaign_submit", "id": "camp-000002",
             "spec": self.SPEC.as_dict(), "priority": 0,
             "submitted_at": 3.0},
            {"event": "campaign_finish", "id": "camp-000002",
             "state": "failed", "started_at": 3.0, "finished_at": 4.0,
             "error": "stage 'one' failed: boom"},
        ]
        records = restore_campaign_records(events)
        assert [record.id for record in records] == ["camp-000001",
                                                     "camp-000002"]
        interrupted, failed = records
        assert interrupted.state is CampaignState.PENDING
        assert not interrupted.done.is_set()
        assert interrupted.priority == 2
        assert interrupted.stages[0].state is StageState.SUCCEEDED
        assert interrupted.stages[0].result_summaries == [{"name": "x"}]
        assert interrupted.stages[1].state is StageState.PENDING
        assert failed.state is CampaignState.FAILED
        assert failed.done.is_set()
        assert failed.error == "stage 'one' failed: boom"

    def test_torn_events_are_tolerated(self):
        records = restore_campaign_records([
            {"event": "campaign_stage", "id": "camp-000009", "index": 0},
            {"event": "campaign_finish", "id": "camp-000009",
             "state": "succeeded"},
            {"event": "campaign_submit", "id": "camp-000001",
             "spec": self.SPEC.as_dict(), "priority": 0,
             "submitted_at": 1.0},
            {"event": "campaign_stage", "id": "camp-000001", "index": 99,
             "state": "succeeded"},
        ])
        assert len(records) == 1
        assert records[0].stages[0].state is StageState.PENDING


# ---------------------------------------------------------------------------
# Resume after restart (in-process)
# ---------------------------------------------------------------------------
#: Gate for the wedge scenario below; the resume test swaps in fresh
#: (pre-released) events for the second service life, leaving the first
#: life's worker parked on the old event.
_GATE = {"started": threading.Event(), "release": threading.Event()}


def _wedge_run(ctx):
    _GATE["started"].set()
    assert _GATE["release"].wait(300)
    return {"wedged": False}


class TestCampaignResumeInProcess:
    def test_interrupted_campaign_resumes_without_rerunning_stage_one(
            self, tmp_path, tiny_scenario):  # noqa: F811
        wedge = register_scenario(ScenarioSpec(
            name="camp-wedge", title="Blocks until released", kind="custom",
            platform="nucleo-stm32f091rc", custom_run=_wedge_run))
        path = tmp_path / "journal.jsonl"
        campaign = CampaignSpec(name="camp-resume", stages=(
            StageSpec(name="search", requests=_requests(
                tiny_scenario.name, (1, 2), (2, 2))),
            StageSpec(name="wedged",
                      requests=(JobRequest(scenario=wedge.name),)),
        ))
        try:
            # First life: stage 1 completes and is journaled; stage 2 wedges
            # in a worker; close() abandons the campaign non-terminal.
            service = EvaluationService(workers=1, journal=path)
            record = service.submit_campaign(campaign)
            assert _GATE["started"].wait(300)
            assert record.stages[0].state is StageState.SUCCEEDED
            first_fingerprint = record.stages[0].fingerprint
            first_summaries = list(record.stages[0].result_summaries)
            service.close(wait=False)
            assert not record.state.terminal

            # Second life: pre-release the wedge, replay the same journal.
            _GATE["started"] = threading.Event()
            _GATE["release"] = threading.Event()
            _GATE["release"].set()
            service = EvaluationService(workers=1, journal=path)
            try:
                resumed = service.campaign(record.id)
                assert resumed is not None and resumed.resumed is True
                resumed = service.campaign_result(record.id, timeout=300)
                assert resumed.state is CampaignState.SUCCEEDED
                stage_one = resumed.stages[0]
                # Same resolved work (the fingerprint pins it), served
                # entirely from the journal replay — no re-execution.
                assert stage_one.fingerprint == first_fingerprint
                assert stage_one.dedup_hits == stage_one.jobs == 2
                assert stage_one.result_summaries == first_summaries
                assert service.stats()["store"]["hits"] >= 2
                assert resumed.stages[1].state is StageState.SUCCEEDED
                assert service.stats()["journal"][
                    "replayed_campaign_events"] >= 2
                # Fresh campaign ids never collide with replayed ones.
                fresh = service.submit_campaign(campaign)
                assert fresh.id != record.id
                service.campaign_result(fresh.id, timeout=300)
            finally:
                service.close()
        finally:
            unregister_scenario(wedge.name)


# ---------------------------------------------------------------------------
# HTTP surface
# ---------------------------------------------------------------------------
class TestCampaignHttpApi:
    def test_submit_poll_and_list(self, http_service, tiny_scenario,  # noqa: F811
                                  gated_scenario):
        service, address = http_service
        # The first stage's job waits for the gate, so the campaign cannot
        # finish before its submission reply has been checked.
        status, submitted = _http(address, "POST", "/campaigns", {
            "name": "camp-http",
            "stages": [
                {"name": "hold", "requests": [{"scenario": "camp-gated"}]},
                {"name": "search",
                 "requests": [{"scenario": tiny_scenario.name,
                               "generations": 1, "population_size": 2}]},
                {"name": "refine", "parameterize": "top-energy-refine",
                 "hook_args": {"k": 1, "generations": 2,
                               "population_size": 2}},
            ],
        })
        assert status == 202
        assert submitted["state"] in ("pending", "running")
        gated_scenario.set()
        campaign_id = submitted["id"]
        deadline = time.monotonic() + 300
        document = submitted
        while document["state"] in ("pending", "running"):
            assert time.monotonic() < deadline
            status, document = _http(address, "GET",
                                     f"/campaigns/{campaign_id}?wait=5")
            assert status == 200
        assert document["state"] == "succeeded"
        assert [stage["state"] for stage in document["stages"]] == [
            "succeeded", "succeeded", "succeeded"]
        # Bit-identical to an equivalent direct job: JSON floats round-trip.
        direct = service.result(service.submit(
            tiny_scenario.name, generations=1, population_size=2),
            timeout=120)
        assert document["stages"][1]["results"][0] == direct.summary()

        status, listing = _http(address, "GET", "/campaigns")
        assert status == 200
        rows = {row["id"]: row for row in listing["campaigns"]}
        assert campaign_id in rows
        assert "results" not in rows[campaign_id]["stages"][0]  # compact

        status, stats = _http(address, "GET", "/stats")
        assert stats["campaigns"]["campaigns"] == 1
        assert stats["campaigns"]["by_state"] == {"succeeded": 1}

    def test_error_paths_and_cancel(self, http_service, tiny_scenario):  # noqa: F811
        service, address = http_service
        status, document = _http(address, "POST", "/campaigns",
                                 {"campaign": "no-such-campaign"})
        assert status == 404 and "unknown campaign" in document["error"]
        status, document = _http(address, "POST", "/campaigns", {
            "name": "bad", "stages": [
                {"name": "s", "requests": [{"scenario": "nope"}]}]})
        assert status == 404 and "unknown scenario" in document["error"]
        status, document = _http(address, "POST", "/campaigns", {
            "name": "bad", "stages": [], "flavour": "spicy"})
        assert status == 400
        status, document = _http(address, "POST", "/campaigns")
        assert status == 400
        status, document = _http(address, "GET", "/campaigns/camp-999999")
        assert status == 404
        status, document = _http(address, "DELETE",
                                 "/campaigns/camp-999999")
        assert status == 404

        # Cancel: wedge a campaign on a stopped pool.
        with EvaluationService(workers=1, autostart=False) as wedged:
            from repro.service.http import create_server
            server = create_server(wedged)
            thread = threading.Thread(target=server.serve_forever,
                                      daemon=True)
            thread.start()
            try:
                wedged_address = server.server_address[:2]
                status, submitted = _http(wedged_address, "POST",
                                          "/campaigns", {
                                              "name": "camp-wedged",
                                              "stages": [{
                                                  "name": "s",
                                                  "requests": [{
                                                      "scenario":
                                                      tiny_scenario.name}],
                                              }]})
                assert status == 202
                status, document = _http(
                    wedged_address, "DELETE",
                    f"/campaigns/{submitted['id']}")
                assert status == 202
                record = wedged.campaign(submitted["id"])
                assert record.wait(30)
                status, document = _http(
                    wedged_address, "DELETE",
                    f"/campaigns/{submitted['id']}")
                assert status == 409
            finally:
                server.shutdown()
                server.server_close()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestCampaignCli:
    def test_list_names_library_campaigns(self, capsys):
        assert service_cli(["campaign", "--list"]) == 0
        output = capsys.readouterr().out
        assert "search-refine-validate" in output
        assert "dl-cross-platform" in output
        assert "search -> refine -> validate" in output

    def test_local_run_from_spec_file(self, tmp_path, capsys,
                                      tiny_scenario):  # noqa: F811
        spec_file = tmp_path / "campaign.json"
        spec_file.write_text(json.dumps({
            "name": "cli-campaign",
            "stages": [
                {"name": "search",
                 "requests": [{"scenario": tiny_scenario.name,
                               "generations": 1, "population_size": 2}]},
                {"name": "refine", "parameterize": "top-energy-refine",
                 "hook_args": {"k": 1, "generations": 2,
                               "population_size": 2}},
            ],
        }))
        assert service_cli(["campaign", str(spec_file), "--local",
                            "--workers", "2"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["state"] == "succeeded"
        assert [stage["state"] for stage in document["stages"]] == [
            "succeeded", "succeeded"]

    def test_local_run_reports_bad_specs(self, tmp_path, capsys):
        assert service_cli(["campaign", "no-such-campaign",
                            "--local"]) == 2
        assert "unknown campaign" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert service_cli(["campaign", str(bad), "--local"]) == 2
        assert "not valid JSON" in capsys.readouterr().err
        assert service_cli(["campaign"]) == 2


# ---------------------------------------------------------------------------
# Resume after a SIGKILL of `serve --journal` (subprocess)
# ---------------------------------------------------------------------------
SERVE_SCRIPT = """\
    import json, sys, threading, time

    from repro.scenarios import ScenarioSpec, register_scenario
    from repro.service import EvaluationService
    from repro.service.http import create_server
    from test_service import tiny_spec

    journal, slow_s = sys.argv[1], float(sys.argv[2])

    def slow_run(ctx):
        time.sleep(slow_s)
        return {"slept": slow_s}

    register_scenario(tiny_spec("camp-kill-tiny"))
    register_scenario(ScenarioSpec(
        name="camp-kill-slow", title="Configurably slow", kind="custom",
        platform="nucleo-stm32f091rc", custom_run=slow_run))
    service = EvaluationService(workers=1, journal=journal)
    server = create_server(service, port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    print(json.dumps({"port": server.server_address[1]}), flush=True)
    time.sleep(600)
"""

CAMPAIGN_PAYLOAD = {
    "name": "camp-kill",
    "stages": [
        {"name": "search",
         "requests": [
             {"scenario": "camp-kill-tiny", "generations": 1,
              "population_size": 2},
             {"scenario": "camp-kill-tiny", "generations": 2,
              "population_size": 2},
         ]},
        {"name": "slow",
         "requests": [{"scenario": "camp-kill-slow"}]},
    ],
}


def _spawn_server(tmp_path, journal, slow_s):
    script = tmp_path / f"campaign_server_{slow_s}.py"
    script.write_text(textwrap.dedent(SERVE_SCRIPT))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(HERE.parent / "src"), str(HERE)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.Popen(
        [sys.executable, str(script), str(journal), str(slow_s)],
        env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    assert line, "service subprocess died before serving"
    return proc, ("127.0.0.1", json.loads(line)["port"])


class TestCampaignResumeAcrossSigkill:
    def test_killed_server_resumes_campaign_from_journal(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        # First life: stage 1 completes, stage 2 sleeps; SIGKILL mid-flight.
        proc, address = _spawn_server(tmp_path, journal, slow_s=300)
        try:
            status, submitted = _http(address, "POST", "/campaigns",
                                      CAMPAIGN_PAYLOAD)
            assert status == 202
            campaign_id = submitted["id"]
            deadline = time.monotonic() + 300
            while True:
                status, document = _http(address, "GET",
                                         f"/campaigns/{campaign_id}")
                assert status == 200
                if document["stages"][0]["state"] == "succeeded":
                    break
                assert document["state"] == "running"
                assert time.monotonic() < deadline
                time.sleep(0.05)
            first_stage = document["stages"][0]
            assert first_stage["jobs"] == 2
        finally:
            proc.kill()
            proc.wait(timeout=30)
            proc.stdout.close()

        # Second life: same journal, the slow stage now instant.
        proc, address = _spawn_server(tmp_path, journal, slow_s=0)
        try:
            deadline = time.monotonic() + 300
            while True:
                status, document = _http(address, "GET",
                                         f"/campaigns/{campaign_id}?wait=5")
                assert status == 200
                if document["state"] not in ("pending", "running"):
                    break
                assert time.monotonic() < deadline
            assert document["state"] == "succeeded"
            assert document["resumed"] is True
            resumed_stage = document["stages"][0]
            # Identical resolved work, all of it served by the journal
            # replay (dedup) — stage 1 never re-executed.
            assert (resumed_stage["fingerprint"]
                    == first_stage["fingerprint"])
            assert resumed_stage["dedup_hits"] == resumed_stage["jobs"] == 2
            assert resumed_stage["results"] == first_stage["results"]
            assert document["stages"][1]["state"] == "succeeded"
            status, stats = _http(address, "GET", "/stats")
            assert stats["journal"]["replayed_campaign_events"] >= 2
        finally:
            proc.kill()
            proc.wait(timeout=30)
            proc.stdout.close()


# ---------------------------------------------------------------------------
# Journal plumbing for campaign events
# ---------------------------------------------------------------------------
class TestCampaignJournalEvents:
    def test_campaign_events_do_not_count_as_skipped_lines(
            self, tmp_path, tiny_scenario):  # noqa: F811
        path = tmp_path / "journal.jsonl"
        campaign = CampaignSpec(name="camp-journal", stages=(
            StageSpec(name="only", requests=_requests(
                tiny_scenario.name, (1, 2))),
        ))
        with EvaluationService(workers=1, journal=path) as service:
            service.campaign_result(
                service.submit_campaign(campaign).id, timeout=300)
        journal = JobJournal(path)
        journal.replay()
        stats = journal.stats()
        assert stats["skipped_lines"] == 0
        kinds = [event["event"] for event in journal.campaign_events()]
        assert kinds == ["campaign_submit", "campaign_stage",
                         "campaign_finish"]
        assert stats["replayed_campaign_events"] == 3

    def test_job_and_stage_events_are_journaled_in_order(
            self, tmp_path, tiny_scenario):  # noqa: F811
        # Replay drops a finish whose job was not submitted yet, and a
        # resumed campaign re-runs a stage job whose finish a kill lost, so
        # each job's submit must reach the journal before its finish, and
        # each stage's jobs' finishes before the stage.  Slow appends open
        # both windows: a submit append that waits for its job to finish
        # lets a worker that can already claim the job journal its finish
        # first, and a slow finish append lets a stage that already sees
        # the job done be journaled first.
        class SlowJournal(JobJournal):
            def record_submit(self, job):
                job.done.wait(0.5)
                super().record_submit(job)

            def record_finish(self, *args, **kwargs):
                time.sleep(0.2)
                super().record_finish(*args, **kwargs)

        campaign = CampaignSpec(name="camp-durable", stages=(
            StageSpec(name="search", requests=_requests(
                tiny_scenario.name, (1, 2), (2, 2))),
            StageSpec(name="again", requests=_requests(
                tiny_scenario.name, (3, 2))),
        ))
        path = tmp_path / "journal.jsonl"
        with EvaluationService(workers=2,
                               journal=SlowJournal(path)) as service:
            record = service.submit_campaign(campaign)
            assert record.wait(300)
            assert record.state is CampaignState.SUCCEEDED
        submitted, finished, stages = set(), set(), []
        for line in path.read_text(encoding="utf-8").splitlines():
            event = json.loads(line)
            if event["event"] == "submit":
                submitted.add(event["id"])
            elif event["event"] == "finish":
                assert event["id"] in submitted, event["id"]
                finished.add(event["id"])
            elif event["event"] == "campaign_stage":
                stages.append(event["name"])
                assert set(event["job_ids"]) <= finished, event["name"]
        assert stages == ["search", "again"]

    def test_terminal_events_are_journaled_before_they_are_published(
            self, tmp_path, tiny_scenario, failing_custom):  # noqa: F811
        # A GET must never show a terminal stage or campaign whose event a
        # kill could still lose, so each event is appended while the live
        # record still shows the previous state.
        class PublishOrderJournal(JobJournal):
            service = None

            def __init__(self, path):
                super().__init__(path)
                self.seen = []

            def record_campaign_stage(self, record, stage):
                live = self.service.campaign_status(record.id)
                self.seen.append((stage.name, stage.state.value,
                                  live["stages"][stage.index]["state"]))
                super().record_campaign_stage(record, stage)

            def record_campaign_finish(self, record):
                live = self.service.campaign_status(record.id)
                self.seen.append(("campaign", record.state.value,
                                  live["state"]))
                super().record_campaign_finish(record)

        campaign = CampaignSpec(name="camp-order", stages=(
            StageSpec(name="search", requests=_requests(
                tiny_scenario.name, (1, 2))),
            StageSpec(name="boom",
                      requests=(JobRequest(scenario=failing_custom.name),)),
            StageSpec(name="never",
                      requests=(JobRequest(scenario=tiny_scenario.name),)),
        ))
        journal = PublishOrderJournal(tmp_path / "journal.jsonl")
        with EvaluationService(workers=1, journal=journal) as service:
            journal.service = service
            record = service.submit_campaign(campaign)
            assert record.wait(300)
            assert record.state is CampaignState.FAILED
            assert [stage.state for stage in record.stages] == [
                StageState.SUCCEEDED, StageState.FAILED, StageState.SKIPPED]
        # Recorded on the campaign thread and checked here: an assertion
        # raised there would only end that thread.
        assert journal.seen == [
            ("search", "succeeded", "running"),
            ("boom", "failed", "running"),
            ("never", "skipped", "pending"),
            ("campaign", "failed", "running"),
        ]
        reloaded = JobJournal(tmp_path / "journal.jsonl")
        reloaded.replay()
        assert [event["event"] for event in reloaded.campaign_events()] == [
            "campaign_submit"] + ["campaign_stage"] * 3 + ["campaign_finish"]
