"""Fault-injection campaign acceptance: nothing escapes, almost
everything recovers, and the protocol layer's output validation closes
the loop end-to-end.
"""

from __future__ import annotations

import json

import pytest

from repro.csidh.parameters import csidh_toy
from repro.csidh.protocol import Csidh, key_exchange_demo
from repro.errors import FaultDetectedError
from repro.fault import ALL_SITES, FaultPlan, run_campaign
from repro.fault.campaign import (
    OUTCOME_ESCAPED,
    OUTCOME_MASKED,
    OUTCOME_RECOVERED,
    OUTCOMES,
)
from repro.field.fp import FieldContext
from repro.field.simulated import SimulatedFieldContext


@pytest.fixture(scope="module")
def report():
    """The reference campaign (same shape the CI smoke job runs)."""
    return run_campaign(csidh_toy().p, seed=1, n=25)


class TestCampaignAcceptance:
    def test_no_fault_escapes(self, report):
        assert report.escaped == 0
        for trial in report.trials:
            assert trial.outcome != OUTCOME_ESCAPED

    def test_recovery_rate_at_least_90_percent(self, report):
        assert report.detected > 0
        assert report.recovery_rate >= 0.9

    def test_every_site_exercised(self, report):
        assert set(report.by_site) == set(ALL_SITES)

    def test_recovered_trials_saw_detection_and_recovery(self, report):
        for trial in report.trials:
            if trial.outcome == OUTCOME_RECOVERED:
                assert trial.detections >= 1
                assert trial.recoveries >= 1
            if trial.outcome == OUTCOME_MASKED:
                assert trial.detections == 0

    def test_outcome_partition(self, report):
        assert sum(report.outcomes.values()) == report.n
        assert set(report.outcomes) == set(OUTCOMES)

    def test_report_is_json_roundtrippable(self, report):
        document = json.loads(json.dumps(report.to_dict()))
        assert document["seed"] == 1
        assert document["escaped"] == 0
        assert len(document["trials"]) == 25
        injected = document["metrics"]["faults_injected_total"]
        assert sum(e["value"] for e in injected) == 25

    def test_trials_follow_the_plan(self, report):
        planned = FaultPlan(seed=1).generate(25)
        assert [t.site for t in report.trials] \
            == [s.site for s in planned]
        assert [t.operation for t in report.trials] \
            == [s.operation for s in planned]


class TestCampaignKnobs:
    def test_site_restriction(self):
        restricted = run_campaign(csidh_toy().p, seed=3, n=6,
                                  sites=("output_corrupt",))
        assert set(restricted.by_site) == {"output_corrupt"}
        assert restricted.escaped == 0

    def test_isa_variant_campaign(self):
        """The hardening layer is variant-agnostic: the ISA-only
        kernels survive the same campaign."""
        isa = run_campaign(csidh_toy().p, seed=4, n=6,
                           variant="reduced.isa")
        assert isa.escaped == 0
        assert isa.recovery_rate >= 0.9


class TestProtocolOutputValidation:
    """The CSIDH fault-attack countermeasure: outputs are validated
    supersingular before release (``verify_output=True``)."""

    def test_honest_exchange_passes_validation(self):
        params = csidh_toy()
        alice = Csidh(params, seed=11, verify_output=True)
        bob = Csidh(params, seed=12, verify_output=True)
        alice_priv, alice_pub = alice.keygen()
        bob_priv, bob_pub = bob.keygen()
        assert alice.shared_secret(alice_priv, bob_pub) \
            == bob.shared_secret(bob_priv, alice_pub)

    def test_corrupted_output_withheld(self):
        params = csidh_toy()
        party = Csidh(params, seed=11, verify_output=True)
        # the singular curve A=2 can never be a group-action result;
        # a fault that skews the walk there must be caught
        with pytest.raises(FaultDetectedError, match="withholding"):
            party._checked_output(2, "shared secret")

    def test_validation_off_by_default(self):
        params = csidh_toy()
        party = Csidh(params, seed=11)
        assert party._checked_output(2, "shared secret") == 2


class TestSelfHealingEndToEnd:
    """A checked simulated context heals around a persistent fault and
    still completes protocol-grade work with correct results."""

    def test_exchange_on_checked_context_matches_pure_python(self):
        params = csidh_toy()
        field = SimulatedFieldContext(params.p, checked=True,
                                      check_interval=1)
        alice = Csidh(params, field=field, seed=21)
        private, public = alice.keygen()

        pure = Csidh(params, field=FieldContext(params.p), seed=21)
        assert public.coefficient == pure.keygen()[1].coefficient

    def test_poisoned_trace_healed_mid_stream(self):
        from repro.fault import arm_fault
        from repro.fault.plan import FaultSite

        p = csidh_toy().p
        context = SimulatedFieldContext(p, checked=True,
                                        check_interval=1)
        reference = FieldContext(p)
        site = FaultSite(index=0, site="replay_closure_corrupt",
                         operation="mul", step=5, bit=13, lane=3,
                         delta=1)
        armed = arm_fault(context._mul, site)
        try:
            # the poison is persistent until recovery evicts the trace;
            # every subsequent product must still come out right
            for a, b in [(3, 5), (7, 11), (p - 1, p - 2), (42, 81)]:
                assert context.mul(a, b) == reference.mul(a, b)
        finally:
            armed.disarm()
        assert context.fault_recoveries == context.fault_detections


class TestAotFaultSymmetry:
    """Replay-cache poisoning must take the live fused aot tier out, so
    runs demote onto the poisoned trace and the fault is detected
    there, and recovery must hand back a pristine aot runner."""

    def test_poisoning_drops_and_disarm_restores_the_aot_tier(self):
        from repro import telemetry
        from repro.fault import arm_fault
        from repro.fault.plan import FaultSite
        from repro.kernels.registry import cached_kernels
        from repro.kernels.runner import KernelRunner

        p = csidh_toy().p
        kernels = cached_kernels(p)
        runner = KernelRunner(kernels["fp_mul.reduced.ise"],
                              engine="aot")
        machine = runner.machine
        pristine = machine._aot_entry_cache[runner.entry]
        pristine_trace = machine._trace_for(runner.entry)

        site = FaultSite(index=0, site="replay_step_skip",
                         operation="mul", step=5, bit=0, lane=0,
                         delta=1)
        armed = arm_fault(runner, site)
        try:
            assert runner.entry not in machine._aot_entry_cache
            assert not machine.aot_supported(runner.entry)
            assert machine._trace_cache[runner.entry] \
                is not pristine_trace
            # the demoted run executes the poisoned trace
            with telemetry.capture(fresh=True) as cap:
                runner.run(3, 5, check=False)
            assert cap.registry.total(
                "kernel_runs_total", engine="replay") == 1
        finally:
            armed.disarm()
        assert machine._aot_entry_cache[runner.entry] is pristine
        assert machine._trace_cache[runner.entry] is pristine_trace
        assert machine.aot_supported(runner.entry)

    def test_aot_context_heals_onto_a_fresh_aot_runner(self):
        from repro import telemetry
        from repro.fault import arm_fault
        from repro.fault.plan import FaultSite

        p = csidh_toy().p
        context = SimulatedFieldContext(p, checked=True,
                                        check_interval=1, engine="aot")
        reference = FieldContext(p)
        poisoned = context._mul
        assert poisoned._aot_thunk is not None

        site = FaultSite(index=0, site="replay_step_skip",
                         operation="mul", step=2, bit=13, lane=3,
                         delta=1)
        armed = arm_fault(poisoned, site)
        try:
            with telemetry.capture(fresh=True) as cap:
                for a, b in [(3, 5), (7, 11), (p - 1, p - 2), (42, 81)]:
                    assert context.mul(a, b) == reference.mul(a, b)
        finally:
            armed.disarm()
        assert context.fault_detections >= 1
        assert context.fault_recoveries == context.fault_detections
        # detected on the replay rung the dropped aot tier demoted to
        assert cap.registry.total(
            "faults_detected_total", where="fp_mul.reduced.ise",
            engine="replay") >= 1
        # recovery invalidated the trace and rebuilt the runner, which
        # is back on a live aot thunk
        assert cap.registry.total(
            "engine_evictions_total", engine="replay") >= 1
        assert context._mul is not poisoned
        assert context._mul._aot_thunk is not None

    def test_aot_campaign_no_escapes(self):
        report = run_campaign(csidh_toy().p, seed=1, n=12,
                              engine="aot")
        assert report.engine == "aot"
        assert report.escaped == 0
        assert report.recovery_rate >= 0.9


class TestHookSitesEngineIndependent:
    """Hook sites (``register_flip``, ``memory_flip``) fire inside an
    interpreter run whatever engine the context asked for, so each
    trial's outcome must not depend on the engine — in particular a
    masked flip must not read as a cycle-count fault on a fast tier."""

    def test_hook_site_outcomes_match_across_engines(self):
        from repro.fault.plan import SITE_MEMORY_FLIP, SITE_REGISTER_FLIP
        from repro.rv64.machine import ENGINES

        outcomes = {}
        for engine in ENGINES:
            report = run_campaign(
                csidh_toy().p, seed=1, n=12, engine=engine,
                sites=(SITE_REGISTER_FLIP, SITE_MEMORY_FLIP))
            outcomes[engine] = [(t.site, t.outcome)
                                for t in report.trials]
        assert outcomes["replay"] == outcomes["interpreter"]
        assert outcomes["aot"] == outcomes["interpreter"]
