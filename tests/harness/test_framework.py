"""Tests for the Metanome-like execution framework."""

import pytest

from repro.core.holistic_fun import HolisticFun
from repro.harness import Framework, default_framework
from repro.relation import Relation


@pytest.fixture
def toy() -> Relation:
    return Relation.from_rows(
        ["A", "B", "C"],
        [(1, 1, 2), (2, 1, 2), (3, 2, 4), (4, 2, 4)],
        name="toy",
    )


class TestFramework:
    def test_register_and_run(self, toy):
        framework = Framework()
        framework.register("hfun", HolisticFun)
        execution = framework.run("hfun", toy)
        assert execution.algorithm == "hfun"
        assert execution.dataset == "toy"
        assert execution.seconds >= 0
        assert execution.counts[2] > 0  # some FDs

    def test_duplicate_registration_rejected(self):
        framework = Framework()
        framework.register("x", HolisticFun)
        with pytest.raises(ValueError):
            framework.register("x", HolisticFun)

    def test_unknown_algorithm(self, toy):
        with pytest.raises(KeyError):
            Framework().run("nope", toy)

    def test_executions_accumulate(self, toy):
        framework = Framework()
        framework.register("hfun", HolisticFun)
        framework.run("hfun", toy)
        framework.run("hfun", toy)
        assert len(framework.executions) == 2


class TestDefaultFramework:
    def test_contenders_registered(self):
        framework = default_framework()
        assert set(framework.algorithms) == {"baseline", "holistic_fun", "muds", "tane"}

    def test_run_all_agreement(self, toy):
        framework = default_framework(faithful_muds=False)
        executions = framework.run_all(toy)
        assert len(executions) == 4
        by_name = {e.algorithm: e for e in executions}
        # TANE is FD-only: no INDs, but identical FDs.
        assert not by_name["tane"].result.inds
        from repro.metadata import fd_signature

        assert fd_signature(by_name["tane"].result.fds) == fd_signature(
            by_name["muds"].result.fds
        )

    def test_disagreement_raises(self, toy):
        framework = Framework()
        framework.register("hfun", HolisticFun)

        class Liar:
            def profile(self, relation):
                from repro.metadata import ProfilingResult

                return ProfilingResult.from_masks(
                    relation.name, relation.column_names
                )

        framework.register("liar", lambda: Liar())
        with pytest.raises(AssertionError):
            framework.run_all(toy)

    def test_disagreement_message_lists_symmetric_difference(self, toy):
        from repro.harness import MetadataDisagreement

        framework = Framework()
        framework.register("hfun", HolisticFun)

        class Liar:
            def profile(self, relation):
                from repro.metadata import ProfilingResult

                # Drops everything real, invents a bogus UCC on C.
                return ProfilingResult.from_masks(
                    relation.name, relation.column_names, ucc_masks=[0b100]
                )

        framework.register("liar", lambda: Liar())
        with pytest.raises(MetadataDisagreement) as excinfo:
            framework.run_all(toy)
        message = str(excinfo.value)
        assert "hfun and liar disagree on toy" in message
        assert "FDs only in hfun" in message
        assert "UCCs only in hfun" in message
        assert "UCCs only in liar" in message and "{C}" in message
        assert "INDs only in hfun" in message

    def test_agreement_skips_non_ok_executions(self, toy):
        # A TL/ML/ERR execution legitimately holds partial metadata; the
        # agreement check must not flag it as a disagreement.
        from repro.harness import Budget

        framework = Framework()
        framework.register("hfun", HolisticFun)
        framework.register("hfun2", HolisticFun)
        executions = framework.run_all(
            toy,
            budget={"hfun2": Budget(deadline_seconds=0.0, checkpoint_stride=1)},
        )
        assert executions[0].status == "ok"
        assert executions[1].status == "timeout"

    def test_check_agreement_can_be_disabled(self, toy):
        framework = Framework()
        framework.register("hfun", HolisticFun)

        class Liar:
            def profile(self, relation):
                from repro.metadata import ProfilingResult

                return ProfilingResult.from_masks(
                    relation.name, relation.column_names
                )

        framework.register("liar", lambda: Liar())
        executions = framework.run_all(toy, check_agreement=False)
        assert len(executions) == 2
