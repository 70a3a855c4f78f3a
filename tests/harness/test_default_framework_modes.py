"""Tests for the default framework's MUDS configuration switch."""

from repro.harness import default_framework
from repro.relation import Relation


def table() -> Relation:
    # A relation on which the as-published MUDS is known to miss an FD
    # (the DESIGN.md characterization example).
    rows = [
        (2, 1, 1, 0, 1), (0, 1, 2, 2, 1), (0, 1, 0, 2, 1),
        (1, 0, 1, 2, 2), (1, 0, 2, 1, 1), (1, 2, 2, 1, 0),
        (2, 1, 2, 2, 1), (1, 0, 0, 0, 0),
    ]
    return Relation.from_rows(["A", "B", "C", "D", "E"], rows, name="char")


class TestFaithfulSwitch:
    def test_faithful_muds_differs_from_tane_here(self):
        framework = default_framework(seed=9, faithful_muds=True)
        muds = framework.run("muds", table())
        tane = framework.run("tane", table())
        assert len(muds.result.fds) < len(tane.result.fds)

    def test_certified_muds_matches_tane(self):
        framework = default_framework(seed=9, faithful_muds=False)
        executions = framework.run_all(table(), names=("muds", "tane"))
        by_name = {e.algorithm: e for e in executions}
        from repro.metadata import fd_signature

        assert fd_signature(by_name["muds"].result.fds) == fd_signature(
            by_name["tane"].result.fds
        )

    def test_fresh_instances_per_execution(self):
        framework = default_framework()
        first = framework.run("holistic_fun", table())
        second = framework.run("holistic_fun", table())
        assert first.result is not second.result
        assert first.result.same_metadata(second.result)
