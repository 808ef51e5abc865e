"""Mutation testing of the analyzer itself, and zoo cleanliness.

Two sides of the same acceptance contract:

- every seeded corruption in :data:`repro.analysis.mutate.MUTANTS` is
  *killed* — its checker reports an ERROR with the expected RP code —
  so no checker is vacuous,
- the uncorrupted model zoo (every registered model under the core
  strategies) analyzes to **zero** diagnostics, so the checkers are
  not trigger-happy either.
"""

import pytest

from repro.analysis import Analyzer, build_bundle, self_test
from repro.analysis.analyzer import DEFAULT_CHECKERS
from repro.analysis.mutate import MUTANTS, run_mutant
from repro.registry import MODELS
from repro.session import PlanCache, Session

CORE_STRATEGIES = ("dgl-like", "huang-like", "ours", "ours-stash")


@pytest.fixture(scope="module")
def cache():
    return PlanCache()


@pytest.fixture(scope="module")
def bundle(cache):
    """The bundle every mutant corrupts a private deep copy of."""
    return build_bundle(
        Session(cache=cache).model("gat").dataset("cora").strategy("ours")
    )


class TestMutationKill:
    @pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
    def test_each_mutant_is_killed(self, mutant, bundle):
        outcome = run_mutant(mutant, bundle)
        assert outcome.killed, (
            f"mutant {mutant.name!r} ({mutant.description}) survived: "
            f"expected {mutant.expected_code}, saw "
            f"{outcome.codes_seen or 'nothing'}"
        )

    def test_every_tentpole_checker_has_a_mutant(self):
        covered = {m.checker for m in MUTANTS}
        for checker in ("races", "arena", "precision", "halo", "determinism"):
            assert checker in covered

    def test_self_test_passes_end_to_end(self, bundle):
        outcomes = self_test(bundle)
        assert len(outcomes) == len(MUTANTS)
        assert all(o.killed for o in outcomes)

    def test_mutation_never_corrupts_the_shared_bundle(self, bundle):
        # Mutants deep-copy; the original bundle must stay clean even
        # after the whole battery ran against it.
        for mutant in MUTANTS:
            run_mutant(mutant, bundle)
        report = Analyzer().run(bundle)
        assert report.ok, report.summary()


class TestCleanZoo:
    @pytest.mark.parametrize("model", sorted(MODELS.names()))
    @pytest.mark.parametrize("strategy", CORE_STRATEGIES)
    def test_zoo_configuration_is_clean(self, model, strategy, cache):
        session = (
            Session(cache=cache).model(model).dataset("cora")
            .strategy(strategy)
        )
        report = Analyzer().run(build_bundle(session))
        assert report.ok, report.summary()
        assert not report.diagnostics, report.summary()
        assert report.checkers_run == list(DEFAULT_CHECKERS)

    @pytest.mark.parametrize("precision", ("fp16", "bf16", "int8"))
    def test_precision_variants_are_clean(self, precision, cache):
        session = (
            Session(cache=cache).model("gcn").dataset("cora")
            .strategy("ours").precision(precision)
        )
        report = Analyzer().run(build_bundle(session))
        assert report.ok, report.summary()
        assert not report.diagnostics, report.summary()
