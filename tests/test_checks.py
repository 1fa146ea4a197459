"""The checks report failure when what they check is wrong."""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from fasdlab import checks
from fasdlab.checks import (
    COLORINGS_COUNT,
    MIXING_SAMPLES,
    ORACLE_FAS_COUNT,
    ORACLE_FASD_COUNT,
    SIXTH_COUNT,
    WEIGHTED_COUNT,
    run_checks,
)
from fasdlab.digraph import BudgetError, Digraph, GraphError
from fasdlab.triples import OrderingTriple


def run(check_id):
    """The CheckResult that the one runner gives for ``check_id`` alone."""
    (result,) = run_checks([check_id])
    return result


def off_by_one(real, field="value"):
    """``real`` with one field of the dataclass it returns raised by one."""

    def wrapped(*args):
        out = real(*args)
        return replace(out, **{field: getattr(out, field) + 1})

    return wrapped


def test_lower_bound_details_are_the_bound_alone():
    result = run("lower-bound")
    assert result.passed and result.claim == "even-order regular graph: exact FAS >= (d - lam) n / 8"
    assert set(result.details) == {"bound", "fas", "lam"} and result.details["fas"] == 10


def test_lower_bound_fails_unless_the_bound_holds(monkeypatch):
    real = checks.orientation_fas_lower_bound
    # False: the exact fas is below the bound; None: n is too large to decide
    for holds in (False, None):
        monkeypatch.setattr(checks, "orientation_fas_lower_bound", lambda d, lam: replace(real(d, lam), holds=holds))
        assert run("lower-bound").passed is False


def test_mixing_fails_on_violated_pairs(monkeypatch):
    monkeypatch.setattr(checks, "mixing_violations", lambda g, lam, samples, rng: samples)
    result = run("mixing")
    assert result.passed is False and result.details["violations"] == 2 * MIXING_SAMPLES


def test_sixth_fails_on_a_fas_one_arc_short(monkeypatch):
    real = checks.fas_sixth
    monkeypatch.setattr(checks, "fas_sixth", lambda d, check=True: real(d, check)[1:])
    result = run("sixth")
    assert result.passed is False and result.details["failures"] > 0


def test_colorings_fail_when_every_arc_takes_colour_1(monkeypatch):
    monkeypatch.setattr(checks, "good_g_coloring", lambda d, g, check=True: dict.fromkeys(range(d.m), 1))
    result = run("colorings")
    assert result.passed is False and result.details["failures"] > 0


def test_triples_fail_when_the_first_ordering_is_reversed(monkeypatch):
    real = checks.decompose3

    def reversed_first(d, verify=True):
        first, *rest = real(d, verify).orderings
        return OrderingTriple((first[::-1], *rest))

    monkeypatch.setattr(checks, "decompose3", reversed_first)
    result = run("triples")
    assert result.passed is False and result.details["failures"] > 0


def test_d8_fails_on_a_fas_one_too_high(monkeypatch):
    monkeypatch.setattr(checks, "fas_exact", off_by_one(checks.fas_exact))
    result = run("d8")
    assert result.passed is False and result.details["fas"] == 3


def test_h5_fails_when_the_search_finds_a_4_coloring(monkeypatch):
    monkeypatch.setattr(checks, "good_coloring_search", lambda d, t: SimpleNamespace(status="sat", nodes=0))
    result = run("h5")
    assert result.passed is False and result.details["search_status"] == "sat"


def test_h4_h3_fail_without_a_clique(monkeypatch):
    monkeypatch.setattr(checks, "refute_by_conflict_clique", lambda d: None)
    result = run("h4-h3")
    assert result.passed is False and result.details["h4_clique"] is None


def test_weighted_fails_on_an_exact_value_above_a_third(monkeypatch):
    monkeypatch.setattr(checks, "fas_weighted_exact", lambda d: SimpleNamespace(value=d.total_weight()))
    result = run("weighted")
    assert result.passed is False and result.details["violations"] == result.details["exact_checked"] > 0


def test_counting_fails_on_an_off_bound_or_a_d8_search_that_finds_8(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(checks, "counting_bound", off_by_one(checks.counting_bound, "bound"))
        assert run("counting").passed is False
    monkeypatch.setattr(checks, "good_coloring_search", lambda d, t: SimpleNamespace(status="sat", nodes=0))
    result = run("counting")
    assert result.passed is False and result.details["d8_value"] is None


def test_mixing_fails_on_an_eigenvalue_off_its_closed_form(monkeypatch):
    monkeypatch.setattr(checks, "lambda_extremes", off_by_one(checks.lambda_extremes, "lam"))
    result = run("mixing")
    # a larger lam only loosens the mixing bound: the eigenvalues alone fail
    assert result.passed is False and result.details["eigenvalues_match"] is False
    assert result.details["violations"] == 0


def test_colorings_fail_when_the_construction_raises(monkeypatch):
    def raises(d, g, check=True):
        raise GraphError("no colouring")

    monkeypatch.setattr(checks, "good_g_coloring", raises)
    result = run("colorings")
    assert result.passed is False and result.details["failures"] == 3 * COLORINGS_COUNT


def test_inequalities_fail_on_fasd_below_2(monkeypatch):
    monkeypatch.setattr(checks, "fasd_exact", lambda d: SimpleNamespace(value=1))
    result = run("inequalities")
    assert result.passed is False and len(result.details["violations"]) == result.details["processed"]


ACYCLIC = [("path", Digraph(3, [(0, 1), (1, 2)]))]


def test_inequalities_pass_on_an_acyclic_instance(monkeypatch):
    monkeypatch.setattr(checks, "inequality_instances", lambda seed: ACYCLIC)
    result = run("inequalities")
    assert result.passed is True and result.details == {"processed": 1, "violations": []}


def test_inequalities_fail_on_a_finite_fasd_of_an_acyclic_instance(monkeypatch):
    monkeypatch.setattr(checks, "inequality_instances", lambda seed: ACYCLIC)
    monkeypatch.setattr(checks, "fasd_exact", lambda d: SimpleNamespace(value=2))
    result = run("inequalities")
    assert result.passed is False and result.details == {"processed": 1, "violations": ["path"]}


def test_inequalities_fail_on_a_fas_above_a_over_fasd(monkeypatch):
    # every instance is cyclic, so fasd >= 2 and m > m // fasd
    monkeypatch.setattr(checks, "fas_exact", lambda d: SimpleNamespace(value=d.m))
    result = run("inequalities")
    assert result.passed is False and len(result.details["violations"]) == result.details["processed"]


def test_oracles_fail_when_either_exact_solver_is_one_off(monkeypatch):
    for name, key, count in (
        ("fas_exact", "fas_mismatches", ORACLE_FAS_COUNT),
        ("fasd_exact", "fasd_mismatches", ORACLE_FASD_COUNT),
    ):
        with monkeypatch.context() as m:
            m.setattr(checks, name, off_by_one(getattr(checks, name)))
            result = run("oracles")
        assert result.passed is False and result.details[key] == count


def test_triples_corpus_skips_a_refused_two_regular_instance(monkeypatch):
    real, refused = checks.random_two_regular_orgraph, []

    def refuse_once(n, seed):
        if not refused:
            refused.append(real(n, seed=seed).arcs)
            raise BudgetError("refused")
        return real(n, seed=seed)

    full = [d.arcs for d in checks.triples_corpus(12, 0)]
    monkeypatch.setattr(checks, "random_two_regular_orgraph", refuse_once)
    corpus = [d.arcs for d in checks.triples_corpus(11, 0)]
    full.remove(refused[0])
    assert corpus == full[:11]


def test_an_unknown_id_raises_before_any_check_runs(monkeypatch):
    calls = []
    monkeypatch.setitem(checks.CHECKS, "d8", lambda seed=0: calls.append(seed))
    with pytest.raises(ValueError, match="unknown check id 'nope'"):
        run_checks(["d8", "nope"])
    assert calls == []


def test_results_come_in_the_order_asked_named_by_their_keys(monkeypatch):
    def stub(seed=0):
        return "stub claim", 1, {"seed": seed}

    for check_id in ("d8", "h5"):
        monkeypatch.setitem(checks.CHECKS, check_id, stub)
    results = run_checks(["h5", "d8"], seed=3)
    assert [r.check_id for r in results] == ["h5", "d8"]
    assert all(r.passed is True and r.details == {"seed": 3} and r.seconds >= 0 for r in results)


def test_exact_cross_checks_reach_every_instance_the_dp_answers():
    # floors, free to rise with the DP's reach: 139 of sixth's and 96 of
    # weighted's 200 instances have no strong component above 22 vertices
    assert run("sixth").details["exact_checked"] >= 139
    assert run("weighted").details["exact_checked"] >= 96


def test_a_refused_exact_oracle_skips_the_cross_check_but_not_the_construction(monkeypatch):
    real = checks.fas_exact

    def refuse_all_but_the_6_cycle(d):
        if d.n > 6:
            raise BudgetError("refused")
        return real(d)

    def refuse(d):
        raise BudgetError("refused")

    monkeypatch.setattr(checks, "fas_exact", refuse_all_but_the_6_cycle)
    monkeypatch.setattr(checks, "fas_weighted_exact", refuse)
    # constructions that fail on every instance: all arcs, a class of weight w
    monkeypatch.setattr(checks, "fas_sixth", lambda d, check=True: list(range(d.m)))
    monkeypatch.setattr(checks, "bas", lambda d, order: d.total_weight())
    sixth, weighted = run_checks(["sixth", "weighted"])
    assert sixth.passed is False and sixth.details["exact_checked"] == 0
    assert sixth.details["failures"] == SIXTH_COUNT
    assert weighted.passed is False and weighted.details["exact_checked"] == 0
    assert weighted.details["violations"] == WEIGHTED_COUNT
