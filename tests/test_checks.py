"""The checks report failure when what they check is wrong."""

from dataclasses import replace
from types import SimpleNamespace

from fasdlab import checks, spectral
from fasdlab.checks import (
    COLORINGS_COUNT,
    MIXING_SAMPLES,
    ORACLE_FAS_COUNT,
    ORACLE_FASD_COUNT,
    check_colorings,
    check_counting,
    check_d8,
    check_h4_h3,
    check_h5,
    check_inequalities,
    check_lower_bound,
    check_mixing,
    check_oracles,
    check_sixth,
    check_triples,
    check_weighted,
)
from fasdlab.digraph import BudgetError, GraphError
from fasdlab.triples import OrderingTriple


def off_by_one(real, field="value"):
    """``real`` with one field of the dataclass it returns raised by one."""

    def wrapped(*args):
        out = real(*args)
        return replace(out, **{field: getattr(out, field) + 1})

    return wrapped


def test_lower_bound_details_are_the_bound_alone():
    result = check_lower_bound()
    assert result.passed and result.claim == "even-order regular graph: exact FAS >= (d - lam) n / 8"
    assert set(result.details) == {"bound", "fas", "lam"} and result.details["fas"] == 10


def test_lower_bound_fails_unless_the_bound_holds(monkeypatch):
    real = checks.orientation_fas_lower_bound
    # False: the exact fas is below the bound; None: n is too large to decide
    for holds in (False, None):
        monkeypatch.setattr(checks, "orientation_fas_lower_bound", lambda d, lam: replace(real(d, lam), holds=holds))
        assert check_lower_bound().passed is False


def test_mixing_fails_on_violated_pairs(monkeypatch):
    monkeypatch.setattr(spectral, "mixing_check", lambda g, s, t, lam: SimpleNamespace(holds=False))
    result = check_mixing()
    assert result.passed is False and result.details["violations"] == 2 * MIXING_SAMPLES


def test_sixth_fails_on_a_fas_one_arc_short(monkeypatch):
    real = checks.fas_sixth
    monkeypatch.setattr(checks, "fas_sixth", lambda d, check=True: real(d, check)[1:])
    result = check_sixth()
    assert result.passed is False and result.details["failures"] > 0


def test_colorings_fail_when_every_arc_takes_colour_1(monkeypatch):
    monkeypatch.setattr(checks, "good_g_coloring", lambda d, g, check=True: dict.fromkeys(range(d.m), 1))
    result = check_colorings()
    assert result.passed is False and result.details["failures"] > 0


def test_triples_fail_when_the_first_ordering_is_reversed(monkeypatch):
    real = checks.decompose3

    def reversed_first(d, verify=True):
        first, *rest = real(d, verify).orderings
        return OrderingTriple((first[::-1], *rest))

    monkeypatch.setattr(checks, "decompose3", reversed_first)
    result = check_triples()
    assert result.passed is False and result.details["failures"] > 0


def test_d8_fails_on_a_fas_one_too_high(monkeypatch):
    monkeypatch.setattr(checks, "fas_exact", off_by_one(checks.fas_exact))
    result = check_d8()
    assert result.passed is False and result.details["fas"] == 3


def test_h5_fails_when_the_search_finds_a_4_coloring(monkeypatch):
    monkeypatch.setattr(checks, "good_coloring_search", lambda d, t: SimpleNamespace(status="sat", nodes=0))
    result = check_h5()
    assert result.passed is False and result.details["search_status"] == "sat"


def test_h4_h3_fail_without_a_clique(monkeypatch):
    monkeypatch.setattr(checks, "refute_by_conflict_clique", lambda d: None)
    result = check_h4_h3()
    assert result.passed is False and result.details["h4_clique"] is None


def test_weighted_fails_on_an_exact_value_above_a_third(monkeypatch):
    monkeypatch.setattr(checks, "fas_weighted_exact", lambda d: SimpleNamespace(value=d.total_weight()))
    result = check_weighted()
    assert result.passed is False and result.details["violations"] == result.details["exact_checked"] > 0


def test_counting_fails_on_an_off_bound_or_a_d8_search_that_finds_8(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(checks, "counting_bound", off_by_one(checks.counting_bound, "bound"))
        assert check_counting().passed is False
    monkeypatch.setattr(checks, "good_coloring_search", lambda d, t: SimpleNamespace(status="sat", nodes=0))
    result = check_counting()
    assert result.passed is False and result.details["d8_value"] is None


def test_mixing_fails_on_an_eigenvalue_off_its_closed_form(monkeypatch):
    monkeypatch.setattr(checks, "lambda_extremes", off_by_one(checks.lambda_extremes, "lam"))
    result = check_mixing()
    # a larger lam only loosens the mixing bound: the eigenvalues alone fail
    assert result.passed is False and result.details["eigenvalues_match"] is False
    assert result.details["violations"] == 0


def test_colorings_fail_when_the_construction_raises(monkeypatch):
    def raises(d, g, check=True):
        raise GraphError("no colouring")

    monkeypatch.setattr(checks, "good_g_coloring", raises)
    result = check_colorings()
    assert result.passed is False and result.details["failures"] == 3 * COLORINGS_COUNT


def test_inequalities_fail_on_fasd_below_2(monkeypatch):
    monkeypatch.setattr(checks, "fasd_exact", lambda d: SimpleNamespace(value=1))
    result = check_inequalities()
    assert result.passed is False and len(result.details["violations"]) == result.details["processed"]


def test_oracles_fail_when_either_exact_solver_is_one_off(monkeypatch):
    for name, key, count in (
        ("fas_exact", "fas_mismatches", ORACLE_FAS_COUNT),
        ("fasd_exact", "fasd_mismatches", ORACLE_FASD_COUNT),
    ):
        with monkeypatch.context() as m:
            m.setattr(checks, name, off_by_one(getattr(checks, name)))
            result = check_oracles()
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
