"""The checks report failure when what they check is wrong."""

from dataclasses import replace
from types import SimpleNamespace

from fasdlab import checks, spectral
from fasdlab.checks import (
    MIXING_SAMPLES,
    check_colorings,
    check_lower_bound,
    check_mixing,
    check_sixth,
    check_triples,
)
from fasdlab.triples import OrderingTriple


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
