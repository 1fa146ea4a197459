"""Acceptance suite: one test per headline criterion, each printing PASS/FAIL.

Run with ``pytest -s tests/test_acceptance.py`` to see the one-line verdicts,
or ``fasdlab verify-paper`` for the same checks through the CLI.  Stated
runtime ceilings are asserted where the criterion carries one.
"""

import time

from fasdlab.checks import run_checks
from fasdlab.coloring import refute_by_conflict_clique
from fasdlab.generators import gadget_h3, gadget_h4


def _report(n, check_id, limit=None):
    (result,) = run_checks([check_id])
    print(result.line())
    assert result.passed, f"criterion {n} failed: {result.details}"
    if limit is not None:
        assert result.seconds < limit, (
            f"criterion {n} exceeded its {limit}s ceiling ({result.seconds:.1f}s)"
        )


def test_criterion_01_d8_exactness():
    _report(1, "d8", limit=1.0)


def test_criterion_02_h5_unsat_at_4():
    _report(2, "h5", limit=10.0)


def test_criterion_03_h4_h3_clique_refutations():
    t0 = time.time()
    c4 = refute_by_conflict_clique(gadget_h4())
    t4 = time.time() - t0
    t0 = time.time()
    c3 = refute_by_conflict_clique(gadget_h3())
    t3 = time.time() - t0
    assert c4 is not None and len(c4.arcs) == 7 and t4 < 60.0
    assert c3 is not None and len(c3.arcs) == 10 and t3 < 60.0
    _report(3, "h4-h3")


def test_criterion_04_triple_decomposition_corpus():
    _report(4, "triples")


def test_criterion_05_weighted_third_bound():
    _report(5, "weighted")


def test_criterion_06_degree3_colorings():
    _report(6, "colorings")


def test_criterion_07_sixth_fraction_fas():
    _report(7, "sixth")


def test_criterion_08_counting_bounds_and_d8_search():
    _report(8, "counting", limit=300.0)


def test_criterion_09_expander_mixing():
    _report(9, "mixing")


def test_criterion_10_orientation_lower_bound():
    _report(10, "lower-bound")


def test_criterion_11_inequality_suite():
    _report(11, "inequalities")


def test_criterion_12_oracle_equivalence():
    _report(12, "oracles")
