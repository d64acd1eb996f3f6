"""The one scan of the records against f, checked against per-cell walks.

The reference functions below walk every cell's facet and cofacet records
on their own, as the library did before every per-record condition became a
view on ``morse.against``.  Both verdicts, the arrows, the critical cells and
the noncritical witnesses must agree with them on the Morse-Bott corpus, on
seeded non-Morse-Bott functions and on CW complexes with irregular records.
"""

import operator

import pytest

from data.make_golden import irregular_cw, not_morse_bott
from morsebott import (
    Analysis,
    check_discrete_morse,
    check_morse_bott,
    collections,
    critical_cells,
    vector_field,
)
from morsebott.morse import (
    RULE_BOTH,
    RULE_D,
    RULE_IRREGULAR,
    RULE_U,
    MorseBottVerdict,
    MorseBottViolation,
    noncritical_witnesses,
)


def walk_faces(X, f, strict):
    below = operator.lt if strict else operator.le
    violations = [
        MorseBottViolation(rec.child, RULE_IRREGULAR, (rec.parent,))
        for rec in X.faces
        if not rec.regular and not f(rec.child) < f(rec.parent)
    ]
    for cid in X.ids():
        ups = sorted(
            rec.parent
            for rec in X.cofacet_records(cid)
            if rec.regular and below(f(rec.parent), f(cid))
        )
        downs = sorted(
            rec.child
            for rec in X.facet_records(cid)
            if rec.regular and below(f(cid), f(rec.child))
        )
        if len(ups) > 1:
            violations.append(MorseBottViolation(cid, RULE_U, tuple(ups)))
        if len(downs) > 1:
            violations.append(MorseBottViolation(cid, RULE_D, tuple(downs)))
        if strict and len(ups) == 1 and len(downs) == 1:
            violations.append(MorseBottViolation(cid, RULE_BOTH, (ups[0], downs[0])))
    violations.sort(key=lambda v: (v.cell, v.rule))
    return MorseBottVerdict(not violations, tuple(violations))


def walk_witnesses(X, f, C):
    return {
        cid: (
            tuple(sorted(
                rec.parent for rec in X.cofacet_records(cid)
                if rec.parent not in C.cells and f(rec.parent) < f(cid)
            )),
            tuple(sorted(
                rec.child for rec in X.facet_records(cid)
                if rec.child not in C.cells and f(rec.child) > f(cid)
            )),
        )
        for cid in sorted(C.cells)
    }


def walk_arrows(X, f):
    return frozenset(
        (rec.child, rec.parent)
        for rec in X.faces
        if rec.regular and f(rec.child) >= f(rec.parent)
    )


def walk_critical(X, f):
    return frozenset(
        cid
        for cid in X.ids()
        if not any(f(rec.parent) <= f(cid) for rec in X.cofacet_records(cid))
        and not any(f(rec.child) >= f(cid) for rec in X.facet_records(cid))
    )


def assert_views_match_walks(X, f):
    strict, forman = walk_faces(X, f, True), walk_faces(X, f, False)
    assert check_morse_bott(X, f) == strict
    assert check_discrete_morse(X, f) == forman
    assert vector_field(X, f).arrows == walk_arrows(X, f)
    assert critical_cells(X, f) == walk_critical(X, f)
    a = Analysis(X, f)
    assert (a.verdict, a.discrete_morse, a.arrows.arrows) == (
        strict, forman, walk_arrows(X, f)
    )
    for C in collections(X, f):
        assert noncritical_witnesses(X, f, C) == walk_witnesses(X, f, C)


def test_mb_corpus(mb_corpus):
    for X, f in mb_corpus:
        assert_views_match_walks(X, f)


def test_not_morse_bott():
    for _, X, f in not_morse_bott(300):
        assert_views_match_walks(X, f)


@pytest.mark.parametrize("name", ["rp2-cw", "torus-cw"])
def test_irregular_cw(name):
    inputs = [(X, f) for case, X, f in irregular_cw() if case.startswith(name)]
    assert len(inputs) == 40
    for X, f in inputs:
        assert_views_match_walks(X, f)
