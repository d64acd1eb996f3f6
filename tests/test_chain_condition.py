"""The chain condition on corrupted complexes, against a brute-force sum.

Every complex of the Morse-Bott corpus and both irregular CW complexes of
the golden data are corrupted by seeded edits of their facet records: one
incidence negated, an irregular record added, a record repeated.  The
reference below sums [tau:sigma][sigma:rho] over every pair of records
between cells of a set, with no other help from the library.  ``validate``
must list exactly its nonzero totals, and each chain-complex builder must
name the least defect in (dim, tau, rho) order, over Z/2 the least odd one,
or pass when there is none.
"""

import random
from collections import defaultdict

import pytest

from data.make_golden import irregular_cw
from morsebott import (
    Complex,
    chain_complex,
    closure,
    equivalence_check,
    reduced_boundary,
    relative_chain_complex,
    validate,
)
from morsebott.complex import FaceRecord
from morsebott.homology import Z, Z2


def brute_defects(X, cells):
    """{(tau, rho): total} for each nonzero sum of incidence products over
    the records whose cells all lie in ``cells``."""
    below = defaultdict(list)
    for rec in X.faces:
        below[rec.parent].append(rec)
    totals = defaultdict(int)
    for upper in X.faces:
        if upper.parent not in cells or upper.child not in cells:
            continue
        for lower in below[upper.child]:
            if lower.child in cells:
                totals[upper.parent, lower.child] += upper.incidence * lower.incidence
    return {pair: total for pair, total in totals.items() if total}


def flip(X, rng):
    candidates = [i for i, rec in enumerate(X.faces) if rec.incidence]
    if not candidates:
        return None
    i = rng.choice(candidates)
    rec = X.faces[i]
    faces = list(X.faces)
    faces[i] = FaceRecord(rec.parent, rec.child, -rec.incidence, rec.regular)
    return Complex(X.cells.values(), faces)


def add_irregular(X, rng):
    parents = [cid for cid in X.ids() if X.dim(cid) >= 1]
    if not parents:
        return None
    parent = rng.choice(parents)
    child = rng.choice(X.cells_of_dim(X.dim(parent) - 1))
    incidence = rng.choice((-3, -2, -1, 1, 2, 3))
    faces = [*X.faces, FaceRecord(parent, child, incidence, False)]
    return Complex(X.cells.values(), faces)


def repeat(X, rng):
    if not X.faces:
        return None
    return Complex(X.cells.values(), [*X.faces, rng.choice(X.faces)])


CORRUPTIONS = (flip, add_irregular, repeat)


def corrupted(X, rng):
    """One to three seeded corruptions applied in turn."""
    for _ in range(rng.randint(1, 3)):
        Y = rng.choice(CORRUPTIONS)(X, rng)
        X = Y if Y is not None else X
    return X


def expected_error(what, X, defects, ring):
    bad = [pair for pair, total in defects.items() if ring == Z or total % 2]
    if not bad:
        return None
    tau, rho = min(bad, key=lambda pair: (X.dim(pair[0]), pair))
    return f"{what}: boundary does not square to zero between {tau!r} and {rho!r}"


def assert_builder(build, what, X, cells):
    defects = brute_defects(X, cells)
    for ring in (Z, Z2):
        message = expected_error(what, X, defects, ring)
        if message is None:
            cc = build(ring)
            assert {c for base in cc.bases for c in base} == set(cells)
        else:
            with pytest.raises(ValueError) as err:
                build(ring)
            assert str(err.value) == message


def check(X, rng):
    """Every check of the module on one complex; returns its defects."""
    defects = brute_defects(X, frozenset(X.cells))
    got = [
        (v.cells, v.message) for v in validate(X).violations if v.rule == "chain-condition"
    ]
    assert got == [
        ((tau, rho), f"sum of incidences between {tau!r} and {rho!r} is {total}")
        for (tau, rho), total in sorted(defects.items())
    ]
    assert_builder(lambda ring: chain_complex(X, ring), "chain complex", X, X.cells)
    for _ in range(2):
        S = frozenset(cid for cid in X.ids() if rng.random() < 0.7)
        assert_builder(lambda ring: reduced_boundary(X, S, ring), "reduced boundary", X, S)
        A = closure(X, rng.sample(X.ids(), rng.randint(0, min(3, len(X)))))
        assert_builder(
            lambda ring: relative_chain_complex(X, A, ring),
            "relative chain complex",
            X,
            frozenset(X.cells) - A,
        )
    return defects


def test_corrupted_corpus(mb_corpus):
    rng = random.Random(24)
    kinds = defaultdict(int)
    for X, _ in mb_corpus:
        defects = check(corrupted(X, rng), rng)
        if not defects:
            kinds["none"] += 1
        elif all(total % 2 == 0 for total in defects.values()):
            kinds["even"] += 1
        else:
            kinds["odd"] += 1
    # Over Z/2 some complexes must pass whose boundary does not square to
    # zero over Z (a single negated incidence gives totals of +-2 only).
    assert min(kinds["none"], kinds["even"], kinds["odd"]) >= 5, dict(kinds)


@pytest.mark.parametrize("name", ["rp2-cw", "torus-cw"])
def test_corrupted_irregular_cw(name):
    X = next(X for case, X, _ in irregular_cw(n=1) if case.startswith(name))
    rng = random.Random(name)
    assert not check(X, rng)
    for _ in range(60):
        check(corrupted(X, rng), rng)


def test_only_even_totals():
    # The two-vertex RP2 with F > a negated: d(dF) = 4p - 4q, so Z/2 passes.
    X = next(X for case, X, _ in irregular_cw(n=1) if case.startswith("rp2-cw"))
    faces = [
        FaceRecord(r.parent, r.child, -r.incidence, r.regular)
        if (r.parent, r.child) == ("F", "a")
        else r
        for r in X.faces
    ]
    Y = Complex(X.cells.values(), faces)
    assert brute_defects(Y, frozenset(Y.cells)) == {("F", "p"): 4, ("F", "q"): -4}
    assert [v.message for v in validate(Y).violations] == [
        "sum of incidences between 'F' and 'p' is 4",
        "sum of incidences between 'F' and 'q' is -4",
    ]
    with pytest.raises(ValueError, match="between 'F' and 'p'"):
        chain_complex(Y, Z)
    assert chain_complex(Y, Z2).bases == (("p", "q"), ("a", "b"), ("F",))


@pytest.mark.parametrize("cells", [{"zz"}, {"a", "a-b", "zz"}])
def test_unknown_ids_are_value_errors(triangle, cells):
    # As in closure, restrict and relative_chain_complex, not a KeyError.
    for build in (reduced_boundary, equivalence_check, relative_chain_complex):
        with pytest.raises(ValueError, match="unknown cell id 'zz'"):
            build(triangle, cells)
