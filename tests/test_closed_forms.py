"""Inventory of the closed forms: which class combinations each family
covers, and that every covered one matches the subspace route."""

import math

import pytest

from ctqw import (
    Complete,
    CompleteBipartite,
    JoinedComplete,
    Localized,
    PaleyPrime,
    Petersen,
    Rook,
    Simplex,
    Superposition,
    UnsupportedCaseError,
    build,
    efficiency_closed_form,
    efficiency_report,
    efficiency_subspace,
)
from ctqw.graphs import FAMILIES
from ctqw.reduction import CLOSED_FORMS

THETAS = (0.0, 0.7, math.pi / 2, math.pi)

_SIMPLEX = (
    "a b c cd d e f a+b a+c a+cd a+d a+e a+f b+c b+cd b+d b+e b+f "
    "c+e c+f cd+e cd+f d+e d+f e+f"
)
_JCG = "a b1 b2 c a+b1 a+b2 a+c b1+b2 b1+c b2+c"

# Instance -> the localized classes ("a") and class pairs ("a+b") that
# efficiency_closed_form covers. Pairs of one class are left to
# efficiency_report's same-overlap rule.
SUPPORTED = {
    Complete(2): "a",
    Complete(5): "a",
    CompleteBipartite(1, 3): "a",
    CompleteBipartite(2, 1): "a b a+b",
    CompleteBipartite(5, 4): "a b a+b",
    PaleyPrime(5): "a b a+b",
    PaleyPrime(13): "a b a+b",
    Petersen(): "a b a+b",
    Rook(2): "a b a+b",
    Rook(3): "a b a+b",
    Rook(4): "a b a+b",
    JoinedComplete(2): "b1 b2 c b1+b2 b1+c b2+c",
    JoinedComplete(3): _JCG,
    JoinedComplete(6): _JCG,
    Simplex(2): "",
    Simplex(3): _SIMPLEX,
    Simplex(5): _SIMPLEX,
}


def _pair_vertices(g, label1, label2):
    """Two distinct vertices of the given classes, as ``super:`` picks them;
    None when the classes do not hold two."""
    try:
        vs1, vs2 = g.class_vertices(label1), g.class_vertices(label2)
    except ValueError:
        return None
    v2 = next((v for v in vs2 if v != vs1[0]), None)
    return None if v2 is None else (vs1[0], v2)


@pytest.mark.parametrize("spec", list(SUPPORTED), ids=repr)
def test_closed_forms_inventory(spec):
    g = build(spec)
    labels = sorted(set(g.classes) | {"cd"})
    supported = []
    for label in labels:
        try:
            want = efficiency_closed_form(spec, label)
        except UnsupportedCaseError:
            continue
        supported.append(label)
        state = Localized(g.class_vertices(label)[0])
        got = efficiency_subspace(g, state)
        assert abs(got - want) <= 1e-12, (label, got, want)
        assert efficiency_report(spec, g, state).eta["closed_form"] == want, label
    for i, label1 in enumerate(labels):
        for label2 in labels[i:]:
            vertices = _pair_vertices(g, label1, label2)
            covered = False
            for theta in THETAS:
                try:
                    want = efficiency_closed_form(spec, label1, label2, theta)
                except UnsupportedCaseError:
                    continue
                covered = True
                assert efficiency_closed_form(spec, label2, label1, theta) == want
                assert vertices is not None, (label1, label2)
                state = Superposition(*vertices, theta)
                got = efficiency_subspace(g, state)
                assert abs(got - want) <= 1e-12, (label1, label2, theta, got, want)
                report = efficiency_report(spec, g, state)
                assert report.eta["closed_form"] == want, (label1, label2, theta)
            if covered:
                supported.append(f"{label1}+{label2}")
    assert " ".join(supported) == SUPPORTED[spec]


@pytest.mark.parametrize("spec", list(SUPPORTED), ids=repr)
def test_same_class_superposition_takes_the_same_overlap_rule(spec):
    # vertices of one class (and the simplex classes c and d) overlap every
    # basis vector alike, so eta = (1 + cos theta) * eta_class
    g = build(spec)
    pairs = [(label, label) for label in sorted(set(g.classes))]
    if isinstance(spec, Simplex):
        pairs += [("c", "d"), ("c", "cd"), ("cd", "cd")]
    for label1, label2 in pairs:
        vertices = _pair_vertices(g, label1, label2)
        if vertices is None:
            continue
        try:
            eta = efficiency_closed_form(spec, label1)
        except UnsupportedCaseError:
            eta = None
        for theta in THETAS:
            report = efficiency_report(spec, g, Superposition(*vertices, theta))
            if eta is None:
                assert report.eta["closed_form"] is None
                continue
            assert report.eta["closed_form"] == (1.0 + math.cos(theta)) * eta
            assert abs(report.eta["closed_form"] - report.eta["subspace"]) <= 1e-12


def test_closed_forms_lookup_covers_every_family():
    assert set(CLOSED_FORMS) == {spec_cls for spec_cls, *_ in FAMILIES.values()}
