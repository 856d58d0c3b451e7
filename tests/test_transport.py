import math

import numpy as np
import pytest

from ctqw import (
    ROUTE_TOLERANCES,
    Complete,
    CompleteBipartite,
    Explicit,
    Graph,
    JoinedComplete,
    Localized,
    PaleyPrime,
    Petersen,
    Rook,
    Simplex,
    SubspaceBasis,
    Superposition,
    UnsupportedCaseError,
    build,
    class_representative,
    class_uniform_state,
    efficiency_closed_form,
    efficiency_dynamic,
    efficiency_lambda,
    efficiency_report,
    efficiency_subspace,
    initial_state_vector,
    krylov_basis,
    lambda_subspace,
    superposition_rule,
    transport,
)

from _oracles import projector, subspace_equal


def test_trap_state_has_unit_efficiency():
    for spec in (Complete(5), CompleteBipartite(4, 3), Simplex(3)):
        g = build(spec)
        assert efficiency_subspace(g, Localized(0)) == pytest.approx(1.0, abs=1e-12)


def test_localized_examples():
    g = build(CompleteBipartite(8, 4))
    assert efficiency_subspace(g, Localized(1)) == pytest.approx(1 / 7, abs=1e-12)
    assert efficiency_subspace(g, Localized(8)) == pytest.approx(1 / 4, abs=1e-12)
    g = build(Simplex(5))
    b = class_representative(g, "b")
    assert efficiency_subspace(g, Localized(b)) == pytest.approx(17 / 25, abs=1e-12)
    g = build(JoinedComplete(6))
    assert efficiency_subspace(g, Localized(1)) == pytest.approx(11 / 49, abs=1e-12)
    assert efficiency_subspace(g, Localized(5)) == pytest.approx(29 / 49, abs=1e-12)
    assert efficiency_subspace(g, Localized(6)) == pytest.approx(29 / 49, abs=1e-12)
    assert efficiency_subspace(g, Localized(7)) == pytest.approx(9 / 49, abs=1e-12)


def test_closed_form_localized_values():
    assert efficiency_closed_form(Complete(4), "a") == pytest.approx(1 / 3)
    assert efficiency_closed_form(PaleyPrime(13), "a") == pytest.approx(1 / 6)
    assert efficiency_closed_form(PaleyPrime(13), "b") == pytest.approx(1 / 6)
    assert efficiency_closed_form(Petersen(), "a") == pytest.approx(1 / 3)
    assert efficiency_closed_form(Petersen(), "b") == pytest.approx(1 / 6)
    assert efficiency_closed_form(JoinedComplete(6), "b1") == pytest.approx(29 / 49)
    assert efficiency_closed_form(Simplex(3), "e") == pytest.approx(1 / 2)
    assert efficiency_closed_form(Simplex(3), "c") == pytest.approx(2 / 9)
    assert efficiency_closed_form(Simplex(3), "d") == pytest.approx(2 / 9)


def test_closed_form_pair_values():
    assert efficiency_closed_form(
        CompleteBipartite(8, 4), "b", "a", 0.3
    ) == pytest.approx(11 / 56)
    assert efficiency_closed_form(Petersen(), "a", "b", 1.0) == pytest.approx(1 / 4)
    assert efficiency_closed_form(
        JoinedComplete(6), "b1", "b2", math.pi
    ) == pytest.approx(1.0)
    assert efficiency_closed_form(Simplex(5), "b", "cd", math.pi) == pytest.approx(0.5)
    assert efficiency_closed_form(Simplex(5), "b", "e", 0.0) == pytest.approx(0.465)


def test_closed_form_uncovered_combinations():
    with pytest.raises(UnsupportedCaseError):
        efficiency_closed_form(Complete(4), "a", "a", 0.0)
    with pytest.raises(UnsupportedCaseError):
        efficiency_closed_form(Complete(4), "w")
    with pytest.raises(UnsupportedCaseError):
        efficiency_closed_form(Simplex(2), "a")
    with pytest.raises(UnsupportedCaseError):
        efficiency_closed_form(Simplex(5), "c", "d", 0.0)
    with pytest.raises(UnsupportedCaseError):
        efficiency_closed_form(JoinedComplete(2), "a")


def test_superposition_rule():
    assert superposition_rule(0.2, math.pi) == pytest.approx(0.0)
    assert superposition_rule(0.2, 0.0) == pytest.approx(0.4)
    assert superposition_rule(0.2, math.pi / 2) == pytest.approx(0.2)


def test_lambda_subspace_complete_graph():
    for n in (4, 6, 8):
        g = build(Complete(n))
        lam = lambda_subspace(g)
        assert lam.m == 2
        assert efficiency_lambda(g, Localized(1)) == pytest.approx(
            1 / (n - 1), abs=1e-9
        )


def test_lambda_subspace_equals_iterative_subspace():
    for spec in (PaleyPrime(13), JoinedComplete(6), Simplex(3), CompleteBipartite(8, 4)):
        g = build(spec)
        lam = lambda_subspace(g)
        kry = krylov_basis(g)
        assert lam.m == kry.m
        assert subspace_equal(lam, kry, 1e-9)


def test_jcg_bridge_antisymmetric_state_is_fully_absorbed():
    g = build(JoinedComplete(6))
    psi = np.zeros(12, dtype=complex)
    psi[5] = 1 / math.sqrt(2)
    psi[6] = -1 / math.sqrt(2)
    assert efficiency_subspace(g, Explicit(psi)) == pytest.approx(1.0, abs=1e-12)


def test_simplex_e_uniform_state_is_fully_absorbed():
    for m in (3, 4, 5):
        g = build(Simplex(m))
        assert efficiency_subspace(
            g, Explicit(class_uniform_state(g, "e"))
        ) == pytest.approx(1.0, abs=1e-12)


def test_theta_independence_for_e_superpositions():
    g = build(Simplex(4))
    e_rep = class_representative(g, "e")
    for other in ("a", "b", "cd", "f"):
        rep = class_representative(g, other)
        values = [
            efficiency_subspace(g, Superposition(rep, e_rep, theta))
            for theta in (0.0, math.pi / 3, math.pi, 3 * math.pi / 2)
        ]
        assert max(values) - min(values) <= 1e-12


def test_membership_and_orthogonality_randomized():
    rng = np.random.default_rng(20240817)
    specs = [
        Complete(6),
        CompleteBipartite(8, 4),
        PaleyPrime(13),
        JoinedComplete(6),
        Simplex(3),
    ]
    for spec in specs:
        g = build(spec)
        basis = krylov_basis(g)
        p = projector(basis)
        for _ in range(100):
            coeff = rng.standard_normal(basis.m) + 1j * rng.standard_normal(basis.m)
            inside = basis.vectors.T @ coeff
            inside /= np.linalg.norm(inside)
            assert efficiency_subspace(g, Explicit(inside)) == pytest.approx(
                1.0, abs=1e-12
            )
            raw = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
            outside = raw - p @ raw
            norm = np.linalg.norm(outside)
            if norm < 1e-9:
                continue
            outside /= norm
            assert efficiency_subspace(g, Explicit(outside)) == pytest.approx(
                0.0, abs=1e-12
            )


def test_dynamic_oracle_on_k4():
    g = build(Complete(4))
    absorbed, survival = efficiency_dynamic(g, krylov_basis(g), Localized(1), 1.0)
    assert absorbed == pytest.approx(1 / 3, abs=1e-2)
    assert survival == pytest.approx(1 / 3, abs=1e-2)


def test_dynamic_oracle_from_trap():
    g = build(Complete(4))
    absorbed, survival = efficiency_dynamic(g, krylov_basis(g), Localized(0), 1.0)
    assert absorbed == pytest.approx(1.0, abs=1e-2)
    assert survival == pytest.approx(1.0, abs=1e-2)


@pytest.mark.parametrize("n", [1, 2])
def test_dynamic_oracle_on_edgeless_graph(n):
    # rho = 2 max L_ii is 0, so rk4_step has no drift bound to apply
    g = Graph(n, ())
    absorbed, survival = efficiency_dynamic(g, krylov_basis(g), Localized(0), 1.0)
    assert (absorbed, survival) == pytest.approx((1.0, 1.0), abs=1e-6)
    for v in range(1, n):
        absorbed, survival = efficiency_dynamic(g, krylov_basis(g), Localized(v), 1.0)
        assert (absorbed, survival) == pytest.approx((0.0, 0.0), abs=1e-12)


# kappa = 1e-4 ... 1e4 by decades, each at the step rk4_step picks
_KAPPA_DECADES = [10.0**k for k in range(-4, 5)]
# every non-trap class of the benchmark's oracle panel, and K4 from vertex 1
# and from the trap itself
_ORACLE_PANEL = {
    "K8": (Complete(8), ("a",)),
    "CBG5+4": (CompleteBipartite(5, 4), ("a", "b")),
    "paley13": (PaleyPrime(13), ("a", "b")),
    "petersen": (Petersen(), ("a", "b")),
    "rook4": (Rook(4), ("a", "b")),
    "JCG6": (JoinedComplete(6), ("a", "b1", "b2", "c")),
    "simplex3": (Simplex(3), ("a", "b", "c", "d", "e", "f")),
}
_KAPPA_SWEEP = [
    (name, Complete(4), v, k)
    for name, v in (("K4", "1"), ("K4-trap", "0"))
    for k in _KAPPA_DECADES
] + [
    (f"{name}-{label}", spec, label, k)
    for name, (spec, labels) in _ORACLE_PANEL.items()
    for label in labels
    for k in _KAPPA_DECADES
]


@pytest.mark.parametrize(
    "spec, where, kappa",
    [c[1:] for c in _KAPPA_SWEEP],
    ids=[f"{c[0]}-{c[3]:g}" for c in _KAPPA_SWEEP],
)
def test_dynamic_oracle_kappa_sweep_at_default_horizon(spec, where, kappa):
    g = build(spec)
    v = int(where) if where.isdigit() else class_representative(g, where)
    eta = efficiency_subspace(g, Localized(v))
    absorbed, survival = efficiency_dynamic(g, krylov_basis(g), Localized(v), kappa)
    assert absorbed == pytest.approx(eta, abs=1e-7)
    assert survival == pytest.approx(eta, abs=1e-7)


def test_dynamic_oracle_rejects_zero_kappa():
    g = build(Complete(4))
    with pytest.raises(ValueError):
        efficiency_dynamic(g, krylov_basis(g), Localized(1), 0.0)


def test_initial_state_vector():
    psi = initial_state_vector(Superposition(0, 2, math.pi / 2), 4)
    assert psi[0] == pytest.approx(1 / math.sqrt(2))
    assert psi[2] == pytest.approx(1j / math.sqrt(2))
    assert np.linalg.norm(psi) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        initial_state_vector(Localized(9), 4)
    with pytest.raises(ValueError):
        Superposition(1, 1)
    with pytest.raises(ValueError):
        initial_state_vector(Explicit(np.array([1.0, 1.0, 0.0, 0.0])), 4)


@pytest.mark.parametrize("route", ["subspace", "lambda", "dynamic"])
def test_routes_take_only_initial_states(route):
    # a raw 2|5> on JoinedComplete(6) once read eta = 2.367 on the subspace
    # and lambda routes; every route now materializes an InitialState, and
    # Explicit checks the norm
    g = build(JoinedComplete(6))
    run = {
        "subspace": lambda state: efficiency_subspace(g, state),
        "lambda": lambda state: efficiency_lambda(g, state),
        "dynamic": lambda state: efficiency_dynamic(g, krylov_basis(g), state, 1.0),
    }[route]
    psi = np.zeros(g.n, dtype=complex)
    psi[5] = 2.0
    with pytest.raises(ValueError, match="unknown initial state type ndarray"):
        run(psi)
    with pytest.raises(ValueError, match="unknown initial state type ndarray"):
        run(psi / 2.0)
    with pytest.raises(ValueError, match="must be normalized"):
        run(Explicit(psi))


def test_class_helpers():
    g = build(Simplex(4))
    cd = g.class_vertices("cd")
    assert set(cd) == set(g.class_vertices("c")) | set(g.class_vertices("d"))
    with pytest.raises(ValueError):
        g.class_vertices("zz")
    state = class_uniform_state(g, "e")
    assert np.linalg.norm(state) == pytest.approx(1.0)


def test_efficiency_report_routes_agree():
    report = efficiency_report(
        Complete(4), build(Complete(4)), Localized(1), oracle=True
    )
    assert report.m == 2
    assert tuple(report.eta) == ("subspace", *ROUTE_TOLERANCES)
    assert report.disagreements == ()
    assert report.eta["subspace"] == pytest.approx(1 / 3, abs=1e-12)
    assert report.eta["closed_form"] == pytest.approx(1 / 3, abs=1e-12)
    assert report.eta["lambda"] == pytest.approx(1 / 3, abs=1e-9)
    assert report.eta["dynamic_absorbed"] == pytest.approx(1 / 3, abs=1e-2)
    assert report.eta["dynamic_survival"] == pytest.approx(1 / 3, abs=1e-2)


# The benchmark's oracle panel, one paper-scale instance per family.
_ORACLE_PANEL = (
    Complete(8),
    CompleteBipartite(5, 4),
    PaleyPrime(13),
    Petersen(),
    Rook(4),
    JoinedComplete(6),
    Simplex(3),
)
_PANEL_CLASSES = [
    (spec, label)
    for spec in _ORACLE_PANEL
    for label in sorted(set(build(spec).classes))
]


@pytest.mark.parametrize("kappa", [0.1, 0.3, 1.0, 3.0, 10.0])
@pytest.mark.parametrize(
    "spec, label", _PANEL_CLASSES, ids=[f"{spec!r}-{label}" for spec, label in _PANEL_CLASSES]
)
def test_oracle_within_readme_bound_on_the_panel(spec, label, kappa):
    # README: on the paper-scale graphs both dynamic routes land within
    # 1.1e-8 of the subspace route, the trap's own state included
    g = build(spec)
    state = Localized(class_representative(g, label))
    report = efficiency_report(spec, g, state, kappa=kappa, oracle=True)
    assert abs(report.eta["dynamic_absorbed"] - report.eta["subspace"]) <= 1.1e-8
    assert abs(report.eta["dynamic_survival"] - report.eta["subspace"]) <= 1.1e-8
    assert report.disagreements == ()


_DIMENSION_MESSAGE = "Krylov dimension m=1 and closed-form dimension 3 disagree"


@pytest.mark.parametrize(
    "label, want",
    [
        # a basis truncated to m=1 makes the Rook(4) subspace route read 0
        # against the closed form 1/9
        ("b", ("subspace and closed_form disagree by 0.111 > 1e-09", _DIMENSION_MESSAGE)),
        # the trap's own state has no closed form: only m shows the truncation
        (None, (_DIMENSION_MESSAGE,)),
    ],
    ids=["class-b", "vertex-0"],
)
def test_efficiency_report_lists_disagreements(monkeypatch, label, want):
    monkeypatch.setattr(
        transport, "krylov_basis", lambda g: SubspaceBasis(krylov_basis(g).vectors[:1])
    )
    g = build(Rook(4))
    state = Localized(0 if label is None else class_representative(g, label))
    report = efficiency_report(Rook(4), g, state)
    assert report.m == 1
    assert report.disagreements == want


@pytest.mark.parametrize(
    "label, want",
    [
        ("b", ["closed_form", "lambda", "dynamic_absorbed", "dynamic_survival"]),
        (None, []),
    ],
    ids=["class-b", "vertex-0"],
)
def test_efficiency_report_lists_oracle_disagreements(monkeypatch, label, want):
    # the truncated basis (m=1) also cuts the decay horizon short, to
    # ln(1e8) / (2 kappa), and the run is extended until the trap amplitude
    # is gone: the dynamic routes reach the true eta, 1/9 from class b
    # against the truncated 0, and 1 from the trap, as the truncation reads
    monkeypatch.setattr(
        transport, "krylov_basis", lambda g: SubspaceBasis(krylov_basis(g).vectors[:1])
    )
    g = build(Rook(4))
    state = Localized(0 if label is None else class_representative(g, label))
    report = efficiency_report(Rook(4), g, state, oracle=True)
    assert report.disagreements[-1] == _DIMENSION_MESSAGE
    routes = [message.split(" disagree")[0] for message in report.disagreements[:-1]]
    assert routes == [f"subspace and {route}" for route in want]


def test_efficiency_report_lists_dynamic_disagreements(monkeypatch):
    # a step far too coarse for RK4 to resolve the dynamics (a horizon that
    # is too short is doubled instead)
    monkeypatch.setattr(transport, "rk4_step", lambda l, kappa, t_max: 0.1)
    g = build(JoinedComplete(6))
    report = efficiency_report(JoinedComplete(6), g, Localized(5), oracle=True)
    routes = [message.split(" disagree")[0] for message in report.disagreements]
    assert routes == ["subspace and dynamic_absorbed", "subspace and dynamic_survival"]


def test_short_horizon_is_doubled_until_the_state_has_left(monkeypatch):
    # a horizon far too short: the run is repeated at 0.5 * 2^k until the
    # state keeps at most 1e-8 of its weight on the Krylov space
    monkeypatch.setattr(transport, "decay_horizon", lambda h, l: 0.5)
    horizons = []
    original = transport.evolve_trapped

    def recorded(l, kappa, psi, dt, t_max):
        horizons.append(t_max)
        return original(l, kappa, psi, dt=dt, t_max=t_max)

    monkeypatch.setattr(transport, "evolve_trapped", recorded)
    g = build(JoinedComplete(6))
    report = efficiency_report(JoinedComplete(6), g, Localized(5), oracle=True)
    assert report.disagreements == ()
    assert len(horizons) > 3
    assert horizons == [0.5 * 2**k for k in range(len(horizons))]


def test_efficiency_report_uncovered_closed_form_is_none():
    report = efficiency_report(Complete(4), build(Complete(4)), Localized(0))  # the trap
    assert report.eta["closed_form"] is None
    assert report.eta["subspace"] == pytest.approx(1.0)


def test_large_jcg_report_finds_four_krylov_rows():
    # past the CLI's size cap: roundoff left a fifth row above 1e-10 of its
    # own small norm, though far below 1e-10 of the Laplacian's scale
    spec = JoinedComplete(850)
    g = build(spec)
    report = efficiency_report(spec, g, Localized(class_representative(g, "a")))
    assert report.m == 4
    assert report.disagreements == ()


def test_balanced_bipartite_efficiency_scales_as_inverse_order():
    # eta = O(1/N) on balanced bipartite graphs: N * eta stays bounded
    for n in (8, 16, 32, 64):
        g = build(CompleteBipartite(n // 2, n // 2))
        for v in (1, n // 2):  # one vertex from each partition
            eta = efficiency_subspace(g, Localized(v))
            assert 1.0 <= n * eta <= 3.0


def test_closed_form_matches_subspace_spot_checks():
    # a couple of dense spot checks; the full grid runs in the acceptance suite
    cases = [
        (CompleteBipartite(4, 3), "b", None),
        (CompleteBipartite(4, 3), "a", None),
        (Rook(3), "a", "b"),
        (JoinedComplete(3), "a", "c"),
        (Simplex(4), "e", "f"),
    ]
    for spec, c1, c2 in cases:
        g = build(spec)
        for theta in (0.0, 2.0):
            if c2 is None:
                psi = Localized(class_representative(g, c1))
            else:
                psi = Superposition(
                    class_representative(g, c1), class_representative(g, c2), theta
                )
            assert efficiency_subspace(g, psi) == pytest.approx(
                efficiency_closed_form(spec, c1, c2, theta), abs=1e-12
            )
