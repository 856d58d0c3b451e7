"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one ``[PASS]``/``[FAIL]`` line (visible with ``pytest -s``)
and fails with the list of offending checks.
"""

import math
import time

import numpy as np

from ctqw import (
    Complete,
    CompleteBipartite,
    Explicit,
    JoinedComplete,
    Localized,
    PaleyPrime,
    Petersen,
    Simplex,
    Superposition,
    build,
    class_representative,
    class_uniform_state,
    closed_form_basis,
    closed_form_reduced_hamiltonian,
    connectivity_report,
    efficiency_closed_form,
    efficiency_dynamic,
    efficiency_subspace,
    evolve_trapped,
    family_name,
    krylov_basis,
    lambda_subspace,
    laplacian,
    reduced_hamiltonian,
)

from _oracles import (
    brute_edge_connectivity,
    brute_vertex_connectivity,
    projector,
    row_signs,
    similarity_error,
    subspace_equal,
)

THETAS = (0.0, math.pi / 2, math.pi)

EFFICIENCY_INSTANCES = [
    CompleteBipartite(8, 4),
    CompleteBipartite(12, 6),
    PaleyPrime(13),
    PaleyPrime(17),
    Petersen(),
    JoinedComplete(3),
    JoinedComplete(6),
    JoinedComplete(9),
    Simplex(3),
    Simplex(4),
    Simplex(5),
    Simplex(6),
]

EXPECTED_DIMS = {
    CompleteBipartite: 3,
    PaleyPrime: 3,
    Petersen: 3,
    JoinedComplete: 4,
    Simplex: 5,
}


def _finish(name: str, failures: list[str]) -> None:
    print(f"[{'PASS' if not failures else 'FAIL'}] {name}")
    assert not failures, f"{name}: " + "; ".join(failures)


def _covered_combinations(spec):
    """Class labels (and label pairs) with an analytic efficiency formula."""
    if isinstance(spec, CompleteBipartite):
        return ["b", "a"], [("b", "a")]
    if isinstance(spec, (PaleyPrime, Petersen)):
        return ["a", "b"], [("a", "b")]
    if isinstance(spec, JoinedComplete):
        localized = ["a", "b1", "b2", "c"]
        pairs = [("a", "b1"), ("a", "b2"), ("a", "c"), ("b1", "b2"), ("b1", "c"), ("b2", "c")]
        return localized, pairs
    if isinstance(spec, Simplex):
        localized = ["a", "b", "c", "d", "e", "f"]
        pairs = [
            ("a", "b"),
            ("a", "c"),
            ("a", "d"),
            ("a", "e"),
            ("a", "f"),
            ("b", "c"),
            ("b", "d"),
            ("b", "e"),
            ("b", "f"),
            ("c", "e"),
            ("d", "e"),
            ("c", "f"),
            ("d", "f"),
            ("e", "f"),
        ]
        return localized, pairs
    raise AssertionError(spec)


def test_criterion_1_reduced_hamiltonian_exactness():
    failures = []
    specs = [CompleteBipartite(8, 4), Petersen(), PaleyPrime(13), JoinedComplete(6),
             Simplex(3), Simplex(4), Simplex(5)]
    start = time.perf_counter()
    for spec in specs:
        g = build(spec)
        basis = krylov_basis(g)
        signs = row_signs(basis, closed_form_basis(spec))
        if signs is None:
            failures.append(f"{spec}: basis rows differ beyond their signs")
            continue
        numeric = reduced_hamiltonian(basis, g, 1.0)
        analytic = closed_form_reduced_hamiltonian(spec, 1.0)
        err = similarity_error(numeric, analytic, signs)
        if err > 1e-9:
            failures.append(f"{spec}: entrywise error {err:.2e} up to row signs")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1s")
    _finish("criterion 1: reduced Hamiltonians match analytic forms", failures)


def test_criterion_2_subspace_dimensions():
    failures = []
    for spec in EFFICIENCY_INSTANCES:
        m = krylov_basis(build(spec)).m
        want = EXPECTED_DIMS[type(spec)]
        if m != want:
            failures.append(f"{spec}: m={m}, expected {want}")
    _finish("criterion 2: subspace dimensions 3/3/4/5", failures)


def test_criterion_3_closed_form_agreement():
    failures = []
    for spec in EFFICIENCY_INSTANCES:
        g = build(spec)
        localized, pairs = _covered_combinations(spec)
        for label in localized:
            got = efficiency_subspace(g, Localized(class_representative(g, label)))
            want = efficiency_closed_form(spec, label)
            if abs(got - want) > 1e-12:
                failures.append(f"{spec} {label}: |{got}-{want}|")
        for c1, c2 in pairs:
            v1 = class_representative(g, c1)
            v2 = class_representative(g, c2)
            for theta in THETAS:
                got = efficiency_subspace(g, Superposition(v1, v2, theta))
                want = efficiency_closed_form(spec, c1, c2, theta)
                if abs(got - want) > 1e-12:
                    failures.append(f"{spec} ({c1},{c2}) theta={theta}: |{got}-{want}|")
    _finish("criterion 3: subspace matches analytic efficiencies", failures)


def test_criterion_4_eigenvector_span_equals_iterative_span():
    failures = []
    for spec in EFFICIENCY_INSTANCES:
        g = build(spec)
        kry = krylov_basis(g)
        lam = lambda_subspace(g)
        if lam.m != kry.m:
            failures.append(f"{spec}: dims {lam.m} vs {kry.m}")
            continue
        dist = float(np.linalg.norm(projector(lam) - projector(kry)))
        if dist > 1e-9:
            failures.append(f"{spec}: projector distance {dist:.2e}")
        if not subspace_equal(lam, kry, 1e-9):
            failures.append(f"{spec}: subspace_equal rejected")
    _finish("criterion 4: eigenvector span equals iterative span", failures)


def _dynamics_case(spec, psi):
    g = build(spec)
    eta_sub = efficiency_subspace(g, Explicit(psi))
    start = time.perf_counter()
    ev = evolve_trapped(laplacian(g), 1.0, psi, dt=1e-3, t_max=500.0)
    elapsed = time.perf_counter() - start
    eta_absorbed = ev.absorbed
    eta_survival = 1.0 - float(np.linalg.norm(ev.psi) ** 2)
    conservation = abs(eta_absorbed + float(np.linalg.norm(ev.psi) ** 2) - 1.0)
    return eta_sub, eta_absorbed, eta_survival, conservation, elapsed


def test_criterion_5_dynamical_oracle():
    failures = []

    def localized(g, v):
        psi = np.zeros(g.n, dtype=complex)
        psi[v] = 1.0
        return psi

    g_k4 = build(Complete(4))
    g_jcg = build(JoinedComplete(6))
    g_scg = build(Simplex(3))
    bridge = np.zeros(12, dtype=complex)
    bridge[class_representative(g_jcg, "b1")] = 1 / math.sqrt(2)
    bridge[class_representative(g_jcg, "b2")] = -1 / math.sqrt(2)
    cases = [
        ("K4 localized", Complete(4), localized(g_k4, 1), 1 / 3),
        ("JCG b1", JoinedComplete(6), localized(g_jcg, class_representative(g_jcg, "b1")), 29 / 49),
        ("simplex b", Simplex(3), localized(g_scg, class_representative(g_scg, "b")), 5 / 9),
        ("JCG bridge antisymmetric", JoinedComplete(6), bridge, 1.0),
        ("simplex e uniform", Simplex(3), class_uniform_state(g_scg, "e"), 1.0),
    ]
    for name, spec, psi, eta_ref in cases:
        eta_sub, eta_abs, eta_sur, conservation, elapsed = _dynamics_case(spec, psi)
        if abs(eta_sub - eta_ref) > 1e-12:
            failures.append(f"{name}: subspace {eta_sub} vs reference {eta_ref}")
        if abs(eta_abs - eta_sub) > 1e-2:
            failures.append(f"{name}: absorbed {eta_abs} vs subspace {eta_sub}")
        if abs(eta_sur - eta_sub) > 1e-2:
            failures.append(f"{name}: survival {eta_sur} vs subspace {eta_sub}")
        if conservation > 1e-6:
            failures.append(f"{name}: conservation error {conservation:.2e}")
        if elapsed >= 60.0:
            failures.append(f"{name}: run took {elapsed:.1f}s")
    _finish("criterion 5: dynamical oracle agreement", failures)


def test_criterion_6_connectivity_table():
    failures = []
    expected = [
        (Complete(6), 5, 5, 5, 6.0),
        (CompleteBipartite(8, 4), 4, 4, 4, 4.0),
        (PaleyPrime(13), 6, 6, 6, (13 - math.sqrt(13)) / 2),
        (PaleyPrime(17), 8, 8, 8, (17 - math.sqrt(17)) / 2),
        (JoinedComplete(6), 5, 1, 1, (16 - math.sqrt(224)) / 4),
        (Simplex(3), 3, 3, 3, 1.0),
        (Simplex(5), 5, 5, 5, 1.0),
    ]
    for spec, delta, v, e, a in expected:
        rep = connectivity_report(build(spec))
        if (rep.min_degree, rep.vertex_conn, rep.edge_conn) != (delta, v, e):
            failures.append(
                f"{spec}: integers {(rep.min_degree, rep.vertex_conn, rep.edge_conn)}"
                f" vs {(delta, v, e)}"
            )
        if abs(rep.algebraic_conn - a) > 1e-9:
            failures.append(f"{spec}: a(G) {rep.algebraic_conn} vs {a}")
    _finish("criterion 6: connectivity table values", failures)


def test_criterion_7_efficiency_connectivity_dataset():
    from ctqw.cli import _FIG8_INSTANCES, _dataset_fig8

    failures = []
    points = [(spec, label) for spec, labels in _FIG8_INSTANCES for label in labels]
    header, table = _dataset_fig8()
    # the sweep sorts its rows: find each by (family, N, class)
    rows = {tuple(r[:3]): dict(zip(header, r)) for r in table}
    if not len(rows) == len(table) == len(points):
        failures.append(f"{len(table)} rows for {len(points)} points")
    for spec, label in points:
        row = rows[family_name(spec), build(spec).n, label]
        if isinstance(spec, Complete):
            eta = 1.0 / (spec.n - 1)
            v = e = spec.n - 1
            a = float(spec.n)
        else:
            eta = efficiency_closed_form(spec, label if label != "cd" else "c")
            if isinstance(spec, CompleteBipartite):
                v = e = min(spec.n1, spec.n2)
                a = float(min(spec.n1, spec.n2))
            elif isinstance(spec, PaleyPrime):
                v = e = (spec.p - 1) // 2
                a = (spec.p - math.sqrt(spec.p)) / 2
            elif isinstance(spec, JoinedComplete):
                n = 2 * spec.half
                v = e = 1
                a = (n + 4 - math.sqrt(n * (n + 8) - 16)) / 4
            else:
                v = e = spec.m
                a = 1.0
        if abs(row["eta"] - eta) > 1e-12:
            failures.append(f"{spec} {label}: eta {row['eta']} vs {eta}")
        conn = (row["vertex_conn"], row["edge_conn"])
        if conn != (v, e):
            failures.append(f"{spec}: conn {conn} vs {(v, e)}")
        if abs(row["algebraic_conn"] - a) > 1e-9:
            failures.append(f"{spec}: a(G) {row['algebraic_conn']} vs {a}")
    # Whitney and Fiedler inequalities on every instance in the dataset
    for spec, _labels in _FIG8_INSTANCES:
        g = build(spec)
        rep = connectivity_report(g)
        if not rep.vertex_conn <= rep.edge_conn <= rep.min_degree:
            failures.append(f"{spec}: Whitney violated")
        complete = len(g.edges) == g.n * (g.n - 1) // 2
        if not complete and rep.algebraic_conn > rep.vertex_conn + 1e-9:
            failures.append(f"{spec}: Fiedler bound violated")
    _finish("criterion 7: efficiency/connectivity dataset reproduction", failures)


def test_criterion_8_property_suites():
    failures = []

    # norm monotonicity: the norm after each of the first 250 steps, one run
    # per horizon k * dt
    g = build(JoinedComplete(3))
    psi = np.zeros(g.n, dtype=complex)
    psi[1] = 1.0
    norms = [1.0] + [
        np.linalg.norm(evolve_trapped(laplacian(g), 1.0, psi, dt=0.02, t_max=0.02 * k).psi)
        for k in range(1, 251)
    ]
    if not np.all(np.diff(norms) <= 1e-12):
        failures.append("norm increased during trapped evolution")

    # kappa independence of the dynamic efficiency
    kappa_cases = [
        (Complete(4), Localized(1)),
        (CompleteBipartite(4, 3), Localized(4)),
        (Petersen(), Localized(1)),
        (Simplex(3), Localized(5)),
    ]
    for spec, psi0 in kappa_cases:
        g = build(spec)
        values = [
            efficiency_dynamic(g, krylov_basis(g), psi0, kappa)[0]
            for kappa in (0.5, 1.0, 2.0)
        ]
        if max(values) - min(values) > 1e-6:
            failures.append(f"{spec}: eta varies with kappa: {values}")

    # theta independence whenever the superposition involves an "e" vertex
    for m in (3, 4, 5):
        g = build(Simplex(m))
        e_rep = class_representative(g, "e")
        for other in ("a", "b", "c", "d", "f"):
            rep = class_representative(g, other)
            vals = [
                efficiency_subspace(g, Superposition(rep, e_rep, theta))
                for theta in (0.0, math.pi / 3, math.pi, 1.5 * math.pi)
            ]
            if max(vals) - min(vals) > 1e-12:
                failures.append(f"simplex m={m} ({other},e): theta dependence")

    # membership => eta = 1, orthogonality => eta = 0 (seeded random trials)
    rng = np.random.default_rng(7)
    for spec in (Complete(6), CompleteBipartite(8, 4), PaleyPrime(13),
                 JoinedComplete(6), Simplex(3)):
        g = build(spec)
        basis = krylov_basis(g)
        p = projector(basis)
        for _ in range(100):
            coeff = rng.standard_normal(basis.m) + 1j * rng.standard_normal(basis.m)
            inside = basis.vectors.T @ coeff
            inside /= np.linalg.norm(inside)
            if abs(basis.overlap(inside) - 1.0) > 1e-12:
                failures.append(f"{spec}: membership trial failed")
                break
            raw = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
            outside = raw - p @ raw
            norm = np.linalg.norm(outside)
            if norm < 1e-9:
                continue
            if basis.overlap(outside / norm) > 1e-12:
                failures.append(f"{spec}: orthogonality trial failed")
                break

    # max-flow connectivity equals exhaustive cut enumeration (small orders)
    from ctqw import edge_connectivity, vertex_connectivity
    from ctqw.graphs import (
        build_complete,
        build_complete_bipartite,
        build_joined_complete,
        build_paley_prime,
        build_petersen,
        build_rook,
        build_simplex,
    )

    small = [
        build_complete(4),
        build_complete(6),
        build_complete_bipartite(1, 1),
        build_complete_bipartite(2, 2),
        build_complete_bipartite(4, 3),
        build_paley_prime(5),
        build_petersen(),
        build_rook(3),
        build_joined_complete(2),
        build_joined_complete(3),
        build_joined_complete(5),
        build_simplex(2),
    ]
    for g in small:
        assert g.n <= 10
        edges = set(g.edges)
        if vertex_connectivity(g) != brute_vertex_connectivity(g.n, edges):
            failures.append(f"vertex connectivity mismatch on n={g.n}")
        if edge_connectivity(g) != brute_edge_connectivity(g.n, edges):
            failures.append(f"edge connectivity mismatch on n={g.n}")

    _finish("criterion 8: property suites", failures)
