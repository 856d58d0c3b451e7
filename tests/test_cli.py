import json
import math
from pathlib import Path

import pytest

from ctqw import cli, reduction, transport
from ctqw.cli import _dumps, build_parser, main

GOLDEN = Path(__file__).parent / "golden"

# One small instance per family. The files under golden/ pin the CLI output
# byte for byte; rewrite them only for an intended change of output.
_GOLDEN_INSTANCES = {
    "complete": ["--n", "7"],
    "cbg": ["--n1", "5", "--n2", "3"],
    "paley": ["--p", "13"],
    "petersen": [],
    "rook": ["--n", "4"],
    "jcg": ["--half", "5"],
    "simplex": ["--m", "4"],
}

# Larger instances whose connectivities take many max flows.
_GOLDEN_GRAPHS = {
    "graph-rook-6.json": ["rook", "--n", "6"],
    "graph-simplex-6.json": ["simplex", "--m", "6"],
    "graph-paley-29.json": ["paley", "--p", "29"],
    "graph-paley-53.json": ["paley", "--p", "53"],
    "graph-cbg-22-12.json": ["cbg", "--n1", "22", "--n2", "12"],
}

# The dynamic routes: the longest horizon and the largest graph of the
# benchmark's oracle panel.
_GOLDEN_ORACLE = {
    "jcg-6-b1": ["jcg", "--half", "6", "--state", "class:b1", "--kappa", "0.139"],
    "rook-4-b": ["rook", "--n", "4", "--state", "class:b", "--kappa", "0.9"],
}

GOLDEN_CASES = (
    [
        (f"sweep-{dataset}.{fmt}", ["sweep", dataset, "--format", fmt])
        for dataset in ("fig3", "fig7", "fig8", "table1")
        for fmt in ("csv", "json")
    ]
    + [(f"graph-{fam}.json", ["graph", fam, *size]) for fam, size in _GOLDEN_INSTANCES.items()]
    + [(name, ["graph", *argv]) for name, argv in _GOLDEN_GRAPHS.items()]
    + [
        (
            f"efficiency-{fam}-{state.replace(':', '-')}.json",
            ["efficiency", fam, *size, "--state", state],
        )
        for fam, size in _GOLDEN_INSTANCES.items()
        for state in ("class:a", "vertex:1", "uniform:a")
    ]
    + [
        (f"efficiency-{name}-oracle.json", ["efficiency", *argv, "--oracle"])
        for name, argv in _GOLDEN_ORACLE.items()
    ]
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_graph_simplex(capsys):
    code, out, _ = run_cli(capsys, "graph", "simplex", "--m", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["graph"]["n"] == 30
    degrees = {}
    for i, j in payload["graph"]["edges"]:
        degrees[i] = degrees.get(i, 0) + 1
        degrees[j] = degrees.get(j, 0) + 1
    assert all(d == 5 for d in degrees.values())
    assert payload["connectivity"]["algebraic"] == pytest.approx(1.0, abs=1e-9)


def test_graph_cbg_connectivity(capsys):
    code, out, _ = run_cli(capsys, "graph", "cbg", "--n1", "8", "--n2", "4")
    assert code == 0
    conn = json.loads(out)["connectivity"]
    assert conn["vertex"] == conn["edge"] == 4
    assert conn["algebraic"] == pytest.approx(4.0, abs=1e-9)


def test_graph_rejects_invalid_parameters(capsys):
    code, _, err = run_cli(capsys, "graph", "paley", "--p", "9")
    assert code == 2
    assert "prime" in err


def test_graph_edges_sorted(capsys):
    _, out, _ = run_cli(capsys, "graph", "petersen")
    edges = [tuple(e) for e in json.loads(out)["graph"]["edges"]]
    assert edges == sorted(edges)


def test_efficiency_jcg_class_state(capsys):
    code, out, _ = run_cli(
        capsys, "efficiency", "jcg", "--half", "6", "--state", "class:b1"
    )
    assert code == 0
    eta = json.loads(out)["eta"]
    assert eta["subspace"] == pytest.approx(29 / 49, abs=1e-9)
    assert eta["closed_form"] == pytest.approx(29 / 49, abs=1e-9)
    assert eta["lambda"] is None


def test_efficiency_simplex_superposition(capsys):
    code, out, _ = run_cli(
        capsys,
        "efficiency",
        "simplex",
        "--m",
        "5",
        "--state",
        "super:b,e",
        "--theta",
        "0",
    )
    assert code == 0
    eta = json.loads(out)["eta"]
    assert eta["subspace"] == pytest.approx(0.465, abs=1e-9)
    assert eta["closed_form"] == pytest.approx(0.465, abs=1e-9)


def test_efficiency_with_oracle(capsys):
    code, out, _ = run_cli(
        capsys,
        "efficiency",
        "complete",
        "--n",
        "4",
        "--state",
        "class:a",
        "--oracle",
    )
    assert code == 0
    eta = json.loads(out)["eta"]
    for route in ("subspace", "closed_form", "lambda", "dynamic_absorbed", "dynamic_survival"):
        assert eta[route] == pytest.approx(1 / 3, abs=1e-2)


def test_efficiency_uncovered_closed_form_still_succeeds(capsys):
    code, out, _ = run_cli(
        capsys, "efficiency", "complete", "--n", "4", "--state", "vertex:0"
    )
    assert code == 0
    eta = json.loads(out)["eta"]
    assert eta["closed_form"] is None
    assert eta["subspace"] == pytest.approx(1.0, abs=1e-12)


def test_efficiency_vertex_state_gets_class_formula(capsys):
    code, out, _ = run_cli(
        capsys, "efficiency", "cbg", "--n1", "8", "--n2", "4", "--state", "vertex:3"
    )
    assert code == 0
    eta = json.loads(out)["eta"]
    assert eta["closed_form"] == pytest.approx(1 / 7, abs=1e-12)


@pytest.mark.parametrize(
    "argv, eta_class",
    [
        (["simplex", "--m", "4", "--state", "super:c,c", "--theta", "0.4"], 2 / 16),
        (["simplex", "--m", "3", "--state", "super:c,d", "--theta", "1"], 2 / 9),
        (["complete", "--n", "6", "--state", "super:1,2", "--theta", "0.5"], 1 / 5),
    ],
    ids=["simplex-c-c", "simplex-c-d", "complete-1-2"],
)
def test_same_class_superposition_gets_closed_form(capsys, argv, eta_class):
    code, out, err = run_cli(capsys, "efficiency", *argv)
    assert code == 0, err
    payload = json.loads(out)
    want = (1 + math.cos(payload["theta"])) * eta_class
    assert payload["eta"]["closed_form"] == pytest.approx(want, abs=1e-12)
    assert payload["eta"]["subspace"] == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("state", ["class:cd", "uniform:cd", "super:cd,a", "super:b1,cd"])
def test_cd_outside_the_simplex_exits_2(capsys, state):
    code, out, err = run_cli(capsys, "efficiency", "jcg", "--half", "4", "--state", state)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "'cd'" in err


def test_sweep_fig3_row(capsys):
    code, out, _ = run_cli(capsys, "sweep", "fig3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "alpha,N,eta1,eta2,eta_s"
    target = None
    for line in lines[1:]:
        fields = line.split(",")
        if abs(float(fields[0]) - 2 / 3) < 1e-9 and fields[1] == "12":
            target = fields
    assert target is not None
    assert float(target[2]) == pytest.approx(1 / 7, abs=1e-9)
    assert float(target[3]) == pytest.approx(1 / 4, abs=1e-9)
    assert float(target[4]) == pytest.approx(11 / 56, abs=1e-9)


def test_sweep_fig7_row(capsys):
    code, out, _ = run_cli(capsys, "sweep", "fig7")
    assert code == 0
    hit = False
    for line in out.splitlines()[1:]:
        m, pair, theta, eta = line.split(",")
        if m == "5" and pair == "b+cd" and abs(float(theta) - math.pi) < 1e-9:
            assert float(eta) == pytest.approx(0.5, abs=1e-9)
            hit = True
    assert hit


def test_sweep_table1_simplex_row(capsys):
    code, out, _ = run_cli(capsys, "sweep", "table1")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    simplex_rows = [r for r in rows if r[0] == "simplex"]
    assert len(simplex_rows) == 2
    for r in simplex_rows:
        assert float(r[5]) == pytest.approx(1.0, abs=1e-9)


def test_sweep_fig8_emits_note_and_rows(capsys):
    code, out, err = run_cli(capsys, "sweep", "fig8")
    assert code == 0
    assert "omitted" in err
    header = out.splitlines()[0]
    assert header == "family,N,class,eta,vertex_conn,edge_conn,algebraic_conn"
    assert len(out.splitlines()) > 20


def test_sweep_deterministic_output(capsys):
    _, first, _ = run_cli(capsys, "sweep", "fig7")
    _, second, _ = run_cli(capsys, "sweep", "fig7")
    assert first == second


def test_sweep_json_format(capsys):
    code, out, _ = run_cli(capsys, "sweep", "table1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["dataset"] == "table1"
    assert any(row["family"] == "paley" for row in payload["rows"])


def test_sweep_rejects_unknown_dataset(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "fig9"])
    assert excinfo.value.code == 2


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.csv"
    code, out, _ = run_cli(capsys, "sweep", "table1", "--out", str(path))
    assert code == 0
    assert out == ""
    text = path.read_text(encoding="utf-8")
    assert text.startswith("family,")
    assert "\r" not in text


@pytest.mark.parametrize("raw", ["1e-12", "1e-8", "nan", "inf", "-1", "0", "tiny"])
def test_ctqw_tol_env_is_ignored(capsys, monkeypatch, raw):
    # JCG(125) class c: a tolerance of 1e-12 once gave m=5 against the
    # closed-form 4 and a false exit 3; `nan` and `tiny` once exited 2
    argv = ("efficiency", "jcg", "--half", "125", "--state", "class:c")
    monkeypatch.delenv("CTQW_TOL", raising=False)
    unset = run_cli(capsys, *argv)
    assert unset[0] == 0
    monkeypatch.setenv("CTQW_TOL", raw)
    assert run_cli(capsys, *argv)[:2] == unset[:2]


def test_oracle_disagreement_exits_3(capsys, monkeypatch):
    # a horizon far too short for the dynamics to converge trips the
    # numeric-agreement gate
    monkeypatch.setattr(transport, "decay_horizon", lambda l, w, kappa: 0.5)
    code, out, err = run_cli(
        capsys, "efficiency", "jcg", "--half", "6", "--state", "class:b1", "--oracle"
    )
    assert code == 3
    assert "disagree" in err
    assert json.loads(out)["eta"]["subspace"] == pytest.approx(29 / 49, abs=1e-9)


def test_step_count_cap_names_dt(capsys):
    # a horizon of 3.7e10 takes about 1e15 steps: rejected before any step
    # runs, naming the rate that set the horizon and the step it needs
    code, out, err = run_cli(
        capsys, "efficiency", "complete", "--n", "4", "--state", "class:a", "--oracle", "--kappa", "1e-9"
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "--kappa" in err and "dt=" in err and "2^40" in err


@pytest.mark.parametrize("kappa", ["1e-13", "1e-12", "1e12", "1e16", "1e300"])
def test_unresolvable_decay_rate_names_kappa(capsys, kappa):
    # at both extremes a trap-visible mode of K4 decays slower than a dark
    # mode's roundoff, so no horizon can be set; one set by the fast mode
    # alone would end the run early and report a false disagreement
    code, out, err = run_cli(
        capsys, "efficiency", "complete", "--n", "4", "--state", "class:a", "--oracle", "--kappa", kappa
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "--kappa" in err and "roundoff" in err


def _truncate_krylov_basis(monkeypatch):
    """Make the subspace route keep only the trap vector (m=1)."""
    monkeypatch.setattr(
        transport,
        "krylov_basis",
        lambda g, w=0: reduction.SubspaceBasis(reduction.krylov_basis(g, w).vectors[:1]),
    )


def test_closed_form_disagreement_exits_3(capsys, monkeypatch):
    # a basis truncated to m=1 makes the Rook(4) subspace route read 0
    # against the closed form 1/9
    _truncate_krylov_basis(monkeypatch)
    code, out, err = run_cli(capsys, "efficiency", "rook", "--n", "4", "--state", "class:b")
    assert code == 3
    assert json.loads(out)["eta"]["closed_form"] == pytest.approx(1 / 9)
    assert err.count("\n") == 1 and "closed_form" in err and "disagree" in err


@pytest.mark.parametrize("extra", [[], ["--oracle"]], ids=["subspace", "oracle"])
def test_krylov_dimension_disagreement_exits_3(capsys, monkeypatch, extra):
    # the trap's own state has no closed-form route to compare against, so
    # only the dimension check can see the truncated basis (m=1, not 3)
    _truncate_krylov_basis(monkeypatch)
    code, out, err = run_cli(
        capsys, "efficiency", "rook", "--n", "4", "--state", "vertex:0", *extra
    )
    assert code == 3
    assert json.loads(out)["m"] == 1
    assert err.count("\n") == 1 and "disagree" in err
    assert "m=1" in err and "dimension 3" in err


@pytest.mark.parametrize("extra", [[], ["--oracle"]], ids=["subspace", "oracle"])
def test_efficiency_builds_one_closed_form_record(capsys, monkeypatch, extra):
    calls = []

    def counted(spec):
        calls.append(spec)
        return reduction.closed_forms(spec)

    monkeypatch.setattr(cli, "closed_forms", counted)
    monkeypatch.setattr(transport, "closed_forms", counted)
    code, _, _ = run_cli(
        capsys, "efficiency", "simplex", "--m", "5", "--state", "super:b,e", *extra
    )
    assert code == 0
    assert len(calls) == 1


_INTERLEAVED = (
    ("graph", "complete", "--n", "5"),
    ("efficiency", "jcg", "--half", "4", "--state", "class:b1", "--kappa", "0.5", "--oracle"),
    ("efficiency", "petersen", "--state", "vertex:a"),
)


def test_back_to_back_requests_match_fresh_parsers(capsys):
    fresh = {}
    for argv in _INTERLEAVED:
        build_parser.cache_clear()
        fresh[argv] = run_cli(capsys, *argv)
    assert [code for code, _, _ in fresh.values()] == [0, 0, 2]
    for order in (_INTERLEAVED, _INTERLEAVED[::-1]):
        build_parser.cache_clear()
        for argv in order:
            assert run_cli(capsys, *argv) == fresh[argv]


@pytest.mark.parametrize(
    "argv",
    [
        ["complete", "--n", "4", "--state", "class:a", "--kappa", "0.001"],
        ["jcg", "--half", "6", "--state", "class:b1", "--kappa", "0.139"],
        ["complete", "--n", "8", "--state", "class:a", "--kappa", "1e4"],
        # large graphs, where a fixed step drifts past the dynamics check
        ["complete", "--n", "250", "--state", "class:a"],
        ["cbg", "--n1", "125", "--n2", "125", "--state", "class:b"],
        ["jcg", "--half", "125", "--state", "class:c"],
        # the trap's own state, whose flux decays at rate 2 kappa
        ["complete", "--n", "4", "--state", "vertex:0", "--kappa", "1e3"],
    ],
    ids=[
        "K4-kappa-1e-3",
        "JCG6-b1-kappa-0.139",
        "K8-kappa-1e4",
        "K250-a",
        "CBG125+125-b",
        "JCG125-c",
        "K4-trap-kappa-1e3",
    ],
)
def test_oracle_agrees_at_default_horizon(capsys, argv):
    code, out, err = run_cli(capsys, "efficiency", *argv, "--oracle")
    assert code == 0, err
    eta = json.loads(out)["eta"]
    assert eta["dynamic_absorbed"] == pytest.approx(eta["subspace"], abs=1e-6)
    assert eta["dynamic_survival"] == pytest.approx(eta["subspace"], abs=1e-6)


def test_malformed_state_is_invalid_parameter(capsys):
    code, _, err = run_cli(
        capsys, "efficiency", "petersen", "--state", "nonsense"
    )
    assert code == 2
    assert "state" in err


@pytest.mark.parametrize("name, argv", GOLDEN_CASES, ids=[name for name, _ in GOLDEN_CASES])
def test_output_matches_golden(capsys, name, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


# an index names one vertex, so super:1,1 is rejected; only a class token
# draws its class's next vertex (super:c,c above)
@pytest.mark.parametrize("state", ["vertex:a", "class:3", "vertex:", "class:-1", "super:1,1"])
def test_state_kind_must_match_value(capsys, state):
    code, out, err = run_cli(capsys, "efficiency", "petersen", "--state", state)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and state.split(":")[0] in err


def test_super_state_accepts_indices_and_labels(capsys):
    _, by_label, _ = run_cli(capsys, "efficiency", "petersen", "--state", "super:a,b")
    code, by_index, _ = run_cli(capsys, "efficiency", "petersen", "--state", "super:1,2")
    assert code == 0
    assert json.loads(by_index)["eta"]["subspace"] == json.loads(by_label)["eta"]["subspace"]


@pytest.mark.parametrize(
    "flag, value",
    [("--theta", "nan"), ("--theta", "inf"), ("--kappa", "-1"), ("--kappa", "nan"), ("--kappa", "inf")],
)
def test_non_finite_or_negative_numeric_flags_exit_2(capsys, flag, value):
    code, out, err = run_cli(
        capsys, "efficiency", "petersen", "--state", "super:w,a", flag, value
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and flag in err


def test_oracle_at_zero_kappa_names_the_flag(capsys):
    code, out, err = run_cli(
        capsys, "efficiency", "complete", "--n", "4", "--state", "class:a",
        "--kappa", "0", "--oracle",
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "--kappa" in err


_OUT_COMMANDS = {
    "graph": ["graph", "paley", "--p", "53"],
    "efficiency": ["efficiency", "paley", "--p", "53", "--state", "class:a"],
    "sweep": ["sweep", "table1"],
}


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
@pytest.mark.parametrize("command", list(_OUT_COMMANDS))
def test_unwritable_out_exits_2(capsys, monkeypatch, tmp_path, command, target):
    # the target is checked before any work: these commands never compute
    def unreachable(*args, **kwargs):
        raise AssertionError("computed before checking --out")

    monkeypatch.setattr(cli, "connectivity_report", unreachable)
    monkeypatch.setattr(cli, "efficiency_report", unreachable)
    out = tmp_path / "missing" / "x.json" if target == "missing-dir" else tmp_path
    code, stdout, err = run_cli(capsys, *_OUT_COMMANDS[command], "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1 and "--out" in err and str(out) in err


# --- JSON writer -------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        [fam, *size]
        for fam, sizes in {
            "complete": (["--n", "2"], ["--n", "38"]),
            "cbg": (["--n1", "1", "--n2", "1"], ["--n1", "6", "--n2", "9"]),
            "paley": (["--p", "5"], ["--p", "37"]),
            "petersen": ([],),
            "rook": (["--n", "2"], ["--n", "5"]),
            "jcg": (["--half", "2"], ["--half", "9"]),
            "simplex": (["--m", "2"], ["--m", "5"]),
        }.items()
        for size in sizes
    ],
    ids=" ".join,
)
def test_graph_edge_block_matches_stdlib(capsys, argv):
    # the spliced edge block against the stdlib's text of the same payload
    code, out, _ = run_cli(capsys, "graph", *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_writer_rejects_non_finite_floats(bad):
    for payload in (bad, [1, bad], {"x": {"y": bad}}, [[0, 1], [bad, 2]]):
        with pytest.raises(ValueError):
            _dumps(payload)


def test_writer_rejects_unknown_types():
    with pytest.raises(TypeError):
        _dumps({"x": object()})
