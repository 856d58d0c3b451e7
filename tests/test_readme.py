from pathlib import Path

from ctqw.cli import MAX_ORDER

README = Path(__file__).parents[1] / "README.md"


def _library_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _cap_table() -> dict[str, int]:
    """Each command's order cap, as the README's size-cap table lists it."""
    table = README.read_text(encoding="utf-8").split("| command | cap |", 1)[1]
    caps = {}
    for row in table.splitlines()[2:]:  # past the header's tail and the rule
        if not row.startswith("|"):
            break
        command, cap = (cell.strip() for cell in row.split("|")[1:3])
        caps[command.strip("`")] = int(cap)
    return caps


def test_readme_cap_table_matches_max_order():
    assert _cap_table() == MAX_ORDER


def test_readme_library_example_runs_and_holds():
    # the values the block's comments state
    scope: dict = {}
    exec(compile(_library_block(), str(README), "exec"), scope)
    assert scope["basis"].m == 4
    assert scope["h_red"].shape == (4, 4) and scope["h_red"][0, 0].imag == -1.0
    assert abs(scope["eta"] - 29 / 49) <= 1e-12
    assert abs(scope["eta_formula"] - 29 / 49) <= 1e-12
    report = scope["report"]
    assert abs(report.eta["closed_form"] - 29 / 49) <= 1e-12
    assert abs(report.eta["dynamic_absorbed"] - report.eta["subspace"]) <= 1e-8
    assert report.disagreements == ()
