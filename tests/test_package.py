"""The package namespace: public names bound on first use, and the modules
each route loads in a fresh process."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import billiardknots

PUBLIC = [
    "BilliardDiagram", "CompiledTermSum", "DELTA", "Factor", "LaurentPoly",
    "QuarterPoly", "SignedDiagram", "TableSpec", "TermSum", "b_terms",
    "bracket_all_signs", "bracket_bruteforce", "bt_terms", "coefficient_string",
    "compositions", "count_domino_tilings", "delta_power", "diagram",
    "enumerate_term_tilings", "expand_block", "f_terms", "h_terms",
    "jones_normalize", "padovan", "parse_signs", "sign_sequences",
    "tiling_to_term", "writhe_recursive",
]


def test_public_names_resolve_to_their_home_objects():
    assert billiardknots.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(billiardknots))
    for name in PUBLIC:
        home = importlib.import_module(f"billiardknots.{billiardknots._HOME[name]}")
        assert getattr(billiardknots, name) is vars(home)[name], name
    star: dict = {}
    exec("from billiardknots import *", star)
    assert {name: star[name] for name in PUBLIC} == {
        name: getattr(billiardknots, name) for name in PUBLIC
    }
    for module in billiardknots._SUBMODULES:
        assert getattr(billiardknots, module) is sys.modules[f"billiardknots.{module}"]
        assert module in dir(billiardknots)
    with pytest.raises(AttributeError, match="'no_such_name'"):
        billiardknots.no_such_name


def test_each_route_loads_only_its_modules():
    # A fresh process: after each step, the package submodules loaded so far.
    script = """
import sys
def loaded(step):
    print("@", step, *sorted(m.split(".", 1)[1] for m in sys.modules
                             if m.startswith("billiardknots.")))
import billiardknots
loaded("import")
billiardknots.diagram(5, 8).assign_signs("+-" * 7).writhe()
loaded("writhe")
from billiardknots import cli
cli.main(["pd", "--b", "5", "--bumpers", "2"])
loaded("pd")
cli.main(["bracket", "--b", "6", "--signs", "++--++--++"])
loaded("bracket")
cli.main(["jones", "--b", "4", "--bumpers", "1", "--signs", "+-+--+"])
loaded("jones")
assert cli.main(["verify", "--family", "bt", "--max-n", "5"]) == 0
loaded("verify")
billiardknots.tiling.count_domino_tilings(3)
loaded("tiling")
"""
    env = {**os.environ, "PYTHONPATH": str(Path(billiardknots.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    steps = [line[2:] for line in proc.stdout.splitlines() if line.startswith("@ ")]
    closed_form = "billiard cli laurent recursions signseq terms"
    assert steps == [
        "import",
        "writhe billiard signseq",
        "pd billiard cli signseq",
        f"bracket {closed_form}",
        f"jones {closed_form}",
        "verify billiard cli laurent oracle recursions signseq terms",
        "tiling billiard cli laurent oracle recursions signseq terms tiling",
    ]
    assert "family bt: " in proc.stdout and "all match" in proc.stdout
