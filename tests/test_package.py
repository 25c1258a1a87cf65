"""The package namespace re-exports each module's ``__all__``, lazily; its
public names are pinned so the re-export can neither drop nor add one, and
each CLI verb is pinned to the modules it loads, none of them
``dataclasses`` or ``inspect``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import banddet

PUBLIC = [
    "BandResidue", "BandSpec", "CharMatrix", "DenseMatrix", "DivisibilityError",
    "ExcedanceCensus", "FactoredDet", "InexactDivisionError", "Integer",
    "InvalidPermutationError", "MixedRingError", "ParityCount", "ParityError", "Poly",
    "RingElement", "SizeLimitError", "all_b_row_count", "as_element", "band",
    "band_rows", "bordered_matrix", "brute_force_excedance_census", "brute_force_parity",
    "det_bareiss", "det_case1", "det_case2", "det_closed", "det_factored", "det_laplace",
    "det_recurrence", "element_from_json", "element_to_json", "entry", "errors",
    "excedance_census", "excedance_matrix", "f_closed", "family_table", "g_closed",
    "materialize", "menage_a_det", "menage_a_matrix", "menage_a_permanent_rec",
    "menage_a_permanent_sum", "menage_b_det", "menage_b_matrix", "oracle",
    "parity_counts", "perm_sign", "permanent_expansion", "permanent_ryser", "permcount",
    "residue", "rings", "spec_from_json", "spec_to_json", "weak_excedance_class",
    "weak_excedance_count",
]


def fresh(script: str) -> str:
    """stdout of `script` in a fresh interpreter: importing banddet.cli or
    banddet.checks elsewhere in the session binds them on the package too."""
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(banddet.__file__).parents[1])},
    ).stdout


def test_public_names_are_pinned():
    script = (
        "import json, banddet; "
        "print(json.dumps([n for n in dir(banddet) if not n.startswith('_')]))"
    )
    assert json.loads(fresh(script)) == PUBLIC


def test_star_import_binds_the_pinned_names():
    script = (
        "from banddet import *\n"
        "import json as _json\n"
        "print(_json.dumps(sorted(n for n in dir() if not n.startswith('_'))))"
    )
    assert json.loads(fresh(script)) == PUBLIC


def test_getattr_binds_each_name_to_its_owner():
    # in a fresh interpreter, so every name is resolved lazily, not read
    # back from what this session has already looked up
    script = f"""
import json, banddet
got = {{n: getattr(banddet, n) for n in {PUBLIC!r}}}
modules = [getattr(banddet, m) for m in ("band", "errors", "oracle", "permcount", "rings")]
owned = {{m.__name__.rpartition(".")[2]: m for m in modules}}
for m in modules:
    owned.update((n, getattr(m, n)) for n in m.__all__)
print(json.dumps([sorted(owned), [n for n in got if got[n] is not owned.get(n)]]))
"""
    owned, misbound = json.loads(fresh(script))
    assert owned == PUBLIC
    assert misbound == []


def loaded_by(argv: list[str]) -> list[str]:
    """The package modules, and json, that one successful CLI run loads,
    in a fresh interpreter."""
    script = (
        "import os, sys\n"
        "from banddet.cli import main\n"
        "stdout, sys.stdout = sys.stdout, open(os.devnull, 'w')\n"
        f"code = main({argv!r})\n"
        "sys.stdout = stdout\n"
        "print(code, *sorted(m for m in sys.modules if m.startswith('banddet') or m == 'json'))"
    )
    code, *modules = fresh(script).split()
    assert code == "0"
    return modules


CORE = ["banddet", "banddet.band", "banddet.cli", "banddet.errors", "banddet.oracle", "banddet.rings"]


def test_det_perm_and_bench_load_only_the_closed_form_and_oracles():
    assert loaded_by(["det", "--n", "9", "--k", "2", "--l", "2", "--a", "1", "--b", "0"]) == CORE
    assert loaded_by(["perm", "--n", "5", "--k", "2", "--l", "1", "--a", "1", "--b", "0"]) == CORE
    assert loaded_by(["bench", "4,9"]) == CORE


def test_table_and_census_add_only_permcount():
    with_census = sorted(CORE + ["banddet.permcount"])
    assert loaded_by(["table", "menage-a", "6"]) == with_census
    assert loaded_by(["census", "--n", "5"]) == with_census
    assert "json" in loaded_by(["census", "--n", "5", "--format", "json"])


def test_a_name_loads_only_its_owner_and_what_it_imports():
    script = (
        "import sys; from banddet import det_closed; "
        "print(*sorted(m for m in sys.modules if m.startswith('banddet')))"
    )
    assert fresh(script).split() == sorted(set(CORE) - {"banddet.cli"})


@pytest.mark.parametrize(
    "argv",
    [
        "det --n 9 --k 2 --l 2 --a 1 --b 0",
        "perm --n 5 --k 2 --l 1 --a 1 --b 0",
        "table menage-a 6",
        "census --n 5",
        "check --level quick",
        "bench 4,9",
    ],
)
def test_no_verb_loads_dataclasses_or_inspect(argv):
    # a fresh interpreter: pytest itself has loaded both in this one
    script = (
        "import os, sys\n"
        "from banddet.cli import main\n"
        "stdout, sys.stdout = sys.stdout, open(os.devnull, 'w')\n"
        f"code = main({argv.split()!r})\n"
        "sys.stdout = stdout\n"
        "print(code, *(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    assert fresh(script).split() == ["0"]
