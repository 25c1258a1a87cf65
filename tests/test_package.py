"""The package namespace re-exports each module's ``__all__``; its public
names are pinned so the star re-export can neither drop nor add one."""

import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_public_names_are_pinned():
    # a fresh interpreter: importing banddet.cli or banddet.checks elsewhere in
    # the session binds them on the package too
    script = (
        "import json, banddet; "
        "print(json.dumps(sorted(n for n in vars(banddet) if not n.startswith('_'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(banddet.__file__).parents[1])},
    ).stdout
    assert json.loads(out) == PUBLIC
