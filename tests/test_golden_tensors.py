"""Positional tensors and scalar extensions pinned by digest.

``golden_tensors.json`` maps each case to the sha256 of the quotient monoid's
``(add_table, zero)``, the action tables and ``beta``, or to the text of the
typed refusal the case raises.  A change to the tensor congruence that moves
any table, class numbering or refusal fails here.  After an intended output
change, regenerate the file with

    PYTHONPATH=src python tests/test_golden_tensors.py
"""

import hashlib
import json
from itertools import product
from pathlib import Path

from ngamma.abgroups import SoundnessError
from ngamma.bundled import bundled_workspace
from ngamma.core import (
    BoundExceeded, f2_semiring, gamma_scaled_z4, make_matrix_family,
    ternary_from_semiring, zmod_semiring,
)
from ngamma.modules import regular_bimodule, tensor_positional
from ngamma.spectral import extend_scalars

GOLDEN = Path(__file__).with_name("golden_tensors.json")


def _regular_families():
    fams = {f"ternary z{m}": ternary_from_semiring(zmod_semiring(m)) for m in (2, 3, 4)}
    fams.update({f"binary z{m}": zmod_semiring(m) for m in (2, 3, 4)})
    fams["gamma-scaled z4"] = gamma_scaled_z4()
    fams["binary m2f2"] = make_matrix_family(f2_semiring(), 2, 2)
    return fams


def cases():
    """name -> thunk returning a TensorModule; every (j, k) of each pairing."""
    ws = bundled_workspace()
    out = {}
    names = sorted(ws.modules)
    for a, b in product(names, names):
        left, right = ws.module(a), ws.module(b)
        if left.parent != right.parent:
            continue
        n = left.parent.n
        for j, k in product(range(n), repeat=2):
            out[f"tensor {a} {b} {j + 1},{k + 1}"] = \
                lambda l=left, r=right, j=j, k=k: tensor_positional(l, r, j, k)
    for fam, s in _regular_families().items():
        reg = regular_bimodule(s)
        for j, k in product(range(s.n), repeat=2):
            out[f"tensor regular {fam} {j + 1},{k + 1}"] = \
                lambda r=reg, j=j, k=k: tensor_positional(r, r, j, k)
    f = ws.morphism("q_z4_f2")
    for a in names:
        mod = ws.module(a)
        if mod.parent != f.source:
            continue
        for j, k in product(range(f.source.n), repeat=2):
            out[f"extend q_z4_f2 {a} {j + 1},{k + 1}"] = \
                lambda m=mod, j=j, k=k: extend_scalars(f, m, j, k)
    return out


def digest(thunk) -> str:
    try:
        t = thunk()
    except (BoundExceeded, SoundnessError) as exc:
        return f"{type(exc).__name__}: {exc}"
    m = t.module
    blob = repr((m.M.add_table, m.M.zero, m.act_tables, t.beta))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def test_tensors_match_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    todo = cases()
    assert list(golden) == list(todo)
    changed = [name for name, thunk in todo.items() if digest(thunk) != golden[name]]
    assert changed == []


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: digest(thunk) for name, thunk in cases().items()},
                                 indent=1) + "\n")
