"""Known-failure probes: operations that fail today, run once and reported.

They sit outside every workload, so a later fix that turns an instant
refusal into real work does not read as a slowdown, and they are not gated.
The benchmark runs this file as a child with a time limit:

    python3 perfbench/probes.py

prints one JSON list of {"name", "outcome", "seconds"}.

Failing cases left out for cost (each owned by a ROADMAP item): hom_gamma on
M2(B)^2 (fails after about 9 s, item 4), hom_gamma on M2(F2)^3 and on
End(K4)^3 (about 85 s each, item 4), and the bar tower on M2(F2)^3 at
depth 1 (about 13 s, items 2 and 4).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _relabelled_regular(fam: str, seed: int):
    """The regular module of a tables family under one seed's relabelling."""
    import gen
    from ngamma import modules

    s, _ = gen.families("tables")[fam]
    tperm = gen.permutation("tables", seed, f"{fam}.T", s.T.size)
    mperm = gen.permutation("tables", seed, f"{fam}.M", s.T.size)
    rs = gen.relabel_semiring(s, tperm, name=fam)
    return gen.relabel_module(modules.regular_bimodule(s), rs, tperm, mperm)


def _cases():
    from ngamma import core, homology, modules

    k4 = core.FiniteAddMonoid(4, tuple(a ^ b for a in range(4) for b in range(4)), 0)
    families = {
        "m2b^2": lambda: core.make_matrix_family(core.boolean_semiring(), 2, 2),
        "m2f2^3": lambda: core.make_matrix_family(core.f2_semiring(), 2, 3),
        "endk4^3": lambda: core.make_endomorphism_family(k4, 3),
    }
    for fam, make in families.items():
        def tensor(make=make):
            reg = modules.regular_bimodule(make())
            return modules.tensor_positional(reg, reg, reg.parent.n - 1, 0)
        yield f"tensor_positional reg(x)reg {fam}", tensor

    def ext_depth0():
        s = core.make_matrix_family(core.f2_semiring(), 2, 2)
        reg = modules.regular_bimodule(s)
        return homology.ext_via_bar(s, reg, reg, 1, 0, 0)
    yield "ext_via_bar depth 0 m2f2^2", ext_depth0

    # additive_maps evaluates its sum expressions in element-index order, so
    # a carrier whose sums point at higher indices fails: cofree and
    # hom_gamma on most relabellings of the tables families.
    z2 = core.FiniteAddMonoid(2, (0, 1, 1, 0), 0)
    def cofree_m2f2():
        return modules.cofree(_relabelled_regular("m2f2", 0).parent, z2)
    yield "cofree into Z/2 on relabelling 0 of m2f2", cofree_m2f2

    def hom_gz4():
        reg = _relabelled_regular("gz4", 1)
        return modules.hom_gamma(reg, reg, 2, 0)
    yield "hom_gamma reg->reg on relabelling 1 of gz4", hom_gz4


def run() -> list[dict]:
    out = []
    for name, fn in _cases():
        t0 = time.perf_counter()
        try:
            fn()
            outcome = "ok"
        except Exception as e:  # a probe reports whatever the engine raises
            outcome = f"{type(e).__name__}: {str(e)[:100]}"
        out.append({"name": name, "outcome": outcome,
                    "seconds": time.perf_counter() - t0})
    return out


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    print(json.dumps(run()))
