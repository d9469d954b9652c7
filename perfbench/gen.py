"""Seeded inputs for the ``derived`` and ``tables`` workloads.

Each workspace is built from the package's own constructors.  Some families
are relabelled: their carrier and their module carrier get a permutation of
the element indices drawn from the seed, so each seed yields an isomorphic
copy with different table layouts, and the expected invariants check that
the engine's answers do not depend on the labels.  The families that carry
most of a round's time keep the constructors' order on every seed, because
their cost depends on the labels: ext and tor over Z/12 and Z/16, ideal
enumeration and the positional tensor move by 15% to 100% between
relabellings, which would swamp any regression bound.  Contraction policies
are computed on the constructor's structure and mapped through the same
permutation, so the neutral filler the bar tower contracts with is the same
element on every seed.

The program under test only ever sees the two files this writes:

    python3 perfbench/gen.py --workload derived --seed 3 --out DIR

writes ``DIR/workspace.json`` (a ``ngamma-workspace/1`` document) and
``DIR/jobs.json`` (the workload's job list with explicit arguments).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from ngamma import core, homology, modules, workspace  # noqa: E402


def permutation(workload: str, seed: int, what: str, size: int) -> list[int]:
    """perm[old] = new; string seeding keeps it stable across interpreters."""
    perm = list(range(size))
    random.Random(f"{workload}/{seed}/{what}").shuffle(perm)
    return perm


def _inverse(perm):
    inv = [0] * len(perm)
    for old, new in enumerate(perm):
        inv[new] = old
    return inv


def relabel_monoid(m, perm):
    inv = _inverse(perm)
    add = tuple(perm[m.add(inv[a], inv[b])]
                for a in range(m.size) for b in range(m.size))
    return core.FiniteAddMonoid(m.size, add, perm[m.zero])


def relabel_semiring(s, perm, name=""):
    inv = _inverse(perm)
    t = relabel_monoid(s.T, perm)
    mu = []
    for xs in product(range(s.T.size), repeat=s.n):
        old = tuple(inv[x] for x in xs)
        for gs in s.g_tuples(s.n - 1):
            mu.append(perm[s.mu(old, gs)])
    return core.NaryGammaSemiring(s.n, t, s.gamma, tuple(mu), name=name or s.name)


def relabel_module(b, parent, tperm, mperm, name=""):
    """``b`` moved onto ``parent`` (the tperm-relabelled b.parent) with its
    own carrier relabelled by mperm."""
    tinv, minv = _inverse(tperm), _inverse(mperm)
    m = relabel_monoid(b.M, mperm)

    def act(j, tother, x, gs):
        return mperm[b.act(j, tuple(tinv[t] for t in tother), minv[x], gs)]

    return modules.build_module(parent, m, act, name=name or b.name)


def relabel_policy(policy, tperm) -> dict:
    return {"gammas": [list(g) for g in policy.gammas],
            "fillers": [[tperm[t] for t in f] for f in policy.fillers]}


def _z2_with_zero():
    """Z/2 as a parameter semigroup whose flagged zero is its identity."""
    return core.GammaSemigroup(2, (0, 1, 1, 0), has_zero=True, zero=0)


def _gz4():
    return core.make_matrix_family(core.zmod_semiring(4), 1, 3,
                                   gamma=_z2_with_zero(), gamma_scalars=(0, 2))


def families(workload: str) -> dict:
    """name -> (semiring built by the package constructors, relabelled?)."""
    if workload == "derived":
        return {
            "z12": (core.ternary_from_semiring(core.zmod_semiring(12)), False),
            "z16": (core.ternary_from_semiring(core.zmod_semiring(16)), False),
            "z6r": (core.ternary_from_semiring(core.zmod_semiring(6)), True),
        }
    if workload == "tables":
        return {
            "m2f2": (core.make_matrix_family(core.f2_semiring(), 2, 3), False),
            "m2b": (core.make_matrix_family(core.boolean_semiring(), 2, 2), False),
            "gz4": (_gz4(), False),
            "gz4r": (_gz4(), True),
        }
    raise ValueError(f"no generated inputs for workload {workload!r}")


def job_list(workload: str, policies: dict) -> list[dict]:
    if workload == "derived":
        def derived(op, fam, depth):
            return {"name": f"{op[:3]}_{fam}_d{depth}", "op": op, "semiring": fam,
                    "m": f"{fam}_reg", "n": f"{fam}_reg", "slots": [2, 0],
                    "depth": depth, "policy": policies[fam]}
        return [derived("ext_via_bar", "z12", 2), derived("tor_via_bar", "z16", 3),
                derived("ext_via_bar", "z6r", 2)]
    jobs = []
    for fam in families(workload):
        jobs += [
            {"name": f"all_ideals_{fam}", "op": "all_ideals", "semiring": fam},
            {"name": f"spectrum_{fam}", "op": "spectrum", "semiring": fam},
            {"name": f"linearize_{fam}", "op": "linearize_module", "m": f"{fam}_reg"},
        ]
    jobs.append({"name": "tensor_positional_gz4", "op": "tensor_positional",
                 "m": "gz4_reg", "n": "gz4_reg", "slots": [2, 0]})
    return jobs


def build(workload: str, seed: int) -> tuple[dict, list[dict]]:
    """The workload's workspace document and job list for one seed."""
    monoids, gammas, semirings, mods, policies = {}, {}, {}, {}, {}
    gamma_names = {}
    for fam, (s, relabel) in families(workload).items():
        n = s.T.size
        tperm = permutation(workload, seed, f"{fam}.T", n) if relabel else list(range(n))
        mperm = permutation(workload, seed, f"{fam}.M", n) if relabel else list(range(n))
        rs = relabel_semiring(s, tperm, name=fam)
        reg = relabel_module(modules.regular_bimodule(s), rs, tperm, mperm,
                             name=f"{fam}_reg")
        if s.gamma not in gamma_names:
            gamma_names[s.gamma] = f"g{len(gamma_names)}"
            gammas[gamma_names[s.gamma]] = s.gamma
        monoids[f"t_{fam}"] = rs.T
        monoids[f"m_{fam}"] = reg.M
        semirings[fam] = (rs, f"t_{fam}", gamma_names[s.gamma])
        mods[f"{fam}_reg"] = (reg, fam, f"m_{fam}")
        policies[fam] = relabel_policy(homology.default_policy(s), tperm)
    doc = workspace.workspace_document(monoids, gammas, semirings, mods)
    return doc, job_list(workload, policies)


def write(workload: str, seed: int, out: Path) -> None:
    doc, jobs = build(workload, seed)
    out.mkdir(parents=True, exist_ok=True)
    (out / "workspace.json").write_text(workspace.dump_document(doc), encoding="utf-8")
    (out / "jobs.json").write_text(json.dumps(jobs, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("derived", "tables"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    write(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
