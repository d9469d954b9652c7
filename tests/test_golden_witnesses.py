"""Axiom reports of the mutation fixtures pinned check by check.

``golden_witnesses.json`` maps each semiring, module and module morphism
mutant that ``test_axiom_engine.py`` draws, plus the hand-built cases below,
to its full report: one ``[axiom, ok, witness]`` per check, in report order.
A change to a check that moves any verdict or first witness fails here.
After an intended change, regenerate the file with

    PYTHONPATH=src python tests/test_golden_witnesses.py
"""

import json
from pathlib import Path

import pytest
from test_axiom_engine import (
    MODULE_MUTANTS, SEMIRING_MUTANTS, module_mutants, morphism_mutants,
    semiring_mutants,
)

from ngamma.core import (
    FiniteAddMonoid, NaryGammaSemiring, trivial_gamma, validate_semiring,
)
from ngamma.modules import build_module, validate_module, validate_module_morphism

GOLDEN = Path(__file__).with_name("golden_witnesses.json")


# Commutative with a zero but not associative: (1+1)+2 = 0, 1+(1+2) = 1.
M3 = FiniteAddMonoid(3, (0, 1, 2, 1, 2, 0, 2, 0, 0), 0)
Z3 = FiniteAddMonoid(3, (0, 1, 2, 1, 2, 0, 2, 0, 1), 0)
LAW_BREAKING = {"nonassociative value monoid": (Z3, M3),
                "nonassociative carrier monoid": (M3, Z3)}


def carrier_module(t, m):
    """A binary semiring on ``t`` with zero products, acting on ``m`` by t.

    Every slot table sends (x, t) to t read as an element of m.  With one of
    Z/3 and M3 as t and the other as m, that map is additive against the
    generator 1 but not against 2 (2+2 is 1 in Z/3 and 0 in M3).  Only the
    full pair walk sees that, because the argument over generators needs both
    monoids to be associative.
    """
    s = NaryGammaSemiring(2, t, trivial_gamma(), (t.zero,) * t.size ** 2)
    return build_module(s, m, lambda j, tother, x, gs: tother[0])


def cases():
    """name -> thunk returning an AxiomReport."""
    out = {}
    for family in SEMIRING_MUTANTS:
        for i, s in enumerate(semiring_mutants(family)):
            out[f"semiring {family} {i}"] = lambda s=s: validate_semiring(s)
    for family in MODULE_MUTANTS:
        for i, b in enumerate(module_mutants(family)):
            out[f"module {family} {i}"] = lambda b=b: validate_module(b)
    for i, f in enumerate(morphism_mutants()):
        out[f"module morphism {i}"] = lambda f=f: validate_module_morphism(f)
    for name, (t, m) in LAW_BREAKING.items():
        out[f"module {name}"] = lambda t=t, m=m: validate_module(carrier_module(t, m))
    return out


def report_rows(report):
    """JSON form of a report: tuples become lists, as json.dumps writes them."""
    return json.loads(json.dumps([[c.axiom, c.ok, c.witness] for c in report.checks]))


def test_reports_match_golden_witnesses():
    golden = json.loads(GOLDEN.read_text())
    todo = cases()
    assert list(golden) == list(todo)
    changed = [name for name, thunk in todo.items() if report_rows(thunk()) != golden[name]]
    assert changed == []


@pytest.mark.parametrize("name", LAW_BREAKING)
def test_law_breaking_monoid_takes_full_scan(name):
    checks = {c.axiom: c for c in validate_module(carrier_module(*LAW_BREAKING[name])).checks}
    # slot 1, carrier position 1: f(2+2) != f(2)+f(2) with the module element 0
    assert checks["carrier-slot additivity"].witness == (1, 1, 2, 2, (0, 2, 0))


if __name__ == "__main__":
    rows = [f" {json.dumps(name)}: {json.dumps(report_rows(thunk()))}"
            for name, thunk in cases().items()]
    GOLDEN.write_text("{\n" + ",\n".join(rows) + "\n}\n")
