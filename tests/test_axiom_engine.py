"""Mutation tests for the table-driven axiom checks.

Single-entry mutations of semiring and module tables are checked against
restatements of each axiom written here directly with ``mu``/``act``, and
every failing witness is re-evaluated to show it really is a violation.  The
families cover a non-commutative binary carrier (M2(F2)) and a parameter
semigroup with a zero and an idempotent self-sum (the Gamma-scaled Z/4).
"""

import random
from functools import lru_cache
from itertools import product

import pytest

from ngamma import oracle
from ngamma.core import (
    GammaSemigroup, bundled_semirings, f2_semiring, make_matrix_family,
    validate_semiring, zmod_semiring,
)
from ngamma.modules import BiGammaModule, regular_bimodule, validate_module


def m2f2_binary():
    return make_matrix_family(f2_semiring(), 2, 2)


def gamma_scaled_z4():
    z2 = GammaSemigroup(2, (0, 1, 1, 0), has_zero=True, zero=0)
    return make_matrix_family(zmod_semiring(4), 1, 3, gamma=z2, gamma_scalars=(0, 2))


FAMILIES = {**bundled_semirings(), "m2f2_binary": m2f2_binary(),
            "gamma_scaled_z4": gamma_scaled_z4()}


def _zero(monoid):
    if isinstance(monoid, GammaSemigroup):
        return monoid.zero if monoid.has_zero else None
    return monoid.zero


def _skip(monoid, x, y):
    # Idempotent self-sums of parameters are exempt from additivity.
    return isinstance(monoid, GammaSemigroup) and x == y and monoid.add(x, x) == x


def _monoid_law_failures(m):
    r = range(m.size)
    return (any(m.add(a, b) != m.add(b, a) for a in r for b in r)
            or any(m.add(m.add(a, b), c) != m.add(a, m.add(b, c))
                   for a in r for b in r for c in r))


# ---------------------------------------------------------------------------
# Modules
# ---------------------------------------------------------------------------

def _positions(b, j):
    """Monoid of each argument of slot j: module at j, carriers, parameters."""
    s = b.parent
    return [b.M if q == j else s.T for q in range(s.n)] + [s.gamma] * (s.n - 1)


def _act(b, j, args):
    n = b.parent.n
    return b.act(j, args[:j] + args[j + 1:n], args[j], args[n:])


def _replace(args, p, v):
    return args[:p] + (v,) + args[p + 1:]


def _additivity_holds(b, j, p, args, x, y):
    m = _positions(b, j)[p]
    lhs = _act(b, j, _replace(args, p, m.add(x, y)))
    return lhs == b.M.add(_act(b, j, _replace(args, p, x)),
                          _act(b, j, _replace(args, p, y)))


def _all_args(b, j):
    return product(*(range(m.size) for m in _positions(b, j)))


def _module_additivity_verdict(b, kind):
    """True when the law of ``kind`` holds, checked entry by entry with act."""
    n = b.parent.n
    for j in range(n):
        if kind == "module":
            ps = [j]
        elif kind == "carrier":
            ps = [q for q in range(n) if q != j]
        else:
            ps = list(range(n, 2 * n - 1))
        mons = _positions(b, j)
        for args in _all_args(b, j):
            for p in ps:
                for y in range(mons[p].size):
                    if _skip(mons[p], args[p], y):
                        continue
                    if not _additivity_holds(b, j, p, args, args[p], y):
                        return False
    return True


def _module_zero_verdict(b):
    for j in range(b.parent.n):
        mons = _positions(b, j)
        for args in _all_args(b, j):
            if any(_zero(m) == a for m, a in zip(mons, args)) and \
                    _act(b, j, args) != b.M.zero:
                return False
    return True


def _word_values(act, mu, n, tokens, gs):
    """Every bracketing of a word holding one module token ("m", value)."""
    vals = []
    for i in range(len(tokens) - n + 1):
        window = tokens[i:i + n]
        wgs = gs[i:i + n - 1]
        kinds = [k for k, _ in window]
        if "m" in kinds:
            j = kinds.index("m")
            others = tuple(v for q, (_, v) in enumerate(window) if q != j)
            val = ("m", act(j, others, window[j][1], wgs))
        else:
            val = ("t", mu(tuple(v for _, v in window), wgs))
        outer = tokens[:i] + (val,) + tokens[i + n:]
        outer_gs = gs[:i] + gs[i + n - 1:]
        if len(outer) == 1:
            vals.append(outer[0][1])
        else:
            vals.extend(_word_values(act, mu, n, outer, outer_gs))
    return vals


def _coherent(b, p, ts, m, gs, act=None, mu=None):
    tokens = tuple(("t", t) for t in ts[:p]) + (("m", m),) + \
        tuple(("t", t) for t in ts[p:])
    vals = _word_values(act or b.act, mu or b.parent.mu, b.parent.n, tokens, gs)
    return len(set(vals)) == 1


def _coherence_verdict(b):
    s = b.parent
    wlen = 2 * s.n - 1
    # Words share their windows, so memoizing the lookups saves most calls.
    act, mu = lru_cache(maxsize=None)(b.act), lru_cache(maxsize=None)(s.mu)
    return all(_coherent(b, p, ts, m, gs, act, mu)
               for p in range(wlen)
               for ts in product(range(s.T.size), repeat=wlen - 1)
               for m in range(b.M.size)
               for gs in product(range(s.gamma.size), repeat=wlen - 1))


def _recheck_module_witness(b, axiom, wit):
    """The witness of a failed module check re-evaluates to a violation."""
    if axiom == "module monoid laws":
        return
    if axiom == "positional coherence":
        p, ts, m, gs, _vals = wit
        assert not _coherent(b, p, ts, m, gs), wit
        return
    slot, *rest = wit
    j = slot - 1
    mons = _positions(b, j)
    if axiom == "zero absorption":
        p, args = rest
        assert args[p] == _zero(mons[p]) and _act(b, j, args) != b.M.zero, wit
        return
    p, x, y, args = rest
    n = b.parent.n
    in_scope = {"module additivity": p == j,
                "carrier-slot additivity": p < n and p != j,
                "parameter-slot additivity": p >= n}[axiom]
    assert in_scope and args[p] == x and not _skip(mons[p], x, y), wit
    assert not _additivity_holds(b, j, p, args, x, y), wit


def _mutate_slot_table(b, rng):
    j = rng.randrange(len(b.act_tables))
    table = list(b.act_tables[j])
    pos = rng.randrange(len(table))
    new = rng.randrange(b.M.size - 1)
    if new >= table[pos]:
        new += 1
    table[pos] = new
    tables = b.act_tables[:j] + (tuple(table),) + b.act_tables[j + 1:]
    return BiGammaModule(b.parent, b.M, tables, name=b.name + "*")


# A mutant that breaks additivity has its coherence checked on every word,
# here and in the engine; for the Gamma-scaled Z/4 that is 81,920 words
# (about 5 s), so it gets a single mutant.
MODULE_MUTANTS = {"f2_ternary": 20, "boolean_ternary": 20, "z4_ternary": 20,
                  "m2f2_binary": 10, "gamma_scaled_z4": 1}


@pytest.mark.parametrize("family", sorted(MODULE_MUTANTS))
def test_module_mutations_match_direct_restatement(family):
    reg = regular_bimodule(FAMILIES[family])
    assert validate_module(reg).ok
    rng = random.Random(f"module-mutation/{family}")
    failed = set()
    for _ in range(MODULE_MUTANTS[family]):
        b = _mutate_slot_table(reg, rng)
        report = validate_module(b)
        verdicts = {
            "module monoid laws": not _monoid_law_failures(b.M),
            "module additivity": _module_additivity_verdict(b, "module"),
            "carrier-slot additivity": _module_additivity_verdict(b, "carrier"),
            "parameter-slot additivity": _module_additivity_verdict(b, "parameter"),
            "zero absorption": _module_zero_verdict(b),
            "positional coherence": _coherence_verdict(b),
        }
        assert [c.axiom for c in report.checks] == list(verdicts)
        for c in report.checks:
            assert c.ok == verdicts[c.axiom], (family, c.axiom, c.witness)
            if not c.ok:
                assert c.witness is not None
                _recheck_module_witness(b, c.axiom, c.witness)
                failed.add(c.axiom)
    assert failed  # the witness checks above ran at least once


# ---------------------------------------------------------------------------
# Semirings
# ---------------------------------------------------------------------------

ORACLE_AXIOM = {
    "monoid-commutative": "additive monoid laws",
    "monoid-associative": "additive monoid laws",
    "monoid-zero": "additive monoid laws",
    "gamma-commutative": "parameter semigroup laws",
    "gamma-associative": "parameter semigroup laws",
    "slot-additivity": "T-slot additivity",
    "parameter-additivity": "parameter-slot additivity",
    "zero-absorption": "zero absorption",
    "gamma-zero-absorption": "zero absorption",
    "associativity": "flattened associativity",
}


def _recheck_semiring_witness(s, axiom, wit):
    """Re-evaluate a failed check's witness; returns its argument position."""
    n = s.n
    mons = [s.T] * n + [s.gamma] * (n - 1)

    def mu(args):
        return s.mu(args[:n], args[n:])

    if axiom == "zero absorption":
        p, args = wit
        assert args[p] == _zero(mons[p]) and mu(args) != s.T.zero, wit
        return p
    if axiom in ("T-slot additivity", "parameter-slot additivity"):
        p, x, y, args = wit
        assert (p < n) == (axiom == "T-slot additivity"), wit
        assert args[p] == x and not _skip(mons[p], x, y), wit
        lhs = mu(_replace(args, p, mons[p].add(x, y)))
        assert lhs != s.T.add(mu(args), mu(_replace(args, p, y))), wit
        return p
    if axiom == "flattened associativity":
        xs, gs = wit[:2]
        vals = {s.mu(xs[:i] + (s.mu(xs[i:i + n], gs[i:i + n - 1]),) + xs[i + n:],
                     gs[:i] + gs[i + n - 1:]) for i in range(n)}
        assert len(vals) > 1, wit
    return None


@pytest.mark.parametrize("family,count", [("m2f2_binary", 30), ("gamma_scaled_z4", 12)])
def test_semiring_mutations_match_oracle(family, count):
    base = FAMILIES[family]
    assert validate_semiring(base).ok and not oracle.naive_axiom_failures(base)
    rng = random.Random(f"semiring-mutation/{family}")
    seen = set()
    for _ in range(count):
        s = oracle.mutate_semiring(base, rng)
        report = validate_semiring(s)
        checks = {c.axiom: c for c in report.checks}
        broken = {ORACLE_AXIOM[kind] for kind, _ in oracle.naive_axiom_failures(s)}
        g = s.gamma
        if g.has_zero and any(g.add(g.zero, a) != a for a in range(g.size)):
            broken.add("parameter semigroup laws")  # a law the oracle leaves out
        for axiom, c in checks.items():
            if axiom == "flattened associativity" and checks["T-slot additivity"].ok \
                    and checks["additive monoid laws"].ok \
                    and not checks["zero absorption"].ok:
                # Generator words cover every word only when zeros absorb.
                continue
            assert c.ok == (axiom not in broken), (family, axiom, c.witness)
            if not c.ok:
                p = _recheck_semiring_witness(s, axiom, c.witness)
                seen.add((axiom, p is not None and p >= s.n))
        assert report.ok == (not broken)
    # Carrier and parameter positions both produce witnesses.
    assert {("T-slot additivity", False), ("zero absorption", False)} <= seen
    if base.gamma.has_zero:
        assert {("parameter-slot additivity", True), ("zero absorption", True)} <= seen
