"""Mutation tests for the table-driven axiom checks.

Single-entry mutations of semiring and module tables and of module
morphism maps are checked against restatements of each axiom written here
directly with ``mu``/``act``, and every failing witness is re-evaluated to
show it really is a violation.  The recursive bracketing evaluator here is
the reference for the engine's stride walk over words.  The families cover
a non-commutative binary carrier (M2(F2)) and a parameter semigroup with a
zero and an idempotent self-sum (the Gamma-scaled Z/4).
"""

import random
from functools import lru_cache
from itertools import product

import pytest

from ngamma import oracle
from ngamma.bundled import bundled_workspace
from ngamma.core import (
    GammaSemigroup, bundled_semirings, check_flattened_associativity, f2_semiring,
    gamma_scaled_z4, make_matrix_family, validate_semiring,
)
from ngamma.modules import (
    BiGammaModule, ModuleMorphism, _check_module_words, regular_bimodule,
    validate_module, validate_module_morphism,
)


FAMILIES = {**bundled_semirings(), "m2f2_binary": make_matrix_family(f2_semiring(), 2, 2),
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
    vals = _word_values(act or b.act, mu or b.parent.mu, b.parent.n, _tokens(p, ts, m), gs)
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


def module_mutants(family):
    reg = regular_bimodule(FAMILIES[family])
    rng = random.Random(f"module-mutation/{family}")
    return [_mutate_slot_table(reg, rng) for _ in range(MODULE_MUTANTS[family])]


@pytest.mark.parametrize("family", sorted(MODULE_MUTANTS))
def test_module_mutations_match_direct_restatement(family):
    assert validate_module(regular_bimodule(FAMILIES[family])).ok
    failed = set()
    for b in module_mutants(family):
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
# Module morphisms
# ---------------------------------------------------------------------------

MORPHISM_MUTANTS = 6


def morphism_mutants():
    """Single-entry changes of each bundled module morphism's map."""
    ws = bundled_workspace()
    rng = random.Random("morphism-mutation")
    out = []
    for name in sorted(ws.module_morphisms):
        f = ws.module_morphisms[name]
        for _ in range(MORPHISM_MUTANTS):
            vals = list(f.map)
            pos = rng.randrange(len(vals))
            new = rng.randrange(f.target.M.size - 1)
            vals[pos] = new + (new >= vals[pos])
            out.append(ModuleMorphism(f.source, f.target, tuple(vals)))
    return out


def _equivariance_witness(f):
    """The first (slot, tother, m, gs) breaking equivariance, in act calls."""
    src, dst = f.source, f.target
    s = src.parent
    return next(((j + 1, tother, m, gs) for j in range(s.n)
                 for tother in product(range(s.T.size), repeat=s.n - 1)
                 for gs in product(range(s.gamma.size), repeat=s.n - 1)
                 for m in range(src.M.size)
                 if f(src.act(j, tother, m, gs)) != dst.act(j, tother, f(m), gs)), None)


def test_morphism_mutations_match_direct_restatement():
    witnesses = []
    for f in morphism_mutants():
        check = validate_module_morphism(f).checks[1]
        assert check.axiom == "morphism equivariance"
        wit = _equivariance_witness(f)
        assert (check.ok, check.witness) == (wit is None, wit)
        witnesses.append(check.witness)
    assert any(witnesses)


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


SEMIRING_MUTANTS = {"m2f2_binary": 30, "gamma_scaled_z4": 12}


def semiring_mutants(family):
    rng = random.Random(f"semiring-mutation/{family}")
    return [oracle.mutate_semiring(FAMILIES[family], rng)
            for _ in range(SEMIRING_MUTANTS[family])]


@pytest.mark.parametrize("family,count", SEMIRING_MUTANTS.items())
def test_semiring_mutations_match_oracle(family, count):
    base = FAMILIES[family]
    assert validate_semiring(base).ok and not oracle.naive_axiom_failures(base)
    seen = set()
    for s in semiring_mutants(family):
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


# ---------------------------------------------------------------------------
# Bracketing walks against the recursive evaluator
# ---------------------------------------------------------------------------

def _tokens(p, ts, m):
    return tuple(("t", t) for t in ts[:p]) + (("m", m),) + tuple(("t", t) for t in ts[p:])


def _reference_flattened_associativity(s, generators_only):
    """check_flattened_associativity as a recursive walk over token words."""
    gens = s.T.additive_generators() if generators_only else list(s.T.elements())
    wlen = 2 * s.n - 1
    mu = lru_cache(maxsize=None)(s.mu)
    for xs in product(gens or [s.T.zero], repeat=wlen):
        for gs in product(range(s.gamma.size), repeat=wlen - 1):
            vals = _word_values(None, mu, s.n, tuple(("t", x) for x in xs), gs)
            for i, v in enumerate(vals):
                if v != vals[0]:
                    return (False, (xs, gs, 0, i, vals[0], v))
    return (True, None)


def _reference_module_words(b, generators_only):
    """The positional coherence check as a recursive walk over token words."""
    s = b.parent
    tgens = s.T.additive_generators() if generators_only else list(s.T.elements())
    mgens = b.M.additive_generators() if generators_only else list(range(b.M.size))
    wlen = 2 * s.n - 1
    act, mu = lru_cache(maxsize=None)(b.act), lru_cache(maxsize=None)(s.mu)
    for p in range(wlen):
        for ts in product(tgens or [s.T.zero], repeat=wlen - 1):
            for m in mgens or [b.M.zero]:
                for gs in product(range(s.gamma.size), repeat=wlen - 1):
                    vals = set(_word_values(act, mu, s.n, _tokens(p, ts, m), gs))
                    if len(vals) > 1:
                        return (False, (p, ts, m, gs, sorted(vals)))
    return (True, None)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_stride_word_walk_matches_recursive_reference(family):
    base = FAMILIES[family]
    rng = random.Random(f"word-walk/{family}")
    witnesses = []
    for s in [base] + [oracle.mutate_semiring(base, rng) for _ in range(10)]:
        for gens_only in (True, False):
            c = check_flattened_associativity(s, generators_only=gens_only)
            assert (c.ok, c.witness) == _reference_flattened_associativity(s, gens_only)
            witnesses.append(c.witness)
    for b in [regular_bimodule(base)] + module_mutants(family):
        for gens_only in (True, False):
            c = _check_module_words(b, generators_only=gens_only)
            assert (c.ok, c.witness) == _reference_module_words(b, gens_only)
            witnesses.append(c.witness)
    assert any(witnesses)  # some first witnesses were compared, not only passes
