"""Load-time validation proves each fact once.

Light's associativity test must return exactly the full triple scan's list,
a regular module must get the report its full walk gives, range checks over
distinct values must raise what an entry-by-entry scan raises, and loading
regular modules must walk no table beyond its semiring's own walk.
"""

import random
from collections import Counter
from itertools import product

import pytest
from test_axiom_engine import FAMILIES

from ngamma import core, modules, oracle
from ngamma.bundled import bundled_workspace
from ngamma.core import (
    FiniteAddMonoid, GammaSemigroup, GammaSemiringMorphism, NaryGammaSemiring,
    StructuralError, boolean_semiring, f2_semiring,
    _relabel_monoid, make_matrix_family, trivial_gamma, validate_semiring, zmod_semiring,
)
from ngamma.modules import BiGammaModule, regular_bimodule, validate_module, walk_module
from ngamma.workspace import Workspace, merge_document, workspace_document


# ---------------------------------------------------------------------------
# Light's test
# ---------------------------------------------------------------------------

def _full_scan(m):
    """The monoid laws scanned over every pair and triple."""
    r = range(m.size)
    return ([("add-commutativity", (a, b)) for a in r for b in r
             if m.add(a, b) != m.add(b, a)]
            + [("add-associativity", (a, b, c)) for a in r for b in r for c in r
               if m.add(m.add(a, b), c) != m.add(a, m.add(b, c))]
            + [("add-zero", (a,)) for a in r if m.add(m.zero, a) != a])


def _associative_table(rng, size):
    """(addition table, identity) of an associative operation on range(size)."""
    kind = rng.choice(["cyclic", "max", "min", "capped", "left-zero"])
    if kind == "cyclic":
        return [(a + b) % size for a in range(size) for b in range(size)], 0
    if kind == "max":
        return [max(a, b) for a in range(size) for b in range(size)], 0
    if kind == "min":
        return [min(a, b) for a in range(size) for b in range(size)], size - 1
    if kind == "capped":
        return [min(a + b, size - 1) for a in range(size) for b in range(size)], 0
    # A left-zero band with an identity adjoined: associative, not commutative.
    return [b if a == 0 else a for a in range(size) for b in range(size)], 0


def _random_monoid_table(rng):
    size = rng.randint(1, 7)
    kind = rng.choice(["random", "associative", "mutated", "bad zero"])
    if kind == "random":
        return size, [rng.randrange(size) for _ in range(size * size)], rng.randrange(size)
    table, zero = _associative_table(rng, size)
    if kind == "mutated":
        table[rng.randrange(size * size)] = rng.randrange(size)
    elif kind == "bad zero":
        zero = rng.randrange(size)
    perm = list(range(size))
    rng.shuffle(perm)
    relabelled, _ = _relabel_monoid(FiniteAddMonoid(size, tuple(table), zero), perm)
    return size, relabelled.add_table, relabelled.zero


def test_light_test_returns_the_full_scan():
    rng = random.Random("light-test")
    kinds = Counter()
    for _ in range(500):
        size, table, zero = _random_monoid_table(rng)
        m = FiniteAddMonoid(size, tuple(table), zero)
        expected = _full_scan(m)
        assert m.validate() == expected, (size, table, zero)
        kinds.update({kind for kind, _ in expected} or {"lawful"})
    assert min(kinds[k] for k in ("lawful", "add-commutativity", "add-associativity",
                                  "add-zero")) >= 20, kinds


# ---------------------------------------------------------------------------
# Regular modules inherit their semiring's verdict
# ---------------------------------------------------------------------------

REGULAR_FAMILIES = {
    **FAMILIES,
    "f2_binary": f2_semiring(),
    "z4_binary": zmod_semiring(4),
    "f2_quaternary": make_matrix_family(f2_semiring(), 1, 4),
    "m2b_binary": make_matrix_family(boolean_semiring(), 2, 2),
    "m2f2_ternary": make_matrix_family(f2_semiring(), 2, 3),
}
# Mutants whose module fails additivity are walked over every word, so the
# large families get none.
MUTANTS = {"f2_ternary": 8, "boolean_ternary": 8, "z4_ternary": 8, "f2_binary": 4,
           "z4_binary": 8, "f2_quaternary": 8, "m2f2_binary": 4, "m2b_binary": 4}


def _copies(b):
    """b, and b with its monoid and tables rebuilt as equal new objects."""
    m = FiniteAddMonoid(b.M.size, tuple(b.M.add_table), b.M.zero)
    return [b, BiGammaModule(b.parent, m, tuple(tuple(t) for t in b.act_tables))]


def test_regular_module_report_equals_full_walk():
    mods = list(bundled_workspace().modules.values())
    for family, s in REGULAR_FAMILIES.items():
        rng = random.Random(f"regular-inherits/{family}")
        semirings = [s] + [oracle.mutate_semiring(s, rng) for _ in range(MUTANTS.get(family, 0))]
        mods += [b for t in semirings for b in _copies(regular_bimodule(t))]
    failing = 0
    for b in mods:
        report = validate_module(b)
        assert report == walk_module(b), b.name
        failing += not report.ok
        if b.M == b.parent.T and all(t == b.parent.mu_table for t in b.act_tables):
            assert report.ok == validate_semiring(b.parent).ok, b.name
    assert failing >= 10


# ---------------------------------------------------------------------------
# Range checks over distinct values
# ---------------------------------------------------------------------------

def _build(kind, entry):
    """Construct a structure of ``kind`` whose first entry is ``entry``."""
    z2 = FiniteAddMonoid(2, (0, 1, 1, 0))
    f2 = f2_semiring()
    if kind == "monoid":
        return FiniteAddMonoid(2, (entry, 1, 1, 0))
    if kind == "gamma":
        return GammaSemigroup(2, (entry, 1, 1, 0))
    if kind == "semiring":
        return NaryGammaSemiring(2, z2, trivial_gamma(), (entry, 0, 0, 1))
    if kind == "morphism":
        return GammaSemiringMorphism(f2, f2, (entry, 1))
    return BiGammaModule(f2, z2, ((entry, 0, 0, 1), f2.mu_table))


MESSAGES = {"monoid": "addition table entry out of range",
            "gamma": "parameter addition entry out of range",
            "semiring": "mu table entry out of range",
            "morphism": "morphism value out of range",
            "module": "slot 1 action entry out of range"}


@pytest.mark.parametrize("kind", MESSAGES)
@pytest.mark.parametrize("entry", [-1, 2, 5, True, False, float("nan"), 1.0])
def test_range_check_raises_as_an_entry_scan(kind, entry):
    if not 0 <= entry < 2:
        with pytest.raises(StructuralError) as err:
            _build(kind, entry)
        assert str(err.value) == MESSAGES[kind]
    else:
        _build(kind, entry)


def test_range_check_meets_entries_in_table_order():
    with pytest.raises(StructuralError):
        FiniteAddMonoid(1, (True,))
    FiniteAddMonoid(1, (False,))
    with pytest.raises(StructuralError):
        FiniteAddMonoid(2, (5, "x", 1, 0))
    with pytest.raises(TypeError):
        FiniteAddMonoid(2, ("x", 5, 1, 0))
    with pytest.raises(TypeError):
        FiniteAddMonoid(2, ([0], 1, 1, 0))


# ---------------------------------------------------------------------------
# Loading regular modules walks no table twice
# ---------------------------------------------------------------------------

def _regular_document(with_modules):
    fams = {name: REGULAR_FAMILIES[name] for name in
            ("f2_ternary", "z4_ternary", "m2f2_binary", "gamma_scaled_z4", "f2_quaternary")}
    gammas = {f"g_{name}": s.gamma for name, s in fams.items()}
    monoids = {f"m_{name}": s.T for name, s in fams.items()}
    semirings = {name: (s, f"m_{name}", f"g_{name}") for name, s in fams.items()}
    regs = {f"{name}_reg": (regular_bimodule(s), name, f"m_{name}")
            for name, s in fams.items()} if with_modules else None
    return workspace_document(monoids, gammas, semirings, regs)


def _walk_counts(monkeypatch, count_calls, doc):
    calls = count_calls((core, modules), "table_failures", "first_incoherent_word")
    ws = merge_document(Workspace(), doc)
    monkeypatch.undo()
    return calls, ws


def test_loading_regular_modules_walks_only_the_semirings(monkeypatch, count_calls):
    with_modules, ws = _walk_counts(monkeypatch, count_calls, _regular_document(True))
    alone, _ = _walk_counts(monkeypatch, count_calls, _regular_document(False))
    assert len(ws.modules) == 5
    assert alone["table_failures"] > 0 and alone["first_incoherent_word"] > 0
    assert with_modules == alone


# ---------------------------------------------------------------------------
# Each load-time check once
# ---------------------------------------------------------------------------

def test_one_element_modules_report_as_their_walk():
    for family, s in REGULAR_FAMILIES.items():
        rng = random.Random(f"one-element/{family}")
        for t in [s] + [oracle.mutate_semiring(s, rng) for _ in range(4)]:
            b = modules.zero_module(t)
            assert b.M.size == 1
            assert validate_module(b) == walk_module(b), (family, t.name)


def _load_counts(monkeypatch, count_calls):
    calls = count_calls(modules, "walk_module", "_equivariance_failure")
    ws = bundled_workspace()
    monkeypatch.undo()
    return calls, ws


def test_bundled_load_checks_each_module_and_morphism_once(monkeypatch, count_calls):
    calls, ws = _load_counts(monkeypatch, count_calls)
    # Only the ideal submodule, the quotient and the direct sum have a
    # carrier of more than one element that is not the regular module's.
    assert calls["walk_module"] == 3
    # The conflations reuse their legs' reports.
    assert calls["_equivariance_failure"] == len(ws.module_morphisms) == 4
    assert _load_counts(monkeypatch, count_calls)[0] == calls


def test_regular_bimodule_skips_the_range_scan_of_its_tables(monkeypatch):
    scanned = []

    def recording(values, size):
        scanned.append(values)
        return core.out_of_range(values, size)

    monkeypatch.setattr(modules, "out_of_range", recording)
    for s in REGULAR_FAMILIES.values():
        b = regular_bimodule(s)
        assert all(t is s.mu_table for t in b.act_tables)
        assert not any(v is s.mu_table for v in scanned), s.name
    # An equal table that is another object is still scanned.
    s = REGULAR_FAMILIES["z4_ternary"]
    copy = tuple(list(s.mu_table))
    BiGammaModule(s, s.T, (copy,) * s.n)
    assert any(v is copy for v in scanned)


def _over_one_element(n, gamma, rng, kind):
    """A two-element module over one-element T: every action zero, every
    action nonzero, or slot 1 zero and the others random with a nonzero last
    entry."""
    t = FiniteAddMonoid(1, (0,))
    s = NaryGammaSemiring(n, t, gamma, (0,) * gamma.size ** (n - 1))
    cells = 2 * gamma.size ** (n - 1)
    pick = {"zero": lambda j, k: 0, "nonzero": lambda j, k: 1,
            "mixed": lambda j, k: j and (k == cells - 1 or rng.randrange(2))}[kind]
    tables = tuple(tuple(int(pick(j, k)) for k in range(cells)) for j in range(n))
    return BiGammaModule(s, FiniteAddMonoid(2, (0, 1, 1, 0)), tables)


def test_modules_over_one_element_report_as_their_walk():
    rng = random.Random("one-element-carrier")
    gammas = [trivial_gamma(), GammaSemigroup(2, (0, 1, 1, 0), True, 0)]
    verdicts = Counter()
    for n in range(2, 7):
        for gamma in gammas:
            for kind in ("zero", "nonzero", "mixed"):
                b = _over_one_element(n, gamma, rng, kind)
                report = validate_module(b)
                assert report == walk_module(b), (n, gamma.size, kind)
                verdicts[kind, report.ok] += 1
    assert verdicts == {("zero", True): 10, ("nonzero", False): 10, ("mixed", False): 10}


def test_zero_actions_over_one_element_walk_no_word(count_calls):
    calls = count_calls(modules, "first_incoherent_word")
    b = _over_one_element(200, trivial_gamma(), None, "zero")
    assert validate_module(b).ok
    assert calls["first_incoherent_word"] == 0


def _table_failures_reference(table, monoids, value, additive=(), absorbing=()):
    """``core.table_failures`` as it was before its strides were suffix
    products computed once per call: each position multiplies its own."""
    from math import prod
    sizes = [m.size for m in monoids]
    vadd, vsize, vzero = value.add_table, value.size, value.zero

    def walk(p, pairs, stride):
        block = monoids[p].size * stride
        for hi in range(0, len(table), block):
            for base in range(hi, hi + stride):
                row = table[base:base + block:stride]
                for x, y, xy in pairs:
                    if row[xy] != vadd[row[x] * vsize + row[y]]:
                        yield (p, x, y, core.unflatten_index(base + x * stride, sizes))

    for p in additive:
        m = monoids[p]
        gamma = isinstance(m, GammaSemigroup)
        stride = prod(sizes[p + 1:])
        if not gamma and not m.validate() and not value.validate():
            gens = (m.zero, *m.additive_generators())
            short = [(x, y, m.add(x, y)) for x in range(m.size) for y in gens]
            if next(walk(p, short, stride), None) is None:
                continue
        pairs = [(x, y, m.add(x, y)) for x in range(m.size) for y in range(m.size)
                 if not (gamma and core._skip_gamma_pair(m, x, y))]
        yield from walk(p, pairs, stride)
    for p in absorbing:
        m = monoids[p]
        if isinstance(m, GammaSemigroup) and not m.has_zero:
            continue
        stride = prod(sizes[p + 1:])
        block = m.size * stride
        for hi in range(0, len(table), block):
            for base in range(hi + m.zero * stride, hi + (m.zero + 1) * stride):
                if table[base] != vzero:
                    yield (p, core.unflatten_index(base, sizes))


def _small_monoid(rng):
    size = rng.randint(1, 3)
    if rng.random() < 0.25:
        table = [rng.randrange(size) for _ in range(size * size)]
        return FiniteAddMonoid(size, tuple(table), rng.randrange(size))
    table, zero = _associative_table(rng, size)
    return FiniteAddMonoid(size, tuple(table), zero)


def test_table_failures_strides_match_the_per_position_products():
    rng = random.Random("table-failures-strides")
    kinds = Counter()
    for _ in range(300):
        arity = rng.randint(2, 6)
        monoids = []
        for _ in range(arity):
            if rng.random() < 0.3:
                size = rng.randint(1, 2)
                has_zero = rng.random() < 0.5
                monoids.append(GammaSemigroup(
                    size, tuple((a + b) % size if rng.random() < 0.5 else max(a, b)
                                for a in range(size) for b in range(size)),
                    has_zero, 0 if has_zero else None))
            else:
                monoids.append(_small_monoid(rng))
        value = _small_monoid(rng)
        cells = 1
        for m in monoids:
            cells *= m.size
        kind = rng.choice(["zero", "random", "sparse"])
        table = [value.zero] * cells
        if kind != "zero":
            for c in (range(cells) if kind == "random" else
                      rng.sample(range(cells), min(cells, 2))):
                table[c] = rng.randrange(value.size)
        law = {"additive": rng.sample(range(arity), rng.randint(0, arity)),
               "absorbing": rng.sample(range(arity), rng.randint(0, arity))}
        got = list(core.table_failures(table, monoids, value, **law))
        assert got == list(_table_failures_reference(table, monoids, value, **law))
        kinds[kind, bool(got)] += 1
    assert kinds[("zero", False)] and kinds[("random", True)] and kinds[("sparse", True)]
    # A failing module of arity 60: every slot table under every table law.
    b = _over_one_element(60, trivial_gamma(), random.Random(60), "mixed")
    assert not validate_module(b).ok
    found = 0
    for _axiom, law in modules._TABLE_LAWS:
        for j, table in enumerate(b.act_tables):
            args = (table, b._layout(j), b.M)
            got = list(core.table_failures(*args, **law(60, j)))
            assert got == list(_table_failures_reference(*args, **law(60, j)))
            found += len(got)
    assert found


def test_table_failures_reads_no_row_of_a_position_without_pairs():
    # Over a one-element parameter semigroup every parameter pair is an
    # exempt idempotent self-sum, so those positions have nothing to compare.
    reads = []

    class Table(tuple):
        def __getitem__(self, i):
            reads.append(i)
            return super().__getitem__(i)

    s = core.ternary_from_semiring(zmod_semiring(4))
    assert s.gamma.size == 1
    monoids = [s.T] * 3 + [s.gamma] * 2
    table = Table(s.mu_table)
    assert list(core.table_failures(table, monoids, s.T, additive=(3, 4))) == []
    assert reads == []
    assert list(core.table_failures(table, monoids, s.T, additive=(2,))) == []
    assert reads


def _first_incoherent_word_reference(s, words, p=None, act_tables=(), msize=0):
    """``core.first_incoherent_word`` as it was before its strides were
    suffix products computed once per layout: each letter multiplies the
    sizes after it."""
    from math import prod
    from operator import mul
    n, tsize, gsize = s.n, s.T.size, s.gamma.size
    gblock = gsize ** (n - 1)

    def layout(j):
        esizes = [msize if q == j else tsize for q in range(n)]
        table = s.mu_table if j is None else act_tables[j]
        return table, [prod(esizes[q + 1:]) * gblock for q in range(n)]

    plan = []
    for i in range(n):
        if p is None:
            j_in = j_out = None
        elif i <= p < i + n:
            j_in, j_out = p - i, i
        else:
            j_in, j_out = None, p if p < i else p - n + 1
        t_in, st_in = layout(j_in)
        t_out, st_out = layout(j_out)
        inner = [0] * i + st_in + [0] * (n - 1 - i)
        outer = st_out[:i] + [0] * n + st_out[i + 1:]
        plan.append((t_in, inner, t_out, outer, st_out[i]))
    gsizes = [gsize] * (n - 1)
    gwords = [(gs, [(core.flatten_index(gs[i:i + n - 1], gsizes),
                     core.flatten_index(gs[:i] + gs[i + n - 1:], gsizes))
                    for i in range(n)])
              for gs in product(range(gsize), repeat=2 * n - 2)]
    for xs in words:
        rows = [(t_in, sum(map(mul, xs, inner)), t_out, sum(map(mul, xs, outer)), st_mid)
                for t_in, inner, t_out, outer, st_mid in plan]
        for gs, offs in gwords:
            vals = [t_out[e_out + t_in[e_in + g_in] * st_mid + g_out]
                    for (t_in, e_in, t_out, e_out, st_mid), (g_in, g_out) in zip(rows, offs)]
            if vals.count(vals[0]) != n:
                return xs, gs, vals
    return None


def test_word_strides_match_the_per_letter_products():
    # Modules over one-element tables: all-one actions pass every word, mixed
    # ones fail some.  Each letter position of the module element is tried
    # at the ends and the middle of the word, and the carrier-only words too.
    rng = random.Random("word-strides")
    outcomes = Counter()
    for n in range(2, 61):
        for kind in ("nonzero", "mixed"):
            b = _over_one_element(n, trivial_gamma(), rng, kind)
            s = b.parent
            regular = (0, (s.mu_table,) * n, s.T.size)
            assert core.first_incoherent_word(s, [(0,) * (2 * n - 1)], *regular) == \
                _first_incoherent_word_reference(s, [(0,) * (2 * n - 1)])
            for p in sorted({0, n - 1, 2 * n - 2}):
                words = [(0,) * p + (m,) + (0,) * (2 * n - 2 - p) for m in (0, 1)]
                args = (s, words, p, b.act_tables, 2)
                got = core.first_incoherent_word(*args)
                assert got == _first_incoherent_word_reference(*args), (n, kind, p)
                outcomes[kind, got is None] += 1
    assert outcomes[("nonzero", True)] and outcomes[("mixed", False)]


def _one_cell_changed(table, rng, size):
    table = list(table)
    pos = rng.randrange(len(table))
    table[pos] = (table[pos] + 1 + rng.randrange(size - 1)) % size
    return tuple(table)


def test_word_offsets_match_the_reference_on_larger_tables():
    # Carriers and parameter sets of more than one element, every word over
    # the carrier, the module letter at every place, and tables with one
    # cell changed so that some words fail and their witnesses are compared.
    rng = random.Random("word-offsets")
    outcomes = Counter()
    gamma = GammaSemigroup(2, (0, 1, 1, 0), True, 0)
    # Random tables read their parameters in no symmetric way.
    randoms = [NaryGammaSemiring(n, FiniteAddMonoid(2, (0, 1, 1, 0)), gamma,
                                 tuple(rng.randrange(2) for _ in range(2 ** (2 * n - 1))))
               for n in (2, 3, 3, 4)]
    for base in randoms + [REGULAR_FAMILIES[name] for name in (
            "z4_ternary", "gamma_scaled_z4", "f2_quaternary", "z4_binary", "m2f2_binary")]:
        name = base.name
        words = list(product(range(base.T.size), repeat=2 * base.n - 1))
        for trial in range(3):
            mu = _one_cell_changed(base.mu_table, rng, base.T.size) if trial else base.mu_table
            s = NaryGammaSemiring(base.n, base.T, base.gamma, mu)
            got = core.first_incoherent_word(s, words, 0, (mu,) * s.n, s.T.size)
            assert got == _first_incoherent_word_reference(s, words), (name, trial)
            outcomes[got is None] += 1
            tables = [base.mu_table] * base.n
            if trial:
                j = rng.randrange(base.n)
                tables[j] = _one_cell_changed(tables[j], rng, base.T.size)
            for p in range(2 * base.n - 1):
                args = (base, words, p, tuple(tables), base.T.size)
                got = core.first_incoherent_word(*args)
                assert got == _first_incoherent_word_reference(*args), (name, trial, p)
                outcomes[got is None] += 1
    assert outcomes[True] and outcomes[False]


def test_module_walk_builds_its_parameter_words_once(monkeypatch, count_calls):
    # The 2n-1 letter positions of one coherence walk share one list of
    # parameter words, and the verdicts are those of a walk whose every
    # position builds its own.
    search = core.first_incoherent_word
    built = count_calls((core, modules), "parameter_words")
    searched = count_calls(modules, "first_incoherent_word")
    s = REGULAR_FAMILIES["gamma_scaled_z4"]
    assert s.n == 3 and s.gamma.size > 1
    b = regular_bimodule(s)
    for gens_only in (True, False):
        built.clear(), searched.clear()
        shared = modules._check_module_words(b, gens_only)
        assert shared.ok
        assert built["parameter_words"] == 1
        assert searched["first_incoherent_word"] == 2 * s.n - 1
        built.clear()
        with monkeypatch.context() as m:
            m.setattr(modules, "first_incoherent_word",
                      lambda *args: search(*args[:5]))
            assert modules._check_module_words(b, gens_only) == shared
        # The walk's own list, then one per position that drops it.
        assert built["parameter_words"] == 1 + (2 * s.n - 1)


def _multiplicativity_scan(f):
    """The first (xs, gs) in table order with f(mu(xs; gs)) != mu(f(xs); gs)."""
    s, t = f.source, f.target
    return next(((xs, gs) for xs in s.t_tuples(s.n) for gs in s.g_tuples(s.n - 1)
                 if f(s.mu(xs, gs)) != t.mu(tuple(f(x) for x in xs), gs)), None)


def test_morphism_multiplicativity_witness_is_the_tuple_scans():
    fams = [REGULAR_FAMILIES[name] for name in
            ("f2_ternary", "boolean_ternary", "z4_ternary", "f2_binary", "z4_binary",
             "f2_quaternary")]
    rng = random.Random("morphism-strides")
    failing = passing = 0
    for s in fams:
        for t in fams:
            if s.n != t.n or s.gamma != t.gamma:
                continue
            targets = [t] + [oracle.mutate_semiring(t, rng) for _ in range(3)]
            for target in targets:
                for _ in range(6):
                    fmap = tuple(rng.randrange(target.T.size) for _ in range(s.T.size))
                    f = GammaSemiringMorphism(s, target, fmap)
                    want = _multiplicativity_scan(f)
                    mul = core.validate_morphism(f).checks[1]
                    assert mul.axiom == "morphism multiplicativity"
                    assert (mul.ok, mul.witness) == (want is None, want), (s.name, fmap)
                    failing += want is not None
                    passing += want is None
    assert failing >= 20 and passing >= 10, (failing, passing)
