"""Finite n-ary parameterized semirings as explicit tables.

The central object couples a finite additive commutative monoid T, a finite
commutative parameter semigroup G, and a total multiplication table

    mu : T^n x G^(n-1) -> T

All tables are dense and flattened row-major with the leftmost argument
slowest and the last parameter fastest; element identity is the integer index
into the table.  Structures are immutable after construction, so they can be
shared freely.
"""

from __future__ import annotations

from functools import cache
import itertools
from operator import and_, attrgetter, mul, xor


class StructuralError(ValueError):
    """Malformed table data (wrong dimensions, out-of-range indices).

    Distinct from an axiom violation: a structurally broken input cannot even
    be checked against the axioms.
    """


class BoundExceeded(RuntimeError):
    """An enumeration was refused because an instance exceeds its size bound."""


class SoundnessError(RuntimeError):
    """An internal algebraic consistency check failed.

    Raised when a construction that is supposed to be forced by the axioms of
    the input (a map descending to a quotient, d*d = 0, an anticommuting
    grid) does not hold for the instance at hand.
    """


class RegularityError(RuntimeError):
    """A tower is not a resolution on this instance.

    Raised when a bar or cofree tower has homology below its cut, or when
    the unit into a cofree module is not injective after completion: the
    instance fails a hypothesis the derived answer needs, so the tower is
    refused rather than read wrong.
    """


# Sets a member of a record in its ``__init__``, past ``Record.__setattr__``.
_set = object.__setattr__


class Record:
    """Base of the engine's frozen value records.

    A subclass lists its compared members in ``_fields``, in the order of
    its ``__init__`` parameters, and sets every member in that ``__init__``
    through ``_set``.  Equality and hashing read ``_fields`` through one
    ``operator.attrgetter`` made when the subclass is defined, and ``repr``
    shows them: two records are equal when they are of one class and their
    fields are equal, and a member outside ``_fields`` (a ``_memo`` filled
    on use, a presentation kept beside its group) takes no part.
    Assignment and deletion raise AttributeError.

    Every command runs in a process of its own, so class set-up is paid on
    each call: a record class builds no code when it is defined, and the
    engine imports neither ``inspect`` nor a class generator.
    """

    _fields: tuple[str, ...]

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def out_of_range(values, size: int) -> bool:
    """Whether some value is not an index into range(size).

    Each distinct value is compared once, in order of first occurrence, so
    the first value that fails or raises is the one an entry-by-entry scan
    would meet first; an unhashable value raises TypeError.
    """
    return not all(0 <= v < size for v in dict.fromkeys(values))


def flatten_index(indices, sizes) -> int:
    idx = 0
    for i, s in zip(indices, sizes):
        idx = idx * s + i
    return idx


def unflatten_index(idx: int, sizes) -> tuple[int, ...]:
    out = []
    for s in reversed(sizes):
        out.append(idx % s)
        idx //= s
    return tuple(reversed(out))


def congruence_closure(size: int, pairs, translate=None):
    """Smallest equivalence on range(size) containing ``pairs``.

    A union-find whose roots are the smallest members of their classes.  When
    ``translate`` is given, every pair (u, v) that merges two classes also
    queues the pairs ``translate(u, v)`` yields, so the result is closed under
    those translations.  Returns (class_of, reps): classes are numbered in
    increasing order of their smallest member and reps[c] is that member.
    """
    parent = list(range(size))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    work = list(pairs)
    while work:
        u, v = work.pop()
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        parent[max(ru, rv)] = min(ru, rv)
        if translate is not None:
            work.extend(translate(u, v))
    class_of = [0] * size
    reps = []
    for x in range(size):
        root = find(x)
        if root == x:
            class_of[x] = len(reps)
            reps.append(x)
        else:
            class_of[x] = class_of[root]
    return class_of, reps


class FiniteAddMonoid(Record):
    """Commutative additive monoid given by a dense addition table."""

    _fields = ("size", "add_table", "zero")

    def __init__(self, size: int, add_table: tuple[int, ...], zero: int = 0):
        _set(self, "size", size)
        _set(self, "add_table", add_table)
        _set(self, "zero", zero)
        # Filled on first use by ``_remember``.  The dict is set at
        # construction because an attribute added to an instance later, as
        # cached_property adds one, slows attribute reads on every monoid
        # (CPython 3.11: the benchmark's job rounds ran 2-3% slower).
        _set(self, "_memo", {})
        if self.size < 1:
            raise StructuralError("monoid must be nonempty")
        if len(self.add_table) != self.size * self.size:
            raise StructuralError("addition table has wrong dimensions")
        if out_of_range(self.add_table, self.size):
            raise StructuralError("addition table entry out of range")
        if not (0 <= self.zero < self.size):
            raise StructuralError("zero index out of range")

    def add(self, a: int, b: int) -> int:
        return self.add_table[a * self.size + b]

    def sum(self, items) -> int:
        acc = self.zero
        for x in items:
            acc = self.add(acc, x)
        return acc

    def elements(self) -> range:
        return range(self.size)

    def validate(self) -> list[tuple[str, tuple]]:
        """Violations of commutativity, associativity, or the zero law."""
        return self._remember("laws", self._law_failures)

    def _remember(self, key: str, compute) -> list:
        """A copy of compute()'s list, computed once per monoid."""
        if key not in self._memo:
            self._memo[key] = tuple(compute())
        return list(self._memo[key])

    def _law_failures(self) -> list[tuple[str, tuple]]:
        """Every violation, commutativity then associativity then zero.

        Associativity is first tested by Light's test: G = zero and the
        additive generators generate the magma (``additive_closure`` closes
        under both orders from zero), and if (x+g)+y = x+(g+y) for all x, y
        and every g in G then the elements g with that property are closed
        under addition, so the addition is associative.  Only when the test
        fails are all triples scanned, so the list is the full scan's.
        """
        r = range(self.size)
        rows = [self.add_table[a * self.size:(a + 1) * self.size] for a in r]
        bad = [("add-commutativity", (a, b)) for a in r for b in r
               if rows[a][b] != rows[b][a]]
        if any(rows[row[g]] != tuple(map(row.__getitem__, rows[g]))
               for g in (self.zero, *self.additive_generators()) for row in rows):
            bad += [("add-associativity", (a, b, c)) for a in r for b in r for c in r
                    if rows[rows[a][b]][c] != rows[a][rows[b][c]]]
        bad += [("add-zero", (a,)) for a in r if rows[self.zero][a] != a]
        return bad

    def additive_closure(self, items) -> set[int]:
        closed = {self.zero, *items}
        frontier = list(closed)
        while frontier:
            a = frontier.pop()
            for b in list(closed):
                for c in (self.add(a, b), self.add(b, a)):
                    if c not in closed:
                        closed.add(c)
                        frontier.append(c)
        return closed

    def additive_generators(self) -> list[int]:
        """A small generating set, greedily chosen in index order."""
        return self._remember("gens", self._generators)

    def _generators(self) -> list[int]:
        gens: list[int] = []
        closure = {self.zero}
        for x in range(self.size):
            if x in closure:
                continue
            gens.append(x)
            closure = self.additive_closure(gens)
        return gens


class GammaSemigroup(Record):
    """Commutative parameter semigroup; a zero is optional and flagged.

    ``zero`` is None exactly when ``has_zero`` is false, so two semigroups
    with one table and no zero are equal."""

    _fields = ("size", "add_table", "has_zero", "zero")

    def __init__(self, size: int, add_table: tuple[int, ...], has_zero: bool = False,
                 zero: int | None = None):
        _set(self, "size", size)
        _set(self, "add_table", add_table)
        _set(self, "has_zero", has_zero)
        _set(self, "zero", zero)
        if self.size < 1:
            raise StructuralError("parameter semigroup must be nonempty")
        if len(self.add_table) != self.size * self.size:
            raise StructuralError("parameter addition table has wrong dimensions")
        if out_of_range(self.add_table, self.size):
            raise StructuralError("parameter addition entry out of range")
        if self.has_zero and (self.zero is None or not 0 <= self.zero < self.size):
            raise StructuralError("flagged zero is missing or out of range")
        if not self.has_zero and self.zero is not None:
            raise StructuralError("a zero is given but not flagged")

    def add(self, a: int, b: int) -> int:
        return self.add_table[a * self.size + b]

    def elements(self) -> range:
        return range(self.size)

    def validate(self) -> list[tuple[str, tuple]]:
        bad = []
        for a in range(self.size):
            for b in range(self.size):
                if self.add(a, b) != self.add(b, a):
                    bad.append(("gamma-commutativity", (a, b)))
                for c in range(self.size):
                    if self.add(self.add(a, b), c) != self.add(a, self.add(b, c)):
                        bad.append(("gamma-associativity", (a, b, c)))
        if self.has_zero:
            for a in range(self.size):
                if self.add(self.zero, a) != a:
                    bad.append(("gamma-zero", (a,)))
        return bad


class NaryGammaSemiring(Record):
    """T, G and the full multiplication table mu : T^n x G^(n-1) -> T."""

    _fields = ("n", "T", "gamma", "mu_table", "name")

    def __init__(self, n: int, T: FiniteAddMonoid, gamma: GammaSemigroup,
                 mu_table: tuple[int, ...], name: str = ""):
        _set(self, "n", n)
        _set(self, "T", T)
        _set(self, "gamma", gamma)
        _set(self, "mu_table", mu_table)
        _set(self, "name", name)
        # Holds the axiom report once ``validate_semiring`` has computed it;
        # set at construction, as ``FiniteAddMonoid._memo`` is.
        _set(self, "_memo", {})
        if self.n < 2:
            raise StructuralError("arity must be at least 2")
        # Unless T and Γ are both trivial, |T|^n |Γ|^(n-1) >= 2^(n-1): an arity
        # past the table length's bit length is refused before forming powers.
        if self.T.size * self.gamma.size > 1 and self.n > len(self.mu_table).bit_length():
            raise StructuralError(f"mu table has {len(self.mu_table)} entries, fewer "
                                  f"than the 2^{self.n - 1} that arity {self.n} needs")
        expected = self.T.size ** self.n * self.gamma.size ** (self.n - 1)
        if len(self.mu_table) != expected:
            raise StructuralError(
                f"mu table has {len(self.mu_table)} entries, expected {expected}")
        if out_of_range(self.mu_table, self.T.size):
            raise StructuralError("mu table entry out of range")

    @property
    def sizes(self) -> list[int]:
        return [self.T.size] * self.n + [self.gamma.size] * (self.n - 1)

    def mu(self, xs, gs) -> int:
        if len(xs) != self.n or len(gs) != self.n - 1:
            raise StructuralError("mu argument tuple has wrong length")
        idx, tsize, gsize = 0, self.T.size, self.gamma.size
        for x in xs:
            idx = idx * tsize + x
        for g in gs:
            idx = idx * gsize + g
        return self.mu_table[idx]

    def t_tuples(self, length: int):
        return itertools.product(self.T.elements(), repeat=length)

    def g_tuples(self, length: int):
        return itertools.product(self.gamma.elements(), repeat=length)


class AxiomCheck(Record):
    _fields = ("axiom", "ok", "witness")

    def __init__(self, axiom: str, ok: bool, witness: tuple | None = None):
        _set(self, "axiom", axiom)
        _set(self, "ok", ok)
        _set(self, "witness", witness)


class AxiomReport(Record):
    _fields = ("checks",)

    def __init__(self, checks: tuple[AxiomCheck, ...]):
        _set(self, "checks", checks)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.ok]

    def __str__(self):
        lines = []
        for c in self.checks:
            state = "pass" if c.ok else f"FAIL witness={c.witness}"
            lines.append(f"{c.axiom}: {state}")
        return "\n".join(lines)


def _skip_gamma_pair(g: GammaSemigroup, a: int, b: int) -> bool:
    # A one-element (or idempotent-bearing) parameter semigroup forces g+g=g;
    # requiring the slot-additivity identity on such self-sums would force the
    # image of mu to be additively idempotent, contradicting the intended
    # embedding of plain semirings.  Those degenerate instances are exempt.
    return a == b and g.add(a, b) == a


def table_failures(table, monoids, value: FiniteAddMonoid,
                   additive=(), absorbing=()):
    """Witnesses against the additivity and zero laws of one flat table.

    ``table`` is dense and row-major over argument positions whose elements
    come from ``monoids`` (a FiniteAddMonoid or a GammaSemigroup each); its
    values lie in ``value``.  Each requested position p is walked by its
    stride, one row of ``monoids[p].size`` entries per setting of the other
    positions.  ``args`` in a witness is the full argument tuple.

    For p in ``additive`` this yields (p, x, y, args), args[p] == x, whenever
    table[args with p := x+y] != table[args] + table[args with p := y];
    parameter positions skip idempotent self-sums (``_skip_gamma_pair``).
    When both the carrier monoid at p and ``value`` obey their laws, rows
    are first walked with y over zero and the additive generators only: if
    each row is additive against those, it is additive against every sum of
    them, by induction on the sum and associativity on both sides.  Only a
    position where that shorter walk fails is walked over all pairs, so the
    witnesses and their order are those of the full walk.
    For p in ``absorbing`` whose monoid has a zero it yields (p, args),
    args[p] that zero, whenever table[args] is not the zero of ``value``.
    """
    sizes = [m.size for m in monoids]
    strides = [1] * len(sizes)
    for p in range(len(sizes) - 1, 0, -1):
        strides[p - 1] = strides[p] * sizes[p]
    vadd, vsize, vzero = value.add_table, value.size, value.zero

    def walk(p, pairs, stride):
        block = monoids[p].size * stride
        for hi in range(0, len(table), block):
            for base in range(hi, hi + stride):
                row = table[base:base + block:stride]
                for x, y, xy in pairs:
                    if row[xy] != vadd[row[x] * vsize + row[y]]:
                        yield (p, x, y, unflatten_index(base + x * stride, sizes))

    for p in additive:
        m = monoids[p]
        gamma = isinstance(m, GammaSemigroup)
        stride = strides[p]
        if not gamma and not m.validate() and not value.validate():
            gens = (m.zero, *m.additive_generators())
            short = [(x, y, m.add(x, y)) for x in range(m.size) for y in gens]
            if next(walk(p, short, stride), None) is None:
                continue
        pairs = [(x, y, m.add(x, y)) for x in range(m.size) for y in range(m.size)
                 if not (gamma and _skip_gamma_pair(m, x, y))]
        if pairs:
            yield from walk(p, pairs, stride)
    for p in absorbing:
        m = monoids[p]
        if isinstance(m, GammaSemigroup) and not m.has_zero:
            continue
        stride = strides[p]
        block = m.size * stride
        for hi in range(0, len(table), block):
            for base in range(hi + m.zero * stride, hi + (m.zero + 1) * stride):
                if table[base] != vzero:
                    yield (p, unflatten_index(base, sizes))


def parameter_words(n: int, gsize: int) -> list:
    """Each parameter word gs of ``first_incoherent_word``, in index order,
    with the (outer, inner) parameter offsets of its n bracketings."""
    gblock = gsize ** (n - 1)
    gstrides = [gsize ** q for q in range(n - 2, -1, -1)]
    gmixed = [[v * gblock for v in gstrides[:i]] + gstrides
              + [v * gblock for v in gstrides[i:]] for i in range(n)]
    return [(gs, [divmod(sum(map(mul, gs, m)), gblock) for m in gmixed])
            for gs in itertools.product(range(gsize), repeat=2 * n - 2)]


def first_incoherent_word(s: NaryGammaSemiring, words, p=None,
                          act_tables=(), msize: int = 0, gwords=None):
    """The first length-(2n-1) word whose n bracketings disagree.

    ``words`` yields element tuples; each is tried with every parameter word
    gs in index order, gs fastest.  Returns (xs, gs, vals) or None, where
    vals[i] is the value of the bracketing that multiplies the window of
    letters i..i+n-1 first.  Without ``p`` every letter is a carrier element
    and both products are looked up in ``mu_table``.  With ``p`` the letter
    at p is an element of a module of size ``msize``: a window that holds it
    is looked up in ``act_tables[j]``, j its place in the window, and so is
    the outer word that then holds the window's value.

    All tables share one layout (n elements, then n-1 parameters), so each
    bracketing costs two lookups at offsets summed from precomputed strides:
    the elements' part once per word and the parameters' once per gs.  A
    window's offset and its outer word's are one sum over the letters, each
    strided once: the outer strides are scaled by the window table's length
    (by the parameter block for gs), and divmod splits the sum.  Each of the
    n+1 distinct layouts is built once per call; the parameter offsets are
    ``gwords`` as ``parameter_words`` gives them, built here when not passed.
    """
    n, tsize, gsize = s.n, s.T.size, s.gamma.size
    gblock = gsize ** (n - 1)

    @cache
    def layout(j):
        """The table and element strides of a window with its module letter at j."""
        strides = [gblock] * n
        for q in range(n - 1, 0, -1):
            strides[q - 1] = strides[q] * (msize if q == j else tsize)
        return s.mu_table if j is None else act_tables[j], strides

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
        size = len(t_in)
        mixed = [v * size for v in st_out[:i]] + st_in + [v * size for v in st_out[i + 1:]]
        plan.append((t_in, t_out, st_out[i], mixed, size))
    gwords = parameter_words(n, gsize) if gwords is None else gwords
    for xs in words:
        rows = [(t_in, t_out, st_mid, divmod(sum(map(mul, xs, mixed)), size))
                for t_in, t_out, st_mid, mixed, size in plan]
        for gs, offs in gwords:
            vals = [t_out[e_out + t_in[e_in + g_in] * st_mid + g_out]
                    for (t_in, t_out, st_mid, (e_out, e_in)), (g_out, g_in) in zip(rows, offs)]
            if vals.count(vals[0]) != n:
                return xs, gs, vals
    return None


def check_flattened_associativity(s: NaryGammaSemiring,
                                  generators_only: bool = True) -> AxiomCheck:
    """All bracketings of length-(2n-1) words agree.

    When slot additivity holds, both sides of every instance are multiadditive
    in each T slot, so checking T entries over a generating set is equivalent
    to the full check; the caller passes ``generators_only=False`` when slot
    additivity failed.
    """
    gens = s.T.additive_generators() if generators_only else list(s.T.elements())
    hit = first_incoherent_word(s, itertools.product(gens or [s.T.zero], repeat=2 * s.n - 1))
    if hit is None:
        return AxiomCheck("flattened associativity", True)
    xs, gs, vals = hit
    i = next(i for i, v in enumerate(vals) if v != vals[0])
    return AxiomCheck("flattened associativity", False, (xs, gs, 0, i, vals[0], vals[i]))


def validate_semiring(s: NaryGammaSemiring) -> AxiomReport:
    """Exhaustive axiom check; each failure carries a concrete witness.

    The report is computed once per semiring object and kept.
    """
    if "report" not in s._memo:
        s._memo["report"] = _semiring_report(s)
    return s._memo["report"]


def _semiring_report(s: NaryGammaSemiring) -> AxiomReport:
    checks = []
    t_issues = s.T.validate()
    checks.append(AxiomCheck("additive monoid laws", not t_issues,
                             t_issues[0] if t_issues else None))
    g_issues = s.gamma.validate()
    checks.append(AxiomCheck("parameter semigroup laws", not g_issues,
                             g_issues[0] if g_issues else None))
    if s.T.size == 1:
        # Every table law equates two values of a one-element carrier, as in
        # ``modules.validate_module`` for a one-element module.
        return AxiomReport(tuple(checks) + tuple(AxiomCheck(axiom, True) for axiom in (
            "T-slot additivity", "parameter-slot additivity", "flattened associativity",
            "zero absorption")))
    n = s.n
    monoids = [s.T] * n + [s.gamma] * (n - 1)

    def check(axiom, **law):
        wit = next(table_failures(s.mu_table, monoids, s.T, **law), None)
        return AxiomCheck(axiom, wit is None, wit)

    slots = check("T-slot additivity", additive=range(n))
    checks += [slots,
               check("parameter-slot additivity", additive=range(n, 2 * n - 1)),
               check_flattened_associativity(s, generators_only=slots.ok and not t_issues),
               check("zero absorption", absorbing=range(2 * n - 1))]
    return AxiomReport(tuple(checks))


def word_product(s: NaryGammaSemiring, xs, gs) -> int:
    """Product of an alternating word x_1 g_1 x_2 ... x_m, left-normalized.

    m must be n + k(n-1) for some k >= 0 and len(gs) == m - 1.
    """
    xs = tuple(xs)
    gs = tuple(gs)
    n = s.n
    if len(xs) < n or (len(xs) - n) % (n - 1) != 0:
        raise StructuralError(f"word length {len(xs)} is not n + k(n-1)")
    if len(gs) != len(xs) - 1:
        raise StructuralError("parameter word length must be one less")
    val = s.mu(xs[:n], gs[:n - 1])
    pos = n
    while pos < len(xs):
        head = (val,) + xs[pos:pos + n - 1]
        val = s.mu(head, gs[pos - 1:pos + n - 2])
        pos += n - 1
    return val


def neutral_words(s: NaryGammaSemiring) -> list[tuple[int, tuple[int, ...]]]:
    """Pairs (e, gs) with mu(e,..,x,..,e; gs) = x for every slot and x."""
    return [(e, gs) for e in s.T.elements() for gs in s.g_tuples(s.n - 1)
            if all(s.mu((e,) * j + (x,) + (e,) * (s.n - 1 - j), gs) == x
                   for j in range(s.n) for x in s.T.elements())]


def is_regular(s: NaryGammaSemiring) -> AxiomCheck:
    """Whether every a is a word a x_1..x_k a, k = max(1, n - 2), for some
    carriers x and parameters: mu(a, x.., a; g) when n >= 3, (a x) a when
    n = 2.  The witness is the first a in index order that is not."""
    k = max(1, s.n - 2)
    inner, params = list(s.t_tuples(k)), list(s.g_tuples(k + 1))
    bad = next(((a,) for a in s.T.elements()
                if all(word_product(s, (a, *xs, a), gs) != a for xs in inner for gs in params)),
               None)
    return AxiomCheck("regularity", bad is None, bad)


class GammaSemiringMorphism(Record):
    _fields = ("source", "target", "map")

    def __init__(self, source: NaryGammaSemiring, target: NaryGammaSemiring,
                 map: tuple[int, ...]):
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "map", map)
        if self.source.n != self.target.n:
            raise StructuralError("morphism endpoints have different arities")
        if self.source.gamma != self.target.gamma:
            raise StructuralError("morphism endpoints have different parameter semigroups")
        if len(self.map) != self.source.T.size:
            raise StructuralError("morphism table has wrong size")
        if out_of_range(self.map, self.target.T.size):
            raise StructuralError("morphism value out of range")

    def __call__(self, x: int) -> int:
        return self.map[x]


def validate_morphism(f: GammaSemiringMorphism) -> AxiomReport:
    s, t = f.source, f.target
    wit = next(((a, b) for a in s.T.elements() for b in s.T.elements()
                if f(s.T.add(a, b)) != t.T.add(f(a), f(b))), None)
    if f(s.T.zero) != t.T.zero:
        wit = wit or ("zero",)
    add = AxiomCheck("morphism additivity", wit is None, wit)
    mul = AxiomCheck("morphism multiplicativity", True)
    # Both tables hold one stride of parameter tuples per carrier tuple, and
    # itertools.product(f.map, ...) yields f(xs) in the order xs are laid out.
    stride = s.gamma.size ** (s.n - 1)
    image = f.map.__getitem__
    for row, ys in enumerate(itertools.product(f.map, repeat=s.n)):
        src = s.mu_table[row * stride:(row + 1) * stride]
        dst = flatten_index(ys, (t.T.size,) * t.n) * stride
        if tuple(map(image, src)) != t.mu_table[dst:dst + stride]:
            g = next(g for g, v in enumerate(src) if image(v) != t.mu_table[dst + g])
            mul = AxiomCheck("morphism multiplicativity", False,
                             (unflatten_index(row, (s.T.size,) * s.n),
                              unflatten_index(g, (s.gamma.size,) * (s.n - 1))))
            break
    return AxiomReport((add, mul))


def identity_morphism(s: NaryGammaSemiring) -> GammaSemiringMorphism:
    return GammaSemiringMorphism(s, s, tuple(range(s.T.size)))


def _relabel_monoid(m: FiniteAddMonoid, perm) -> tuple[FiniteAddMonoid, list[int]]:
    """``m`` with element a renamed perm[a], and the inverse permutation."""
    if sorted(perm) != list(range(m.size)):
        raise StructuralError(f"relabelling {list(perm)} is not a permutation of "
                              f"range({m.size})")
    inv = sorted(range(m.size), key=perm.__getitem__)
    add = tuple(perm[m.add(a, b)] for a in inv for b in inv)
    return FiniteAddMonoid(m.size, add, perm[m.zero]), inv


def relabel(s: NaryGammaSemiring, perm) -> NaryGammaSemiring:
    """The isomorphic copy of ``s`` whose carrier element t is named perm[t].

    Γ and the name are kept; mu is tabulated in ``product`` order of the new
    carrier labels, then the parameters.
    """
    t, inv = _relabel_monoid(s.T, perm)
    stride = s.gamma.size ** (s.n - 1)
    rows = (flatten_index(xs, s.sizes) * stride for xs in itertools.product(inv, repeat=s.n))
    mu = tuple(perm[v] for row in rows for v in s.mu_table[row:row + stride])
    return NaryGammaSemiring(s.n, t, s.gamma, mu, name=s.name)


def opposite(s: NaryGammaSemiring) -> NaryGammaSemiring:
    """T^op: mu^op(x_1..x_n; g_1..g_(n-1)) = mu(x_n..x_1; g_(n-1)..g_1)."""
    mu = tuple(s.mu(xs[::-1], gs[::-1])
               for xs in s.t_tuples(s.n) for gs in s.g_tuples(s.n - 1))
    return NaryGammaSemiring(s.n, s.T, s.gamma, mu, name=s.name + "^op")


def _product_monoid(monoids) -> FiniteAddMonoid:
    """The product of ``monoids``, (a_1..a_k) at index ``flatten_index``."""
    sizes = [m.size for m in monoids]
    elems = list(itertools.product(*map(range, sizes)))
    add = tuple(flatten_index([m.add(a, b) for m, a, b in zip(monoids, ea, eb)], sizes)
                for ea in elems for eb in elems)
    return FiniteAddMonoid(len(elems), add, flatten_index([m.zero for m in monoids], sizes))


def product(a: NaryGammaSemiring, b: NaryGammaSemiring) -> NaryGammaSemiring:
    """a x b: element (x, y) is x |T_b| + y, and mu is taken componentwise."""
    if a.n != b.n or a.gamma != b.gamma:
        raise StructuralError(f"{a.name} x {b.name}: the factors differ in arity or in "
                              "parameter semigroup")
    pairs = list(itertools.product(a.T.elements(), b.T.elements()))
    mu = []
    for word in itertools.product(pairs, repeat=a.n):
        xs, ys = zip(*word)
        mu += [a.mu(xs, gs) * b.T.size + b.mu(ys, gs) for gs in a.g_tuples(a.n - 1)]
    return NaryGammaSemiring(a.n, _product_monoid([a.T, b.T]), a.gamma, tuple(mu),
                             name=f"{a.name}x{b.name}")


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

def trivial_gamma() -> GammaSemigroup:
    return GammaSemigroup(1, (0,), has_zero=False, zero=None)


def _binary(size: int, add, mul, name: str, zero: int = 0) -> NaryGammaSemiring:
    """The plain semiring (range(size), add, mul) as a binary, trivially
    parameterized structure."""
    pairs = list(itertools.product(range(size), repeat=2))
    return NaryGammaSemiring(2, FiniteAddMonoid(size, tuple(add(a, b) for a, b in pairs), zero),
                             trivial_gamma(), tuple(mul(a, b) for a, b in pairs), name=name)


def _fold(ring: NaryGammaSemiring, arity: int, name: str, gamma: GammaSemigroup | None = None,
          scalars=None) -> NaryGammaSemiring:
    """mu(x_1..x_n; g_1..g_(n-1)) = s_(g_(n-1))(..s_(g_1)(x_1 x_2)..x_n) over a
    binary, trivially parameterized ``ring``, where s_g multiplies by
    scalars[g] on the left; without ``scalars`` mu is the plain product."""
    if ring.n != 2 or ring.gamma.size != 1:
        raise StructuralError(f"{ring.name} is not a binary, trivially parameterized semiring")
    gamma = gamma or trivial_gamma()
    mul, size = ring.mu_table, ring.T.size
    mu = []
    for xs in itertools.product(range(size), repeat=arity):
        for gs in itertools.product(range(gamma.size), repeat=arity - 1):
            acc = xs[0]
            for x, g in zip(xs[1:], gs):
                acc = mul[acc * size + x]
                if scalars is not None:
                    acc = mul[scalars[g] * size + acc]
            mu.append(acc)
    return NaryGammaSemiring(arity, ring.T, gamma, tuple(mu), name=name)


def boolean_semiring() -> NaryGammaSemiring:
    return _binary(2, max, min, "boolean")


def f2_semiring() -> NaryGammaSemiring:
    return _binary(2, xor, and_, "f2")


def zmod_semiring(m: int) -> NaryGammaSemiring:
    return _binary(m, lambda a, b: (a + b) % m, lambda a, b: a * b % m, f"z{m}")


def truncated_nat_semiring(cap: int = 2) -> NaryGammaSemiring:
    return _binary(cap + 1, lambda a, b: min(a + b, cap), lambda a, b: min(a * b, cap),
                   f"nat-cap{cap}")


def make_matrix_family(base: NaryGammaSemiring, m: int, arity: int,
                       gamma: GammaSemigroup | None = None,
                       gamma_scalars: tuple[int, ...] | None = None) -> NaryGammaSemiring:
    """Square matrices over a binary base semiring with scalar-interleaved products.

    Each parameter g acts as the scalar matrix gamma_scalars[g] * I,
    multiplied on the left (``_fold``); by default the parameter semigroup
    is the one-element one and mu is the plain product.
    """
    cells = list(itertools.product(range(m), repeat=2))
    scalars = None
    if gamma is not None:
        if gamma_scalars is None or len(gamma_scalars) != gamma.size:
            raise StructuralError("one scalar per parameter element is required")
        for a in range(gamma.size):
            for b in range(gamma.size):
                lhs = gamma_scalars[gamma.add(a, b)]
                rhs = base.T.add(gamma_scalars[a], gamma_scalars[b])
                if not _skip_gamma_pair(gamma, a, b) and lhs != rhs:
                    raise StructuralError(
                        f"scalar action is not additive on parameters ({a},{b})")
        scalars = [flatten_index([c if i == j else base.T.zero for i, j in cells],
                                 [base.T.size] * len(cells)) for c in gamma_scalars]
    return _fold(_matrix_semiring(base, m, cells), arity, f"mat{m}({base.name})^{arity}",
                 gamma, scalars)


def _matrix_semiring(base: NaryGammaSemiring, m: int, cells, name: str = "",
                     arity: int = 2) -> NaryGammaSemiring:
    """The m x m matrices over the binary ``base`` that are zero off
    ``cells``, a list of (row, column) pairs closed under products of
    ``arity`` matrices, with mu that product, trivially parameterized; the
    entries at ``cells`` are the digits of the element index."""
    if base.n != 2 or base.gamma.size != 1:
        raise StructuralError(f"{base.name} is not a binary, trivially parameterized semiring")
    sizes, add = [base.T.size] * len(cells), base.T.add
    mats = [dict(zip(cells, es))
            for es in itertools.product(range(base.T.size), repeat=len(cells))]

    def pack(entry):
        return flatten_index([entry(i, j) for i, j in cells], sizes)

    def dot(a, b, i, j):
        acc = base.T.zero
        for h in range(m):
            if (i, h) in a and (h, j) in b:
                acc = add(acc, base.mu_table[a[i, h] * base.T.size + b[h, j]])
        return acc

    def times(xs):
        # The inner products are whole matrices; only the last is packed.
        acc = mats[xs[0]]
        for x in xs[1:-1]:
            acc = {(i, j): dot(acc, mats[x], i, j) for i in range(m) for j in range(m)}
        return pack(lambda i, j: dot(acc, mats[xs[-1]], i, j))

    elems = range(len(mats))
    t = FiniteAddMonoid(len(mats), tuple(pack(lambda i, j: add(mats[x][i, j], mats[y][i, j]))
                                         for x, y in itertools.product(elems, repeat=2)),
                        pack(lambda i, j: base.T.zero))
    return NaryGammaSemiring(arity, t, trivial_gamma(),
                             tuple(map(times, itertools.product(elems, repeat=arity))), name=name)


def gamma_scaled_z4() -> NaryGammaSemiring:
    """Ternary Z/4 with parameters Z/2 (flagged zero 0) scaling by 0 and 2."""
    z2 = GammaSemigroup(2, (0, 1, 1, 0), has_zero=True, zero=0)
    return make_matrix_family(zmod_semiring(4), 1, 3, gamma=z2, gamma_scalars=(0, 2))


def odd_part(base: NaryGammaSemiring, m: int) -> NaryGammaSemiring:
    """Lister's odd part of M_m(base) under the checkerboard grading: the
    m x m matrices over ``base`` that are zero off the cells with i + j odd,
    ternary under mu(x, y, z) = xyz (an odd cell times two odd cells is
    odd); the odd entries, in row-major order, are the index digits."""
    if m < 2:
        raise StructuralError(f"the odd part of M_{m} needs m >= 2")
    return _matrix_semiring(base, m, [(i, j) for i in range(m) for j in range(m) if (i + j) % 2],
                            f"odd{m}({base.name})", arity=3)


def truncated_polynomial(p: int, k: int) -> NaryGammaSemiring:
    """F_p[x]/(x^k); element sum c_i p^i is the polynomial sum c_i x^i."""
    if p < 2 or any(p % d == 0 for d in range(2, p)) or k < 1:
        raise StructuralError(f"F_{p}[x]/(x^{k}) needs a prime p and k >= 1")
    coeffs = [[idx // p ** i % p for i in range(k)] for idx in range(p ** k)]

    def pack(cs):
        return sum(c % p * p ** i for i, c in enumerate(cs))

    def mul(a, b):
        return pack(sum(a[i] * b[d - i] for i in range(d + 1)) for d in range(k))

    return _binary(p ** k, lambda a, b: pack(map(sum, zip(coeffs[a], coeffs[b]))),
                   lambda a, b: mul(coeffs[a], coeffs[b]), f"f{p}[x]/x^{k}")


def upper_triangular(base: NaryGammaSemiring, m: int) -> NaryGammaSemiring:
    """Upper-triangular m x m matrices over ``base``, the entries (i, j),
    i <= j, in row-major order as the digits of the element index."""
    if m < 1 or not validate_semiring(base).ok:
        raise StructuralError(f"T_{m} needs m >= 1 and a semiring base")
    return _matrix_semiring(base, m, [(i, j) for i in range(m) for j in range(i, m)],
                            f"t{m}({base.name})")


def make_endomorphism_family(monoid: FiniteAddMonoid, arity: int) -> NaryGammaSemiring:
    """Additive endomorphisms under composition, trivially parameterized.

    The carrier is ``modules.additive_maps(monoid, monoid)`` in
    lexicographic order, and mu(f_1, ..., f_n) = f_1 . ... . f_n.
    """
    from .modules import additive_maps

    ends = sorted(additive_maps(monoid, monoid))
    index = {f: i for i, f in enumerate(ends)}

    def lookup(f, what):
        if f not in index:
            raise StructuralError(f"{what} left the endomorphism set")
        return index[f]

    ring = _binary(len(ends), lambda f, g: lookup(tuple(map(monoid.add, ends[f], ends[g])),
                                                  "pointwise sum"),
                   lambda f, g: lookup(tuple(ends[f][v] for v in ends[g]), "composition"), "",
                   zero=index[(monoid.zero,) * monoid.size])
    return _fold(ring, arity, f"end({monoid.size})^{arity}")


def ternary_from_semiring(base: NaryGammaSemiring, name: str = "") -> NaryGammaSemiring:
    """mu(x,y,z) = xyz in a commutative binary base, with a trivial parameter."""
    return _fold(base, 3, name or f"{base.name}^3")


def f2_ternary() -> NaryGammaSemiring:
    return ternary_from_semiring(f2_semiring(), name="f2_ternary")


def boolean_ternary() -> NaryGammaSemiring:
    return ternary_from_semiring(boolean_semiring(), name="boolean_ternary")


def z4_ternary() -> NaryGammaSemiring:
    return ternary_from_semiring(zmod_semiring(4), name="z4_ternary")


def bundled_semirings() -> dict[str, NaryGammaSemiring]:
    return {
        "f2_ternary": f2_ternary(),
        "boolean_ternary": boolean_ternary(),
        "z4_ternary": z4_ternary(),
    }
