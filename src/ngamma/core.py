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

from dataclasses import dataclass, field
from functools import cache
from itertools import product
from operator import mul


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
    """The unit into the cofree module is not injective after completion.

    The instance fails the regularity hypothesis the coresolution needs, so
    the tower is refused rather than built wrong.
    """


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


@dataclass(frozen=True)
class FiniteAddMonoid:
    """Commutative additive monoid given by a dense addition table."""

    size: int
    add_table: tuple[int, ...]
    zero: int = 0
    # Filled on first use by ``_remember``.  The dict is set at construction
    # because an attribute added to an instance later, as cached_property
    # adds one, slows attribute reads on every monoid (CPython 3.11: the
    # benchmark's job rounds ran 2-3% slower).
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
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


@dataclass(frozen=True)
class GammaSemigroup:
    """Commutative parameter semigroup; a zero is optional and flagged."""

    size: int
    add_table: tuple[int, ...]
    has_zero: bool = False
    zero: int | None = None

    def __post_init__(self):
        if self.size < 1:
            raise StructuralError("parameter semigroup must be nonempty")
        if len(self.add_table) != self.size * self.size:
            raise StructuralError("parameter addition table has wrong dimensions")
        if out_of_range(self.add_table, self.size):
            raise StructuralError("parameter addition entry out of range")
        if self.has_zero and (self.zero is None or not 0 <= self.zero < self.size):
            raise StructuralError("flagged zero is missing or out of range")

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


@dataclass(frozen=True)
class NaryGammaSemiring:
    """T, G and the full multiplication table mu : T^n x G^(n-1) -> T."""

    n: int
    T: FiniteAddMonoid
    gamma: GammaSemigroup
    mu_table: tuple[int, ...]
    name: str = ""
    # Holds the axiom report once ``validate_semiring`` has computed it; set
    # at construction, as ``FiniteAddMonoid._memo`` is.
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
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
        return product(self.T.elements(), repeat=length)

    def g_tuples(self, length: int):
        return product(self.gamma.elements(), repeat=length)


def mu_eval(s: NaryGammaSemiring, xs, gs) -> int:
    """Table lookup for [x_1,...,x_n] with the given parameter tuple."""
    for x in xs:
        if not 0 <= x < s.T.size:
            raise StructuralError(f"element index {x} out of range")
    for g in gs:
        if not 0 <= g < s.gamma.size:
            raise StructuralError(f"parameter index {g} out of range")
    return s.mu(xs, gs)


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    ok: bool
    witness: tuple | None = None
    note: str = ""


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple[AxiomCheck, ...]

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
            for gs in product(range(gsize), repeat=2 * n - 2)]


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
    hit = first_incoherent_word(s, product(gens or [s.T.zero], repeat=2 * s.n - 1))
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
    out = []
    for e in s.T.elements():
        for gs in s.g_tuples(s.n - 1):
            ok = True
            for j in range(s.n):
                for x in s.T.elements():
                    xs = (e,) * j + (x,) + (e,) * (s.n - 1 - j)
                    if s.mu(xs, gs) != x:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.append((e, gs))
    return out


@dataclass(frozen=True)
class GammaSemiringMorphism:
    source: NaryGammaSemiring
    target: NaryGammaSemiring
    map: tuple[int, ...]

    def __post_init__(self):
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
    # product(f.map, ...) yields f(xs) in the order xs are laid out.
    stride = s.gamma.size ** (s.n - 1)
    image = f.map.__getitem__
    for row, ys in enumerate(product(f.map, repeat=s.n)):
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


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BinarySemiring:
    """Plain finite semiring used as the scalar base of the matrix family."""

    size: int
    add_table: tuple[int, ...]
    mul_table: tuple[int, ...]
    zero: int = 0
    one: int = 1
    name: str = ""

    def __post_init__(self):
        if len(self.add_table) != self.size ** 2 or len(self.mul_table) != self.size ** 2:
            raise StructuralError("semiring tables have wrong dimensions")

    def add(self, a, b):
        return self.add_table[a * self.size + b]

    def mul(self, a, b):
        return self.mul_table[a * self.size + b]

    def validate(self) -> list[tuple[str, tuple]]:
        bad = FiniteAddMonoid(self.size, self.add_table, self.zero).validate()
        r = range(self.size)
        for a in r:
            for b in r:
                for c in r:
                    if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                        bad.append(("mul-associativity", (a, b, c)))
                    if self.mul(a, self.add(b, c)) != self.add(self.mul(a, b), self.mul(a, c)):
                        bad.append(("left-distributivity", (a, b, c)))
                    if self.mul(self.add(b, c), a) != self.add(self.mul(b, a), self.mul(c, a)):
                        bad.append(("right-distributivity", (a, b, c)))
        for a in r:
            if self.mul(self.zero, a) != self.zero or self.mul(a, self.zero) != self.zero:
                bad.append(("mul-zero", (a,)))
            if self.mul(self.one, a) != a or self.mul(a, self.one) != a:
                bad.append(("mul-one", (a,)))
        return bad


def trivial_gamma() -> GammaSemigroup:
    return GammaSemigroup(1, (0,), has_zero=False, zero=None)


def boolean_semiring() -> BinarySemiring:
    return BinarySemiring(2, (0, 1, 1, 1), (0, 0, 0, 1), name="boolean")


def f2_semiring() -> BinarySemiring:
    return BinarySemiring(2, (0, 1, 1, 0), (0, 0, 0, 1), name="f2")


def zmod_semiring(m: int) -> BinarySemiring:
    add = tuple((a + b) % m for a in range(m) for b in range(m))
    mul = tuple((a * b) % m for a in range(m) for b in range(m))
    return BinarySemiring(m, add, mul, name=f"z{m}")


def truncated_nat_semiring(cap: int = 2) -> BinarySemiring:
    size = cap + 1
    add = tuple(min(a + b, cap) for a in range(size) for b in range(size))
    mul = tuple(min(a * b, cap) for a in range(size) for b in range(size))
    return BinarySemiring(size, add, mul, name=f"nat-cap{cap}")


def make_matrix_family(base: BinarySemiring, m: int, arity: int,
                       gamma: GammaSemigroup | None = None,
                       gamma_scalars: tuple[int, ...] | None = None) -> NaryGammaSemiring:
    """Square matrices over a base semiring with scalar-interleaved products.

    Each parameter acts as a scalar from the base semiring; by default the
    parameter semigroup is the one-element one acting by the unit scalar.
    The entry for (A_1..A_n; g_1..g_{n-1}) is g_1(A_1 A_2) then g_2(.. A_3)
    and so on, folding left.
    """
    if gamma is None:
        gamma = trivial_gamma()
        gamma_scalars = (base.one,)
    if gamma_scalars is None or len(gamma_scalars) != gamma.size:
        raise StructuralError("one scalar per parameter element is required")
    for a in range(gamma.size):
        for b in range(gamma.size):
            lhs = gamma_scalars[gamma.add(a, b)]
            rhs = base.add(gamma_scalars[a], gamma_scalars[b])
            if not _skip_gamma_pair(gamma, a, b) and lhs != rhs:
                raise StructuralError(
                    f"scalar action is not additive on parameters ({a},{b})")
    mm = m * m
    size = base.size ** mm
    sizes = [base.size] * mm

    def entries(idx):
        return unflatten_index(idx, sizes)

    def pack(es):
        return flatten_index(es, sizes)

    def mat_add(x, y):
        ex, ey = entries(x), entries(y)
        return pack([base.add(a, b) for a, b in zip(ex, ey)])

    def mat_mul(x, y):
        ex, ey = entries(x), entries(y)
        out = []
        for i in range(m):
            for j in range(m):
                acc = base.zero
                for k in range(m):
                    acc = base.add(acc, base.mul(ex[i * m + k], ey[k * m + j]))
                out.append(acc)
        return pack(out)

    def scalar(c, x):
        return pack([base.mul(c, e) for e in entries(x)])

    add_table = tuple(mat_add(a, b) for a in range(size) for b in range(size))
    t = FiniteAddMonoid(size, add_table, pack([base.zero] * mm))
    mu = []
    for xs in product(range(size), repeat=arity):
        for gs in product(range(gamma.size), repeat=arity - 1):
            acc = scalar(gamma_scalars[gs[0]], mat_mul(xs[0], xs[1]))
            for i in range(2, arity):
                acc = scalar(gamma_scalars[gs[i - 1]], mat_mul(acc, xs[i]))
            mu.append(acc)
    return NaryGammaSemiring(arity, t, gamma, tuple(mu),
                             name=f"mat{m}({base.name})^{arity}")


def make_endomorphism_family(monoid: FiniteAddMonoid, arity: int) -> NaryGammaSemiring:
    """Additive endomorphisms under composition, trivially parameterized.

    The carrier is ``modules.additive_maps(monoid, monoid)`` in
    lexicographic order, and mu(f_1, ..., f_n) = f_1 . ... . f_n.
    """
    from .modules import additive_maps

    ends = sorted(additive_maps(monoid, monoid))
    index = {f: i for i, f in enumerate(ends)}
    size = len(ends)
    add_table = []
    for f in ends:
        for g in ends:
            h = tuple(monoid.add(a, b) for a, b in zip(f, g))
            if h not in index:
                raise StructuralError("pointwise sum left the endomorphism set")
            add_table.append(index[h])
    zero_map = tuple(monoid.zero for _ in range(monoid.size))
    t = FiniteAddMonoid(size, tuple(add_table), index[zero_map])
    mu = []
    for xs in product(range(size), repeat=arity):
        acc = ends[xs[0]]
        for x in xs[1:]:
            acc = tuple(acc[v] for v in ends[x])
            if acc not in index:
                raise StructuralError("composition left the endomorphism set")
        mu.append(index[acc])
    return NaryGammaSemiring(arity, t, trivial_gamma(), tuple(mu),
                             name=f"end({monoid.size})^{arity}")


def binary_specialization(base: BinarySemiring) -> NaryGammaSemiring:
    """A plain semiring as the arity-2, trivially parameterized structure."""
    issues = base.validate()
    if issues:
        raise StructuralError(f"input is not a semiring: {issues[0]}")
    t = FiniteAddMonoid(base.size, base.add_table, base.zero)
    mu = tuple(base.mul(x, y) for x in range(base.size) for y in range(base.size))
    return NaryGammaSemiring(2, t, trivial_gamma(), mu, name=base.name)


def ternary_from_semiring(base: BinarySemiring, name: str = "") -> NaryGammaSemiring:
    """mu(x,y,z) = xyz in a commutative base, with a trivial parameter."""
    t = FiniteAddMonoid(base.size, base.add_table, base.zero)
    mu = tuple(base.mul(base.mul(x, y), z)
               for x in range(base.size) for y in range(base.size)
               for z in range(base.size))
    return NaryGammaSemiring(3, t, trivial_gamma(), mu, name=name or f"{base.name}^3")


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
