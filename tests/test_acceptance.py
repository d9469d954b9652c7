"""Acceptance suite: one test per criterion, one printed line per criterion.

Each test pins its tolerance exactly (group isomorphism is invariant-factor
equality, counts are exact integers) and asserts its runtime budget.
A tower that is not a resolution is refused when it is built
(``homology.Resolution``), never silently accepted.
"""

import hashlib
import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from conftest import record_acceptance

from ngamma import oracle
from ngamma.abgroups import isomorphic
from ngamma.bundled import bundled_workspace
from ngamma.cli import main as cli_main
from ngamma.completion import group_complete
from ngamma.core import validate_semiring
from ngamma.homology import (
    balance_check, bar_complex, ext_via_bar, homology, les_check, yoneda_compose,
)
from ngamma.ideals import GammaIdeal, is_prime, spectrum
from ngamma.modules import additive_maps, hom_gamma, tensor_positional
from ngamma.spectral import base_change_check, kunneth_check


@contextmanager
def budget(name, seconds):
    t0 = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        dt = time.perf_counter() - t0
        state = "FAIL" if failed else "PASS"
        line = f"ACCEPTANCE {name}: {state} ({dt:.2f}s / {seconds}s)"
        print(line)
        record_acceptance(line)  # echoed uncaptured in the terminal summary
        if not failed:
            assert dt < seconds, f"{name} exceeded its {seconds}s budget ({dt:.2f}s)"


@pytest.fixture(scope="module")
def ws():
    return bundled_workspace()


def same_parent_small_modules(ws, bound=4):
    by_semiring = {}
    for name, mod in sorted(ws.modules.items()):
        if mod.M.size <= bound:
            by_semiring.setdefault(mod.parent.name, []).append((name, mod))
    return by_semiring


def test_criterion_1_axiom_soundness(ws):
    with budget("1 axiom-soundness", 5):
        for name, s in sorted(ws.semirings.items()):
            report = validate_semiring(s)
            assert report.ok, f"{name}: {report}"
            axioms = {c.axiom for c in report.checks}
            assert {"T-slot additivity", "parameter-slot additivity",
                    "flattened associativity", "zero absorption"} <= axioms
        rng = random.Random(20260811)
        fams = [ws.semirings[k] for k in sorted(ws.semirings)]
        detected = 0
        drawn = 0
        while detected < 200:
            drawn += 1
            assert drawn < 2000, "mutation pool exhausted"
            mutant = oracle.mutate_semiring(fams[drawn % len(fams)], rng)
            if not oracle.naive_axiom_failures(mutant):
                continue  # a lawful structure; nothing to detect
            report = validate_semiring(mutant)
            assert not report.ok, "engine missed an invalid mutation"
            assert any(c.witness is not None for c in report.failures())
            detected += 1
        assert detected == 200


def test_criterion_2_spectrum(ws):
    with budget("2 spectrum", 5):
        expected_primes = {
            "f2_ternary": [[0]],
            "boolean_ternary": [[0]],
            "z4_ternary": [[0, 2]],
        }
        for name, s in sorted(ws.semirings.items()):
            data = spectrum(s)
            assert [sorted(p.members) for p in data.primes] == expected_primes[name]
            ideals = oracle.subset_scan_ideals(s)
            assert sorted(p.bitmask for p in data.primes) == \
                oracle.subset_scan_primes(s, ideals)
            assert sorted(i.bitmask for i in data.ideals) == ideals
        z4 = ws.semiring("z4_ternary")
        res = is_prime(z4, GammaIdeal(z4, frozenset({0})))
        assert not res.ok
        xs, gs = res.witness
        assert z4.mu(xs, gs) == 0 and 0 not in xs
        assert z4.mu((2, 2, 2), (0, 0)) == 0  # the canonical rejection witness


def test_criterion_3_tensor_hom_adjunction(ws):
    with budget("3 adjunction", 60):
        groups = same_parent_small_modules(ws)
        hom_cache = {}
        tensor_cache = {}

        def hom(m, n):
            key = (id(m), id(n))
            if key not in hom_cache:
                hom_cache[key] = hom_gamma(m, n, 2, 0)
            return hom_cache[key]

        def tensor(m, n):
            key = (id(m), id(n))
            if key not in tensor_cache:
                tensor_cache[key] = tensor_positional(m, n, 2, 0)
            return tensor_cache[key]

        for sname, mods in sorted(groups.items()):
            for mn, m in mods:
                for nn, n in mods:
                    t = tensor(m, n)
                    # Universality: every bilinear balanced map factors
                    # uniquely through the canonical pairing.
                    for ln, l in mods:
                        hom_lhs = hom(t.module, l)
                        inner = hom(n, l)
                        hom_rhs = hom(m, inner.module)
                        assert len(hom_lhs.maps) == len(hom_rhs.maps), \
                            (sname, mn, nn, ln)
                        # The currying map is an injection between the two
                        # equal-size hom sets, hence the bijection.
                        images = set()
                        for phi in hom_lhs.maps:
                            slices = tuple(
                                tuple(phi[t.pair(mm, nnn)] for nnn in range(n.M.size))
                                for mm in range(m.M.size))
                            for sl in slices:
                                assert sl in inner.maps
                            images.add(slices)
                        assert len(images) == len(hom_lhs.maps)
                        _check_universality(m, n, t, l)


def _check_universality(m, n, t, l):
    bilinear = _bilinear_balanced_maps(m, n, l)
    factorings = additive_maps(t.module.M, l.M)
    for h in bilinear:
        matches = [phi for phi in factorings
                   if all(phi[t.pair(a, b)] == h[a][b]
                          for a in range(m.M.size) for b in range(n.M.size))]
        assert len(matches) == 1, "bilinear map must factor uniquely"
    # And every factoring induces a bilinear balanced map, so counts agree.
    assert len(bilinear) == len({
        tuple(tuple(phi[t.pair(a, b)] for b in range(n.M.size))
              for a in range(m.M.size))
        for phi in factorings})


def _bilinear_balanced_maps(m, n, l):
    """All bilinear, balanced maps m x n -> l by generator enumeration."""
    from itertools import product as iproduct
    s = m.parent
    mg = m.M.additive_generators() or [m.M.zero]
    ng = n.M.additive_generators() or [n.M.zero]
    out = []
    for assign in iproduct(range(l.M.size), repeat=len(mg) * len(ng)):
        table = {}
        for i, a in enumerate(mg):
            for jj, b in enumerate(ng):
                table[(a, b)] = assign[i * len(ng) + jj]
        full = _propagate_bilinear(m, n, l, table)
        if full is None:
            continue
        ok = True
        for tother in s.t_tuples(s.n - 1):
            for gs in s.g_tuples(s.n - 1):
                for a in range(m.M.size):
                    for b in range(n.M.size):
                        lhs = full[m.act(2, tother, a, gs)][b]
                        rhs = full[a][n.act(0, tother, b, gs)]
                        if lhs != rhs:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            out.append(full)
    uniq = []
    seen = set()
    for full in out:
        key = tuple(tuple(row) for row in full)
        if key not in seen:
            seen.add(key)
            uniq.append(full)
    return uniq


def _propagate_bilinear(m, n, l, gen_table):
    """Extend generator-pair values to the full grid; None if inconsistent."""
    rows = []
    for a in range(m.M.size):
        row = [None] * n.M.size
        rows.append(row)
    # First fill columns at m-generators by additivity in the second slot,
    # then fill all rows by additivity in the first slot.
    partial = {}
    for (a, b), v in gen_table.items():
        partial[(a, b)] = v

    def close():
        changed = True
        while changed:
            changed = False
            for (a, b), v in list(partial.items()):
                for (a2, b2), v2 in list(partial.items()):
                    if a == a2:
                        key = (a, n.M.add(b, b2))
                        val = l.M.add(v, v2)
                        if partial.get(key, val) != val:
                            return False
                        if key not in partial:
                            partial[key] = val
                            changed = True
                    if b == b2:
                        key = (m.M.add(a, a2), b)
                        val = l.M.add(v, v2)
                        if partial.get(key, val) != val:
                            return False
                        if key not in partial:
                            partial[key] = val
                            changed = True
        return True

    for a in range(m.M.size):
        partial[(a, n.M.zero)] = l.M.zero
    for b in range(n.M.size):
        partial[(m.M.zero, b)] = l.M.zero
    if not close():
        return None
    if len(partial) < m.M.size * n.M.size:
        return None
    full = [[partial[(a, b)] for b in range(n.M.size)] for a in range(m.M.size)]
    for a in range(m.M.size):
        for a2 in range(m.M.size):
            for b in range(n.M.size):
                if full[m.M.add(a, a2)][b] != l.M.add(full[a][b], full[a2][b]):
                    return None
    for a in range(m.M.size):
        for b in range(n.M.size):
            for b2 in range(n.M.size):
                if full[a][n.M.add(b, b2)] != l.M.add(full[a][b], full[a][b2]):
                    return None
    return full


def test_criterion_4_bar_soundness(ws):
    with budget("4 bar-soundness", 120):
        for sname in sorted(ws.semirings):
            s = ws.semirings[sname]
            for mname, mod in sorted(ws.modules.items()):
                if mod.parent != s:
                    continue
                # Built, so exact below its cut: the constructor refuses a
                # tower that is not.
                bar = bar_complex(s, mod, 2, 0, depth=4)
                for r in range(1, 4):
                    comp = bar.diffs[r].compose(bar.diffs[r + 1])
                    assert comp.is_zero(), f"d.d != 0 for {mname} at {r}"
                h0 = homology(bar.chain)[0]
                k_m = group_complete(mod.M).group
                assert isomorphic(h0, k_m), f"H0 != completion for {mname}"


def test_criterion_5_balance(ws):
    with budget("5 balance", 120):
        checked = 0
        skipped = []
        for sname in sorted(ws.semirings):
            s = ws.semirings[sname]
            mods = [(n, m) for n, m in sorted(ws.modules.items())
                    if m.parent == s]
            for mn, m in mods:
                for nn, n in mods:
                    rep = balance_check(s, m, n, depth=2)
                    if rep.skipped is not None:
                        skipped.append((sname, mn, nn, rep.skipped))
                        continue
                    assert rep.balanced, \
                        (sname, mn, nn, rep.bar_factors, rep.cofree_factors)
                    checked += 1
        assert checked > 0
        for s_ in skipped:
            print(f"NOTE balance skipped (coresolution refused): {s_[:3]}")


def test_criterion_6_les(ws):
    with budget("6 les", 60):
        reg = ws.module("z4_reg")
        split = ws.conflation("c_split")
        rep = les_check(split, reg, depth=2, side="hom")
        assert rep.ses_ok and rep.completion_exact
        assert all(rep.exact_at)
        assert all(rep.deltas_zero)  # split case degenerates

        ideal_conf = ws.conflation("c_ideal")
        rep = les_check(ideal_conf, reg, depth=2, side="hom")
        assert rep.ses_ok and rep.completion_exact
        assert all(rep.exact_at)
        rep = les_check(ideal_conf, reg, depth=2, side="tor")
        assert rep.ses_ok
        assert all(rep.exact_at)


def test_criterion_7_yoneda(ws):
    with budget("7 yoneda", 120):
        f2 = ws.semiring("f2_ternary")
        reg = ws.module("f2_reg")
        ext = ext_via_bar(f2, reg, reg, depth=3)
        ident = ext.identity_cocycle()
        degrees = {p: ext.cocycles(p) for p in range(3)}
        for p, cocs in degrees.items():
            for c in cocs:
                left = yoneda_compose(ext, 0, ident, ext, p, c, ext)
                right = yoneda_compose(ext, p, c, ext, 0, ident, ext)
                assert ext.classes_equal(p, left, c)
                assert ext.classes_equal(p, right, c)
        for p, cps in degrees.items():
            for q, cqs in degrees.items():
                for r, crs in degrees.items():
                    if p + q + r > 2:
                        continue
                    for cf in cps:
                        for cg in cqs:
                            for ch in crs:
                                gh = yoneda_compose(ext, q, cg, ext, r, ch, ext)
                                a1 = yoneda_compose(ext, p, cf, ext, q + r, gh, ext)
                                fg = yoneda_compose(ext, p, cf, ext, q, cg, ext)
                                a2 = yoneda_compose(ext, p + q, fg, ext, r, ch, ext)
                                assert ext.classes_equal(p + q + r, a1, a2)
        for p in (0, 1):
            for q in (0, 1):
                for c1 in degrees[p]:
                    for c2 in degrees[p]:
                        s12 = ext.complex.groups[p].add(c1, c2)
                        for cg in degrees[q]:
                            lhs = yoneda_compose(ext, p, s12, ext, q, cg, ext)
                            r1 = yoneda_compose(ext, p, c1, ext, q, cg, ext)
                            r2 = yoneda_compose(ext, p, c2, ext, q, cg, ext)
                            assert ext.classes_equal(
                                p + q, lhs, ext.complex.groups[p + q].add(r1, r2))
        seed_src = random.Random(424242)
        agreements = 0
        pairs = [(p, q) for p in (0, 1, 2) for q in (0, 1, 2) if p + q <= 2]
        while agreements < 50:
            rng1 = random.Random(seed_src.randrange(1 << 30))
            rng2 = random.Random(seed_src.randrange(1 << 30))
            p, q = pairs[agreements % len(pairs)]
            for cf in degrees[p]:
                for cg in degrees[q]:
                    a = yoneda_compose(ext, p, cf, ext, q, cg, ext, rng1)
                    b = yoneda_compose(ext, p, cf, ext, q, cg, ext, rng2)
                    assert ext.classes_equal(p + q, a, b)
            agreements += 1
        assert agreements == 50


def test_criterion_8_spectral_consistency(ws):
    with budget("8 spectral", 120):
        f2 = ws.semiring("f2_ternary")
        reg = ws.module("f2_reg")
        rep = kunneth_check(f2, reg, reg, reg, depth=2)
        assert rep.flat_certified
        for (n, lhs, rhs) in rep.diag_first:
            assert lhs == rhs, f"first filtration diagonal {n}: {lhs} != {rhs}"
        for (n, lhs, rhs) in rep.diag_second:
            assert lhs == rhs, f"second filtration diagonal {n}: {lhs} != {rhs}"
        assert rep.law_first and rep.law_second
        # Bounded first quadrant: stable at latest one past the grid width.
        predicted = 2 * 2 + 1
        assert rep.stable_first <= predicted
        assert rep.stable_second <= predicted
        assert rep.e2_matches_direct


def test_criterion_9_base_change(ws):
    with budget("9 base-change", 60):
        ident = ws.morphism("id_f2")
        reg2 = ws.module("f2_reg")
        rep = base_change_check(ident, reg2, reg2, depth=1)
        assert rep.flat
        assert rep.ext_match and rep.tor_match

        q = ws.morphism("q_z4_f2")
        regz = ws.module("z4_reg")
        rep = base_change_check(q, regz, regz, depth=1)
        assert not rep.flat  # the probe must report non-flatness
        assert rep.consistent


def test_criterion_10_oracle_equivalence(ws, capsys):
    with budget("10 oracle", 300):
        rc = cli_main(["--format", "structured", "oracle", "all"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        assert doc["ok"]
        for target, block in doc["results"].items():
            for key, entry in block.items():
                assert entry["agree"], (target, key)


# Structured reports that criterion 11 runs twice; golden_reports.json pins
# their sha256 digests.
DETERMINISM_SUITE = [
    ["validate"],
    ["spectrum", "f2_ternary"],
    ["spectrum", "boolean_ternary"],
    ["spectrum", "z4_ternary"],
    ["ideals", "list", "z4_ternary"],
    ["ideals", "quotient", "z4_ternary", "--ideal", "5"],
    ["mod", "validate", "z4_reg"],
    ["mod", "hom", "z4_reg", "z4_ideal02", "--slots", "3,1"],
    ["mod", "tensor", "z4_reg", "z4_ideal02", "--slots", "3,1"],
    ["mod", "cofree", "z4_ternary", "m_z4"],
    ["complete", "z4_reg"],
    ["ext", "z4_ternary", "z4_reg", "z4_reg", "--depth", "2"],
    ["tor", "z4_ternary", "z4_reg", "z4_ideal02", "--depth", "2"],
    ["balance", "z4_ternary", "z4_reg", "z4_reg", "--depth", "2"],
    ["les", "c_ideal", "z4_reg", "--depth", "2"],
    ["les", "c_split", "z4_reg", "--depth", "1"],
    ["yoneda", "f2_ternary", "f2_reg", "--depth", "2"],
    ["kunneth", "f2_ternary", "f2_reg", "f2_reg", "f2_reg",
     "--depth", "1", "--emit-pages"],
    ["basechange", "q_z4_f2", "z4_reg", "z4_reg"],
    ["oracle", "all"],
    ["ext", "z4_ternary", "z4_reg", "z4_reg", "--depth", "2", "--emit-matrices"],
    ["kunneth", "f2_ternary", "f2_reg", "f2_reg", "f2_reg",
     "--depth", "2", "--emit-pages"],
]


def structured_report(args, capsys) -> str:
    rc = cli_main(["--format", "structured"] + args)
    out = capsys.readouterr().out
    assert rc == 0, args
    json.loads(out)  # well-formed
    return out


def test_criterion_11_determinism(ws, capsys):
    with budget("11 determinism", 300):
        def run_all():
            return "".join(structured_report(args, capsys)
                           for args in DETERMINISM_SUITE).encode("utf-8")

        first = run_all()
        second = run_all()
        assert first == second


def test_structured_reports_match_golden_digests(capsys):
    # Criterion 11 compares two runs of one build; this pins the reports
    # across builds, so a refactor that changes any of them fails here.  After
    # an intended output change, regenerate the file from the same suite.
    golden = json.loads(Path(__file__).with_name("golden_reports.json").read_text())
    assert list(golden) == [" ".join(args) for args in DETERMINISM_SUITE]
    for args in DETERMINISM_SUITE:
        digest = hashlib.sha256(structured_report(args, capsys).encode("utf-8")).hexdigest()
        assert digest == golden[" ".join(args)], args
