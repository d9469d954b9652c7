"""Command-line entry point: parse workspaces, dispatch, report.

One binary with subcommands.  Reports go to standard output either as
human-readable text (which may include timing) or as canonical JSON with
``--format structured``, which is byte-identical across runs on identical
inputs and flags.  Exit codes: 0 for pass reports, 1 for fail reports,
2 for errors.

The module imports only the layers every call needs: the tables, ideals,
modules and workspaces.  ``validate``, ``ideals``, ``spectrum`` and ``mod``
run on those alone.  Each handler above them imports what it calls when it
runs: ``complete`` loads ``completion`` and, under it, the group kernel
(``abgroups``, ``intlinalg``); ``ext``, ``tor``, ``balance``, ``les`` and
``yoneda`` load ``homology`` as well; ``kunneth`` and ``basechange`` load
``spectral``; and ``oracle`` loads ``homology`` and ``oracle``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from . import __version__
from .bundled import bundled_path
from .core import (
    BoundExceeded, NaryGammaSemiring, RegularityError, SoundnessError, StructuralError,
    validate_semiring,
)
from .ideals import (
    DEFAULT_SIZE_BOUND, GammaIdeal, all_ideals, check_ideal, quotient, spectrum,
    topology_report,
)
from .modules import (
    TensorCongruence, cofree, equivariant_maps, hom_gamma, regular_bimodule, resolve_slot,
    tensor_positional, validate_module,
)
from .workspace import Workspace, WorkspaceError, merge_bytes

PASS, FAIL, ERROR = 0, 1, 2


def _parse_slots(text: str | None, s: NaryGammaSemiring) -> tuple[int, int]:
    """The 0-based slot pair of a --slots flag over semiring s, by default
    ``modules.resolve_slot``'s; the entry points refuse a pair outside 1..n
    (``modules.check_slots``)."""
    if text is None:
        return resolve_slot(s, None), 0
    try:
        j, k = (int(x) for x in text.split(","))
    except ValueError:
        raise StructuralError(f"--slots wants 'j,k', got {text!r}")
    return j - 1, k - 1


def _depth(text: str) -> int:
    """The value of a --depth flag: a nonnegative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def _add_derived_flags(p: argparse.ArgumentParser, depth: int = 2) -> None:
    """The slot and depth flags of the derived commands."""
    p.add_argument("--slots", default=None)
    p.add_argument("--depth", type=_depth, default=depth)


def _factors(g) -> list[int]:
    return list(g.invariant_factors())


class Reporter:
    def __init__(self, args):
        self.fmt = args.format
        self.started = time.perf_counter()
        self.args = args

    def emit(self, results: dict, ok: bool, workspace: Workspace) -> int:
        if self.fmt == "structured":
            doc = {
                "schema": "ngamma-report/1",
                "engine": f"ngamma {__version__}",
                "command": self.args.command_echo,
                "inputs": dict(sorted(workspace.digests.items())),
                "ok": ok,
                "results": results,
            }
            sys.stdout.write(json.dumps(doc, sort_keys=True,
                                        separators=(",", ":")) + "\n")
        else:
            print(f"ngamma {__version__} :: {' '.join(self.args.command_echo)}")
            _print_tree(results)
            print(f"status: {'pass' if ok else 'FAIL'}")
            print(f"elapsed: {time.perf_counter() - self.started:.3f}s")
        return PASS if ok else FAIL


def _print_tree(tree: dict, indent=0):
    pad = "  " * indent
    for key, val in tree.items():
        if isinstance(val, dict) and val:
            print(f"{pad}{key}:")
            _print_tree(val, indent + 1)
        else:
            print(f"{pad}{key}: {val}")


def _load(args) -> Workspace:
    """The validated workspace of each ``-w`` file in order, else of the
    packaged one unless ``--no-bundled``.  The key is the sources' bytes,
    read on every call: while they equal the last successful load's, its
    workspace (which handlers only read) is returned without validating
    again.  ``bundled_workspace`` and ``parse_workspace`` keep no memo.
    """
    if args.workspace:
        sources = tuple((path, Path(path).read_bytes()) for path in args.workspace)
    else:
        sources = () if args.no_bundled else (("<bundled>", bundled_path().read_bytes()),)
    return _validated(sources)


@functools.lru_cache(maxsize=1)
def _validated(sources: tuple[tuple[str, bytes], ...]) -> Workspace:
    """A fresh workspace with each (where, raw bytes) source merged in."""
    ws = Workspace()
    for where, raw in sources:
        merge_bytes(ws, raw, where)
    return ws


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _one_scope(handler):
    """``handler`` as one derived call: the entry points it calls one after
    another share one scope (``intlinalg.shares_factorizations``), which is
    imported when the handler runs."""
    @functools.wraps(handler)
    def run(ws: Workspace, args, rep: Reporter) -> int:
        from .intlinalg import shares_factorizations
        return shares_factorizations(handler)(ws, args, rep)

    return run


def cmd_validate(ws: Workspace, args, rep: Reporter) -> int:
    results = {
        "semirings": {name: "valid" for name in sorted(ws.semirings)},
        "modules": {name: "valid" for name in sorted(ws.modules)},
        "morphisms": {name: "valid" for name in sorted(ws.morphisms)},
        "conflations": {name: "valid" for name in sorted(ws.conflations)},
    }
    return rep.emit(results, True, ws)


def cmd_ideals(ws: Workspace, args, rep: Reporter) -> int:
    s = ws.semiring(args.semiring)
    if args.action == "list":
        ideals = all_ideals(s, args.bound)
        results = {"ideals": [sorted(i.members) for i in ideals]}
        return rep.emit(results, True, ws)
    if args.ideal < 0 or args.ideal >> s.T.size:
        raise StructuralError(f"--ideal {args.ideal} is not a bitmask over the "
                              f"{s.T.size} elements of {args.semiring}")
    members = frozenset(e for e in range(s.T.size) if args.ideal >> e & 1)
    ideal = GammaIdeal(s, members)
    chk = check_ideal(s, members)
    if not chk.ok:
        return rep.emit({"error": f"not an ideal: {chk.witness}"}, False, ws)
    q, proj = quotient(s, ideal)
    results = {
        "classes": q.T.size,
        "projection": list(proj.map),
        "mu": list(q.mu_table),
        "add": list(q.T.add_table),
    }
    return rep.emit(results, True, ws)


def cmd_spectrum(ws: Workspace, args, rep: Reporter) -> int:
    s = ws.semiring(args.semiring)
    data = spectrum(s, args.bound)
    results = {
        "ideals": [sorted(i.members) for i in data.ideals],
        "primes": [sorted(p.members) for p in data.primes],
        "closed_sets": [[mask, list(v)] for mask, v in data.closed_sets.items()],
        "topology": topology_report(data),
    }
    return rep.emit(results, True, ws)


# The number of names each mod action takes.
MOD_NAMES = {"validate": 1, "hom": 2, "tensor": 2, "cofree": 2}


def cmd_mod(ws: Workspace, args, rep: Reporter) -> int:
    want = MOD_NAMES[args.action]
    if len(args.names) != want:
        raise StructuralError(f"mod {args.action} takes {want} name(s), "
                              f"got {len(args.names)}")
    if args.action == "validate":
        b = ws.module(args.names[0])
        report = validate_module(b)
        results = {c.axiom: ("pass" if c.ok else f"fail {c.witness}")
                   for c in report.checks}
        return rep.emit(results, report.ok, ws)
    if args.action == "hom":
        m, n = ws.module(args.names[0]), ws.module(args.names[1])
        j, k = _parse_slots(args.slots, m.parent)
        h = hom_gamma(m, n, j, k)
        results = {"size": h.module.M.size, "maps": [list(f) for f in h.maps]}
        return rep.emit(results, True, ws)
    if args.action == "tensor":
        m, n = ws.module(args.names[0]), ws.module(args.names[1])
        j, k = _parse_slots(args.slots, m.parent)
        t = tensor_positional(m, n, j, k)
        results = {"size": t.module.M.size,
                   "add": list(t.module.M.add_table),
                   "pairs": [list(row) for row in t.beta]}
        return rep.emit(results, True, ws)
    s = ws.semiring(args.names[0])  # cofree
    coeff = ws.monoid(args.names[1])
    cf = cofree(s, coeff)
    results = {"size": cf.module.M.size, "maps": [list(f) for f in cf.maps]}
    return rep.emit(results, True, ws)


def cmd_complete(ws: Workspace, args, rep: Reporter) -> int:
    from .completion import linearize_module
    lin = linearize_module(ws.module(args.module))
    comp = lin.completion
    results = {
        "invariant_factors": _factors(comp.group),
        "element_vectors": [list(v) for v in comp.vectors],
        "operators": len(lin.ops[0]) * len(lin.ops),
    }
    return rep.emit(results, True, ws)


def cmd_ext_tor(ws: Workspace, args, rep: Reporter) -> int:
    from .homology import ext_via_bar, tor_via_bar
    s = ws.semiring(args.semiring)
    m, n = ws.module(args.m), ws.module(args.n)
    j, k = _parse_slots(args.slots, s)
    fn = ext_via_bar if args.cmd == "ext" else tor_via_bar
    res = fn(s, m, n, j, k, args.depth)
    results = {"degrees": {str(r): list(f) for r, f in enumerate(res.factors())}}
    if args.emit_matrices:
        results["bar_differentials"] = {str(r): d.mat for r, d in res.resolution.diffs.items()}
    return rep.emit(results, True, ws)


def cmd_balance(ws: Workspace, args, rep: Reporter) -> int:
    from .homology import balance_check
    s = ws.semiring(args.semiring)
    m, n = ws.module(args.m), ws.module(args.n)
    j, k = _parse_slots(args.slots, s)
    b = balance_check(s, m, n, args.depth, j, k)
    results = {
        "bar": [list(f) for f in b.bar_factors],
        "cofree": [list(f) for f in b.cofree_factors],
        "skipped": b.skipped,
        "balanced": b.balanced,
    }
    return rep.emit(results, b.balanced or b.skipped is not None, ws)


def cmd_les(ws: Workspace, args, rep: Reporter) -> int:
    from .homology import les_check
    c = ws.conflation(args.conflation)
    n = ws.module(args.n)
    j, k = _parse_slots(args.slots, n.parent)
    r = les_check(c, n, args.depth, args.side, j, k)
    results = {
        "nodes": {lab: _factors(g) for lab, g in zip(r.labels, r.groups)},
        "exact_at": r.exact_at,
        "deltas_zero": r.deltas_zero,
        "short_sequences_exact": r.ses_ok,
        "completion_exact": r.completion_exact,
        "note": r.note,
    }
    return rep.emit(results, r.all_exact, ws)


@_one_scope
def cmd_yoneda(ws: Workspace, args, rep: Reporter) -> int:
    from .homology import YONEDA_COMPOSITE_BOUND, ext_via_bar, yoneda_compose
    s = ws.semiring(args.semiring)
    m = ws.module(args.m)
    j, k = _parse_slots(args.slots, s)
    ext = ext_via_bar(s, m, m, j, k, args.depth)
    ident = ext.identity_cocycle()
    table = {}
    ok = True
    degrees = {p: ext.cocycles(p) for p in range(args.depth + 1)}
    count = sum(len(cps) * len(cqs) for p, cps in degrees.items()
                for q, cqs in degrees.items() if p + q <= args.depth)
    if count > YONEDA_COMPOSITE_BOUND:
        raise BoundExceeded(f"yoneda table of {count} composites (every cocycle pair with "
                            f"p + q <= {args.depth}) exceeds its bound {YONEDA_COMPOSITE_BOUND}")
    for p, cps in degrees.items():
        for q, cqs in degrees.items():
            if p + q > args.depth:
                continue
            for cf in cps:
                for cg in cqs:
                    out = yoneda_compose(ext, p, cf, ext, q, cg, ext)
                    key = f"{p}:{list(cf)} . {q}:{list(cg)}"
                    table[key] = list(ext.class_of(p + q, out))
    for p, cps in degrees.items():
        for c in cps:
            left = yoneda_compose(ext, 0, ident, ext, p, c, ext)
            right = yoneda_compose(ext, p, c, ext, 0, ident, ext)
            ok = ok and ext.classes_equal(p, left, c) \
                and ext.classes_equal(p, right, c)
    results = {"identity": list(ident), "products": table, "unital": ok}
    return rep.emit(results, ok, ws)


def cmd_kunneth(ws: Workspace, args, rep: Reporter) -> int:
    from .spectral import kunneth_check
    s = ws.semiring(args.semiring)
    m, n, l = ws.module(args.m), ws.module(args.n), ws.module(args.l)
    j, k = _parse_slots(args.slots, s)
    r = kunneth_check(s, m, n, l, args.depth, j, k)
    results = {
        "flat_certified": r.flat_certified,
        "identification": ("checked" if r.flat_certified else "consistency only"),
        "diagonal_orders_first": r.diag_first,
        "diagonal_orders_second": r.diag_second,
        "stable_from": [r.stable_first, r.stable_second],
        "page_law": [r.law_first, r.law_second],
        "e2_matches_direct": r.e2_matches_direct,
        "consistent": r.consistent,
    }
    if args.emit_pages:
        results["e2_first"] = {f"{p},{q}": list(v)
                               for (p, q), v in sorted(r.e2_first.items())}
        results["e2_second"] = {f"{p},{q}": list(v)
                                for (p, q), v in sorted(r.e2_second.items())}
        results["direct"] = {f"{p},{q}": list(v)
                             for (p, q), v in sorted(r.direct_grid.items())}
    return rep.emit(results, r.consistent, ws)


def cmd_basechange(ws: Workspace, args, rep: Reporter) -> int:
    from .spectral import base_change_check
    f = ws.morphism(args.morphism)
    m, n = ws.module(args.m), ws.module(args.n)
    j, k = _parse_slots(args.slots, f.source)
    r = base_change_check(f, m, n, args.depth, j, k)
    results = {
        "flat": r.flat,
        "ext_source_extended": [list(x) for x in r.ext_left],
        "ext_target": [list(x) for x in r.ext_right],
        "tor_target": [list(x) for x in r.tor_left],
        "tor_source_restricted": [list(x) for x in r.tor_right],
        "ext_match": r.ext_match,
        "tor_match": r.tor_match,
        "consistent": r.consistent,
    }
    return rep.emit(results, r.consistent, ws)


@_one_scope
def cmd_oracle(ws: Workspace, args, rep: Reporter) -> int:
    from . import oracle as oracle_mod
    from .homology import bar_complex, homology
    results = {}
    ok = True
    columns = oracle_mod.column_reader()  # each module's action, read once
    # Each semiring's subsets are scanned once, for its ideals and its primes.
    ideal_masks = functools.cache(
        lambda name: oracle_mod.subset_scan_ideals(ws.semirings[name]))
    targets = ([args.target] if args.target != "all" else
               ["axioms", "ideals", "spectrum", "hom", "tensor", "homology"])
    for target in targets:
        block = {}
        if target == "axioms":
            for name in sorted(ws.semirings):
                s = ws.semirings[name]
                eng = validate_semiring(s).ok
                orc = not oracle_mod.naive_axiom_failures(s)
                block[name] = {"engine": eng, "oracle": orc, "agree": eng == orc}
                ok = ok and eng == orc
        elif target == "ideals":
            for name in sorted(ws.semirings):
                s = ws.semirings[name]
                eng = sorted(i.bitmask for i in all_ideals(s))
                orc = ideal_masks(name)
                block[name] = {"agree": eng == orc, "count": len(eng)}
                ok = ok and eng == orc
        elif target == "spectrum":
            for name in sorted(ws.semirings):
                s = ws.semirings[name]
                eng = sorted(p.bitmask for p in spectrum(s).primes)
                orc = oracle_mod.subset_scan_primes(s, ideal_masks(name))
                block[name] = {"agree": eng == orc, "primes": eng}
                ok = ok and eng == orc
        elif target in ("hom", "tensor"):
            for m_name in sorted(ws.modules):
                for n_name in sorted(ws.modules):
                    m, n = ws.modules[m_name], ws.modules[n_name]
                    if m.parent != n.parent:
                        continue
                    try:
                        if target == "hom":
                            orc = sorted(oracle_mod.all_maps_hom(m, n, columns))
                            eng = sorted(equivariant_maps(m, n))
                            key, entry = f"{m_name}->{n_name}", {"count": len(eng)}
                        else:
                            j = resolve_slot(m.parent, None)
                            orc = oracle_mod.tensor_class_count(m, n, j, 0, columns)
                            eng = TensorCongruence(m, n, j, 0).monoid.size
                            key, entry = f"{m_name}(x){n_name}", {"size": eng}
                    except BoundExceeded:
                        continue
                    block[key] = {"agree": eng == orc, **entry}
                    ok = ok and eng == orc
        elif target == "homology":
            for name in sorted(ws.semirings):
                s = ws.semirings[name]
                try:
                    bar = bar_complex(s, regular_bimodule(s), resolve_slot(s, None), 0, depth=3)
                except (SoundnessError, RegularityError, BoundExceeded) as e:
                    block[name] = {"skipped": str(e)}
                    continue
                hs = homology(bar.chain, 2)
                agree = True
                for r in range(3):
                    orc = oracle_mod.homology_orders_bruteforce(bar.chain, r)
                    agree = agree and hs[r].invariant_factors() == orc
                block[name] = {"agree": agree}
                ok = ok and agree
        results[target] = block
    return rep.emit(results, ok, ws)


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------

def _args_ideals(p: argparse.ArgumentParser) -> None:
    p.add_argument("action", choices=("list", "quotient"))
    p.add_argument("semiring")
    p.add_argument("--ideal", type=int, default=1,
                   help="ideal as a bitmask over element indices")


def _args_spectrum(p: argparse.ArgumentParser) -> None:
    p.add_argument("semiring")


def _args_mod(p: argparse.ArgumentParser) -> None:
    p.add_argument("action", choices=tuple(MOD_NAMES))
    p.add_argument("names", nargs="+")
    p.add_argument("--slots", default=None,
                   help="slot pair j,k; defaults to last-against-first")


def _args_complete(p: argparse.ArgumentParser) -> None:
    p.add_argument("module")


def _args_balance(p: argparse.ArgumentParser) -> None:
    p.add_argument("semiring")
    p.add_argument("m")
    p.add_argument("n")
    _add_derived_flags(p)


def _args_ext_tor(p: argparse.ArgumentParser) -> None:
    _args_balance(p)
    p.add_argument("--emit-matrices", action="store_true")


def _args_les(p: argparse.ArgumentParser) -> None:
    p.add_argument("conflation")
    p.add_argument("n")
    p.add_argument("--side", choices=("hom", "tor"), default="hom")
    _add_derived_flags(p)


def _args_yoneda(p: argparse.ArgumentParser) -> None:
    p.add_argument("semiring")
    p.add_argument("m")
    _add_derived_flags(p)


def _args_kunneth(p: argparse.ArgumentParser) -> None:
    p.add_argument("semiring")
    p.add_argument("m")
    p.add_argument("n")
    p.add_argument("l")
    _add_derived_flags(p)
    p.add_argument("--emit-pages", action="store_true")


def _args_basechange(p: argparse.ArgumentParser) -> None:
    p.add_argument("morphism")
    p.add_argument("m")
    p.add_argument("n")
    _add_derived_flags(p, depth=1)


def _args_oracle(p: argparse.ArgumentParser) -> None:
    p.add_argument("target",
                   choices=("axioms", "ideals", "spectrum", "hom", "tensor",
                            "homology", "all"))


# Every subcommand, in help order: name -> (help, argument registration,
# handler).
COMMANDS = {
    "validate": ("validate everything in the workspace", lambda p: None, cmd_validate),
    "ideals": ("list ideals or build a quotient", _args_ideals, cmd_ideals),
    "spectrum": ("prime ideals and closed sets", _args_spectrum, cmd_spectrum),
    "mod": ("module-level operations", _args_mod, cmd_mod),
    "complete": ("group completion of a module", _args_complete, cmd_complete),
    "ext": ("derived ext groups via the bar tower", _args_ext_tor, cmd_ext_tor),
    "tor": ("derived tor groups via the bar tower", _args_ext_tor, cmd_ext_tor),
    "balance": ("compare the two derived Hom routes", _args_balance, cmd_balance),
    "les": ("long exact sequence of a conflation", _args_les, cmd_les),
    "yoneda": ("composition table of extension classes", _args_yoneda, cmd_yoneda),
    "kunneth": ("double-complex page consistency", _args_kunneth, cmd_kunneth),
    "basechange": ("derived comparisons along a morphism", _args_basechange,
                   cmd_basechange),
    "oracle": ("brute-force recomputation diff", _args_oracle, cmd_oracle),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ngamma`` parser, built once per process and shared by every
    caller, who only parses with it.

    argparse does not change a parser while it parses, so every call of
    ``main`` reads its argv with this one.
    """
    top = argparse.ArgumentParser(
        prog="ngamma",
        description="exact computations over finite n-ary parameterized semirings")
    top.add_argument("-w", "--workspace", action="append", metavar="FILE",
                     help="workspace file (repeatable); bundled examples by default")
    top.add_argument("--no-bundled", action="store_true",
                     help="do not fall back to the bundled workspace")
    top.add_argument("--format", choices=("text", "structured"), default="text")
    top.add_argument("--bound", type=int, default=DEFAULT_SIZE_BOUND,
                     help="carrier size bound for ideals list and spectrum")
    sub = top.add_subparsers(dest="cmd", required=True)
    for name, (text, register, _handler) in COMMANDS.items():
        register(sub.add_parser(name, help=text))
    return top


def main(argv=None) -> int:
    """Run one ``ngamma`` call on ``argv`` and return its exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return ERROR if e.code not in (0, None) else 0
    args.command_echo = argv
    rep = Reporter(args)
    try:
        ws = _load(args)
        return COMMANDS[args.cmd][2](ws, args, rep)
    except (WorkspaceError, StructuralError, BoundExceeded, RegularityError,
            SoundnessError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return ERROR


if __name__ == "__main__":
    raise SystemExit(main())
