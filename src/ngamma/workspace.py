"""Versioned file format and eagerly validated workspaces.

The on-disk format is JSON with one object per structure kind, defined once
by ``KINDS`` for reading and writing.  Tables are flat row-major integer
lists with the leftmost argument slowest and the last parameter fastest,
matching the in-memory convention bit for bit.  Loading a workspace
validates everything it contains; any malformed document or axiom violation
aborts with a ``WorkspaceError`` naming the file, the structure and the
witness rather than letting a bad structure reach an engine computation.
"""

from __future__ import annotations

import hashlib
import json

from .core import (
    FiniteAddMonoid, GammaSemigroup, GammaSemiringMorphism, NaryGammaSemiring,
    StructuralError, validate_morphism, validate_semiring,
)
from .modules import (
    BiGammaModule, Conflation, ModuleMorphism, check_conflation,
    validate_module, validate_module_morphism,
)

SCHEMA = "ngamma-workspace/1"


class WorkspaceError(ValueError):
    """Schema problems, dangling references, or validation failures."""


class Workspace:
    """The structures of the loaded files by section and name (one section
    per ``KINDS`` entry), and each file's sha256 under ``digests``."""

    def __init__(self):
        self.monoids: dict[str, FiniteAddMonoid] = {}
        self.gammas: dict[str, GammaSemigroup] = {}
        self.semirings: dict[str, NaryGammaSemiring] = {}
        self.modules: dict[str, BiGammaModule] = {}
        self.morphisms: dict[str, GammaSemiringMorphism] = {}
        self.module_morphisms: dict[str, ModuleMorphism] = {}
        self.conflations: dict[str, Conflation] = {}
        self.digests: dict[str, str] = {}

    def semiring(self, name: str) -> NaryGammaSemiring:
        return self._get(self.semirings, name, "semiring")

    def module(self, name: str) -> BiGammaModule:
        return self._get(self.modules, name, "module")

    def morphism(self, name: str) -> GammaSemiringMorphism:
        return self._get(self.morphisms, name, "morphism")

    def conflation(self, name: str) -> Conflation:
        return self._get(self.conflations, name, "conflation")

    def monoid(self, name: str) -> FiniteAddMonoid:
        return self._get(self.monoids, name, "monoid")

    @staticmethod
    def _get(table, name, kind):
        if name not in table:
            raise WorkspaceError(f"unknown {kind} '{name}'")
        return table[name]


def _failures(*checks) -> list[tuple]:
    return [(c.axiom, c.witness) for c in checks if not c.ok]


# One entry per structure kind, in load order: (section, label, refs, build,
# check, write).  ``refs`` are the body fields naming earlier structures, as
# (field, section, what); ``build(name, body, *referenced)`` constructs the
# object, ``check`` lists its (axiom, witness) failures and ``write`` gives its
# body without the refs.  The checks look the validators up when they run, so
# rebinding this module's names (as a tracer does) sees every call.
KINDS = (
    ("monoids", "monoid", (),
     lambda name, body: FiniteAddMonoid(body["size"], tuple(body["add"]),
                                        body.get("zero", 0)),
     lambda m: m.validate(),
     lambda m: {"size": m.size, "zero": m.zero, "add": list(m.add_table)}),
    ("gammas", "gamma", (),
     lambda name, body: GammaSemigroup(body["size"], tuple(body["add"]),
                                       body.get("zero") is not None, body.get("zero")),
     lambda g: g.validate(),
     lambda g: {"size": g.size, "add": list(g.add_table),
                "zero": g.zero if g.has_zero else None}),
    ("semirings", "semiring",
     (("T", "monoids", "carrier monoid"), ("gamma", "gammas", "parameter semigroup")),
     lambda name, body, t, g: NaryGammaSemiring(body["n"], t, g, tuple(body["mu"]),
                                                name=name),
     lambda s: _failures(*validate_semiring(s).checks),
     lambda s: {"n": s.n, "mu": list(s.mu_table)}),
    ("modules", "module",
     (("semiring", "semirings", "semiring"), ("M", "monoids", "carrier monoid")),
     lambda name, body, s, m: BiGammaModule(s, m, tuple(tuple(t) for t in body["act"]),
                                            name=name),
     lambda b: _failures(*validate_module(b).checks),
     lambda b: {"act": [list(t) for t in b.act_tables]}),
    ("morphisms", "morphism",
     (("source", "semirings", "semiring"), ("target", "semirings", "semiring")),
     lambda name, body, src, dst: GammaSemiringMorphism(src, dst, tuple(body["map"])),
     lambda f: _failures(*validate_morphism(f).checks),
     lambda f: {"map": list(f.map)}),
    ("module_morphisms", "module morphism",
     (("source", "modules", "module"), ("target", "modules", "module")),
     lambda name, body, src, dst: ModuleMorphism(src, dst, tuple(body["map"])),
     lambda f: _failures(*validate_module_morphism(f).checks),
     lambda f: {"map": list(f.map)}),
    ("conflations", "conflation",
     (("i", "module_morphisms", "inflation"), ("p", "module_morphisms", "deflation")),
     lambda name, body, i, p: Conflation(i, p),
     lambda c: _failures(check_conflation(c)),
     lambda: {}),
)


def _require(cond, where, msg):
    if not cond:
        raise WorkspaceError(f"{where}: {msg}")


def parse_workspace(paths: list[str]) -> Workspace:
    """Load and fully validate one or more workspace files."""
    ws = Workspace()
    for path in paths:
        with open(path, "rb") as fh:
            merge_bytes(ws, fh.read(), where=path)
    return ws


def _integers_only(text: str):
    raise ValueError(f"the format has integers only, not {text}")


def _first_bool(doc):
    """The first JSON true or false found in ``doc``, or None."""
    stack = [doc]
    while stack:
        v = stack.pop()
        if isinstance(v, bool):
            return v
        stack.extend(v.values() if isinstance(v, dict) else v if isinstance(v, list) else ())
    return None


def merge_bytes(ws: Workspace, raw: bytes, where: str) -> Workspace:
    """Record the sha256 of ``raw`` under ``where``, decode it and merge it.

    The decoder has no hook for true and false, so the document is walked
    for them, but only when its bytes hold one of the two words.
    """
    ws.digests[where] = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw.decode("utf-8"), parse_float=_integers_only,
                         parse_constant=_integers_only)
        if b"true" in raw or b"false" in raw:
            flag = _first_bool(doc)
            if flag is not None:
                _integers_only(json.dumps(flag))
    except (ValueError, RecursionError) as e:
        raise WorkspaceError(f"{where}: not integer-only UTF-8 JSON ({e})") from None
    return merge_document(ws, doc, where=where)


def merge_document(ws: Workspace, doc: dict, where: str = "<doc>") -> Workspace:
    """Build, validate and store each structure of ``doc``, kind by kind; a
    failure raises "FILE: KIND 'NAME': PROBLEM" with the first witness."""
    _require(isinstance(doc, dict), where, "top level must be an object")
    _require(doc.get("schema") == SCHEMA, where,
             f"unsupported schema {doc.get('schema')!r}; expected {SCHEMA!r}")
    for section, label, refs, build, check, _ in KINDS:
        entries = doc.get(section, {})
        _require(isinstance(entries, dict), where, f"'{section}' must be an object")
        store = getattr(ws, section)
        for name, body in entries.items():
            at = f"{where}: {label} '{name}'"
            _require(name not in store, at, "duplicate name")
            _require(isinstance(body, dict), at, "body must be an object")
            found = []
            for fld, sec, what in refs:
                ref, table = body.get(fld), getattr(ws, sec)
                _require(isinstance(ref, str) and ref in table, at,
                         f"'{fld}' names no {what}: {ref!r}")
                found.append(table[ref])
            try:
                obj = build(name, body, *found)
            except KeyError as e:
                raise WorkspaceError(f"{at}: missing field {e}") from None
            except (StructuralError, TypeError) as e:
                raise WorkspaceError(f"{at}: {e}") from None
            issues = check(obj)
            if issues:
                raise WorkspaceError("{}: fails {} with witness {}".format(at, *issues[0]))
            store[name] = obj
    return ws


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def workspace_document(monoids=None, gammas=None, semirings=None, modules=None,
                       morphisms=None, module_morphisms=None, conflations=None):
    """Build the JSON document for named structures.

    Each argument maps names to a structure followed by the names of the
    structures its ``KINDS`` refs point to: monoids and gammas map to bare
    objects, and a conflation is only its (i, p) names.  The caller supplies
    consistent names for the shared monoids and parameter semigroups.
    """
    doc = {"schema": SCHEMA}
    sections = (monoids, gammas, semirings, modules, morphisms, module_morphisms,
                conflations)
    for (section, _, refs, _, _, write), entries in zip(KINDS, sections):
        for name, entry in (entries or {}).items():
            parts = entry if refs else (entry,)
            split = len(parts) - len(refs)
            body = write(*parts[:split])
            body.update(zip((fld for fld, _, _ in refs), parts[split:]))
            doc.setdefault(section, {})[name] = body
    return doc


def dump_document(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"
