"""Versioned file format and eagerly validated workspaces.

The on-disk format is JSON with one object per structure kind.  Tables are
flat row-major integer lists with the leftmost argument slowest and the last
parameter fastest, matching the in-memory convention bit for bit.  Loading a
workspace validates everything it contains; any axiom violation aborts with
the offending witness rather than letting a bad structure reach an engine
computation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

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


@dataclass
class Workspace:
    monoids: dict[str, FiniteAddMonoid] = field(default_factory=dict)
    gammas: dict[str, GammaSemigroup] = field(default_factory=dict)
    semirings: dict[str, NaryGammaSemiring] = field(default_factory=dict)
    modules: dict[str, BiGammaModule] = field(default_factory=dict)
    morphisms: dict[str, GammaSemiringMorphism] = field(default_factory=dict)
    module_morphisms: dict[str, ModuleMorphism] = field(default_factory=dict)
    conflations: dict[str, Conflation] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)

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

    def semiring_name(self, s: NaryGammaSemiring) -> str:
        for name, cand in self.semirings.items():
            if cand == s:
                return name
        return s.name or "?"


def _require(cond, where, msg):
    if not cond:
        raise WorkspaceError(f"{where}: {msg}")


def parse_workspace(paths: list[str]) -> Workspace:
    """Load and fully validate one or more workspace files."""
    ws = Workspace()
    for path in paths:
        with open(path, "rb") as fh:
            raw = fh.read()
        merge_bytes(ws, raw, where=path)
    return ws


def merge_bytes(ws: Workspace, raw: bytes, where: str) -> Workspace:
    """Record the sha256 of ``raw`` under ``where``, decode it and merge it."""
    ws.digests[where] = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise WorkspaceError(f"{where}: not valid UTF-8 JSON ({e})")
    return merge_document(ws, doc, where=where)


def merge_document(ws: Workspace, doc: dict, where: str = "<doc>") -> Workspace:
    _require(isinstance(doc, dict), where, "top level must be an object")
    _require(doc.get("schema") == SCHEMA, where,
             f"unsupported schema {doc.get('schema')!r}; expected {SCHEMA!r}")

    for name, body in doc.get("monoids", {}).items():
        _require(name not in ws.monoids, where, f"duplicate monoid '{name}'")
        try:
            m = FiniteAddMonoid(body["size"], tuple(body["add"]), body.get("zero", 0))
        except (KeyError, StructuralError, TypeError) as e:
            raise WorkspaceError(f"{where}: monoid '{name}': {e}")
        issues = m.validate()
        _require(not issues, where, f"monoid '{name}' violates {issues[:1]}")
        ws.monoids[name] = m

    for name, body in doc.get("gammas", {}).items():
        _require(name not in ws.gammas, where, f"duplicate gamma '{name}'")
        zero = body.get("zero")
        try:
            g = GammaSemigroup(body["size"], tuple(body["add"]),
                               has_zero=zero is not None, zero=zero)
        except (KeyError, StructuralError, TypeError) as e:
            raise WorkspaceError(f"{where}: gamma '{name}': {e}")
        issues = g.validate()
        _require(not issues, where, f"gamma '{name}' violates {issues[:1]}")
        ws.gammas[name] = g

    for name, body in doc.get("semirings", {}).items():
        _require(name not in ws.semirings, where, f"duplicate semiring '{name}'")
        t = ws.monoid(body["T"]) if body.get("T") in ws.monoids else None
        _require(t is not None, where, f"semiring '{name}': unknown carrier monoid")
        _require(body.get("gamma") in ws.gammas, where,
                 f"semiring '{name}': unknown parameter semigroup")
        try:
            s = NaryGammaSemiring(body["n"], t, ws.gammas[body["gamma"]],
                                  tuple(body["mu"]), name=name)
        except (KeyError, StructuralError, TypeError) as e:
            raise WorkspaceError(f"{where}: semiring '{name}': {e}")
        report = validate_semiring(s)
        _require(report.ok, where,
                 f"semiring '{name}' fails {[str(c.axiom) + ' ' + str(c.witness) for c in report.failures()]}")
        ws.semirings[name] = s

    for name, body in doc.get("modules", {}).items():
        _require(name not in ws.modules, where, f"duplicate module '{name}'")
        _require(body.get("semiring") in ws.semirings, where,
                 f"module '{name}': unknown semiring")
        _require(body.get("M") in ws.monoids, where,
                 f"module '{name}': unknown carrier monoid")
        try:
            b = BiGammaModule(ws.semirings[body["semiring"]],
                              ws.monoids[body["M"]],
                              tuple(tuple(t) for t in body["act"]), name=name)
        except (KeyError, StructuralError, TypeError) as e:
            raise WorkspaceError(f"{where}: module '{name}': {e}")
        report = validate_module(b)
        _require(report.ok, where,
                 f"module '{name}' fails {[str(c.axiom) + ' ' + str(c.witness) for c in report.failures()]}")
        ws.modules[name] = b

    for name, body in doc.get("morphisms", {}).items():
        _require(name not in ws.morphisms, where, f"duplicate morphism '{name}'")
        _require(body.get("source") in ws.semirings, where,
                 f"morphism '{name}': unknown source")
        _require(body.get("target") in ws.semirings, where,
                 f"morphism '{name}': unknown target")
        try:
            f = GammaSemiringMorphism(ws.semirings[body["source"]],
                                      ws.semirings[body["target"]],
                                      tuple(body["map"]))
        except (KeyError, StructuralError, TypeError) as e:
            raise WorkspaceError(f"{where}: morphism '{name}': {e}")
        report = validate_morphism(f)
        _require(report.ok, where, f"morphism '{name}' is not a morphism")
        ws.morphisms[name] = f

    for name, body in doc.get("module_morphisms", {}).items():
        _require(name not in ws.module_morphisms, where,
                 f"duplicate module morphism '{name}'")
        _require(body.get("source") in ws.modules, where,
                 f"module morphism '{name}': unknown source")
        _require(body.get("target") in ws.modules, where,
                 f"module morphism '{name}': unknown target")
        try:
            f = ModuleMorphism(ws.modules[body["source"]],
                               ws.modules[body["target"]], tuple(body["map"]))
        except (KeyError, StructuralError, TypeError) as e:
            raise WorkspaceError(f"{where}: module morphism '{name}': {e}")
        report = validate_module_morphism(f)
        _require(report.ok, where, f"module morphism '{name}' is not a morphism")
        ws.module_morphisms[name] = f

    for name, body in doc.get("conflations", {}).items():
        _require(name not in ws.conflations, where, f"duplicate conflation '{name}'")
        _require(body.get("i") in ws.module_morphisms, where,
                 f"conflation '{name}': unknown inflation")
        _require(body.get("p") in ws.module_morphisms, where,
                 f"conflation '{name}': unknown deflation")
        c = Conflation(ws.module_morphisms[body["i"]], ws.module_morphisms[body["p"]])
        check = check_conflation(c)
        _require(check.ok, where, f"conflation '{name}' fails: {check.witness}")
        ws.conflations[name] = c

    return ws


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def workspace_document(monoids=None, gammas=None, semirings=None, modules=None,
                       morphisms=None, module_morphisms=None, conflations=None):
    """Build the JSON document for named structures.

    Structures reference each other by name; the caller supplies consistent
    name assignments for the shared monoids and parameter semigroups.
    """
    doc = {"schema": SCHEMA}
    if monoids:
        doc["monoids"] = {
            name: {"size": m.size, "zero": m.zero, "add": list(m.add_table)}
            for name, m in monoids.items()}
    if gammas:
        doc["gammas"] = {
            name: {"size": g.size, "add": list(g.add_table),
                   "zero": g.zero if g.has_zero else None}
            for name, g in gammas.items()}
    if semirings:
        doc["semirings"] = {
            name: {"n": s.n, "T": t_name, "gamma": g_name, "mu": list(s.mu_table)}
            for name, (s, t_name, g_name) in semirings.items()}
    if modules:
        doc["modules"] = {
            name: {"semiring": s_name, "M": m_name,
                   "act": [list(t) for t in b.act_tables]}
            for name, (b, s_name, m_name) in modules.items()}
    if morphisms:
        doc["morphisms"] = {
            name: {"source": src, "target": dst, "map": list(f.map)}
            for name, (f, src, dst) in morphisms.items()}
    if module_morphisms:
        doc["module_morphisms"] = {
            name: {"source": src, "target": dst, "map": list(f.map)}
            for name, (f, src, dst) in module_morphisms.items()}
    if conflations:
        doc["conflations"] = {
            name: {"i": iname, "p": pname}
            for name, (iname, pname) in conflations.items()}
    return doc


def dump_document(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"
