"""The bundled example workspace: three ternary families and their modules.

The JSON file shipped under ``data/`` is generated from this module and the
test suite asserts they agree, so the file can be trusted as a fixture.
"""

from __future__ import annotations

from importlib import resources

from .core import (
    GammaSemiringMorphism, boolean_ternary, f2_ternary, identity_morphism,
    z4_ternary,
)
from .ideals import GammaIdeal
from .modules import (
    ModuleMorphism, direct_sum_modules, ideal_submodule, quotient_module,
    regular_bimodule, zero_module,
)
from .workspace import Workspace, dump_document, merge_bytes, workspace_document


def bundled_document() -> dict:
    f2 = f2_ternary()
    boolt = boolean_ternary()
    z4 = z4_ternary()
    ideal02 = GammaIdeal(z4, frozenset({0, 2}))

    f2_reg = regular_bimodule(f2)
    bool_reg = regular_bimodule(boolt)
    z4_reg = regular_bimodule(z4)
    z4_sub = ideal_submodule(z4, ideal02)
    z4_quo = quotient_module(z4, ideal02)
    z4_sum, injs, prjs = direct_sum_modules([z4_reg, z4_quo])
    zero_f2 = zero_module(f2)
    zero_bool = zero_module(boolt)
    zero_z4 = zero_module(z4)

    monoids = {
        "m_z2": f2.T,
        "m_bool": boolt.T,
        "m_z4": z4.T,
        "m_one": zero_f2.M,
        "m_z4xz2": z4_sum.M,
    }
    gammas = {"g_trivial": f2.gamma}
    semirings = {
        "f2_ternary": (f2, "m_z2", "g_trivial"),
        "boolean_ternary": (boolt, "m_bool", "g_trivial"),
        "z4_ternary": (z4, "m_z4", "g_trivial"),
    }
    modules = {
        "f2_reg": (f2_reg, "f2_ternary", "m_z2"),
        "f2_zero": (zero_f2, "f2_ternary", "m_one"),
        "bool_reg": (bool_reg, "boolean_ternary", "m_bool"),
        "bool_zero": (zero_bool, "boolean_ternary", "m_one"),
        "z4_reg": (z4_reg, "z4_ternary", "m_z4"),
        "z4_ideal02": (z4_sub, "z4_ternary", "m_z2"),
        "z4_mod2": (z4_quo, "z4_ternary", "m_z2"),
        "z4_sum": (z4_sum, "z4_ternary", "m_z4xz2"),
        "z4_zero": (zero_z4, "z4_ternary", "m_one"),
    }
    morphisms = {
        "id_f2": (identity_morphism(f2), "f2_ternary", "f2_ternary"),
        "q_z4_f2": (GammaSemiringMorphism(z4, f2, (0, 1, 0, 1)),
                    "z4_ternary", "f2_ternary"),
    }
    module_morphisms = {
        "incl02": (ModuleMorphism(z4_sub, z4_reg, (0, 2)), "z4_ideal02", "z4_reg"),
        "proj_mod2": (ModuleMorphism(z4_reg, z4_quo, (0, 1, 0, 1)),
                      "z4_reg", "z4_mod2"),
        "sum_inj": (injs[0], "z4_reg", "z4_sum"),
        "sum_proj": (prjs[1], "z4_sum", "z4_mod2"),
    }
    conflations = {
        "c_ideal": ("incl02", "proj_mod2"),
        "c_split": ("sum_inj", "sum_proj"),
    }
    return workspace_document(monoids, gammas, semirings, modules,
                              morphisms, module_morphisms, conflations)


def bundled_path():
    return resources.files("ngamma").joinpath("data/bundled.json")


def bundled_workspace() -> Workspace:
    """Parse the packaged example workspace (validates everything)."""
    return merge_bytes(Workspace(), bundled_path().read_bytes(), where="<bundled>")


def write_bundled(path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_document(bundled_document()))
