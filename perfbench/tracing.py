"""Per-layer spans and counts for the traced run.

The tracer lives in the benchmark, not in the engine: ``Tracer.install``
rebinds each public entry point of ``src/ngamma`` wherever a module of the
package holds it (a module attribute, a ``from ... import`` binding, an
alias such as ``linearize``, or a class attribute for methods) and
``uninstall`` puts the originals back.

Each span records its name, start, end and parent index and is kept in
memory until the run writes it out.  A span's self time is its duration
minus the time its child spans cover, where a child covers its own
bookkeeping too, so the tracer's cost is charged to no layer.  Hooks derive
counts from a call's arguments and return value after the span has ended.
``Presentation.project`` runs millions of times per derived job, so it is
counted without a span.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
import time
from collections import defaultdict

LAYERS = ("workspace", "core", "ideals", "modules", "completion", "abgroups",
          "intlinalg", "homology", "spectral", "oracle", "cli")

CLI_COMMANDS = ("validate", "ideals", "spectrum", "mod", "complete", "ext",
                "tor", "balance", "les", "yoneda", "kunneth", "basechange",
                "oracle")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _snf(t, args, kwargs, sf):
    rows, cols = _arg(args, kwargs, 1, "nrows"), _arg(args, kwargs, 2, "ncols")
    key = "intlinalg.smith_normal_form"
    t.peak[key + ".max_rows"] = max(t.peak[key + ".max_rows"], rows)
    t.peak[key + ".max_cols"] = max(t.peak[key + ".max_cols"], cols)
    t.total[key + ".cells"] += rows * cols
    bits = max((abs(x).bit_length() for mat in (sf.s, sf.sinv, sf.t, sf.tinv)
                for row in mat for x in row), default=0)
    t.peak[key + ".max_coeff_bits"] = max(t.peak[key + ".max_coeff_bits"], bits)


def _equivariant_hom(t, args, kwargs, _):
    x, y = _arg(args, kwargs, 1, "x"), _arg(args, kwargs, 2, "y")
    t.total["completion.EquivariantHom.rows"] += (
        x.semiring.n * len(x.ops[0]) * x.group.dim * y.group.dim)


def _tensor_group(t, args, kwargs, _):
    t.total["completion.TensorGroup.relations"] += len(args[0].pres.relations)


def _linearize(t, args, kwargs, cm):
    t.total["completion.operators"] += sum(len(slot) for slot in cm.ops)


def _pair_to_quotient(t, args, kwargs, gm):
    t.total["completion.pair_matrix_to_quotient.returned"] += 1
    t.total["completion.pair_matrix_to_quotient.descended"] += gm is not None


def _bar(t, args, kwargs, bar):
    key = "homology.bar.word_dim_max"
    t.peak[key] = max(t.peak[key], max(bar.word_dims))


def _validate_semiring(t, args, kwargs, _):
    t.total["core.mu_cells"] += len(_arg(args, kwargs, 0, "s").mu_table)


def _additive_maps(t, args, kwargs, maps):
    src, dst = _arg(args, kwargs, 0, "src"), _arg(args, kwargs, 1, "dst")
    t.total["modules.additive_maps.candidates"] += \
        dst.size ** len(src.additive_generators())
    t.total["modules.additive_maps.kept"] += len(maps)
    t.last_additive = len(maps)


def _equivariant_maps(t, args, kwargs, maps):
    # equivariant_maps filters the result of exactly one additive_maps call,
    # which has just returned inside this span.
    t.total["modules.equivariant_maps.candidates"] += t.last_additive
    t.total["modules.equivariant_maps.kept"] += len(maps)


# (module, attribute path, span name or None for count-only, hook)
ENTRY_POINTS = [
    ("workspace", "parse_workspace", "workspace.parse_workspace", None),
    ("workspace", "merge_document", "workspace.merge_document", None),
    ("core", "validate_semiring", "core.validate_semiring", _validate_semiring),
    ("core", "validate_morphism", "core.validate_morphism", None),
    ("ideals", "all_ideals", "ideals.all_ideals", None),
    ("ideals", "spectrum", "ideals.spectrum", None),
    ("ideals", "quotient", "ideals.quotient", None),
    ("modules", "validate_module", "modules.validate_module", None),
    ("modules", "validate_module_morphism", "modules.validate_module_morphism", None),
    ("modules", "additive_maps", "modules.additive_maps", _additive_maps),
    ("modules", "equivariant_maps", "modules.equivariant_maps", _equivariant_maps),
    ("modules", "hom_gamma", "modules.hom_gamma", None),
    ("modules", "cofree", "modules.cofree", None),
    ("modules", "tensor_positional", "modules.tensor_positional", None),
    ("completion", "group_complete", "completion.group_complete", None),
    ("completion", "linearize_module", "completion.linearize_module", _linearize),
    ("completion", "EquivariantHom.__init__", "completion.EquivariantHom",
     _equivariant_hom),
    ("completion", "TensorGroup.__init__", "completion.TensorGroup", _tensor_group),
    ("completion", "TensorGroup.as_module", "completion.as_module", None),
    ("completion", "TensorGroup.pair_matrix_to_quotient",
     "completion.pair_matrix_to_quotient", _pair_to_quotient),
    ("abgroups", "Presentation.__init__", "abgroups.Presentation", None),
    ("abgroups", "Presentation.project", None, None),
    ("abgroups", "kernel", "abgroups.kernel", None),
    ("intlinalg", "smith_normal_form", "intlinalg.smith_normal_form", _snf),
    ("intlinalg", "mat_mul", "intlinalg.mat_mul", None),
    ("homology", "ext_via_bar", "homology.ext_via_bar", None),
    ("homology", "tor_via_bar", "homology.tor_via_bar", None),
    ("homology", "bar_complex", "homology.bar_complex", _bar),
    ("homology", "HomCochain.__init__", "homology.HomCochain", None),
    ("homology", "TensorChain.__init__", "homology.TensorChain", None),
    ("homology", "homology", "homology.homology", None),
    ("homology", "cofree_coresolution", "homology.cofree_coresolution", None),
    ("homology", "balance_check", "homology.balance_check", None),
    ("homology", "les_check", "homology.les_check", None),
    ("homology", "yoneda_compose", "homology.yoneda_compose", None),
    ("spectral", "kunneth_check", "spectral.kunneth_check", None),
    ("spectral", "base_change_check", "spectral.base_change_check", None),
    ("oracle", "naive_axiom_failures", "oracle.naive_axiom_failures", None),
    ("oracle", "subset_scan_ideals", "oracle.subset_scan_ideals", None),
    ("oracle", "subset_scan_primes", "oracle.subset_scan_primes", None),
    ("oracle", "all_maps_hom", "oracle.all_maps_hom", None),
    ("oracle", "tensor_class_count", "oracle.tensor_class_count", None),
    ("oracle", "homology_orders_bruteforce", "oracle.homology_orders_bruteforce", None),
]

# name -> (unit, better).  Names ending in ".s" are summed self times; the
# rest are exact counts or ratios of counts.
METRICS = {
    "intlinalg.smith_normal_form.calls": ("count", "lower"),
    "intlinalg.smith_normal_form.s": ("s", "lower"),
    "intlinalg.smith_normal_form.max_rows": ("count", "lower"),
    "intlinalg.smith_normal_form.max_cols": ("count", "lower"),
    "intlinalg.smith_normal_form.cells": ("count", "lower"),
    "intlinalg.smith_normal_form.max_coeff_bits": ("bits", "lower"),
    "intlinalg.mat_mul.calls": ("count", "lower"),
    "intlinalg.mat_mul.s": ("s", "lower"),
    "abgroups.Presentation.calls": ("count", "lower"),
    "abgroups.Presentation.s": ("s", "lower"),
    "abgroups.project.calls": ("count", "lower"),
    "abgroups.kernel.calls": ("count", "lower"),
    "abgroups.kernel.s": ("s", "lower"),
    "completion.EquivariantHom.s": ("s", "lower"),
    "completion.EquivariantHom.rows": ("count", "lower"),
    "completion.operators": ("count", "lower"),
    "completion.linearize_module.s": ("s", "lower"),
    "completion.TensorGroup.s": ("s", "lower"),
    "completion.TensorGroup.relations": ("count", "lower"),
    "completion.as_module.s": ("s", "lower"),
    "completion.pair_matrix_to_quotient.calls": ("count", "lower"),
    "completion.pair_matrix_to_quotient.s": ("s", "lower"),
    "completion.pair_matrix_to_quotient.descend_ratio": ("ratio", "higher"),
    "homology.bar_complex.s": ("s", "lower"),
    "homology.bar.word_dim_max": ("count", "lower"),
    "homology.HomCochain.s": ("s", "lower"),
    "homology.TensorChain.s": ("s", "lower"),
    "homology.homology.s": ("s", "lower"),
    "homology.cofree_coresolution.s": ("s", "lower"),
    "homology.balance_check.s": ("s", "lower"),
    "homology.les_check.s": ("s", "lower"),
    "homology.yoneda_compose.s": ("s", "lower"),
    "spectral.kunneth_check.s": ("s", "lower"),
    "spectral.base_change_check.s": ("s", "lower"),
    "workspace.parse_workspace.s": ("s", "lower"),
    "workspace.merge_document.s": ("s", "lower"),
    "core.validate_semiring.calls": ("count", "lower"),
    "core.validate_semiring.s": ("s", "lower"),
    "core.mu_cells": ("count", "lower"),
    "modules.validate_module.calls": ("count", "lower"),
    "modules.validate_module.s": ("s", "lower"),
    "modules.additive_maps.s": ("s", "lower"),
    "modules.additive_maps.candidates": ("count", "lower"),
    "modules.additive_maps.kept_ratio": ("ratio", "higher"),
    "modules.equivariant_maps.kept_ratio": ("ratio", "higher"),
    "modules.cofree.s": ("s", "lower"),
    "modules.hom_gamma.s": ("s", "lower"),
    "modules.tensor_positional.s": ("s", "lower"),
    "ideals.all_ideals.s": ("s", "lower"),
    "ideals.spectrum.s": ("s", "lower"),
    **{f"cli.{cmd}.s": ("s", "lower") for cmd in CLI_COMMANDS},
    **{f"{layer}.s": ("s", "lower") for layer in LAYERS},
    "trace.spans": ("count", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

_RATIOS = {
    "completion.pair_matrix_to_quotient.descend_ratio":
        ("completion.pair_matrix_to_quotient.descended",
         "completion.pair_matrix_to_quotient.returned"),
    "modules.additive_maps.kept_ratio":
        ("modules.additive_maps.kept", "modules.additive_maps.candidates"),
    "modules.equivariant_maps.kept_ratio":
        ("modules.equivariant_maps.kept", "modules.equivariant_maps.candidates"),
}


class Tracer:
    def __init__(self):
        self.spans: list = []        # (name, start, end, parent index or -1)
        self._cover: list[float] = []
        self._stack: list[int] = []
        self.self_s = defaultdict(float)
        self.count = defaultdict(int)
        self.total = defaultdict(int)
        self.peak = defaultdict(int)
        self.last_additive = 0
        self._undo: list = []

    def wrap(self, name, fn, hook=None):
        """``fn`` recording one span called ``name`` per call."""
        spans, cover, stack = self.spans, self._cover, self._stack
        self_s, count, clock = self.self_s, self.count, time.perf_counter

        def traced(*args, **kwargs):
            enter = clock()
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            cover.append(0.0)
            stack.append(idx)
            ok = False
            start = clock()
            try:
                ret = fn(*args, **kwargs)
                ok = True
                return ret
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
                self_s[name] += end - start - cover[idx]
                count[name] += 1
                if ok and hook is not None:
                    hook(self, args, kwargs, ret)
                if parent >= 0:
                    cover[parent] += clock() - enter

        return traced

    def _counted(self, name, fn):
        # Positional arguments only: this wraps Presentation.project, whose
        # per-call cost is about that of the wrapper itself.
        count = self.count

        def counted(*args):
            count[name] += 1
            return fn(*args)

        return counted

    def install(self) -> None:
        """Wrap every entry point in ENTRY_POINTS.

        Every module of the package is imported first: a module imported
        later would bind a wrapper that ``uninstall`` cannot see.
        """
        import ngamma
        mods = [importlib.import_module(f"ngamma.{info.name}")
                for info in pkgutil.iter_modules(ngamma.__path__)]
        for layer, path, name, hook in ENTRY_POINTS:
            owner = sys.modules[f"ngamma.{layer}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
            new = (self.wrap(name, orig, hook) if name is not None else
                   self._counted(f"{layer}.{attr}", orig))
            if cls_path:
                self._rebind(owner, attr, orig, new)
                continue
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._rebind(mod, key, orig, new)

    def _rebind(self, owner, attr, orig, new):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def metrics(self) -> dict[str, float]:
        """Every name in METRICS except the ``trace.*`` ones the run adds."""
        out = {}
        for name, (unit, _) in METRICS.items():
            if name.startswith("trace."):
                continue
            if name in _RATIOS:
                num, den = _RATIOS[name]
                out[name] = self.total[num] / self.total[den] if self.total[den] else 0.0
            elif name.endswith(".calls"):
                out[name] = self.count[name[:-len(".calls")]]
            elif name.endswith(".s") and name[:-2] in LAYERS:
                layer = name[:-2] + "."
                out[name] = sum(v for k, v in self.self_s.items() if k.startswith(layer))
            elif name.endswith(".s"):
                out[name] = self.self_s[name[:-2]]
            elif name in self.peak:
                out[name] = self.peak[name]
            else:
                out[name] = self.total[name]
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: name, start, end (perf_counter s), parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
