"""Outside-in tracing of arbocoh's layers.

The library carries no instrumentation of its own, so the tracer replaces
each traced function, in every ``arbocoh`` module namespace that holds it
(``from .perm import conjugacy_classes`` makes ``chartab.conjugacy_classes``
a second reference), with a wrapper that records one span per call.  Calls
made through any of those names nest as spans, so self time can be taken
per function.  Spans live in flat in-memory arrays (a verify pass records
about three million) and are written out once the pass is over.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

# Functions reported one by one as <layer>.<function>.{calls,self_s,errors}.
TRACED = {
    "cli": ("main",),
    "catalog": ("enumerate_complete_shapes",),
    "shapes": (
        "classify_shape",
        "maximal_proper_complete_subtrees",
        "enumerate_embeddings",
        "count_hitting",
    ),
    "perm": (
        "shape_automorphism_group",
        "closure",
        "conjugacy_classes",
        "pointwise_stabilizer",
        "setwise_stabilizer",
        "all_subgroups",
    ),
    "chartab": ("character_table", "invariant_dim", "realize_irrep"),
    "reptheory": (
        "enumerate_nondegenerate",
        "is_nondegenerate",
        "h2_dimension",
        "admissible_vertex_pairs",
        "classify_bounded_cohomology",
    ),
    "flip": ("find_flip", "check_flip_witness"),
    "witness": ("witness_cochain", "reference_configuration"),
}

# Layers reported only as totals: every public function of the module
# (plus the TreeIsometry.apply* methods for tree).
TOTAL_LAYERS = ("tree", "spherical")
TREE_METHODS = ("apply_word", "apply_vertex", "apply_ray", "apply")

COUNTS = (
    "perm.elements_enumerated",
    "chartab.classes",
    "shapes.embeddings_found",
    "perm.aut_builds_per_shape",
    "perm.aut_builds",
    "perm.shapes_queried",
    "chartab.table_cache_hit_ratio",
    "chartab.table_lookups",
)


def metric_names() -> list:
    """Every per-layer metric a traced pass reports, in report order."""
    names = []
    for layer, funcs in TRACED.items():
        for f in funcs:
            names += [f"{layer}.{f}.calls", f"{layer}.{f}.self_s", f"{layer}.{f}.errors"]
    for layer in TOTAL_LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_s"]
    names.append("verify.suite.self_s")
    names.extend(COUNTS)
    return names


def self_times(start, end, parent) -> np.ndarray:
    """Span duration minus the time its direct child spans cover.

    Spans come from one thread and nest strictly, so children of one span
    never overlap and their durations add up to the time they cover."""
    start = np.asarray(start, dtype=float)
    dur = np.asarray(end, dtype=float) - start
    parent = np.asarray(parent, dtype=np.int64)
    child = parent >= 0
    return dur - np.bincount(parent[child], weights=dur[child], minlength=len(dur))


class Tracer:
    """Span recorder; ``install`` patches the library, ``remove`` undoes it."""

    def __init__(self):
        self.labels = []
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.error = array("b")
        self.current = -1
        self._patches = []
        self._originals = {}
        self._tables = {}
        self._shapes = set()
        self.elements = 0
        self.embeddings = 0

    # -- recording -------------------------------------------------------

    def wrap(self, label, fn, hook=None):
        nid = len(self.labels)
        self.labels.append(label)
        name, start, end, parent, error = self.name, self.start, self.end, self.parent, self.error

        def traced(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(self.current)
            error.append(0)
            end.append(0.0)
            self.current = i
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                error[i] = 1
                raise
            finally:
                end[i] = perf_counter()
                self.current = parent[i]
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- patching --------------------------------------------------------

    def _replace_everywhere(self, fn, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "arbocoh" and not modname.startswith("arbocoh."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def install(self):
        import arbocoh  # noqa: F401  (loads every layer module)
        from arbocoh import tree, verify

        hooks = {
            "perm.closure": self._count_elements,
            "shapes.enumerate_embeddings": self._count_embeddings,
            "chartab.character_table": self._keep_table,
            "perm.shape_automorphism_group": self._keep_shape,
        }
        for layer, funcs in TRACED.items():
            mod = sys.modules[f"arbocoh.{layer}"]
            for f in funcs:
                label = f"{layer}.{f}"
                fn = getattr(mod, f)
                self._originals[label] = fn
                self._replace_everywhere(fn, self.wrap(label, fn, hooks.get(label)))
        for layer in TOTAL_LAYERS:
            mod = sys.modules[f"arbocoh.{layer}"]
            for f, fn in list(vars(mod).items()):
                if f.startswith("_") or not callable(fn) or inspect.isclass(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                self._replace_everywhere(fn, self.wrap(f"{layer}.{f}", fn))
        for meth in TREE_METHODS:
            fn = vars(tree.TreeIsometry)[meth]
            self._patches.append((tree.TreeIsometry, meth, fn))
            setattr(tree.TreeIsometry, meth, self.wrap(f"tree.TreeIsometry.{meth}", fn))
        # cli.cmd_verify looks run_suite up on the module at call time
        fn = verify.run_suite
        self._patches.append((verify, "run_suite", fn))
        verify.run_suite = self.wrap("verify.suite", fn)
        return self

    def remove(self):
        for obj, attr, fn in reversed(self._patches):
            setattr(obj, attr, fn)
        self._patches.clear()

    # -- counters --------------------------------------------------------

    def _count_elements(self, args, group):
        self.elements += group.order

    def _count_embeddings(self, args, embs):
        self.embeddings += len(embs)

    def _keep_table(self, args, table):
        self._tables[id(table)] = table

    def _keep_shape(self, args, group):
        self._shapes.add(args[0])

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics for everything recorded so far."""
        out = dict.fromkeys(metric_names(), 0)
        n = len(self.labels)
        names = np.frombuffer(self.name, dtype=np.uint16)
        calls = np.bincount(names, minlength=n)
        self_s = np.bincount(names, weights=self_times(self.start, self.end, self.parent), minlength=n)
        errors = np.bincount(names, weights=np.frombuffer(self.error, dtype=np.int8), minlength=n)
        for label, c, st, err in zip(self.labels, calls.tolist(), self_s.tolist(), errors.tolist()):
            layer = label.split(".", 1)[0]
            if layer in TOTAL_LAYERS:
                out[f"{layer}.calls"] += c
                out[f"{layer}.self_s"] += st
            elif label == "verify.suite":
                out["verify.suite.self_s"] += st
            else:
                out[f"{label}.calls"] += c
                out[f"{label}.self_s"] += st
                out[f"{label}.errors"] += int(err)
        aut = self._originals["perm.shape_automorphism_group"].cache_info()
        tab = self._originals["chartab.character_table"].cache_info()
        lookups = tab.hits + tab.misses
        out.update(
            {
                "perm.elements_enumerated": self.elements,
                "chartab.classes": sum(len(t.classes) for t in self._tables.values()),
                "shapes.embeddings_found": self.embeddings,
                "perm.aut_builds": aut.misses,
                "perm.shapes_queried": len(self._shapes),
                "perm.aut_builds_per_shape": aut.misses / len(self._shapes) if self._shapes else 0.0,
                "chartab.table_lookups": lookups,
                "chartab.table_cache_hit_ratio": tab.hits / lookups if lookups else 0.0,
            }
        )
        return out

    def write_spans(self, path):
        """Save the spans as .npz arrays: label (the name table), name
        (index into it), start, end (perf_counter seconds), parent (span
        index, -1 at top level) and error (the call raised)."""
        np.savez(
            path,
            label=np.array(self.labels),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            error=np.frombuffer(self.error, dtype=np.int8).astype(bool),
        )
