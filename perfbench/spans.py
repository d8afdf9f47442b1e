"""Spans around calls into rbgroups' public functions, recorded from outside.

``install`` replaces each traced function at every ``rbgroups`` module
attribute that holds it (``rb.verify_rb``, ``constructions.verify_rb``,
``rbgroups.verify_rb``, ...), so calls made through any of those names
are recorded.  Nothing under ``src/`` changes.  Spans live in memory
and are written out once, when the traced pass ends.

A span is ``[name, start, end, parent]``: times in seconds from
``time.perf_counter`` and ``parent`` the index of the enclosing span or
-1.  The pass is single-threaded, so spans nest.
"""

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _len(key):
    return lambda result, args: {key: len(result)}


def _brute_force_counts(result, args):
    n = args[0].order
    return {"enumeration.brute_force_rb.maps_scanned": n ** (n - 1),
            "enumeration.brute_force_rb.hits": len(result)}


def _classification_counts(report, args):
    v = report.verification
    return {"enumeration.pair_states": v["initial_states"],
            "enumeration.orbits": report.s + v["trivial_orbits"]}


def _obstruction_counts(report, args):
    return {"enumeration.nonsplitting_obstruction.covering_pairs":
            report.covering_pairs,
            "enumeration.nonsplitting_obstruction.survivors":
            len(report.survivors)}


#: (module, function, counters taken from the call's return value)
TRACED = [
    ("subgroups", "all_subgroups", _len("subgroups.registered")),
    ("subgroups", "exact_factorizations", _len("subgroups.factorizations")),
    ("subgroups", "is_normal", None),
    ("subgroups", "quotient", None),
    ("automorphisms", "aut_generators", _len("automorphisms.generators")),
    ("enumeration", "classify_splitting", _classification_counts),
    ("enumeration", "nonsplitting_obstruction", _obstruction_counts),
    ("enumeration", "brute_force_rb", _brute_force_counts),
    ("enumeration", "enumerate_rb", _len("enumeration.operators")),
    ("enumeration", "classify_equivalence", _len("enumeration.classes")),
    ("rb", "verify_rb", lambda r, a: {"rb.pairs_checked": r.checked}),
    ("constructions", "extension_search", _len("constructions.extension_data")),
    ("constructions", "extension_construct",
     lambda r, a: {"constructions.extension_rb": int(r[1])}),
    ("constructions", "lemma_r2_construct", None),
    ("naming", "structure_name", None),
    ("catalog", "named_group", None),
    ("groups", "FiniteGroup.from_table", None),
]

#: set-up layers, reported as inclusive seconds spent under the set-up span
SETUP_LAYERS = ["catalog.named_group", "groups.from_table"]


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counts = defaultdict(int)
        self._open = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._open[-1] if self._open else -1])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, k in counter(result, args).items():
                    self.counts[key] += k
            return result
        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"run": self.run_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")


def install(tracer):
    """Wrap every function in TRACED at each rbgroups attribute holding it."""
    import rbgroups.groups
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "rbgroups" or k.startswith("rbgroups."))]
    for mod_name, attr, counter in TRACED:
        name = f"{mod_name}.{attr.split('.')[-1]}"
        if attr == "FiniteGroup.from_table":
            cls = rbgroups.groups.FiniteGroup
            fn = cls.__dict__["from_table"].__func__
            cls.from_table = classmethod(tracer.wrap(name, fn, counter))
            continue
        fn = getattr(sys.modules[f"rbgroups.{mod_name}"], attr)
        traced = tracer.wrap(name, fn, counter)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, traced)


def self_times(spans):
    """Each span's duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for s, e in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


def _under(spans, i, root):
    """Whether span i lies inside a top-level span named ``root``."""
    while spans[i][3] >= 0:
        i = spans[i][3]
    return spans[i][0] == root


def layer_metrics(spans, counts):
    """Per-layer values of one traced pass (no ratios, no overhead)."""
    selfs = self_times(spans)
    out = {}
    for mod_name, attr, _ in TRACED:
        name = f"{mod_name}.{attr.split('.')[-1]}"
        if name in SETUP_LAYERS:
            continue
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
    for name in SETUP_LAYERS:
        out[f"{name}.s"] = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        if name in SETUP_LAYERS:
            if _under(spans, i, "setup"):
                out[f"{name}.s"] += end - start
        elif f"{name}.self_s" in out:
            out[f"{name}.self_s"] += selfs[i]
            out[f"{name}.calls"] += 1
    out.update(counts)
    return out
