"""The benchmark's workloads: the program calls each one makes, in order,
and the reference checks on their results.

A task calls the program on input groups and returns a summary of plain
values; ``check_summary`` compares it with the values recorded in
``reference.py``.  Each compared value is one check; a wrong value, or
an error raised by the task, is a failed check.  Every summary value is
invariant under relabelling the group's elements.
"""

import time

from reference import REFERENCE

TABLE2_QS = [4, 5, 7, 8, 9, 11, 13]
BIG = "psl2:23"

OBSTRUCTION_GROUPS = ["psl2:7", "psl2:8", "psl2:9", "psl2:11", "psl2:13",
                      "paper16", "symmetric:5", "symmetric:6"]

CENSUS_GROUPS = [
    "cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6", "cyclic:7",
    "cyclic:8", "elemabelian:2:2", "abelian:4x2", "elemabelian:2:3",
    "symmetric:3", "dihedral:8", "quaternion:8",
]
GRAPH_GROUPS = ["dihedral:12", "alternating:4", "dihedral:16", "paper16"]
EXTENSION_GROUPS = [
    "cyclic:4", "cyclic:6", "cyclic:8", "cyclic:9", "cyclic:12", "cyclic:16",
    "cyclic:24", "cyclic:32", "elemabelian:2:2", "abelian:4x2",
    "elemabelian:2:3", "symmetric:3", "dihedral:8", "quaternion:8",
    "alternating:4", "dihedral:12", "dihedral:16", "paper16", "symmetric:4",
    "dihedral:24", "dihedral:32",
]
R2_GROUPS = [
    "symmetric:3", "dihedral:8", "quaternion:8", "dihedral:12",
    "alternating:4", "dihedral:16", "symmetric:4", "paper16", "abelian:6x2",
    "dihedral:24", "cyclic:48", "dihedral:48",
]


class Checker:
    """Counts reference checks attempted and keeps the failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, what, got, want):
        self.attempted += 1
        if got != want:
            self.failures.append(f"{what}: got {got!r}, want {want!r}")

    def error(self, what, exc):
        self.attempted += 1
        self.failures.append(f"{what}: raised {type(exc).__name__}: {exc}")


def check_summary(check, label, summary, ref):
    """One check per reference key; per-item flags are checked one by one."""
    for key, want in ref.items():
        check.expect(f"{label} {key}", summary.get(key), want)
    for i, (is_rb, condition) in enumerate(summary.get("iff", [])):
        check.expect(f"{label} datum {i} is_rb == condition_holds",
                     is_rb, condition)
    for i, ok in enumerate(summary.get("verified", [])):
        check.expect(f"{label} instance {i} verify_rb", ok, True)


# ----------------------------------------------------------------------
# tasks: each returns a summary of plain values

def table2_column(rb, G, q):
    report = rb.classify_splitting(G, subs=rb.all_subgroups(G))
    expected, status, _ = rb.psl2_expected_s(q)
    v = report.verification
    return {
        "s": report.s,
        "expected_s": [expected, status],
        "classes": [[*c.images, c.orbit_size] for c in report.classes],
        "factorizations": v["factorizations"],
        "pair_states": v["initial_states"],
        "representatives_verified": v["representatives_verified"],
    }


def large_verify(rb, G):
    """Full verification of both trivial operators and of a broken one."""
    n = G.order
    e = rb.verify_rb(G, [0] * n)
    inv = rb.verify_rb(G, G.inverse)
    broken = [0] * n
    broken[1] = 1
    bad = rb.verify_rb(G, broken)
    return {"trivial_e": [e.ok, e.checked], "trivial_inv": [inv.ok, inv.checked],
            "broken_ok": bad.ok}


def obstruction(rb, G):
    subs = rb.all_subgroups(G)
    report = rb.nonsplitting_obstruction(G, subs=subs)
    eliminated = {}
    for row in report.eliminated:
        eliminated[row["reason"]] = eliminated.get(row["reason"], 0) + row["count"]
    return {
        "subgroups": len(subs),
        "strict_mode": report.strict_mode,
        "covering_pairs": report.covering_pairs,
        "survivors": len(report.survivors),
        "eliminated": dict(sorted(eliminated.items())),
        "verdict": report.verdict,
    }


def census(rb, G):
    brute = rb.brute_force_rb(G)
    ops = rb.enumerate_rb(G)
    classes = rb.classify_equivalence(ops, verify_invariants=True)
    return {
        "engines_agree": {o.key() for o in brute} == {o.key() for o in ops},
        "operators": len(ops),
        "class_sizes": sorted(c.size for c in classes),
    }


def graph_census(rb, G):
    ops = rb.enumerate_rb(G)
    classes = rb.classify_equivalence(ops)
    return {"operators": len(ops),
            "class_sizes": sorted(c.size for c in classes),
            "splitting_classes": sum(c.splitting for c in classes)}


def extension_sweep(rb, G):
    iff = []
    for data in rb.extension_search(G):
        _, is_rb, condition = rb.extension_construct(data)
        iff.append((is_rb, condition))
    return {"data": len(iff), "operators": sum(r for r, _ in iff), "iff": iff}


def index2_sweep(rb, G):
    verified = [rb.verify_rb(G, rb.lemma_r2_construct(inst)).ok
                for inst in rb.lemma_r2_search(G)]
    return {"instances": len(verified), "verified": verified}


def _tasks_table2():
    tasks = [(f"psl2:{q}", f"table2 psl2:{q}",
              lambda rb, G, q=q: table2_column(rb, G, q)) for q in TABLE2_QS]
    tasks.append((BIG, f"verify {BIG}", large_verify))
    return tasks


def _tasks_obstruction():
    return [(g, f"obstruction {g}", obstruction) for g in OBSTRUCTION_GROUPS]


def _tasks_small_groups():
    return ([(g, f"census {g}", census) for g in CENSUS_GROUPS]
            + [(g, f"graph census {g}", graph_census) for g in GRAPH_GROUPS]
            + [(g, f"extension {g}", extension_sweep) for g in EXTENSION_GROUPS]
            + [(g, f"index-2 {g}", index2_sweep) for g in R2_GROUPS])


#: workload name -> list of (input group id, task label, task)
WORKLOADS = {
    "table2": _tasks_table2(),
    "obstruction": _tasks_obstruction(),
    "small-groups": _tasks_small_groups(),
}

#: totals checked once per pass, over the summaries of all tasks
TOTALS = {
    "small-groups": {"extension data": ("extension", "data", 18057),
                     "index-2 instances": ("index-2", "instances", 1131)},
}


def input_ids(workload):
    """The catalog groups a workload needs, each once, in first-use order."""
    return list(dict.fromkeys(ident for ident, _, _ in WORKLOADS[workload]))


def check_totals(check, workload, summaries):
    for what, (prefix, key, want) in TOTALS.get(workload, {}).items():
        got = sum(s[key] for label, s in summaries.items()
                  if label.startswith(prefix + " "))
        check.expect(f"{workload} total {what}", got, want)


def run_tasks(rb, workload, groups, check, around):
    """Run every task of a workload, checking each summary as it comes.

    ``around(label)`` gives the context manager wrapped round each task
    (a span in the traced pass); a task that raises is one failed check
    and the pass goes on with the next task.
    """
    summaries = {}
    for ident, label, task in WORKLOADS[workload]:
        try:
            t0 = time.perf_counter()
            with around(label):
                summary = task(rb, groups[ident])
            seconds = time.perf_counter() - t0
        except Exception as exc:    # counted as a failed check, never skipped
            check.error(label, exc)
            continue
        check_summary(check, label, summary, REFERENCE[label])
        summaries[label] = dict(summary, seconds=seconds)
    check_totals(check, workload, summaries)
    return summaries
