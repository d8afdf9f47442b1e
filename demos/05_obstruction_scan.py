"""Ruling out non-splitting operators by a necessary-condition scan.

A non-splitting operator forces a covering pair of subgroups (A, C) with
AC = G, R = A n C of order > 1, and index-|R| normal subgroups sitting
inside A and C whose quotients agree.  Eliminating every candidate pair
proves no non-splitting operator can exist — this is how the small
projective groups are handled.  A pair's verdict depends only on the
conjugacy classes of A and C and on |R|, so the scan takes A over one
subgroup per conjugacy class and weights its pairs by the class size;
the counts are those of a scan over all subgroup pairs.

Run with:  python demos/05_obstruction_scan.py
"""

import time

import rbgroups as rb


def main():
    for ident in ["psl2:7", "psl2:11", "psl2:13"]:
        G = rb.named_group(ident)
        t0 = time.time()
        rep = rb.nonsplitting_obstruction(G)
        dt = time.time() - t0
        print(f"{ident} (order {G.order}): survivors = {len(rep.survivors)}  [{dt:.1f}s]")
        by_reason = {}
        for row in rep.eliminated:
            by_reason[row["reason"]] = by_reason.get(row["reason"], 0) + row["count"]
        for reason, count in sorted(by_reason.items()):
            print(f"    eliminated {count:5d} pairs: {reason}")
        print(f"    verdict: {rep.verdict}")

    print()
    print("The same scan keeps candidates wherever non-splitting operators")
    print("really do exist:")
    for tag, G in [("cyclic:4", rb.named_group("cyclic:4")),
                   ("order-16 fixture group", rb.paper16_fixture()[0])]:
        rep = rb.nonsplitting_obstruction(G)
        print(f"  {tag}: {len(rep.survivors)} surviving pairs "
              f"(e.g. {rep.survivors[0] if rep.survivors else None})")


if __name__ == "__main__":
    main()
