"""Exhaustive operator census on small groups.

Enumerates every weight-1 Rota-Baxter operator on each group of order at
most 8 from the catalog, cross-checks the subgroup-lattice enumeration
against the brute-force search (partial maps extended one column at a
time, each checked against the defining identity alone), and groups the
operators into equivalence classes.

Run with:  python demos/02_operator_census.py
"""

import rbgroups as rb

CATALOG = ["cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6",
           "cyclic:7", "cyclic:8", "elemabelian:2:2", "abelian:4x2",
           "elemabelian:2:3", "symmetric:3", "dihedral:8", "quaternion:8"]


def main():
    print(f"{'group':18s} {'ops':>5s} {'splitting':>9s} {'classes':>8s}  class sizes")
    for ident in CATALOG:
        G = rb.named_group(ident)
        ops = rb.enumerate_rb(G)
        brute = rb.brute_force_rb(G)
        assert {o.key() for o in ops} == {o.key() for o in brute}
        classes = rb.classify_equivalence(ops)
        nsplit = sum(rb.is_splitting(o) for o in ops)
        sizes = sorted(c.size for c in classes)
        print(f"{ident:18s} {len(ops):5d} {nsplit:9d} {len(classes):8d}  {sizes}")

    print("\nOn an abelian group every operator is an endomorphism, so the")
    print("census sizes above match the endomorphism counts (e.g. 512 = |M_3(GF(2))|).")

    print("\n== one class up close: S3 ==")
    G = rb.named_group("symmetric:3")
    for c in rb.classify_equivalence(rb.enumerate_rb(G)):
        rep = c.representative
        print(f"  size {c.size}: images {c.image_names}, splitting={c.splitting}, "
              f"representative {list(map(int, rep.images))}")


if __name__ == "__main__":
    main()
