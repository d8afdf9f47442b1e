"""The distinguished non-splitting operator on a group of order 16.

The group is <a, b, c | a^4 = b^2 = c^2 = e, ab = ba, cb = bc,
c a c = a b> and the operator is glued from an endomorphism of the
elementary abelian subgroup A = <a^2, b, c> and a compatible value on
the coset representative a.  The composite B(B~(.)) is not constant at
the identity, so no exact factorization produces this operator.

Run with:  python demos/04_order16_nonsplitting.py
"""

import numpy as np

import rbgroups as rb


def show(tag, members):
    print(f"  {tag} = {sorted(int(x) for x in members)}")


def main():
    G, op = rb.paper16_fixture()
    print(f"group of order {G.order}; operator images {list(map(int, op.images))}")

    res = rb.verify_rb(G, op)
    print(f"identity verified on all {res.checked} pairs: {res.ok}")

    rep = rb.structure_report(op)
    print(f"splitting: {rep.splitting}")
    show("Im(B)   ", rep.image.members)
    show("Im(B~)  ", rep.image_tilde.members)
    show("ker(B)  ", rep.kernel.members)
    show("R = Im(B) n Im(B~)", rep.r.members)
    print(f"  |Im(B~) : ker(B)| = {rep.quotient_order} = |R|")
    print(f"structural checks: {rep.checks}")

    print("\nB is not an endomorphism and not an antiendomorphism:")
    phi = rb.GroupMap(G, G, op.images)
    print(f"  hom: {phi.is_homomorphism()}, "
          f"antihom: {phi.is_homomorphism(anti=True)}")

    print("\nno factorization split reproduces it:")
    clashes = 0
    for f in rb.exact_factorizations(G):
        for order in ("HL", "LH"):
            other = rb.splitting_from_exact(f, order=order)
            clashes += int(np.array_equal(other.images, op.images))
    print(f"  matches among factorization operators: {clashes}")

    print("\nthe same operator from the generic extension construction:")
    A = rb.closure(G, [2, 4, 8])
    data = rb.ExtensionData(group=G, a=A, f=1,
                            ba_images=np.array([0, 0, 3, 3, 7, 7, 4, 4]), bf=2)
    cand, is_rb, cond = rb.extension_construct(data)
    print(f"  is operator: {is_rb}, commutator condition: {cond}, "
          f"images equal: {np.array_equal(cand.images, op.images)}")


if __name__ == "__main__":
    main()
