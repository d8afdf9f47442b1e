"""Operator constructions: factorization splits, lifts, the two lemmas."""

import hashlib
import itertools

import numpy as np
import pytest

import rbgroups as rb
from rbgroups.constructions import (ExtensionData, LemmaR2Instance,
                                    _endomorphism_images)
from rbgroups.errors import InputFormatError, PropertyFailure, ResourceCapError
from rbgroups.maps import GroupMap


def s3_factorization():
    G = rb.named_group("symmetric:3")
    f = next(f for f in rb.exact_factorizations(G) if f.h.order == 3)
    return G, f


def test_splitting_from_exact_identity():
    G, f = s3_factorization()
    op = rb.splitting_from_exact(f)
    assert rb.verify_rb(G, op).ok
    assert rb.is_splitting(op)
    # B(hl) = l^-1 lands in L and kills H
    for h in map(int, f.h.members):
        assert op.images[h] == 0
    for l in map(int, f.l.members):
        assert op.images[G.mul(int(f.h.members[1]), l)] == G.inv(l)


def test_splitting_orders_hl_lh():
    G, f = s3_factorization()
    hl = rb.splitting_from_exact(f, order="HL")
    lh = rb.splitting_from_exact(f, order="LH")
    assert rb.verify_rb(G, hl).ok and rb.verify_rb(G, lh).ok
    assert rb.image(hl).order == f.l.order
    assert rb.image(lh).order == f.h.order


def test_splitting_images_swap_under_companion():
    G, f = s3_factorization()
    op = rb.splitting_from_exact(f)
    bt = rb.btilde(op)
    assert sorted(map(int, rb.image(op).members)) == sorted(map(int, f.l.members))
    assert sorted(map(int, rb.image(bt).members)) == sorted(map(int, f.h.members))


def test_splitting_every_factorization_all_groups():
    for ident in ["cyclic:6", "symmetric:4", "dihedral:12"]:
        G = rb.named_group(ident)
        for f in rb.exact_factorizations(G):
            for order in ("HL", "LH"):
                op = rb.splitting_from_exact(f, order=order)
                assert rb.verify_rb(G, op).ok
                assert rb.is_splitting(op)


def test_lift_with_trivial_inv_matches_split():
    G, f = s3_factorization()
    lifted = rb.lift_from_factor(f, rb.trivial_inv(f.l.as_group()[0]))
    direct = rb.splitting_from_exact(f, order="HL")
    assert np.array_equal(lifted.images, direct.images)


def test_lift_with_nontrivial_factor_op():
    G = rb.named_group("cyclic:6")
    f = next(f for f in rb.exact_factorizations(G) if f.h.order == 3)
    Lgrp, to_parent = f.l.as_group()
    c = rb.make_rb(Lgrp, [0, 0])        # constant-e on Z2
    op = rb.lift_from_factor(f, c)
    assert rb.verify_rb(G, op).ok
    # everything maps to the identity here
    assert set(map(int, op.images)) == {0}


def test_lift_accepts_positional_images():
    G, f = s3_factorization()
    Lgrp, _ = f.l.as_group()
    op = rb.lift_from_factor(f, [0, 1])   # trivial-inv on Z2 written out
    assert rb.verify_rb(G, op).ok


def test_hom_to_abelian_sign_map():
    G = rb.named_group("symmetric:3")
    H = rb.closure(G, [1])                # a reflection: order 2
    r = int(H.members[1])
    a3 = rb.closure(G, [2]).mask()
    images = np.where(a3, 0, r).astype(np.int64)
    op = rb.hom_to_abelian(G, H, GroupMap(G, G, images))
    assert rb.verify_rb(G, op).ok
    anti = rb.hom_to_abelian(G, H, GroupMap(G, G, images), anti=True)
    assert rb.verify_rb(G, anti).ok


def test_hom_to_abelian_rejects_nonabelian_target():
    G = rb.named_group("symmetric:4")
    H = next(s for s in rb.all_subgroups(G)
             if s.order == 6 and not s.as_group()[0].is_abelian())
    with pytest.raises(InputFormatError):
        rb.hom_to_abelian(G, H, rb.identity_map(G))


def test_hom_to_abelian_rejects_escaping_images():
    G = rb.named_group("symmetric:3")
    H = rb.closure(G, [1])
    with pytest.raises(InputFormatError):
        rb.hom_to_abelian(G, H, rb.identity_map(G))


def test_hom_to_abelian_rejects_non_hom():
    G = rb.named_group("cyclic:6")
    H = rb.closure(G, [2])
    bad = GroupMap(G, G, np.array([0, 2, 0, 0, 0, 0], dtype=np.int64))
    with pytest.raises(InputFormatError):
        rb.hom_to_abelian(G, H, bad)


@pytest.mark.parametrize("images", [[0, 1], [0, 1, 2, 3, 0]])
def test_hom_to_abelian_rejects_wrong_length_images(images):
    # refused for its length, before any homomorphism check
    G = rb.named_group("cyclic:4")
    H = rb.closure(G, [1])
    phi = GroupMap(G, G, np.array(images, dtype=np.int64))
    with pytest.raises(InputFormatError, match="one image per element"):
        rb.hom_to_abelian(G, H, phi)


@pytest.mark.parametrize("ident,count,nonsplit", [
    ("dihedral:8", 39, 15),
    ("symmetric:4", 75, 15),
    ("dihedral:12", 80, 16),
    ("quaternion:8", 3, 3),
])
def test_lemma_r2_search_frozen_counts(ident, count, nonsplit):
    G = rb.named_group(ident)
    found = rb.lemma_r2_search(G)
    assert len(found) == count
    built = [rb.lemma_r2_construct(inst) for inst in found]
    assert all(rb.verify_rb(G, op).ok for op in built)
    assert sum(not rb.is_splitting(op) for op in built) == nonsplit
    # the target regime: |Im(B) ∩ Im(B~)| never exceeds 2
    for op in built:
        assert rb.intersection(rb.image(op), rb.image(rb.btilde(op))).order <= 2


def test_lemma_r2_rejects_bad_instance():
    G = rb.named_group("dihedral:8")
    whole = rb.whole_group(G)
    inst = LemmaR2Instance(h=whole, k=whole, h1=whole, k1=whole)
    with pytest.raises(PropertyFailure):
        rb.lemma_r2_construct(inst)


def test_extension_wraparound_guard():
    # BA(f^o) must agree with B(f)^o, otherwise the piecewise formula is
    # not well defined; this datum breaks it on Z4
    G = rb.named_group("cyclic:4")
    A = rb.closure(G, [2])
    data = ExtensionData(group=G, a=A, f=1,
                         ba_images=np.array([0, 1], dtype=np.int64), bf=0)
    with pytest.raises(InputFormatError):
        rb.extension_construct(data)


def test_extension_reproduces_fixture():
    G, fixture_op = rb.paper16_fixture()
    A = rb.closure(G, [2, 4, 8])
    # positions in A's member list [0,2,4,6,8,10,12,14]
    ba = np.array([0, 0, 3, 3, 7, 7, 4, 4], dtype=np.int64)
    data = ExtensionData(group=G, a=A, f=1, ba_images=ba, bf=2)
    cand, is_rb, cond = rb.extension_construct(data)
    assert is_rb and cond
    assert np.array_equal(cand.images, fixture_op.images)


def test_extension_condition_fails_somewhere():
    # on D8 half of all consistent data fail the commutator condition,
    # and the identity fails exactly in those cases
    G = rb.named_group("dihedral:8")
    hits = rb.extension_search(G)
    assert len(hits) == 352
    outcomes = []
    for data in hits:
        _, is_rb, cond = rb.extension_construct(data)
        assert is_rb == cond
        outcomes.append(is_rb)
    assert outcomes.count(True) == 176


def test_extension_search_abelian_always_rb():
    # abelian ambient group: the commutator condition is vacuous
    G = rb.named_group("cyclic:8")
    hits = rb.extension_search(G)
    assert len(hits) == 92
    for data in hits[:30]:
        _, is_rb, cond = rb.extension_construct(data)
        assert is_rb and cond


def test_paper16_fixture_frozen():
    G, op = rb.paper16_fixture()
    assert G.order == 16
    assert list(op.images) == [0, 2, 0, 2, 6, 4, 6, 4, 14, 12, 14, 12, 8, 10, 8, 10]
    assert op.provenance["mode"] == "full"
    assert not rb.is_splitting(op)
    assert rb.verify_rb(G, op).ok


def test_paper16_operator_is_not_a_hom():
    G, op = rb.paper16_fixture()
    phi = GroupMap(G, G, op.images)
    assert not phi.is_homomorphism()
    assert not phi.is_homomorphism(anti=True)


def test_paper16_not_from_any_factorization():
    # the fixture operator is not a factorization split in either order
    G, op = rb.paper16_fixture()
    for f in rb.exact_factorizations(G):
        for order in ("HL", "LH"):
            other = rb.splitting_from_exact(f, order=order)
            assert not np.array_equal(other.images, op.images)


def test_extension_provenance():
    G = rb.named_group("cyclic:8")
    hits = rb.extension_search(G)
    cand, is_rb, cond = rb.extension_construct(hits[0])
    assert is_rb
    op = rb.make_rb(G, cand.images)
    assert rb.verify_rb(G, op).ok


@pytest.mark.parametrize("ident,count,operators", [
    ("cyclic:24", 1012, 1012),
    ("cyclic:32", 1520, 1520),
    ("elemabelian:2:3", 5888, 5888),
    ("dihedral:24", 288, 192),
    ("dihedral:32", 512, 128),
    ("paper16", 6656, 2240),
])
def test_extension_sweep_frozen_counts(ident, count, operators):
    G = rb.named_group(ident)
    hits = rb.extension_search(G)
    assert len(hits) == count
    assert sum(rb.extension_construct(d)[1] for d in hits) == operators


def test_extension_search_refuses_endomorphism_search_past_budget():
    # the hyperplanes 2^5 of 2^6 need 5 generator images (32^5 candidates)
    with pytest.raises(ResourceCapError, match="endomorphism search refused"):
        rb.extension_search(rb.named_group("elemabelian:2:6"))


@pytest.mark.parametrize("ident", ["cyclic:16", "abelian:4x2", "paper16"])
def test_endomorphisms_match_full_generating_set(ident, extend_one):
    # reference: generator images tried over every recorded generator,
    # each extended on its own by the one-candidate oracle
    G = rb.named_group(ident)
    for A in rb.all_subgroups(G):
        Agrp, _ = A.as_group(validate=False)
        if not (Agrp.is_abelian() and rb.is_normal(G, A)):
            continue
        gens = Agrp.find_generating_set()
        orders = Agrp.element_orders()
        cands = [[x for x in range(Agrp.order)
                  if orders[int(g)] % orders[x] == 0] for g in gens]
        full = set()
        for choice in itertools.product(*cands):
            img = extend_one(Agrp, Agrp, gens, choice)
            if img is not None:
                full.add(tuple(int(x) for x in img))
        pruned = [tuple(int(x) for x in img)
                  for img in _endomorphism_images(Agrp)]
        assert len(pruned) == len(set(pruned))
        assert set(pruned) == full


def _paper16_data(**changes):
    G = rb.named_group("paper16")
    kw = dict(group=G, a=rb.closure(G, [2, 4, 8]), f=1,
              ba_images=np.array([0, 0, 3, 3, 7, 7, 4, 4]), bf=2)
    kw.update(changes)
    return ExtensionData(**kw)


BAD_DATA = [
    pytest.param({"f": 2}, "A and f do not generate the group",
                 id="f-in-a"),
    pytest.param({"ba_images": np.array([1, 0, 0, 0, 0, 0, 0, 0])},
                 "BA is not a homomorphism of A", id="ba-not-hom"),
    pytest.param({"f": 16}, r"f must be an element index in \[0, 16\)",
                 id="f-past-end"),
    pytest.param({"f": -1}, r"f must be an element index in \[0, 16\)",
                 id="f-negative"),
]


@pytest.mark.parametrize("changes,message", BAD_DATA)
def test_extension_rejects_bad_data(changes, message):
    with pytest.raises(InputFormatError, match=message):
        rb.extension_construct(_paper16_data(**changes))


def _searched_paper16_datum():
    """A datum from the paper16 sweep over A = <a^2, b, c>, f = a: it
    carries the frame the search built for its A."""
    G = rb.named_group("paper16")
    A = rb.closure(G, [2, 4, 8])
    data = next(d for d in rb.extension_search(G)
                if np.array_equal(d.a.members, A.members) and d.f == 1)
    assert data._frame is not None and data._frame.a is data.a
    return data


@pytest.mark.parametrize("changes,message", BAD_DATA)
def test_extension_rejects_bad_searched_data(changes, message):
    # the per-datum checks run on data that carry a frame, too
    data = _searched_paper16_datum()
    for key, value in changes.items():
        setattr(data, key, value)
    assert data._frame is not None
    with pytest.raises(InputFormatError, match=message):
        rb.extension_construct(data)


def test_extension_frame_dropped_when_a_changes():
    data = _searched_paper16_datum()
    G = data.group
    data.a = next(S for S in rb.all_subgroups(G)
                  if S.order == 2 and not rb.is_normal(G, S))
    with pytest.raises(InputFormatError, match="A is not normal"):
        rb.extension_construct(data)


def test_extension_normality_checked_once_per_subgroup(monkeypatch):
    # the sweep tests each abelian A for normality once, in the search,
    # and never again per datum (it used to run once per datum, 6656 times)
    from rbgroups import constructions
    calls = []

    def counting(G, sub, within=None):
        calls.append(sub.key())
        return rb.is_normal(G, sub, within)
    monkeypatch.setattr(constructions, "is_normal", counting)
    G = rb.named_group("paper16")
    hits = rb.extension_search(G)
    abelian = [A for A in rb.all_subgroups(G)
               if A.as_group(validate=False)[0].is_abelian()]
    assert len(calls) == len(set(calls)) <= len(abelian) == 22
    searched = len(calls)
    for data in hits:
        rb.extension_construct(data)
    assert len(hits) == 6656 and len(calls) == searched


def test_extension_rejects_nonabelian_a():
    G = rb.named_group("symmetric:3")
    data = ExtensionData(group=G, a=rb.whole_group(G), f=0,
                         ba_images=np.zeros(6, dtype=np.int64), bf=0)
    with pytest.raises(InputFormatError, match="A is not abelian"):
        rb.extension_construct(data)


def _reference_construct(data):
    """One datum's (images, is_rb, condition), computed on its own:
    the wrap-around check BA(f^o) = B(f)^o, B(f^k a) = B(f)^k BA(a)
    coset by coset, ``verify_rb`` on the map, and [u, f] in ker(B) for
    every u = B~(g)."""
    G, A = data.group, data.a
    f, bf = int(data.f), int(data.bf)
    ba = A.members[data.ba_images]
    o = G.order // A.order
    if ba[A.members.tolist().index(G.power(f, o))] != G.power(bf, o):
        raise InputFormatError("BA(f^o) differs from B(f)^o; the map is not well defined")
    images = np.full(G.order, -1, dtype=np.int64)
    fk, bfk = 0, 0
    for _ in range(G.order // A.order):
        for p, a in enumerate(A.members.tolist()):
            images[G.mul(fk, a)] = G.mul(bfk, int(ba[p]))
        fk, bfk = G.mul(fk, f), G.mul(bfk, bf)
    assert (images >= 0).all()
    tilde = {G.mul(G.inv(g), int(images[G.inv(g)])) for g in range(G.order)}
    cond = all(images[G.commutator(u, f)] == 0 for u in tilde)
    return images, rb.verify_rb(G, images).ok, cond


def _outcome(data):
    try:
        cand, is_rb, cond = rb.extension_construct(data)
    except InputFormatError as exc:
        return str(exc)
    return cand.images.tolist(), is_rb, cond


@pytest.fixture(scope="module")
def paper16_sweep():
    """The outcome of every datum of an untouched paper16 sweep."""
    return [_outcome(d) for d in rb.extension_search(rb.named_group("paper16"))]


def _sibling(data, i, same):
    """The first datum other than data[i] with its A and f that agrees
    with it on ``same`` ("ba" or "bf") and differs on the other."""
    d = data[i]
    for j, e in enumerate(data):
        if j == i or e.a is not d.a or e.f != d.f:
            continue
        if (same == "bf") == (e.bf == d.bf) and \
                (same == "ba") == np.array_equal(e.ba_images, d.ba_images):
            return j
    raise AssertionError("no sibling")


@pytest.mark.parametrize("chunk", [None, 5])
@pytest.mark.parametrize("change", ["ba-in-place", "ba-not-hom", "bf"])
def test_extension_plan_follows_changed_data(monkeypatch, paper16_sweep, chunk, change):
    # a searched datum changed before it is built gives the result of
    # its new values, computed on its own (or their error), and so does
    # every datum sharing its changed BA array; no other result moves.
    # With 5 rows a chunk the changed datum sits inside a chunk of its f
    from rbgroups import constructions
    if chunk is not None:
        monkeypatch.setattr(constructions, "CHUNK_ENTRIES", 16 * chunk)
    data = rb.extension_search(rb.named_group("paper16"))
    i = len(data) // 2 + 2
    if change == "bf":
        j = _sibling(data, i, same="ba")
        data[i].bf = data[j].bf
        changed = {i}
    else:
        j = _sibling(data, i, same="bf")
        data[i].ba_images[:] = data[j].ba_images
        if change == "ba-not-hom":
            data[i].ba_images[1:] = data[i].ba_images[:0:-1]
        changed = {k for k, d in enumerate(data) if d.ba_images is data[i].ba_images}
    got = [_outcome(d) for d in data]
    for k in sorted(changed):
        if change == "ba-not-hom":
            assert got[k] == "BA is not a homomorphism of A"
            continue
        try:
            images, is_rb, cond = _reference_construct(data[k])
        except InputFormatError as exc:     # a broken wrap-around
            assert got[k] == str(exc)
            continue
        assert got[k] == (images.tolist(), is_rb, cond)
    assert got[i] == paper16_sweep[j] or change == "ba-not-hom"
    assert [g for k, g in enumerate(got) if k not in changed] == \
        [g for k, g in enumerate(paper16_sweep) if k not in changed]


def test_extension_datum_built_twice_and_candidate_changed(paper16_sweep):
    data = rb.extension_search(rb.named_group("paper16"))
    first = rb.extension_construct(data[3])
    again = rb.extension_construct(data[3])
    assert np.array_equal(first[0].images, again[0].images) and first[1:] == again[1:]
    first[0].images[:] = 0
    again[0].images[:] = 1
    assert [_outcome(d) for d in data] == paper16_sweep


@pytest.mark.parametrize("chunk", [None, 5, 64])
def test_extension_sweep_checks_each_planned_chunk_once(monkeypatch, chunk):
    # one _first_failures call per chunk of a frame's planned rows of
    # one f, every datum in exactly one of them, and no verify_rb
    from rbgroups import constructions
    if chunk is not None:
        monkeypatch.setattr(constructions, "CHUNK_ENTRIES", 16 * chunk)
    calls = []
    kernel = constructions._first_failures

    def spy(G, B):
        calls.append(len(B))
        return kernel(G, B)
    monkeypatch.setattr(constructions, "_first_failures", spy)
    monkeypatch.setattr(constructions, "verify_rb",
                        lambda *a: pytest.fail("verify_rb called per datum"))
    data = rb.extension_search(rb.named_group("paper16"))
    flags = [rb.extension_construct(d)[1] for d in data]
    size = constructions.CHUNK_ENTRIES // 16
    rows = {}
    for d in data:
        rows[id(d._frame), d.f] = rows.get((id(d._frame), d.f), 0) + 1
    assert len(calls) <= sum(-(-k // size) for k in rows.values())
    assert sum(calls) == len(data) == 6656 and sum(flags) == 2240


# (instance count, digest of the (h, k, h1, k1, r, t) tuples in order), as
# first recorded, with t = min(k - k1); the twelve groups hold 1,131 instances
R2_GROUPS = [
    ("symmetric:3", 6, "96b7b8015792aa48"),
    ("dihedral:8", 39, "12e68a3726d2a2ea"),
    ("quaternion:8", 3, "c30db27dc567ca7f"),
    ("dihedral:12", 80, "b346adc42b51000a"),
    ("alternating:4", 0, "e3b0c44298fc1c14"),
    ("dihedral:16", 75, "1723cdf46fc4dad7"),
    ("symmetric:4", 75, "8f660b06e8f02ee1"),
    ("paper16", 173, "0ec558c43f948206"),
    ("abelian:6x2", 30, "0f4da8709a0c9805"),
    ("dihedral:24", 220, "79626358a1391dc9"),
    ("cyclic:48", 2, "9e1e6ebdd583fa9f"),
    ("dihedral:48", 428, "e4247ee2c8ec1c11"),
]


@pytest.mark.parametrize("ident,count,digest", R2_GROUPS)
def test_lemma_r2_search_instances_frozen(ident, count, digest):
    found = rb.lemma_r2_search(rb.named_group(ident))
    h = hashlib.sha256()
    for i in found:
        t = int(np.setdiff1d(i.k.members, i.k1.members).min())
        h.update(repr((i.h.members.tolist(), i.k.members.tolist(),
                       i.h1.members.tolist(), i.k1.members.tolist(),
                       i.r, t)).encode())
    assert (len(found), h.hexdigest()[:16]) == (count, digest)


@pytest.mark.parametrize("ident", [g[0] for g in R2_GROUPS])
def test_lemma_r2_r_is_the_involution_of_h_meet_k(ident):
    for i in rb.lemma_r2_search(rb.named_group(ident)):
        meet = rb.intersection(i.h, i.k).members
        assert meet.size == 2 and i.r == meet[meet != 0][0]
        assert type(i.r) is int
