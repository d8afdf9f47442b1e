"""Pinned outputs of the G x G layer and of the endomorphism search.

Each value is the sha256 of the ``repr`` of a list of plain Python
values, on the catalog labelling: every ``classify_equivalence`` field
in class order (the census and graph-census groups of the benchmark,
and the psl2:7 census), each equivalence generator as (kind, label, fa,
fb), and every ``_endomorphism_images`` list over the abelian subgroups
of the benchmark's extension groups.  A restructuring of the code
under them must leave every digest as it is.
"""

import hashlib

import pytest

import rbgroups as rb
from rbgroups.constructions import _endomorphism_images

CLASS_DIGESTS = {
    "cyclic:2": "aa220105f73e37e6e07db1ec3151adb93433e4d54f4c7c974dd5d2bc47068117",
    "cyclic:3": "d27ce7ed7cdcde2af5dbc3c650596a002f97f5c69eaabe74fbb55ca4d3b1d343",
    "cyclic:4": "8424dfbccd10df58547bde69abaf16ebc8347fb70f3c7839eb29d4f5edad98b7",
    "cyclic:5": "e696171ad48435872a2ee8786b0c1878703903f8a083df0cc13512dc8d7f2d71",
    "cyclic:6": "1d98d6d4dc8281416d9a73339eb7ec909d7767be14a677650b5686360733a6ad",
    "cyclic:7": "262d7dd02f1b70d36248a3facd813389e9100bb0c2c364046746f70e6f9c156c",
    "cyclic:8": "9c7cec2ad2be7e6b19b53cb21418ee2be32956b8457df2a974bf1f808821f9f0",
    "elemabelian:2:2": "8063af11f51883a541c1a764dee358f3a2a73a7127fdedd05c87d3617436f47a",
    "abelian:4x2": "3be603bb5724be8dd67f432e2cfd250dbc5202a6a6d4d2b9b7dacf82874f1ff7",
    "elemabelian:2:3": "ca6e1cf14466fc221c9989fe95fadf1461ac29c8982930cff69d4dcd4d9d0a9a",
    "symmetric:3": "980dc856785497c319d3dd515c6c643cdffe19f9171e180daa397319439d48f1",
    "dihedral:8": "b0aedd3b662281d74fb03767c67ec0fcdd540cb3fc937960bb529cf661a2329e",
    "quaternion:8": "f56123bd4b570f1e7f4b8afc851941630801960d51beda2474f9c1a44f1c5842",
    "dihedral:12": "491d1c3e3dc85bd49f32cfc7678792315cd3e85ea05709b87a0a9eb8666db17e",
    "alternating:4": "eae79e3a1fdb60ad9c0bc8abc6378eadff481cc2dd545909d7a7e6ab77d7299a",
    "dihedral:16": "d8a48bd656de836c75c952096673778ab5239bb2e1f17371b83181519c0f3c60",
    "paper16": "86c8dab371d24e5897a75d8968eeab1d9b253b479788013ef27f056983e3e2ca",
    "psl2:7": "f496454f5d393408f2affd5449d478033983835ea00809119372dae4dcab6194",
}

# re-recorded when the automorphism search became one Schreier search:
# it keeps other generators of the same Aut(G), so the transforms differ
# while every class above stays as it was; the abelian rows again when
# plain transforms with fa = fb = id were dropped
TRANSFORM_DIGESTS = {
    "cyclic:2": "236c22d89dd9b14f8e660b4d66270f0a65fa7acd6167504762245ed3c8f9d76d",
    "cyclic:3": "2068de78bc195154fd1ba279b91217330aa345336e1912bc1fbacb6bfed4f66b",
    "cyclic:4": "357631cca3872d8c3c6225c6a273f224c62096c8b3e7af2b1050bffbea99e773",
    "cyclic:5": "4903024da515f84d149ce916a85b0232e4fedb4a39b70fdbd5d93c6fea23974f",
    "cyclic:6": "0b3e43dc8231a00c5c65c0ba50a3ecaddcc74df12475e9b672a16966b0500f82",
    "cyclic:7": "8c4192c4ecfeefffe6156b8fbde6e11d9f42ae325da4e41980a4655a08fb207e",
    "cyclic:8": "9406984359aa5b8c8bcbe82c9d8277d5aa92a8fde1069e4085eae4a734ab4a60",
    "elemabelian:2:2": "5e6ac75673bdab763c48666a76f5d132880e7d52816f26fb2014d030f73bddae",
    "abelian:4x2": "3cb68475e70c63c03a16e710bf46720cf369e7b524937a19da728bc9b07a9143",
    "elemabelian:2:3": "aa18f2c436e82d638408927d9422a370a5ddb1350515c7e5de350a30c1c0d407",
    "symmetric:3": "1b771473451707babedb4e599329c2fabcc6c61acb37bbe88f08a355f5d4b023",
    "dihedral:8": "30be2a52b28e7bb532da26da8f1dde7d529a5efdc359bffe8e621befd2dd13b6",
    "quaternion:8": "0ea25f0fabe243b62f6edcb34c2c6d68bdfe060a06c55f7d3a30d5e73245ec1d",
    "dihedral:12": "64d3d21debc64c8e08a275918cd5af23c1c015e1b17f4cdd4438100d512450be",
    "alternating:4": "ce61733d3f10d47c6d6c84348f1242a9c02aea4c5e673f55575d437314b5766f",
    "dihedral:16": "968c2ad6dd4f732f59a3000c9ba90df8138b6314c571788d6b919d5cb7c5dab6",
    "paper16": "ee8ce71db6006f32c58fc3c67da5ed1a285d7012e9d46992be744f65f02053b1",
    "psl2:7": "6c51fc3207ffc845f4496dc15da4ea12449cf63e853ff93140a97e972ef66a00",
}

ENDOMORPHISM_DIGESTS = {
    "cyclic:4": "173b14ec27be63e776a5629354e6cec4562673afec643e7e3f26792dc54838cf",
    "cyclic:6": "6c21eb65cfa9436816fb0db16cb0eba3ba0276744b46b7f001bbafed4bb749ab",
    "cyclic:8": "34be2f5960bcccb053f90d247ff57e3e8c88f16aac1f44572bc48359f3150894",
    "cyclic:9": "eab3074b66a50f86f80de3c6e4a8589118569d7b5e23209dcb37917cc45eb0ca",
    "cyclic:12": "382cdbdaad84610537a8b1d4c72de8af5fcdb7f5765a6847ef80983c0de79610",
    "cyclic:16": "a8b0329c6d7736c09eeb5be3348440f1bfc6e2639d013be19e93ad0317e37152",
    "cyclic:24": "809ace6402638296ec524a5a66ee4eb0660c6acc6b992cae051f408958dcaba3",
    "cyclic:32": "87120784190d8872bb5a45a33f682a0c4fcb5a6cf7d5190e950bf280c24c8ed4",
    "elemabelian:2:2": "46f4c1afda54fc85d22c0b3cd54a3e9a8b825567027862ceadf4036325878199",
    "abelian:4x2": "30e18eaea7963a35aa98307ceb31e82caf9e54a10c8adc0ee5ad0fccb1bb027f",
    "elemabelian:2:3": "93f664b4b80f161a6ffd58eeda445c5f7dd8ece1ba237ed1efa9c587a4f17ee9",
    "symmetric:3": "e65e514d3dc7a27caa38025867d8edcf0e7bf09459f0872c4c757024e6b34c8d",
    "dihedral:8": "6e0559b8345eafbcb4c840fd71e42b8eff4452d019a3f17c23bf63009b234902",
    "quaternion:8": "d7faac40b8e15d74ce200b1d66e1c5b85cd51a732734e08261ad369baa05c314",
    "alternating:4": "39b10a02c019df106177e617c446ad5c366e765ff8c4d04fb4b9294dad7ff314",
    "dihedral:12": "5587ea51d734887357c5d671476378ff9eee5b2c1d787fbaf3efaa5c1a6f9e90",
    "dihedral:16": "5f38701a3f352a7c95bde45f5964036375cc063f582eb3deb6cfc8b3a8e49a3f",
    "paper16": "0fe189a1e0c4cd67d0df44bae46c5dcde8c10b841dbcd79bd598b376e63c0f33",
    "symmetric:4": "5cb64726ad782e97c03af0706ed5b950e10edd4ddd72e76f574bc84001abc4a2",
    "dihedral:24": "3df9b7ce479be25fcb175cfb6d39a3c9e04e87caa78fc286442b9670e03923a7",
    "dihedral:32": "8a3eb9ccb9fe6f6653b2d417ca01597b4ac9f667e1b208a66baafee91573de69",
}


def digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


@pytest.mark.parametrize("ident", sorted(CLASS_DIGESTS))
def test_classify_equivalence_fields_pinned(ident):
    G = rb.named_group(ident)
    ops = rb.enumerate_rb(G, cap=200)
    fields = []
    for c in rb.classify_equivalence(ops):
        rep = c.representative
        fields.append((rep.images.tolist(), rep.provenance, c.size, c.splitting,
                       c.image_names, sorted(c.graph_keys)))
    assert digest(fields) == CLASS_DIGESTS[ident]


@pytest.mark.parametrize("ident", sorted(TRANSFORM_DIGESTS))
def test_transform_generators_pinned(ident):
    G = rb.named_group(ident)
    got = [(t.kind, t.label, t.fa.tolist(), t.fb.tolist())
           for t in rb.q_transform_generators(G)]
    assert digest(got) == TRANSFORM_DIGESTS[ident]


@pytest.mark.parametrize("ident", sorted(ENDOMORPHISM_DIGESTS))
def test_endomorphism_images_pinned(ident):
    G = rb.named_group(ident)
    lists = []
    for A in rb.all_subgroups(G):
        Agrp, _ = A.as_group(validate=False)
        if Agrp.is_abelian():
            lists.append((A.members.tolist(),
                          [e.tolist() for e in _endomorphism_images(Agrp)]))
    assert digest(lists) == ENDOMORPHISM_DIGESTS[ident]
