"""Pinned outputs of the equivalence classes and transforms, and of the
endomorphism search.

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

# re-recorded when the representative became the given operator of the
# least graph: its provenance lost {"recipe": {"kind": "from-graph"}},
# and re-adding that key gives back every earlier digest
CLASS_DIGESTS = {
    "cyclic:2": "9a6ee4ff80cc2cccc342340c328b07591dc735499719689c24c72a45ea5103cf",
    "cyclic:3": "a641b7f952aef2cf12daa0d2b14d9095648029aefb44b4e6baf7da31f3908761",
    "cyclic:4": "5f9737bac99fb55142fabbdd23c7d0c8a69dd377ee928a871004514154e27a9b",
    "cyclic:5": "575909e2256abdf5c9557bac2fc8d206fa6ed4d33a954cf84e3294211edbebaa",
    "cyclic:6": "6ce529379ae276f38068a568522899c74f325b79e1f2e8e724ca009780249c6b",
    "cyclic:7": "d9795830ee2c84160558ff579a04c7dde70766081c8788f2c32778d0c0760feb",
    "cyclic:8": "30c936f8b6031f493207ce1c946043dd471bdf69e69f16a63eb994739382b952",
    "elemabelian:2:2": "965f88fa97fc28e19bdf4e2eab0deceab2e5fae77a57216a5fd08f4133fd4a26",
    "abelian:4x2": "38810458e65fd33ebe68cb347967a6caec40f51824975a12368760316b636503",
    "elemabelian:2:3": "28bd949ba27f0259f4b89e50b83171793a78bb3a5af5995549814137b122ab3e",
    "symmetric:3": "09c8cc27c032a29692d228f98d2ba3180319d9db7de5bbdf6b50ce2229d5b78f",
    "dihedral:8": "929c66e56b6357e16f86c5cb597ab2724136ad36159e8bab8c3755bdd7163f05",
    "quaternion:8": "17db33623fe5a7ec07e19e9e82a51e791e395646b4bcdd3317cb28bae5424861",
    "dihedral:12": "8a4afae1f1bd578f5b32227678904cd588bab89fc14e855cdb4a7f8a0bb7a3f0",
    "alternating:4": "1a17ab35f914c7f235d5bcaf88ad82d09ee5194afad026b03ad41e61e962068a",
    "dihedral:16": "d07d971bc1f74abfd10a4f38c7bfcadb897eb9bb81bc85bd868748cd5116d748",
    "paper16": "3434b11e9f7b7b4663499c840071776f5f5fdb57a3dd9322dc06dc2b64836ad0",
    "psl2:7": "e2eb1fdb70beaf0c26758c6bfaaed19d8d22e0375062b50abdfc8d664fbe5499",
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
