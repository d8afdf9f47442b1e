"""Command-line interface: exit codes, JSON shape, determinism."""

import hashlib
import json
import subprocess
import sys
import time
import tracemalloc

import pytest

from rbgroups import cli, subgroups

CMD = [sys.executable, "-m", "rbgroups"]


def run_cli(*args):
    proc = subprocess.run(CMD + list(args), capture_output=True, text=True)
    return proc


def run_json(*args):
    proc = run_cli(*args)
    payload = json.loads(proc.stdout) if proc.stdout.strip() else None
    return proc.returncode, payload


def test_verify_accepts_valid_operator():
    code, payload = run_json("verify", "cyclic:4", '{"images": [0, 0, 0, 0]}')
    assert code == 0
    assert payload["verdict"] is True
    assert payload["command"] == "verify"


def test_verify_rejects_invalid_operator():
    code, payload = run_json("verify", "cyclic:4", '{"images": [0, 1, 0, 1]}')
    assert code == 1
    assert payload["verdict"] is False
    assert payload["witness"] == [1, 1]


def test_verify_malformed_images_is_input_error():
    code, payload = run_json("verify", "cyclic:4", '{"images": [0, 1]}')
    assert code == 2
    assert payload["kind"] == "input"


def test_verify_bad_json_is_input_error():
    proc = run_cli("verify", "cyclic:4", "{not json")
    assert proc.returncode == 2


def test_unknown_group_is_input_error():
    code, payload = run_json("enumerate", "mystery:99")
    assert code == 2
    assert payload["kind"] == "input"


def test_construct_trivial():
    code, payload = run_json("construct", "trivial-inv", "cyclic:6")
    assert code == 0
    assert payload["operator"]["images"] == [0, 5, 4, 3, 2, 1]
    assert payload["structure"]["splitting"] is True


def test_construct_paper16_fixture():
    code, payload = run_json("construct", "paper16")
    assert code == 0
    st = payload["structure"]
    assert st["splitting"] is False
    assert st["image_order"] == 8
    assert st["kernel_order"] == 2
    assert st["r_order"] == 4
    assert all(st["checks"].values())


def test_construct_split_recipe():
    code, payload = run_json("construct", "split", "symmetric:3",
                             "--params", '{"h_gens": [2], "l_gens": [1]}')
    assert code == 0
    assert payload["structure"]["splitting"] is True


def test_construct_extension_recipe():
    params = ('{"a_gens": [2, 4, 8], "f": 1, '
              '"ba_images": [0, 0, 3, 3, 7, 7, 4, 4], "bf": 2}')
    code, payload = run_json("construct", "extension", "paper16",
                             "--params", params)
    assert code == 0
    assert payload["operator"]["images"] == [0, 2, 0, 2, 6, 4, 6, 4,
                                             14, 12, 14, 12, 8, 10, 8, 10]


@pytest.mark.parametrize("f_param", [', "f": 99', ''])
def test_construct_extension_f_out_of_range_is_input_error(f_param):
    # a missing f must not fall back to negative indexing
    params = ('{"a_gens": [2, 4, 8], "ba_images": [0, 0, 3, 3, 7, 7, 4, 4], '
              '"bf": 2' + f_param + '}')
    code, payload = run_json("construct", "extension", "paper16",
                             "--params", params)
    assert code == 2
    assert payload["error"] == "f must be an element index in [0, 16)"


R2_D8 = '"h_gens": [1, 2, 3, 4, 5, 6, 7], "k_gens": [4], "h1_gens": [1, 2, 3], "k1_gens": []'


@pytest.mark.parametrize("recipe,group,params", [
    ("extension", "cyclic:4", '{"a_gens": [2], "f": 1.5, "ba_images": [0, 0], "bf": 0}'),
    ("extension", "cyclic:4", '{"a_gens": [2], "f": 1, "ba_images": [0.7, 0], "bf": 0}'),
    ("extension", "cyclic:4", '{"a_gens": [2], "f": 1, "ba_images": [0, 0], "bf": 0.0}'),
    ("extension", "cyclic:4", '{"a_gens": [2], "f": true, "ba_images": [0, 0], "bf": 0}'),
    ("extension", "cyclic:4", '{"a_gens": [2], "f": 1, "ba_images": [0, 2], "bf": 0}'),
    ("hom-abelian", "cyclic:4", '{"h_gens": [1], "images": [0, 1.5, 2, 3]}'),
    ("hom-abelian", "cyclic:4", '{"h_gens": [1], "images": "0123"}'),
    ("lift", "symmetric:3", '{"h_gens": [2], "l_gens": [1], "c": {"images": [0, 1.0]}}'),
    ("lift", "symmetric:3", '{"h_gens": [2], "l_gens": [1], "c": [0, 1]}'),
])
def test_construct_non_integer_params_are_input_errors(recipe, group, params):
    code, payload = run_json("construct", recipe, group, "--params", params)
    assert code == 2
    assert payload["kind"] == "input"


def test_lemma_r2_ignores_r_and_t():
    # the involution of H ∩ K is forced and t is never read, so both keys
    # are ignored like any other unknown key
    plain = run_json("construct", "lemma-r2", "dihedral:8", "--params", "{" + R2_D8 + "}")
    extra = run_json("construct", "lemma-r2", "dihedral:8", "--params",
                     "{" + R2_D8 + ', "r": 1, "t": "4"}')
    assert plain[0] == 0
    assert plain[1]["operator"] == extra[1]["operator"]
    assert plain[1]["operator"]["provenance"]["recipe"]["r"] == 4
    assert "t" not in plain[1]["operator"]["provenance"]["recipe"]


def test_construct_missing_params_is_input_error():
    code, payload = run_json("construct", "split", "symmetric:3")
    assert code == 2


def test_enumerate_counts():
    code, payload = run_json("enumerate", "symmetric:3")
    assert code == 0
    assert payload["count"] == 8
    assert payload["splitting_count"] == 8
    assert len(payload["operators"]) == 8


def test_enumerate_cap_exceeded_is_resource_error():
    proc = run_cli("enumerate", "symmetric:4", "--cap", "8")
    assert proc.returncode == 3


def test_classify_splitting_psl27():
    code, payload = run_json("classify-splitting", "psl2:7")
    assert code == 0
    assert payload["s"] == 2
    images = sorted(tuple(c["images"]) for c in payload["classes"])
    assert images == [("7", "S4"), ("7:3", "D8")]
    assert payload["expected"]["verdict"] == "MATCH"


def test_classify_splitting_flagged_q5():
    code, payload = run_json("classify-splitting", "psl2:5")
    assert code == 0                      # flagged, not failed
    assert payload["expected"]["verdict"] == "FLAGGED"
    assert payload["s"] == 1


def test_table2_rows():
    code, payload = run_json("table2", "--q", "4", "7", "13")
    assert code == 0
    rows = payload["rows"]
    assert [r["id"] for r in rows] == ["psl2:4", "psl2:7", "psl2:13"]
    assert [r["s"] for r in rows] == [1, 2, 0]
    assert all(r["status"] == "ok" for r in rows)


def test_table2_output_is_unchanged():
    # sha256 of the default table2 payload, recorded before the
    # automorphism search was reduced to one algorithm, and re-recorded
    # when the config block lost seed, sample_count and cap_lattice (the
    # rows compared equal as JSON before and after)
    proc = run_cli("table2")
    assert proc.returncode == 0
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == "17efb81cbd73d893aadc6b60013bac627360f1816137789633c350075dd6c0bc"


def test_classify_splitting_without_base_is_unchanged():
    # (Z2)^4 has no base, so its automorphisms are searched on all four
    # stored generators; sha256 recorded when that search listed all
    # 20,160 automorphisms first
    proc = run_cli("classify-splitting", "elemabelian:2:4")
    assert proc.returncode == 0
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == "4db773a9d815ff3043acc18e117b714dc3c917a0e5629f364213c91ec94bb999"


def test_table2_out_of_scale_row():
    code, payload = run_json("table2", "--q", "59")
    assert code == 0
    row = payload["rows"][0]
    assert row["status"] == "out of desk scale"
    assert row["order"] == 102660


def test_table2_cap_order_row():
    code, payload = run_json("table2", "--q", "7", "--cap-order", "10")
    assert code == 0
    assert payload["rows"] == [{"id": "psl2:7", "status": "out of desk scale",
                                "reason": "order 168 exceeds cap 10"}]


def test_table2_invalid_q_reports_error_row():
    code, payload = run_json("table2", "--q", "6", "7")
    assert code == 2                      # at least one row failed on input
    statuses = [r["status"] for r in payload["rows"]]
    assert "error" in statuses
    ok_rows = [r for r in payload["rows"] if r["status"] == "ok"]
    assert [r["id"] for r in ok_rows] == ["psl2:7"]


def test_obstruct_empty_exits_zero():
    code, payload = run_json("obstruct-nonsplitting", "psl2:7")
    assert code == 0
    assert payload["survivors"] == []


def test_obstruct_nonempty_exits_one():
    code, payload = run_json("obstruct-nonsplitting", "paper16")
    assert code == 1
    assert payload["survivors"]


@pytest.mark.parametrize("ref", ["cyclic:12", '{"named": "cyclic:12"}'])
def test_cap_order_applies_to_catalog_ids(ref):
    code, payload = run_json("obstruct-nonsplitting", ref, "--cap-order", "10")
    assert code == 3
    assert payload["entry"]["reason"] == "order 12 exceeds cap 10"


def test_cap_order_refuses_psl2_from_its_id():
    code, payload = run_json("obstruct-nonsplitting", "psl2:23", "--cap-order", "10")
    assert code == 3
    assert payload["entry"]["reason"] == "order 6072 exceeds cap 10"


def test_factorize_past_the_lattice_cap_exits_3(monkeypatch, capsys):
    # (Z2)^9 (order 512) has 8,283,458 subgroups; under a cap of 2^15 the
    # walk is refused within about a second
    monkeypatch.setattr(subgroups, "LATTICE_CAP", 2 ** 15)
    assert cli.main(["factorize", "elemabelian:2:9"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "resource-cap"
    assert payload["error"] == "subgroup lattice cap 32768 exceeded (order 512)"


@pytest.mark.slow
def test_factorize_past_the_default_lattice_cap_exits_3():
    # about 75 s and 600 MB to register LATTICE_CAP = 2^20 subgroups
    code, payload = run_json("factorize", "elemabelian:2:9")
    assert code == 3
    assert payload["error"] == "subgroup lattice cap 1048576 exceeded (order 512)"


def test_enumerate_past_the_node_budget_exits_3():
    # (Z2)^5 has 2^25 operators; the census is refused while it plans its
    # isomorphism trials, before the first one runs
    t0 = time.monotonic()
    code, payload = run_json("enumerate", "elemabelian:2:5", "--cap", "32")
    assert code == 3
    assert payload["kind"] == "resource-cap"
    assert payload["error"].startswith(
        "enumerate_rb: the isomorphism trials exceed the node budget")
    assert time.monotonic() - t0 < 30


def test_permutation_group_past_dense_bound_exits_3(tmp_path):
    # S8 (order 40320) is refused while closing its generators, even
    # with the order cap raised above it
    spec = tmp_path / "s8.json"
    spec.write_text(json.dumps({"permutations": {
        "degree": 8,
        "generators": [[1, 0, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7, 0]]}}))
    code, payload = run_json("verify", str(spec), '{"images": [0]}',
                             "--cap-order", "50000")
    assert code == 3
    assert payload["kind"] == "resource-cap"


def test_permutation_group_without_generators_allocates_nothing_of_its_degree(capsys):
    # no generators give the trivial group; an identity permutation of
    # this degree alone would take 381 MiB.  The degree-1 run first loads
    # what the command imports on first use, which is not traced.
    def spec(degree):
        return json.dumps({"permutations": {"degree": degree, "generators": []}})
    assert cli.main(["factorize", spec(1)]) == 0
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = cli.main(["factorize", spec(10 ** 8)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["group"]["order"] == 1
    assert peak < 2 ** 20


@pytest.mark.parametrize("args", [
    ("factorize", '{"cayley": [["a", "b"], ["b", "a"]]}'),
    ("factorize", '{"cayley": [[0, 1.5], [1, 0]]}'),
    ("factorize", '{"cayley": 5}'),
    ("factorize", '{"permutations": {"degree": 3, "generators": 5}}'),
    ("factorize", '{"permutations": {"degree": -1, "generators": []}}'),
    ("factorize", '{"permutations": {"degree": 2.5, "generators": []}}'),
    ("construct", "split", "cyclic:6", "--params", '{"h_gens": 5, "l_gens": [3]}'),
    ("construct", "split", "cyclic:6", "--params", '{"h_gens": [99], "l_gens": [3]}'),
    ("construct", "split", "cyclic:6", "--params", '{"h_gens": [-1], "l_gens": [3]}'),
    ("construct", "split", "cyclic:6", "--params", "[1]"),
    ("factorize", "cyclic:4", "--out", "<dir>"),
    ("verify", "cyclic:4", '{"images": [0, 3.7, 2, 1]}'),
    ("verify", "cyclic:4", '{"images": [0, "3", 2, 1]}'),
    ("verify", "cyclic:4", '{"images": [0, true, 2, 1]}'),
    ("factorize", "symmetric:3", "--detail-cap", "-1"),
    ("construct", "hom-abelian", "cyclic:4", "--params",
     '{"h_gens": [1], "images": [0, 1]}'),
    ("construct", "hom-abelian", "cyclic:4", "--params",
     '{"h_gens": [1], "images": [0, 1, 2, 3, 0]}'),
    ("classify-splitting", "<dir>"),
    ("verify", "cyclic:4", "<dir>"),
    ("construct", "split", "cyclic:6", "--params", "<dir>"),
    ("construct", "hom-abelian", "cyclic:4", "--params",
     '{"h_gens": [1], "images": [0, 1, 2, 3], "anti": "no"}'),
    ("construct", "hom-abelian", "cyclic:4", "--params",
     '{"h_gens": [1], "images": [0, 1, 2, 3], "anti": 0.5}'),
    ("factorize", "cyclic:4", "--out", "<dir>/missing/out.json"),
])
def test_malformed_input_is_input_error(args, tmp_path):
    # "<dir>" stands for a directory given where a JSON file belongs; a
    # bad --out path is reported on stdout
    code, payload = run_json(*(a.replace("<dir>", str(tmp_path)) for a in args))
    assert code == 2
    assert payload["kind"] == "input"


def test_non_associative_cayley_input_exits_2(tmp_path):
    # Z_400 with one intercalate swapped: Latin, identity 0, not a group
    n = 400
    table = [[(g + h) % n for h in range(n)] for g in range(n)]
    table[3][5] = table[203][205] = 208
    table[3][205] = table[203][5] = 8
    spec = tmp_path / "fake400.json"
    spec.write_text(json.dumps({"cayley": table}))
    code, payload = run_json("factorize", str(spec))
    assert code == 2
    assert payload == {"command": "factorize", "kind": "input",
                       "error": "multiplication is not associative"}


def test_cayley_input_over_cap_order_exits_3():
    table = [[(g + h) % 11 for h in range(11)] for g in range(11)]
    code, payload = run_json("factorize", json.dumps({"cayley": table}),
                             "--cap-order", "10")
    assert code == 3
    assert payload["entry"]["reason"] == "order 11 exceeds cap 10"


def test_out_of_scale_exit_code():
    proc = run_cli("classify-splitting", "psl2:59")
    assert proc.returncode == 3
    payload = json.loads(proc.stdout)
    assert payload["entry"]["status"] == "out of desk scale"


def test_factorize():
    code, payload = run_json("factorize", "symmetric:4")
    assert code == 0
    assert payload["count"] == 35
    pairs = {(f["h_order"], f["l_order"]) for f in payload["factorizations"]}
    assert (24, 1) in pairs
    assert (12, 2) in pairs


def test_factorize_sl25_times_c2_from_cayley_file(tmp_path):
    # the lattice must hold SL(2,5) x 1, whose involution is central
    from test_subgroups import sl2_table, times_c2
    spec = tmp_path / "sl25xc2.json"
    spec.write_text(json.dumps({"cayley": times_c2(sl2_table(5)).tolist()}))
    code, payload = run_json("factorize", str(spec))
    assert code == 0
    assert payload["group"]["order"] == 240
    pairs = {(f["h_order"], f["l_order"]) for f in payload["factorizations"]}
    assert (120, 2) in pairs


def test_inline_group_json():
    code, payload = run_json("enumerate", '{"named": "cyclic:3"}')
    assert code == 0
    assert payload["count"] == 3


def test_output_to_file(tmp_path):
    out = tmp_path / "r.json"
    proc = run_cli("enumerate", "cyclic:3", "--out", str(out))
    assert proc.returncode == 0
    assert json.loads(out.read_text())["count"] == 3


def test_determinism_across_runs():
    a = run_cli("classify-splitting", "psl2:4")
    b = run_cli("classify-splitting", "psl2:4")
    assert a.stdout == b.stdout


def test_help_exits_zero():
    proc = run_cli("--help")
    assert proc.returncode == 0
    for sub in ["verify", "construct", "enumerate", "classify-splitting",
                "table2", "obstruct-nonsplitting", "factorize"]:
        assert sub in proc.stdout


# one cheap call per subcommand
SUBCOMMAND_CALLS = [
    ("verify", "cyclic:4", '{"images": [0, 0, 0, 0]}'),
    ("construct", "trivial-e", "cyclic:4"),
    ("enumerate", "cyclic:3"),
    ("classify-splitting", "cyclic:4"),
    ("table2", "--q", "7"),
    ("obstruct-nonsplitting", "psl2:7"),
    ("factorize", "cyclic:4"),
]


@pytest.mark.parametrize("args", SUBCOMMAND_CALLS, ids=lambda a: a[0])
def test_config_block_is_the_order_cap(args):
    code, payload = run_json(*args, "--cap-order", "200")
    assert code == 0
    assert payload["config"] == {"cap_order": 200}


@pytest.mark.parametrize("flag", ["--seed", "--samples", "--cap-lattice"])
def test_removed_flags_exit_2(flag):
    proc = run_cli("enumerate", "cyclic:3", flag, "1")
    assert proc.returncode == 2
    assert "unrecognized arguments" in proc.stderr
