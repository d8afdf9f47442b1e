"""Command-line interface.

Subcommands: verify, construct, enumerate, classify-splitting, table2,
obstruct-nonsplitting, factorize.  All output is deterministic JSON
(sorted keys, no timestamps).  Exit codes: 0 success / verified,
1 semantic negative (not an operator, classification mismatch,
obstruction survivors), 2 input error, 3 resource cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import constructions as cons
from . import enumeration as enum_mod
from .catalog import group_from_json
from .errors import InputFormatError, OutOfScaleError, PropertyFailure, ResourceCapError
from .maps import GroupMap
from .rb import (is_splitting, make_rb, structure_report, trivial_e, trivial_inv,
                 verify_rb)
from .reports import (RunConfig, emit, group_block, operator_block, to_jsonable,
                      tool_block)
from .subgroups import Factorization, closure, exact_factorizations, intersection

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def _load_json_arg(text_or_path):
    """Accept inline JSON or a path to a JSON file."""
    if text_or_path is None:
        return {}
    s = text_or_path.strip()
    if s.startswith("{") or s.startswith("["):
        return json.loads(s)
    with open(text_or_path) as fh:
        return json.load(fh)


def _resolve_group(spec, cfg):
    """A group argument: catalog id, inline JSON, or a JSON file path."""
    if os.path.exists(spec):
        with open(spec) as fh:
            obj = json.load(fh)
        return group_from_json(obj, order_cap=cfg.cap_order), obj if isinstance(obj, str) else spec
    if spec.strip().startswith("{"):
        obj = json.loads(spec)
        return group_from_json(obj, order_cap=cfg.cap_order), "<inline>"
    return group_from_json(spec, order_cap=cfg.cap_order), spec


def _envelope(command, cfg):
    return {"command": command, "config": cfg.block(), "tool": tool_block()}


def cmd_verify(args, cfg):
    G, ref = _resolve_group(args.group, cfg)
    obj = _load_json_arg(args.operator)
    if not isinstance(obj, dict):
        raise InputFormatError("operator needs an 'images' array")
    images = _index_list(obj, "images", G.order)
    if images.shape != (G.order,):
        raise InputFormatError("images must list one element index per group element")
    res = verify_rb(G, images)
    payload = _envelope("verify", cfg)
    payload["group"] = group_block(G, ref)
    payload["verdict"] = bool(res.ok)
    payload["mode"] = res.mode
    payload["checked"] = int(res.checked)
    payload["witness"] = list(res.witness) if res.witness else None
    emit(payload, cfg.out)
    return EXIT_OK if res.ok else EXIT_NEGATIVE


def _index_list(params, key, bound):
    """params[key], checked to be a list of ints in [0, bound)."""
    vals = params.get(key)
    if not isinstance(vals, list) or not all(
            type(v) is int and 0 <= v < bound for v in vals):
        raise InputFormatError(
            f"'{key}' must be a list of element indices in [0, {bound})")
    return np.asarray(vals, dtype=np.int64)


def _index(params, key, bound):
    """params[key], checked to be an int in [0, bound)."""
    val = params.get(key)
    if type(val) is not int or not 0 <= val < bound:
        raise InputFormatError(f"{key} must be an element index in [0, {bound})")
    return val


def _subgroup_from_params(G, params, key):
    return closure(G, _index_list(params, key, G.order))


def _build_recipe(G, recipe, params):
    if recipe == "trivial-e":
        return trivial_e(G)
    if recipe == "trivial-inv":
        return trivial_inv(G)
    if recipe == "split":
        H = _subgroup_from_params(G, params, "h_gens")
        L = _subgroup_from_params(G, params, "l_gens")
        F = Factorization(h=H, l=L)
        return cons.splitting_from_exact(F, params.get("order", "HL"))
    if recipe == "hom-abelian":
        H = _subgroup_from_params(G, params, "h_gens")
        phi = GroupMap(G, G, _index_list(params, "images", G.order))
        anti = params.get("anti", False)
        if not isinstance(anti, bool):
            raise InputFormatError("hom-abelian: anti must be true or false")
        return cons.hom_to_abelian(G, H, phi, anti=anti)
    if recipe == "lift":
        H = _subgroup_from_params(G, params, "h_gens")
        L = _subgroup_from_params(G, params, "l_gens")
        F = Factorization(h=H, l=L)
        c = params.get("c", {"recipe": "trivial-inv"})
        if not isinstance(c, dict):
            raise InputFormatError("lift: c must be a JSON object")
        if "images" in c:
            c_images = _index_list(c, "images", L.order)
        else:
            Lgrp, _ = L.as_group(validate=False)
            if c.get("recipe") == "trivial-e":
                c_images = np.zeros(Lgrp.order, dtype=np.int64)
            elif c.get("recipe") == "trivial-inv":
                c_images = Lgrp.inverse.astype(np.int64)
            else:
                raise InputFormatError("lift: c must give 'images' or a trivial recipe")
        return cons.lift_from_factor(F, c_images)
    if recipe == "lemma-r2":
        H = _subgroup_from_params(G, params, "h_gens")
        K = _subgroup_from_params(G, params, "k_gens")
        H1 = _subgroup_from_params(G, params, "h1_gens")
        K1 = _subgroup_from_params(G, params, "k1_gens")
        if intersection(H, K).order != 2:
            raise InputFormatError("lemma-r2: H ∩ K must have order 2")
        if K1.mask()[K.members].all():
            raise InputFormatError("lemma-r2: K1 must be proper in K")
        inst = cons.LemmaR2Instance(h=H, k=K, h1=H1, k1=K1)
        return cons.lemma_r2_construct(inst)
    if recipe == "extension":
        A = _subgroup_from_params(G, params, "a_gens")
        data = cons.ExtensionData(
            group=G, a=A, f=_index(params, "f", G.order),
            ba_images=_index_list(params, "ba_images", A.order),
            bf=_index(params, "bf", G.order))
        candidate, is_rb, cond = cons.extension_construct(data)
        if not is_rb:
            raise PropertyFailure("extension-candidate-not-rb",
                                  witness={"condition_holds": cond})
        op = make_rb(G, candidate.images)
        op.provenance["recipe"] = {"kind": "extension", "f": int(data.f),
                                   "condition_holds": bool(cond)}
        return op
    raise InputFormatError(f"unknown recipe: {recipe}")


def cmd_construct(args, cfg):
    params = _load_json_arg(args.params)
    if not isinstance(params, dict):
        raise InputFormatError("--params must be a JSON object")
    if args.recipe == "paper16":
        G, op = cons.paper16_fixture()
        ref = "paper16"
    else:
        G, ref = _resolve_group(args.group, cfg)
        op = _build_recipe(G, args.recipe, params)
    rep = structure_report(op)
    payload = _envelope("construct", cfg)
    payload["group"] = group_block(G, ref)
    payload["recipe"] = {"name": args.recipe, "params": to_jsonable(params)}
    payload["operator"] = operator_block(op)
    payload["structure"] = {
        "kernel_order": rep.kernel.order,
        "image_order": rep.image.order,
        "kernel_tilde_order": rep.kernel_tilde.order,
        "image_tilde_order": rep.image_tilde.order,
        "r_order": rep.r.order,
        "splitting": rep.splitting,
        "checks": to_jsonable(rep.checks),
    }
    emit(payload, cfg.out)
    return EXIT_OK


def cmd_enumerate(args, cfg):
    G, ref = _resolve_group(args.group, cfg)
    ops = enum_mod.enumerate_rb(G, cap=args.cap)
    payload = _envelope("enumerate", cfg)
    payload["group"] = group_block(G, ref)
    payload["count"] = len(ops)
    payload["operators"] = [operator_block(op) for op in ops]
    payload["splitting_count"] = sum(1 for op in ops if is_splitting(op))
    emit(payload, cfg.out)
    return EXIT_OK


def _classification_payload(G, ref):
    report = enum_mod.classify_splitting(G)
    body = report.to_json()
    if ref and ref.startswith("psl2:"):
        q = int(ref.split(":")[1])
        expected, status, note = enum_mod.psl2_expected_s(q)
        if status == "FLAGGED":
            verdict = "FLAGGED"
        else:
            verdict = "MATCH" if report.s == expected else "MISMATCH"
        body["expected"] = {"s": expected, "status": status, "note": note,
                            "verdict": verdict}
    return body


def cmd_classify(args, cfg):
    G, ref = _resolve_group(args.group, cfg)
    body = _classification_payload(G, ref)
    payload = _envelope("classify-splitting", cfg)
    payload["group"] = group_block(G, ref)
    payload.update(body)
    emit(payload, cfg.out)
    verdict = body.get("expected", {}).get("verdict")
    return EXIT_NEGATIVE if verdict == "MISMATCH" else EXIT_OK


def cmd_table2(args, cfg):
    rows = []
    worst = EXIT_OK
    for q in args.q:
        ident = f"psl2:{q}"
        try:
            G = group_from_json(ident, order_cap=cfg.cap_order)
        except OutOfScaleError as exc:
            rows.append(exc.report_entry())
            continue
        except InputFormatError as exc:
            rows.append({"id": ident, "status": "error", "reason": str(exc)})
            worst = max(worst, EXIT_INPUT)
            continue
        try:
            body = _classification_payload(G, ident)
        except ResourceCapError as exc:
            rows.append({"id": ident, "status": "resource cap",
                         "reason": str(exc)})
            continue
        row = {"id": ident, "status": "ok", "s": body["s"],
               "classes": body["classes"]}
        if "expected" in body:
            row["expected"] = body["expected"]
            if body["expected"]["verdict"] == "MISMATCH":
                worst = max(worst, EXIT_NEGATIVE)
        rows.append(row)
    payload = _envelope("table2", cfg)
    payload["rows"] = rows
    emit(payload, cfg.out)
    return worst


def cmd_obstruct(args, cfg):
    G, ref = _resolve_group(args.group, cfg)
    report = enum_mod.nonsplitting_obstruction(G)
    payload = _envelope("obstruct-nonsplitting", cfg)
    payload["group"] = group_block(G, ref)
    payload.update(report.to_json())
    emit(payload, cfg.out)
    return EXIT_OK if not report.survivors else EXIT_NEGATIVE


def cmd_factorize(args, cfg):
    if args.detail_cap < 0:
        raise InputFormatError("--detail-cap must be >= 0")
    G, ref = _resolve_group(args.group, cfg)
    facts = exact_factorizations(G)
    payload = _envelope("factorize", cfg)
    payload["group"] = group_block(G, ref)
    payload["count"] = len(facts)
    detail_cap = args.detail_cap
    payload["factorizations"] = [
        {"h_order": f.h.order, "l_order": f.l.order,
         "h_members": [int(x) for x in f.h.members],
         "l_members": [int(x) for x in f.l.members]}
        for f in facts[:detail_cap]]
    if len(facts) > detail_cap:
        by_orders = {}
        for f in facts:
            key = f"{f.h.order}x{f.l.order}"
            by_orders[key] = by_orders.get(key, 0) + 1
        payload["truncated"] = True
        payload["counts_by_orders"] = by_orders
    emit(payload, cfg.out)
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="rbgroups",
        description="Rota-Baxter operators on finite groups: verification, "
                    "construction, enumeration, classification.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--cap-order", type=int, default=10000)
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("verify", help="check the defining identity")
    sp.add_argument("group")
    sp.add_argument("operator", help="operator JSON (inline or path)")
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("construct", help="build an operator from a recipe")
    sp.add_argument("recipe", choices=["trivial-e", "trivial-inv", "split",
                                       "hom-abelian", "lift", "lemma-r2",
                                       "extension", "paper16"])
    sp.add_argument("group", nargs="?", default="paper16")
    sp.add_argument("--params", default=None,
                    help="recipe parameters, inline JSON or a path")
    common(sp)
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("enumerate", help="all operators on a small group")
    sp.add_argument("group")
    sp.add_argument("--cap", type=int, default=enum_mod.ENUM_CAP)
    common(sp)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("classify-splitting",
                        help="equivalence classes of splitting operators")
    sp.add_argument("group")
    common(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("table2", help="classification rows for psl2:q")
    sp.add_argument("--q", type=int, nargs="+",
                    default=[4, 5, 7, 8, 9, 11, 13])
    common(sp)
    sp.set_defaults(func=cmd_table2)

    sp = sub.add_parser("obstruct-nonsplitting",
                        help="necessary-condition filter for non-splitting "
                             "operators")
    sp.add_argument("group")
    common(sp)
    sp.set_defaults(func=cmd_obstruct)

    sp = sub.add_parser("factorize", help="exact factorizations of a group")
    sp.add_argument("group")
    sp.add_argument("--detail-cap", type=int, default=2000)
    common(sp)
    sp.set_defaults(func=cmd_factorize)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig(cap_order=args.cap_order, out=args.out)
    try:
        return args.func(args, cfg)
    except OutOfScaleError as exc:
        payload, code = _envelope(args.command, cfg), EXIT_CAP
        payload["entry"] = exc.report_entry()
    except (InputFormatError, json.JSONDecodeError, OSError, ValueError) as exc:
        payload, code = {"command": args.command, "error": str(exc),
                         "kind": "input"}, EXIT_INPUT
    except ResourceCapError as exc:
        payload, code = {"command": args.command, "error": str(exc),
                         "kind": "resource-cap"}, EXIT_CAP
    except PropertyFailure as exc:
        payload, code = {"command": args.command, "error": str(exc),
                         "kind": "semantic"}, EXIT_NEGATIVE
    try:
        emit(payload, cfg.out)
    except OSError as exc:          # the --out path itself is unusable
        emit({"command": args.command, "error": str(exc), "kind": "input"})
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
