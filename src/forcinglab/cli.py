"""Command line front end.

Exit codes: 0 for success (or a true/forced/agreeing answer), 1 for a false,
undecided, or exhausted answer, 2 for input errors.  All reports are sorted
and timestamp-free, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import formats, ramsey, zoo
from .errors import ForcingLabError, InputError
from .forcing import FORCES, context_for, decides, forces_set, oracle_set
from .formulas import Formula, parse_formula, print_formula, unbound_symbols
from .generic import GenericRequest, build_generic, enumerate_ultrafilters
from .names import Name, generic_name
from .poset import ConditionFamily, Poset, condition_cap, is_separative, separative_quotient

OK, FALSE, BAD_INPUT = 0, 1, 2


@dataclass
class Workspace:
    """Everything one invocation works against: the poset, its named dense
    families and the name environment (with ``gen`` bound)."""

    poset: Poset
    dense_families: dict[str, ConditionFamily] = field(default_factory=dict)
    names: dict[str, Name] = field(default_factory=dict)

    def __post_init__(self):
        self.names.setdefault("gen", generic_name(self.poset))


# Workspaces parsed by earlier requests in this process, least recently used
# first.  The key is the text of every file a workspace was read from plus the
# condition cap, and the files are read on every request, so an edited file or
# a lowered cap never gets a stale workspace.
_WORKSPACE_CACHE_SIZE = 32
_WORKSPACES: "OrderedDict[tuple, Workspace]" = OrderedDict()


def _load_workspace(poset_path: str, names_path: Optional[str]) -> Workspace:
    poset_text = Path(poset_path).read_text()
    try:
        families_text = Path(poset_path + ".families").read_text()
    except FileNotFoundError:  # no sidecar; any other OSError exits 2 in main
        families_text = None
    names_text = Path(names_path).read_text() if names_path else None
    key = (poset_text, families_text, names_text, condition_cap())
    ws = _WORKSPACES.get(key)
    if ws is not None:
        _WORKSPACES.move_to_end(key)
        return ws
    P = formats.parse_poset(poset_text)
    ws = Workspace(P)
    if families_text is not None:
        ws.dense_families = formats.parse_families(families_text, P)
    if names_text is not None:
        ws.names.update(formats.parse_names(names_text, P))
    _WORKSPACES[key] = ws
    if len(_WORKSPACES) > _WORKSPACE_CACHE_SIZE:
        _WORKSPACES.popitem(last=False)
    return ws


def _parse_checked(text: str, ws: Workspace) -> Formula:
    f = parse_formula(text)
    missing = unbound_symbols(f, set(ws.names))
    if missing:
        raise InputError(f"unbound symbols: {', '.join(missing)}")
    return f


def _cmd_poset_check(args) -> int:
    P = formats.parse_poset(Path(args.file).read_text())
    quotient, _, was_sep = separative_quotient(P)
    print(f"poset {P.name}")
    print(f"conditions {len(P)}")
    print(f"top {P.top}")
    print("reflexive ok")
    print("transitive ok")
    print("top-greatest ok")
    print(f"separative {'yes' if is_separative(P) else 'no'}")
    print(f"quotient-classes {len(quotient)}")
    print(f"quotient-separative {'yes' if was_sep else 'no'}")
    print(f"minimal-filters {len(P.minimal_filters())}")
    return OK


def _cmd_mk(args) -> int:
    families: dict[str, ConditionFamily] = {}
    if args.ctor == "cohen":
        P, families = zoo.cohen(args.i, args.depth)
    elif args.ctor == "random":
        P = zoo.dyadic_random(args.k)
    elif args.ctor == "amoeba":
        P = zoo.amoeba(args.k, args.eps)
    elif args.ctor == "collapse":
        P, families = zoo.collapse(args.x, args.len)
    elif args.ctor == "mathias":
        P = zoo.mathias(args.universe)
    else:
        P, families = zoo.marker(args.half_width)
    Path(args.out).write_text(formats.print_poset(P))
    sidecar = formats.print_families(families)
    if sidecar:
        Path(args.out + ".families").write_text(sidecar)
    print(f"wrote {args.out} ({len(P)} conditions, {len(sidecar.splitlines())} families)")
    return OK


def _cmd_force(args) -> int:
    ws = _load_workspace(args.poset, args.names)
    f = _parse_checked(args.formula, ws)
    verdict = decides(ws.poset, args.cond, f, ws.names)
    print(verdict)
    return OK if verdict == FORCES else FALSE


def _cmd_truth(args) -> int:
    ws = _load_workspace(args.poset, args.names)
    f = _parse_checked(args.formula, ws)
    print("truth " + " ".join(sorted(forces_set(ws.poset, f, ws.names))))
    return OK


def _cmd_generic(args) -> int:
    ws = _load_workspace(args.poset, None)
    fams = []
    if args.families:
        for fname in args.families.split(","):
            fam = ws.dense_families.get(fname)
            if fam is None:
                raise InputError(f"unknown family {fname!r} (missing sidecar?)")
            fams.append(fam)
    G = build_generic(ws.poset, GenericRequest(args.start, tuple(fams)))
    print(" ".join(sorted(G.members)))
    return OK


def _cmd_ultra(args) -> int:
    ws = _load_workspace(args.poset, None)
    for G in enumerate_ultrafilters(ws.poset):
        print(" ".join(sorted(G.members)))
    return OK


def _cmd_oracle(args) -> int:
    ws = _load_workspace(args.poset, args.names)
    f = _parse_checked(args.formula, ws)
    syntactic = forces_set(ws.poset, f, ws.names)
    semantic = oracle_set(ws.poset, f, ws.names)
    if syntactic == semantic:
        print("agree " + " ".join(sorted(syntactic)))
        return OK
    diff = sorted(syntactic.symmetric_difference(semantic))
    print("disagree " + " ".join(diff))
    return FALSE


def _cmd_ramsey_gnw(args) -> int:
    F = formats.parse_family_file(Path(args.family).read_text())
    result = ramsey.gnw_dichotomy_search(F, args.h, args.m)
    if result is None:
        print("exhausted")
        return FALSE
    print(f"horn {result.horn} H " + " ".join(str(x) for x in sorted(result.H)))
    return OK


def _cmd_ramsey_hl(args) -> int:
    f = formats.parse_coloring_file(Path(args.coloring).read_text())
    w = ramsey.hl_search([ramsey.LevelTree(f.depth)] * f.d, f)
    if w is None:
        print("exhausted")
        return FALSE
    stems = " ".join(s if s else "ε" for s in w.stems)
    print(f"level {w.level} stems {stems}")
    for m, row in w.rows:
        shown = " | ".join(" ".join(sorted(D)) for D in row.denses)
        print(f"m {m} n {row.n} color {row.color} denses {shown}")
    return OK


def _cmd_ramsey_mathias(args) -> int:
    X = formats.parse_clopen_file(Path(args.clopen).read_text())
    M = zoo.mathias(args.universe)
    if args.cond is None:
        p = zoo.mathias_id((), range(args.universe))
    else:
        p = args.cond
        M.check_condition(p)
    decision = ramsey.mathias_pure_decide(M, p, X)
    verdict = "in" if decision.forces_membership else "out"
    print(f"condition {decision.condition} decides {verdict} via {decision.route}")
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="forcinglab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("poset", help="poset file tools")
    check_sub = p_check.add_subparsers(dest="poset_command", required=True)
    p_pc = check_sub.add_parser("check", help="validate a poset file and report")
    p_pc.add_argument("file")
    p_pc.set_defaults(handler="_cmd_poset_check")

    p_mk = sub.add_parser("mk", help="construct a poset and write it out")
    mk_sub = p_mk.add_subparsers(dest="ctor", required=True)
    mk_cohen = mk_sub.add_parser("cohen")
    mk_cohen.add_argument("--i", type=int, required=True)
    mk_cohen.add_argument("--depth", type=int, required=True)
    mk_random = mk_sub.add_parser("random")
    mk_random.add_argument("--k", type=int, required=True)
    mk_amoeba = mk_sub.add_parser("amoeba")
    mk_amoeba.add_argument("--k", type=int, required=True)
    mk_amoeba.add_argument("--eps", required=True)
    mk_collapse = mk_sub.add_parser("collapse")
    mk_collapse.add_argument("--x", type=int, required=True)
    mk_collapse.add_argument("--len", type=int, required=True)
    mk_mathias = mk_sub.add_parser("mathias")
    mk_mathias.add_argument("--universe", type=int, required=True)
    mk_marker = mk_sub.add_parser("marker")
    mk_marker.add_argument("--half-width", type=int, required=True)
    for mk_p in (mk_cohen, mk_random, mk_amoeba, mk_collapse, mk_mathias, mk_marker):
        mk_p.add_argument("--out", required=True)
        mk_p.set_defaults(handler="_cmd_mk")

    p_force = sub.add_parser("force", help="does a condition force a formula?")
    p_force.add_argument("--poset", required=True)
    p_force.add_argument("--names")
    p_force.add_argument("--cond", required=True)
    p_force.add_argument("formula")
    p_force.set_defaults(handler="_cmd_force")

    p_truth = sub.add_parser("truth", help="truth value in the completion")
    p_truth.add_argument("--poset", required=True)
    p_truth.add_argument("--names")
    p_truth.add_argument("formula")
    p_truth.set_defaults(handler="_cmd_truth")

    p_gen = sub.add_parser("generic", help="build a generic filter")
    p_gen.add_argument("--poset", required=True)
    p_gen.add_argument("--from", dest="start", required=True)
    p_gen.add_argument("--families", default="")
    p_gen.set_defaults(handler="_cmd_generic")

    p_ultra = sub.add_parser("ultra", help="enumerate ultrafilters")
    p_ultra.add_argument("--poset", required=True)
    p_ultra.set_defaults(handler="_cmd_ultra")

    p_oracle = sub.add_parser("oracle", help="compare forcing with the semantic oracle")
    p_oracle.add_argument("--poset", required=True)
    p_oracle.add_argument("--names")
    p_oracle.add_argument("--formula", required=True)
    p_oracle.set_defaults(handler="_cmd_oracle")

    p_ramsey = sub.add_parser("ramsey", help="combinatorial searches")
    ramsey_sub = p_ramsey.add_subparsers(dest="ramsey_command", required=True)
    r_gnw = ramsey_sub.add_parser("gnw")
    r_gnw.add_argument("--family", required=True)
    r_gnw.add_argument("--h", type=int, required=True)
    r_gnw.add_argument("--m", type=int, required=True)
    r_gnw.set_defaults(handler="_cmd_ramsey_gnw")
    r_hl = ramsey_sub.add_parser("hl")
    r_hl.add_argument("--coloring", required=True)
    r_hl.set_defaults(handler="_cmd_ramsey_hl")
    r_mathias = ramsey_sub.add_parser("mathias")
    r_mathias.add_argument("--universe", type=int, required=True)
    r_mathias.add_argument("--clopen", required=True)
    r_mathias.add_argument("--cond")
    r_mathias.set_defaults(handler="_cmd_ramsey_mathias")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  It names each handler rather than
    holding it, so ``main`` calls whatever ``_cmd_*`` function is bound now."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        return globals()[args.handler](args)
    except ForcingLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT
    except (RecursionError, MemoryError) as exc:
        print(f"error: input too large to evaluate ({type(exc).__name__})", file=sys.stderr)
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
