"""Plain-text file formats: posets, dense-family sidecars, name environments,
set families, level colorings, and clopen predicates.

The poset format is line oriented: a ``poset`` header, one ``top`` line,
``elem`` lines, and ``le`` lines whose pairs may be covers (the closure is
taken on load).  ``#`` starts a comment.  Writers emit canonical, sorted
output so identical inputs always produce identical bytes.
"""

from __future__ import annotations

from typing import Mapping

from .errors import InputError
from .names import Name, check_name, constant_value, generic_name
from .poset import ConditionFamily, Poset, make_family
from .ramsey import ClopenPredicate, FinFamily, LevelColoring
from .sexpr import IDENT, SAtom, SList, SNode, SSet, print_hf, read_all


def _check_ident(token: str, lineno: int) -> str:
    if not IDENT.fullmatch(token):
        raise InputError(f"line {lineno}: bad identifier {token!r}")
    return token


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_poset(text: str) -> Poset:
    name = None
    top = None
    elems: set[str] = set()
    pairs: list[tuple[str, str]] = []
    for lineno, tokens in _content_lines(text):
        head, args = tokens[0], tokens[1:]
        if head == "poset":
            if len(args) != 1:
                raise InputError(f"line {lineno}: poset takes one name")
            name = _check_ident(args[0], lineno)
        elif head == "top":
            if len(args) != 1:
                raise InputError(f"line {lineno}: top takes one identifier")
            top = _check_ident(args[0], lineno)
            elems.add(top)
        elif head == "elem":
            if len(args) != 1:
                raise InputError(f"line {lineno}: elem takes one identifier")
            elems.add(_check_ident(args[0], lineno))
        elif head == "le":
            if len(args) != 2:
                raise InputError(f"line {lineno}: le takes two identifiers")
            pairs.append((_check_ident(args[0], lineno), _check_ident(args[1], lineno)))
            elems.update(args)
        else:
            raise InputError(f"line {lineno}: unknown directive {head!r}")
    if name is None:
        raise InputError("missing 'poset <name>' line")
    if top is None:
        raise InputError("missing 'top <id>' line")
    return Poset(name, elems, top, pairs)


def print_poset(P: Poset) -> str:
    """Canonical text: class cycles plus the cover relation of the classes."""
    n = len(P.ids)
    down = P.down_masks()
    lines = [f"poset {P.name}", f"top {P.top}"]
    for cid in P.ids:
        lines.append(f"elem {cid}")
    classes: dict[int, list[int]] = {}
    for i in range(n):
        classes.setdefault(down[i] & P.up_mask(P.ids[i]), []).append(i)
    reps = {}
    for mask, members in classes.items():
        members.sort()
        reps[mask] = members[0]
        for a, b in zip(members, members[1:]):
            lines.append(f"le {P.ids[a]} {P.ids[b]}")
            lines.append(f"le {P.ids[b]} {P.ids[a]}")
    rep_list = sorted(reps.values())
    rep_mask = 0
    for a in rep_list:
        rep_mask |= 1 << a
    up_strict = {a: P.up_mask(P.ids[a]) & ~down[a] & rep_mask for a in rep_list}
    for a in rep_list:
        shadow = 0
        cand = up_strict[a]
        m = cand
        while m:
            low = m & -m
            shadow |= up_strict[low.bit_length() - 1]
            m ^= low
        covers = cand & ~shadow
        while covers:
            low = covers & -covers
            lines.append(f"le {P.ids[a]} {P.ids[low.bit_length() - 1]}")
            covers ^= low
    return "\n".join(lines) + "\n"


def parse_families(text: str, P: Poset) -> dict[str, ConditionFamily]:
    out: dict[str, ConditionFamily] = {}
    for lineno, tokens in _content_lines(text):
        if tokens[0] != "dense":
            raise InputError(f"line {lineno}: unknown directive {tokens[0]!r}")
        if len(tokens) < 3:
            raise InputError(f"line {lineno}: dense takes a name and members")
        fname = _check_ident(tokens[1], lineno)
        members = frozenset(_check_ident(t, lineno) for t in tokens[2:])
        try:
            out[fname] = make_family(P, members, "dense")
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from exc
    return out


def print_families(families: Mapping[str, ConditionFamily]) -> str:
    lines = []
    for fname in sorted(families):
        fam = families[fname]
        if fam.kind != "dense":
            continue
        lines.append("dense " + fname + " " + " ".join(sorted(fam.members)))
    return "\n".join(lines) + ("\n" if lines else "")


# -- names files -------------------------------------------------------------


def name_from_sexpr(node: SNode, P: Poset, defined: Mapping[str, Name]) -> Name:
    """The name a form denotes.  The stack holds forms still to read and
    frames: ("entry", entry, list) checks an entry's shape before its child
    is read, ("cond", c) pairs the child just built with its condition c,
    and ("name", k) builds a name from the last k pairs.  Forms are checked
    outside-in, left to right, as a recursive descent would."""
    built: list = []
    todo: list = [node]
    while todo:
        item = todo.pop()
        if type(item) is tuple:  # a frame; nodes are tuple subclasses
            if item[0] == "entry":
                _, entry, where = item
                if (
                    not isinstance(entry, SList)
                    or len(entry.items) != 3
                    or not isinstance(entry.items[0], SAtom)
                    or entry.items[0].text != "pair"
                    or not isinstance(entry.items[2], SAtom)
                ):
                    raise InputError(f"{where.line}:{where.col}: entries are (pair <name> <cond>)")
                todo += (("cond", entry.items[2].text), entry.items[1])
            elif item[0] == "cond":
                P.check_condition(item[1])
                built[-1] = (built[-1], item[1])
            else:
                k = len(built) - item[1]
                built[k:] = [Name(built[k:])]
            continue
        if isinstance(item, SAtom):
            if item.text not in defined:
                raise InputError(f"{item.line}:{item.col}: undefined name {item.text!r}")
            built.append(defined[item.text])
            continue
        if isinstance(item, SSet):
            raise InputError(f"{item.line}:{item.col}: wrap HF literals as (check ...)")
        if not item.items or not isinstance(item.items[0], SAtom):
            raise InputError(f"{item.line}:{item.col}: empty or headless name form")
        head = item.items[0].text
        args = item.items[1:]
        if head == "check":
            if len(args) != 1 or not isinstance(args[0], SSet):
                raise InputError(f"{item.line}:{item.col}: (check ...) takes one HF literal")
            built.append(check_name(args[0].value, P))
        elif head == "gen":
            if args:
                raise InputError(f"{item.line}:{item.col}: (gen) takes no arguments")
            built.append(generic_name(P))
        elif head == "name":
            if len(args) != 1 or not isinstance(args[0], SList):
                raise InputError(f"{item.line}:{item.col}: (name (...)) takes one entry list")
            todo.append(("name", len(args[0].items)))
            todo += [("entry", entry, args[0]) for entry in reversed(args[0].items)]
        else:
            raise InputError(f"{item.line}:{item.col}: unknown name form {head!r}")
    return built[0]


def parse_names(text: str, P: Poset) -> dict[str, Name]:
    """A sequence of (def <id> <name-expr>) forms, later ones seeing earlier ones."""
    out: dict[str, Name] = {}
    for node in read_all(text):
        if (
            not isinstance(node, SList)
            or len(node.items) != 3
            or not isinstance(node.items[0], SAtom)
            or node.items[0].text != "def"
            or not isinstance(node.items[1], SAtom)
        ):
            line = getattr(node, "line", "?")
            col = getattr(node, "col", "?")
            raise InputError(f"{line}:{col}: expected (def <id> <name-expr>)")
        ident = node.items[1]
        if not IDENT.fullmatch(ident.text):
            raise InputError(f"{ident.line}:{ident.col}: bad identifier {ident.text!r}")
        out[ident.text] = name_from_sexpr(node.items[2], P, out)
    return out


def print_name(n: Name, P: Poset) -> str:
    """Canonical form: constant names print as (check ...), the rest entry by
    entry with entries ordered by (condition, printed child).  The stack
    holds a frame per name being printed, as a recursion would: the
    condition of its entry in its parent, its entries left, and its printed
    (condition, text) pairs; the first frame holds n alone."""
    stack = [(None, iter([(n, None)]), [])]
    while True:
        cond, left, printed = stack[-1]
        for child, child_cond in left:
            value = constant_value(child, P)
            if value is None:
                stack.append((child_cond, iter(child.entries), []))
                break
            printed.append((child_cond, f"(check {print_hf(value)})"))
        else:
            stack.pop()
            if not stack:
                return printed[0][1]
            inner = " ".join(f"(pair {text} {c})" for c, text in sorted(printed))
            stack[-1][2].append((cond, f"(name ({inner}))"))


# -- ramsey inputs ---------------------------------------------------------


def parse_family_file(text: str) -> FinFamily:
    """Header ``family N=<universe>``, then one member per line as naturals."""
    universe = None
    members = []
    for lineno, tokens in _content_lines(text):
        if tokens[0] == "family":
            if len(tokens) != 2 or not tokens[1].startswith("N="):
                raise InputError(f"line {lineno}: expected 'family N=<universe>'")
            try:
                universe = int(tokens[1][2:])
            except ValueError:
                raise InputError(f"line {lineno}: the universe size is an integer") from None
        else:
            if universe is None:
                raise InputError(f"line {lineno}: member before the family header")
            try:
                members.append(frozenset(int(t) for t in tokens))
            except ValueError as exc:
                raise InputError(f"line {lineno}: members are naturals") from exc
    if universe is None:
        raise InputError("missing 'family N=<universe>' header")
    return FinFamily(universe, frozenset(members))


def print_family_file(F: FinFamily) -> str:
    lines = [f"family N={F.universe_size}"]
    for member in sorted(F.members, key=lambda m: (len(m), sorted(m))):
        lines.append(" ".join(str(x) for x in sorted(member)))
    return "\n".join(lines) + "\n"


def parse_coloring_file(text: str) -> LevelColoring:
    """Header ``coloring d=<d> depth=<D> k=<k>``; lines ``<nodes...> -> <color>``
    with nodes as 01-strings and the Greek epsilon for the root."""
    header = None
    values: dict[tuple[str, ...], int] = {}
    for lineno, tokens in _content_lines(text):
        if tokens[0] == "coloring":
            try:
                opts = dict(t.split("=", 1) for t in tokens[1:])
                header = (int(opts["d"]), int(opts["depth"]), int(opts["k"]))
            except (KeyError, ValueError) as exc:
                raise InputError(f"line {lineno}: expected d=, depth=, k=") from exc
            continue
        if header is None:
            raise InputError(f"line {lineno}: entry before the coloring header")
        if "->" not in tokens:
            raise InputError(f"line {lineno}: expected '<nodes> -> <color>'")
        arrow = tokens.index("->")
        nodes = tokens[:arrow]
        if len(nodes) != header[0] or len(tokens) != arrow + 2:
            raise InputError(f"line {lineno}: expected {header[0]} nodes and one color")
        decoded = []
        for nd in nodes:
            if nd == "ε":
                decoded.append("")
            elif set(nd) <= {"0", "1"}:
                decoded.append(nd)
            else:
                raise InputError(f"line {lineno}: bad node {nd!r}")
        try:
            values[tuple(decoded)] = int(tokens[arrow + 1])
        except ValueError:
            raise InputError(f"line {lineno}: colors are integers") from None
    if header is None:
        raise InputError("missing coloring header")
    return LevelColoring(header[0], header[1], header[2], values)


def print_coloring_file(f: LevelColoring) -> str:
    lines = [f"coloring d={f.d} depth={f.depth} k={f.k}"]
    for nodes in sorted(f.values, key=lambda ns: (len(ns[0]), ns)):
        shown = " ".join(nd if nd else "ε" for nd in nodes)
        lines.append(f"{shown} -> {f.values[nodes]}")
    return "\n".join(lines) + "\n"


def parse_clopen_file(text: str) -> ClopenPredicate:
    """Header ``clopen horizon=<t>``; one accepted prefix per line as naturals,
    with ``-`` standing for the empty prefix."""
    horizon = None
    accepted = []
    for lineno, tokens in _content_lines(text):
        if tokens[0] == "clopen":
            if len(tokens) != 2 or not tokens[1].startswith("horizon="):
                raise InputError(f"line {lineno}: expected 'clopen horizon=<t>'")
            try:
                horizon = int(tokens[1][8:])
            except ValueError:
                raise InputError(f"line {lineno}: the horizon is an integer") from None
            continue
        if horizon is None:
            raise InputError(f"line {lineno}: prefix before the clopen header")
        if tokens == ["-"]:
            accepted.append(())
        else:
            try:
                accepted.append(tuple(int(t) for t in tokens))
            except ValueError as exc:
                raise InputError(f"line {lineno}: prefixes are naturals") from exc
    if horizon is None:
        raise InputError("missing clopen header")
    return ClopenPredicate(horizon, frozenset(accepted))


def print_clopen_file(X: ClopenPredicate) -> str:
    lines = [f"clopen horizon={X.horizon}"]
    for pre in sorted(X.accepted):
        lines.append("-" if not pre else " ".join(str(x) for x in pre))
    return "\n".join(lines) + "\n"
