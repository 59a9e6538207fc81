"""The benchmark's workloads: seeded inputs, set-up, one timed operation and
the check of its answer.

Every call into the package goes through a module attribute
(``forcing.decides``, not a name imported from it), so the tracer's wrappers
see it.  Inputs come only from the seed: each workload draws set-up inputs
and the operation stream from its own ``random.Random`` keyed by workload
name and seed.  Operations are drawn in shuffled blocks that hold every kind
of operation in fixed proportion, so the mix, and with it the median and
tail, does not drift from seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterator

from forcinglab import cli, completion, forcing, formats, formulas, generic, names, ramsey, zoo
from forcinglab.sexpr import print_hf

# Hereditarily finite constants small enough to print: the von Neumann
# naturals 0..3 (which also code the first four conditions of every poset)
# and {{0}}.
_VN = [frozenset()]
for _ in range(3):
    _VN.append(frozenset(_VN))
CONSTANTS = tuple(_VN) + (frozenset([frozenset([frozenset()])]),)
CONSTANT_TERMS = tuple(f"(check {print_hf(c)})" for c in CONSTANTS)

BINARY_FORMS = ("and", "or", "imp")


def random_formula(rng: random.Random, depth: int, env_terms: tuple[str, ...], bounds: tuple[str, ...], bound_vars: tuple[str, ...] = ()) -> str:
    """Formula text of syntax-tree height at most ``depth`` over the given
    environment terms, the check constants and the bound variables.
    Quantifiers range over ``bounds``, the constants or a bound variable."""
    if depth <= 1 or rng.random() < 0.25:
        terms = env_terms + CONSTANT_TERMS + bound_vars * 3
        kind = rng.choice(("mem", "mem", "eq"))
        return f"({kind} {rng.choice(terms)} {rng.choice(terms)})"
    form = rng.choice(("not", "and", "or", "imp", "forall", "exists"))
    if form == "not":
        return f"(not {random_formula(rng, depth - 1, env_terms, bounds, bound_vars)})"
    if form in BINARY_FORMS:
        left = random_formula(rng, depth - 1, env_terms, bounds, bound_vars)
        right = random_formula(rng, depth - 1, env_terms, bounds, bound_vars)
        return f"({form} {left} {right})"
    var = f"v{len(bound_vars)}"
    bound = rng.choice(bounds + CONSTANT_TERMS[1:] + bound_vars)
    body = random_formula(rng, depth - 1, env_terms, bounds, bound_vars + (var,))
    return f"({form} {var} in {bound} {body})"


def touches_gen(f, over_gen: frozenset = frozenset()) -> bool:
    """Does an atom of f mention gen, or a variable ranging over it?"""
    if isinstance(f, (formulas.Mem, formulas.Eq)):
        return any(t == "gen" or t in over_gen for t in (f.left, f.right))
    if isinstance(f, formulas.Not):
        return touches_gen(f.sub, over_gen)
    if isinstance(f, (formulas.And, formulas.Or, formulas.Imp)):
        return touches_gen(f.left, over_gen) or touches_gen(f.right, over_gen)
    if f.bound == "gen" or f.bound in over_gen:
        return touches_gen(f.body, over_gen | {f.var})
    return touches_gen(f.body, over_gen - {f.var})


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Workload:
    """One workload: ``setup`` builds the state, ``inputs`` yields the seeded
    operation stream, ``run`` is the timed operation and ``check`` verifies
    its answer outside the timed interval."""

    name = ""
    # peak_rss_mb is read after this many operations, a whole number of
    # blocks of the operation mix that every run completes.
    rss_ops = 0
    # Per-operation counts of the traced run are taken over this many leading
    # operations, a whole number of blocks of the operation mix.
    count_ops = 0

    def setup(self, seed: int, workdir: Path) -> Any:
        raise NotImplementedError

    def inputs(self, seed: int, state: Any) -> Iterator[Any]:
        raise NotImplementedError

    def run(self, state: Any, op: Any) -> Any:
        raise NotImplementedError

    def check(self, state: Any, op: Any, answer: Any) -> bool:
        raise NotImplementedError

    def describe(self, state: Any, op: Any) -> str:
        """Canonical text of one generated input, for the determinism test."""
        raise NotImplementedError

    def setup_files(self, state: Any) -> dict[str, bytes]:
        """Files the set-up wrote, by name, for the determinism test."""
        return {}


# ---------------------------------------------------------------------------
# cli-oracle: one `forcinglab oracle` request per operation
# ---------------------------------------------------------------------------

# Bundled forcings in the request pool; mathias(6) and amoeba(3, ...) calls
# take seconds each and would swamp the mix.
CLI_BUNDLED = (
    ("cohen.2.2", lambda: zoo.cohen(2, 2)),
    ("collapse.3.3", lambda: zoo.collapse(3, 3)),
    ("dyadic.2", lambda: zoo.dyadic_random(2)),
    ("amoeba.2.1-4", lambda: zoo.amoeba(2, Fraction(1, 4))),
    ("mathias.5", lambda: zoo.mathias(5)),
)
# One random preorder of each size from 4 to 12 conditions.
CLI_RANDOM_SIZES = tuple(range(4, 13))
CLI_LIGHT_PER_HEAVY = 2


def random_preorder_text(rng: random.Random, name: str, n: int) -> str:
    """A poset file for a random preorder with a top on n conditions, given
    by raw (not closed) pairs so that loading takes the closure."""
    ids = [f"c{i}" for i in range(n - 1)]
    density = rng.uniform(0.08, 0.3)
    lines = [f"poset {name}", "top top"]
    lines.extend(f"elem {c}" for c in ids)
    for a, b in itertools.permutations(ids, 2):
        if rng.random() < density:
            lines.append(f"le {a} {b}")
    lines.extend(f"le {c} top" for c in ids)
    return "\n".join(lines) + "\n"


@dataclass
class CliState:
    files: dict[str, Path]
    keys: tuple[str, ...]


class CliOracle(Workload):
    name = "cli-oracle"
    rss_ops = 504
    count_ops = 42

    def setup(self, seed: int, workdir: Path) -> CliState:
        rng = random.Random(f"{self.name}/setup/{seed}")
        workdir.mkdir(parents=True, exist_ok=True)
        files = {}
        for key, build in CLI_BUNDLED:
            built = build()
            P, families = built if isinstance(built, tuple) else (built, {})
            path = workdir / f"{key}.poset"
            path.write_text(formats.print_poset(P))
            sidecar = formats.print_families(families)
            if sidecar:
                Path(str(path) + ".families").write_text(sidecar)
            files[key] = path
        for n in CLI_RANDOM_SIZES:
            key = f"rand{n}"
            path = workdir / f"{key}.poset"
            path.write_text(random_preorder_text(rng, key, n))
            files[key] = path
        return CliState(files, tuple(sorted(files)))

    def inputs(self, seed: int, state: CliState) -> Iterator[tuple[str, str]]:
        # An atom on gen, or on a variable ranging over it, costs up to a
        # hundred times more than the rest, so each block asks every poset
        # one formula of the first kind and CLI_LIGHT_PER_HEAVY of the second.
        rng = random.Random(f"{self.name}/ops/{seed}")
        while True:
            block = [(key, True) for key in state.keys] + [(key, False) for key in state.keys] * CLI_LIGHT_PER_HEAVY
            rng.shuffle(block)
            for key, heavy in block:
                while True:
                    formula = random_formula(rng, rng.randint(1, 3), ("gen",), ("gen",))
                    if touches_gen(formulas.parse_formula(formula)) == heavy:
                        break
                yield key, formula

    def run(self, state: CliState, op: tuple[str, str]) -> tuple[int, str]:
        key, formula = op
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(["oracle", "--poset", str(state.files[key]), "--formula", formula])
        return code, out.getvalue()

    def check(self, state: CliState, op, answer) -> bool:
        code, text = answer
        lines = text.splitlines()
        return code == 0 and len(lines) == 1 and (lines[0] == "agree" or lines[0].startswith("agree "))

    def describe(self, state: CliState, op) -> str:
        return f"{op[0]} {op[1]}"

    def setup_files(self, state: CliState) -> dict[str, bytes]:
        out = {}
        for path in sorted(state.files.values()):
            out[path.name] = path.read_bytes()
            sidecar = Path(str(path) + ".families")
            if sidecar.exists():
                out[sidecar.name] = sidecar.read_bytes()
        return out


# ---------------------------------------------------------------------------
# library-large: warm library session on 700-1400 condition forcings
# ---------------------------------------------------------------------------

LIBRARY_POSETS = (
    ("cohen.2.3", lambda: zoo.cohen(2, 3)),
    ("mathias.8", lambda: zoo.mathias(8)),
    ("collapse.4.5", lambda: zoo.collapse(4, 5)),
)
LIBRARY_NAMES = ("x0", "x1", "x2")
ORACLE_SHARE = 1 / 8


@dataclass
class LibraryPoset:
    poset: Any
    algebra: Any
    dense: tuple


@dataclass
class LibraryOp:
    key: str
    condition: str
    env: dict
    formula: str
    oracle: bool


class LibraryLarge(Workload):
    name = "library-large"
    rss_ops = 402
    count_ops = 30

    def setup(self, seed: int, workdir: Path) -> dict[str, LibraryPoset]:
        out = {}
        for key, build in LIBRARY_POSETS:
            built = build()
            P, families = built if isinstance(built, tuple) else (built, {})
            A = completion.boolean_completion(P)
            dense = tuple(fam for _, fam in sorted(families.items()) if fam.kind == "dense")
            forcing.context_for(P)
            out[key] = LibraryPoset(P, A, dense)
        return out

    def _name(self, rng: random.Random, P, bound: int, depth: int):
        """A mixed name whose entry conditions all extend ``bound``, nested
        the same way below each entry, with check constants as leaves."""
        below = _bits(P.down_masks()[bound])
        entries = []
        for _ in range(rng.randint(1, 3)):
            cond = rng.choice(below)
            if depth == 0 or rng.random() < 0.4:
                child = names.check_name(rng.choice(CONSTANTS), P)
            else:
                child = self._name(rng, P, cond, depth - 1)
            entries.append((child, P.ids[cond]))
        return names.Name(entries)

    def inputs(self, seed: int, state: dict[str, LibraryPoset]) -> Iterator[LibraryOp]:
        rng = random.Random(f"{self.name}/ops/{seed}")
        keys = sorted(state)
        while True:
            block = list(keys)
            rng.shuffle(block)
            for key in block:
                P = state[key].poset
                top = P.check_condition(P.top)
                env = {x: self._name(rng, P, top, rng.randint(1, 2)) for x in LIBRARY_NAMES}
                formula = random_formula(rng, 3, LIBRARY_NAMES, LIBRARY_NAMES)
                condition = P.ids[rng.randrange(len(P))]
                yield LibraryOp(key, condition, env, formula, rng.random() < ORACLE_SHARE)

    def run(self, state: dict[str, LibraryPoset], op: LibraryOp):
        fc = state[op.key]
        P, A = fc.poset, fc.algebra
        phi = formulas.parse_formula(op.formula)
        verdict = forcing.decides(P, op.condition, phi, op.env)
        tv = forcing.truth_value(A, phi, op.env)
        tv_not = forcing.truth_value(A, formulas.Not(phi), op.env)
        G = None
        if fc.dense:
            G = generic.build_generic(P, generic.GenericRequest(op.condition, fc.dense))
        return verdict, tv, tv_not, G

    def check(self, state: dict[str, LibraryPoset], op: LibraryOp, answer) -> bool:
        verdict, tv, tv_not, G = answer
        fc = state[op.key]
        P, A = fc.poset, fc.algebra
        if tv_not != A.complement(tv):
            return False
        bit = 1 << P.check_condition(op.condition)
        expected = (
            forcing.FORCES if tv & bit else forcing.FORCES_NEGATION if tv_not & bit else forcing.UNDECIDED
        )
        if verdict != expected:
            return False
        if fc.dense and not (op.condition in G and generic.is_generic_for(P, G, fc.dense)[0]):
            return False
        if op.oracle:
            phi = formulas.parse_formula(op.formula)
            if forcing.forces_set(P, phi, op.env) != forcing.oracle_set(P, phi, op.env):
                return False
        return True

    def describe(self, state: dict[str, LibraryPoset], op: LibraryOp) -> str:
        P = state[op.key].poset
        bound = " ".join(f"{x}={formats.print_name(op.env[x], P)}" for x in LIBRARY_NAMES)
        return f"{op.key} {op.condition} {op.oracle} {op.formula} {bound}"


# ---------------------------------------------------------------------------
# ramsey-search: the combinatorial search engines
# ---------------------------------------------------------------------------

HL_DEPTH = 4
MATHIAS_UNIVERSE = 6
MATHIAS_HORIZON = 3
# One block of the operation mix, shuffled per block.
RAMSEY_BLOCK = ("gnw", "hl1", "hl2", "mathias", "mathias")


@dataclass
class RamseyState:
    mathias: Any
    trees: dict[int, tuple]
    eligible: tuple[str, ...]


class RamseySearch(Workload):
    name = "ramsey-search"
    rss_ops = 1000
    count_ops = 500

    def setup(self, seed: int, workdir: Path) -> RamseyState:
        M = zoo.mathias(MATHIAS_UNIVERSE)
        forcing.context_for(M)
        ramsey.mathias_real_name(M)
        trees = {d: tuple(ramsey.LevelTree(HL_DEPTH) for _ in range(d)) for d in (1, 2)}
        eligible = []
        for cid in M.ids:
            stem, envelope = zoo.mathias_decode(cid)
            if len(envelope) >= len(stem) + MATHIAS_HORIZON:
                eligible.append(cid)
        return RamseyState(M, trees, tuple(eligible))

    def inputs(self, seed: int, state: RamseyState) -> Iterator[tuple]:
        rng = random.Random(f"{self.name}/ops/{seed}")
        while True:
            block = list(RAMSEY_BLOCK)
            rng.shuffle(block)
            for kind in block:
                if kind == "gnw":
                    n = rng.randint(6, 10)
                    members = set()
                    target = rng.randint(3, 12)
                    while len(members) < target:
                        members.add(frozenset(rng.sample(range(n), rng.randint(1, 3))))
                    h = rng.randint(2, 4)
                    F = ramsey.FinFamily(n, frozenset(members))
                    yield "gnw", F, h, rng.randint(1, h), rng.randint(1, h)
                elif kind in ("hl1", "hl2"):
                    d = int(kind[2])
                    values = {}
                    for level in range(HL_DEPTH + 1):
                        for combo in itertools.product(*(T.level(level) for T in state.trees[d])):
                            values[combo] = rng.randint(0, 1)
                    yield "hl", ramsey.LevelColoring(d, HL_DEPTH, 2, values)
                else:
                    accepted = set()
                    for _ in range(rng.randint(1, 5)):
                        size = rng.randint(1, MATHIAS_HORIZON)
                        accepted.add(tuple(sorted(rng.sample(range(MATHIAS_UNIVERSE), size))))
                    X = ramsey.ClopenPredicate(MATHIAS_HORIZON, frozenset(accepted))
                    yield "mathias", rng.choice(state.eligible), X

    def run(self, state: RamseyState, op: tuple):
        kind = op[0]
        if kind == "gnw":
            _, F, h, m, s = op
            return ramsey.gnw_dichotomy_search(F, h, m), ramsey.gnw_construct(F, s, h)
        if kind == "hl":
            f = op[1]
            return ramsey.hl_search(state.trees[f.d], f)
        _, p, X = op
        return ramsey.mathias_pure_decide(state.mathias, p, X)

    def check(self, state: RamseyState, op: tuple, answer) -> bool:
        kind = op[0]
        if kind == "gnw":
            _, F, h, m, s = op
            searched, built = answer
            pool = frozenset(range(F.universe_size))
            if searched is None:
                # Both horns pass to subsets, so exhaustion only needs the
                # size-h candidates to fail.
                for combo in itertools.combinations(sorted(pool), h):
                    H = frozenset(combo)
                    if ramsey.gnw_verify_horn(F, H, m, "a") or ramsey.gnw_verify_horn(F, H, m, "b"):
                        return False
            elif not (len(searched.H) >= h and searched.H <= pool and ramsey.gnw_verify_horn(F, searched.H, m, searched.horn)):
                return False
            if built.completed:
                return len(built.H) >= h and built.H <= pool and ramsey.gnw_verify_horn(F, built.H, s, built.horn)
            return built.horn is None
        if kind == "hl":
            f = op[1]
            return answer is not None and ramsey.check_hl_witness(state.trees[f.d], f, answer)
        _, p, X = op
        M = state.mathias
        phi, env = ramsey.clopen_formula(M, X)
        wanted = forcing.FORCES if answer.forces_membership else forcing.FORCES_NEGATION
        return zoo.mathias_pure_extension(answer.condition, p) and forcing.decides(M, answer.condition, phi, env) == wanted

    def describe(self, state: RamseyState, op: tuple) -> str:
        kind = op[0]
        if kind == "gnw":
            _, F, h, m, s = op
            return f"gnw h={h} m={m} s={s} {formats.print_family_file(F)}"
        if kind == "hl":
            return f"hl {formats.print_coloring_file(op[1])}"
        return f"mathias {op[1]} {formats.print_clopen_file(op[2])}"


WORKLOADS = {w.name: w for w in (CliOracle(), LibraryLarge(), RamseySearch())}
