"""Command-line driver.

Subcommands: ring, classify, orbits, components, certify, catalog.  Reports
are deterministic JSON (plus a CSV summary for components).  Action tables
are cached as `table-<hash>.json`, the hash covering the group data and the
code version; a file is written whole and moved into place.  A cached table
is trusted only as far as `ActionTable.from_json` rebuilds the table from
the group and finds it equal; one that differs is recomputed and rewritten.

Exit codes: 0 success (also for --help), 2 budget exceeded, 3 usage,
parse or configuration error, 4 a paper-level invariant failed (the
interesting one: a desk-scale counterexample to the theory would land
here), 5 internal error (a self-check of the program failed; a bug, not a
verdict on the theory).

Exit 4 covers these checks:
  * `orbits --gl2` and `components`: the braid u-twists are defined and
    u -> U(u) is a homomorphism;
  * `components`: the curve invariants are consistent; for metabelian G
    also the action factors through level exp(G), GL2-orbit sizes match
    [GL2 : H], invariants agree across a GL2-orbit, Out(G) permutes the
    GL2-orbits transitively, [R : I] = |G'| for the kernel ideal I of the
    commutator, the inertia relation holds mod I, and every sampled
    parameter pair descends to an endomorphism of G;
  * `classify` with |W| within its verify budget: the determinant is a
    unit exactly when gamma_r is bijective on W, and a monomial exactly
    when a conjugator exists; `classify --exhaustive` runs both checks on
    one representative pair per distinct determinant.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .catalog import builtin_groups, builtin_names, get_group, group_entry, load_group_file
from .congruence import certify
from .errors import BudgetError, HypothesisError, InvariantViolation, ParseError
from .fingrp import FinGroup, ModuleCtx, ia_descend, inertia_relation_check, kernel_ideal
from .grpring import RingCtx, RingElem, augmentation, monomial_part, ring_make, try_invert
from .iacalc import IAEndo, ia_classify, ia_det, ia_matrix, pair_dets
from .modcurve import component_report
from .nielsen import ActionTable, orbits, stabilizer_mod


VERIFY_BUDGET = 2000  # classify checks its verdicts on W itself when |W| is at most this


@dataclass
class RunConfig:
    command: str
    group: str | None = None
    level: int | None = None
    max_group: int = 2000
    max_ring: int = 10**4
    out: str | None = None
    csv_out: str | None = None
    cache_dir: str | None = None
    force: bool = False
    gl2: bool = False
    exhaustive: bool = False

    def __post_init__(self):
        if self.max_group <= 0 or self.max_ring <= 0:
            raise ValueError("budgets must be positive")


# ---------------------------------------------------------------- expressions


MAX_NESTING = 100  # parentheses and unary minus; keeps the recursion finite


class _ExprParser:
    """Recursive descent for ring expressions over a1, a2, integers, + - * ^."""

    def __init__(self, text: str, ctx: RingCtx):
        self.text = text
        self.pos = 0
        self.ctx = ctx
        self.depth = 0

    def _nested(self, parse) -> RingElem:
        """parse() one level deeper, just past an opening "(" or "-"."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING}", self.pos - 1)
        value = parse()
        self.depth -= 1
        return value

    def _skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> RingElem:
        value = self._expr()
        self._skip()
        if self.pos != len(self.text):
            raise ParseError("unexpected input", self.pos)
        return value

    def _expr(self) -> RingElem:
        value = self._term()
        while self._peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            rhs = self._term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self) -> RingElem:
        value = self._factor()
        while self._peek() == "*":
            self.pos += 1
            value = value * self._factor()
        return value

    def _factor(self) -> RingElem:
        base = self._atom()
        while self._peek() == "^":
            self.pos += 1
            exp = self._integer()
            try:
                base = base**exp
            except ValueError:
                raise ParseError("negative power of a non-unit", self.pos)
        return base

    def _integer(self) -> int:
        self._skip()
        start = self.pos
        if self._peek() == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            raise ParseError("expected an integer", start)
        return int(self.text[start : self.pos])

    def _atom(self) -> RingElem:
        ch = self._peek()
        if ch == "(":
            open_pos = self.pos
            self.pos += 1
            value = self._nested(self._expr)
            if self._peek() != ")":
                raise ParseError("unbalanced parenthesis", open_pos)
            self.pos += 1
            return value
        if ch == "-":
            self.pos += 1
            return -self._nested(self._factor)
        if self.text.startswith("a1", self.pos):
            self.pos += 2
            return self.ctx.monomial(1, 0)
        if self.text.startswith("a2", self.pos):
            self.pos += 2
            return self.ctx.monomial(0, 1)
        if ch.isdigit():
            return self.ctx.scalar(self._integer())
        raise ParseError("expected a term", self.pos)


def parse_ring_expr(text: str, ctx: RingCtx) -> RingElem:
    return _ExprParser(text, ctx).parse()


# ------------------------------------------------------------------- plumbing


def _emit(doc: dict, out: str | None) -> None:
    blob = json.dumps(doc, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(blob + "\n")
    else:
        print(blob)


def _resolve_group(config: RunConfig) -> tuple[str, FinGroup]:
    sel = config.group
    if sel is None:
        raise ValueError("no group given")
    if os.path.exists(sel):
        name, G = load_group_file(sel)
    else:
        try:
            G = get_group(sel)
            name = sel
        except KeyError:
            raise ValueError(
                f"unknown group {sel!r}; catalog: {', '.join(builtin_names())}"
            )
    if G.order > config.max_group:
        raise BudgetError(f"|{name}| = {G.order} exceeds --max-group {config.max_group}")
    return name, G


def _group_hash(G: FinGroup) -> str:
    payload = json.dumps(
        {"degree": G.degree, "g1": list(G.elements[G.g1]), "g2": list(G.elements[G.g2]),
         "version": __version__},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def _cache_dir(config: RunConfig) -> Path | None:
    raw = config.cache_dir or os.environ.get("METAB_CACHE_DIR")
    if not raw:
        return None
    path = Path(raw)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_table(config: RunConfig, G: FinGroup) -> ActionTable:
    cache = _cache_dir(config)
    key = _group_hash(G)
    cache_file = cache / f"table-{key}.json" if cache else None
    if cache_file and cache_file.exists():
        try:
            data = json.loads(cache_file.read_text())
            if data.get("version") == __version__ and data.get("hash") == key:
                return ActionTable.from_json(G, data["table"])
        except (ValueError, KeyError, TypeError, AttributeError):
            print(f"warning: corrupt cache {cache_file}, recomputing", file=sys.stderr)
    table = ActionTable(G)
    if cache_file:
        tmp = cache_file.with_name(f"{cache_file.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps({"version": __version__, "hash": key, "table": table.to_json()}))
        os.replace(tmp, cache_file)
    return table


def _descent_sweep(G: FinGroup, samples: int = 100) -> int:
    """The module checks and an IA-descent sweep; InvariantViolation on any failure.

    `kernel_ideal` checks [R : I] = |G'|; then the inertia relation must
    hold mod I and every sampled parameter pair must descend to G.
    """
    mc = ModuleCtx(G)
    if not inertia_relation_check(mc, kernel_ideal(mc)):
        raise InvariantViolation(f"inertia relation fails on {G}")
    rng = random.Random(0)
    count = 0
    if mc.ring.size**2 <= samples:
        pool = [(r1, r2) for r1 in mc.ring.all_elements() for r2 in mc.ring.all_elements()]
    else:
        pool = [(mc.ring.random_elem(rng), mc.ring.random_elem(rng)) for _ in range(samples)]
    for r in pool:
        ia_descend(mc, r)
        count += 1
    return count


# ----------------------------------------------------------------- commands


def cmd_ring(config: RunConfig, n: int, m: int, expr: str) -> dict:
    ctx = ring_make(n, m)
    if ctx.size > config.max_ring**2:
        raise BudgetError(f"|R({n},{m})| = {ctx.size} exceeds the ring budget")
    x = parse_ring_expr(expr, ctx)
    mono = monomial_part(x)
    doc = {
        "ring": {"n": n, "m": m},
        "expr": expr,
        "coeffs": [[int(c) for c in row] for row in x.coeffs],
        "augmentation": augmentation(x),
        "unit": try_invert(x) is not None,
        "monomial": list(mono) if mono else None,
    }
    _emit(doc, config.out)
    return doc


def _exhaustive_rows(ctx: RingCtx) -> list[dict]:
    """The verdict on every parameter pair, classifying each distinct determinant once.

    The verdict depends on r only through det(gamma_r), so the first pair
    with a given determinant runs `ia_classify`, verified on W when |W| fits
    VERIFY_BUDGET, and must reproduce the batched determinant.
    """
    elems = list(ctx.all_elements())
    vecs = [x.vec().tolist() for x in elems]
    kinds: dict[tuple, str] = {}
    rows = []
    for i, row in enumerate(pair_dets(ctx, elems).tolist()):
        for j, det in enumerate(row):
            kind = kinds.get(tuple(det))
            if kind is None:
                verdict = ia_classify(IAEndo(elems[i], elems[j]), verify_budget=VERIFY_BUDGET)
                if verdict.det.vec().tolist() != det:
                    raise RuntimeError(
                        f"batched determinant differs from ia_det at r = ({elems[i]}, {elems[j]})"
                    )
                kind = kinds[tuple(det)] = verdict.kind
            rows.append({"r1": vecs[i], "r2": vecs[j], "det": det, "verdict": kind})
    return rows


def cmd_classify(config: RunConfig, n: int, m: int, r1: str, r2: str) -> dict:
    ctx = ring_make(n, m)
    if config.exhaustive:
        if ctx.size**2 > config.max_ring:
            raise BudgetError(
                f"|R|^2 = {ctx.size ** 2} exceeds --max-ring {config.max_ring}"
            )
        doc = {"ring": {"n": n, "m": m}, "rows": _exhaustive_rows(ctx)}
        _emit(doc, config.out)
        return doc
    endo = IAEndo(parse_ring_expr(r1, ctx), parse_ring_expr(r2, ctx))
    verdict = ia_classify(endo, verify_budget=VERIFY_BUDGET)
    mat = ia_matrix(endo)
    doc = {
        "ring": {"n": n, "m": m},
        "r1": endo.r1.to_json(),
        "r2": endo.r2.to_json(),
        "matrix": [[cell.to_json()["coeffs"] for cell in row] for row in mat],
        "det": ia_det(endo).to_json(),
        "verdict": verdict.to_json(),
    }
    _emit(doc, config.out)
    return doc


def cmd_orbits(config: RunConfig) -> dict:
    name, G = _resolve_group(config)
    table = _load_table(config, G)
    ambient = "GL2" if config.gl2 else "SL2"
    orbs = orbits(table, ambient, braid=config.gl2 and G.is_metabelian)
    doc = {
        "group": name,
        "e": table.e,
        "classes": [list(rep) for rep in table.classes],
        "ambient": ambient,
        "orbits": orbs,
    }
    if config.level is not None:
        cert = certify(table, config.level, name)
        doc["certificate"] = cert.to_json()
        if cert.verdict:
            doc["stabilizers"] = [
                stabilizer_mod(table, orb[0], cert, ambient).to_json() for orb in orbs
            ]
    _emit(doc, config.out)
    return doc


def cmd_components(config: RunConfig) -> dict:
    name, G = _resolve_group(config)
    if not G.is_metabelian and not config.force:
        raise HypothesisError(
            f"{name} is not metabelian (rerun with --force for the orbit part only)"
        )
    table = _load_table(config, G)
    result = component_report(
        G,
        name,
        table=table,
        require_metabelian=not config.force,
        check_out_transitivity=not config.force,
    )
    doc = result.to_json()
    if G.is_metabelian:
        doc["ia_descent_samples"] = _descent_sweep(G)
    _emit(doc, config.out)
    if config.csv_out:
        with open(config.csv_out, "w", newline="") as fh:
            csv.writer(fh).writerows(result.csv_rows())
    return doc


def cmd_certify(config: RunConfig) -> dict:
    name, G = _resolve_group(config)
    table = _load_table(config, G)
    level = config.level if config.level is not None else G.exponent
    cert = certify(table, level, name)
    doc = cert.to_json()
    _emit(doc, config.out)
    return doc


def cmd_catalog(config: RunConfig) -> dict:
    doc = {"groups": [group_entry(name, G) for name, G in sorted(builtin_groups().items())]}
    _emit(doc, config.out)
    return doc


# --------------------------------------------------------------------- main


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse would exit 2, the budget code; a bad command line exits 3
        self.print_usage(sys.stderr)
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="metab",
        description="Finite-level metabelian calculus: group-algebra arithmetic, "
        "IA-classification, SL2(Z)-orbits, congruence certificates, curve invariants.",
    )
    parser.add_argument("--cache-dir", help="cache directory (or METAB_CACHE_DIR)")
    parser.add_argument("--max-group", type=int, default=2000, help="largest |G| accepted")
    parser.add_argument("--max-ring", type=int, default=10**4, help="largest |R|^2 for sweeps")
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ring", help="evaluate a ring expression in R(n, m)")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("expr")

    p = sub.add_parser("classify", help="classify the IA-endomorphism gamma_(r1, r2)")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("r1", nargs="?", default="0")
    p.add_argument("r2", nargs="?", default="0")
    p.add_argument("--exhaustive", action="store_true", help="classify every parameter pair")

    p = sub.add_parser("orbits", help="epimorphism classes and mapping-class orbits")
    p.add_argument("group")
    p.add_argument("--gl2", action="store_true", help="include the u-twists")
    p.add_argument("--level", type=int, help="certify and compute stabilizers mod this level")

    p = sub.add_parser("components", help="full component report for a metabelian group")
    p.add_argument("group")
    p.add_argument("--force", action="store_true", help="run the orbit part for non-metabelian groups")
    p.add_argument("--csv", dest="csv_out", help="also write a CSV summary here")

    p = sub.add_parser("certify", help="congruence certificate at a level (default exp G)")
    p.add_argument("group")
    p.add_argument("--level", type=int)

    sub.add_parser("catalog", help="list the built-in groups")
    return parser


def run(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = RunConfig(
            command=args.command,
            group=getattr(args, "group", None),
            level=getattr(args, "level", None),
            max_group=args.max_group,
            max_ring=args.max_ring,
            out=args.out,
            csv_out=getattr(args, "csv_out", None),
            cache_dir=args.cache_dir,
            force=getattr(args, "force", False),
            gl2=getattr(args, "gl2", False),
            exhaustive=getattr(args, "exhaustive", False),
        )
        if args.command == "ring":
            cmd_ring(config, args.n, args.m, args.expr)
        elif args.command == "classify":
            cmd_classify(config, args.n, args.m, args.r1, args.r2)
        elif args.command == "orbits":
            cmd_orbits(config)
        elif args.command == "components":
            cmd_components(config)
        elif args.command == "certify":
            cmd_certify(config)
        elif args.command == "catalog":
            cmd_catalog(config)
    except BudgetError as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        return 2
    except (ParseError, HypothesisError, ValueError, KeyError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except InvariantViolation as err:
        print(f"PAPER-INVARIANT VIOLATION: {err}", file=sys.stderr)
        return 4
    except RuntimeError as err:  # after BudgetError, which subclasses it
        print(f"internal error: {err}", file=sys.stderr)
        return 5
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
