"""Command-line front end.

Exit codes: 0 success / property holds, 1 a checked property fails,
2 input or usage error, 3 a resource cap was exceeded.
"""

from __future__ import annotations

import argparse
import functools
import sys
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path

from . import __version__
from .digraph import bits, format_graph, parse_graph, to_dot
from .errors import GraphFormatError, QbmgError, SizeCapError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_CAP = 3

SCHEMA = 1


def _read_text(path: str) -> str:
    """The text of ``path`` (stdin for ``-``); input that cannot be read is an input error."""
    try:
        return sys.stdin.read() if path == "-" else Path(path).read_text()
    except OSError as exc:  # names the path: "[Errno 21] Is a directory: 'x'"
        raise QbmgError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise QbmgError(f"{path}: {exc}") from exc


def _load_graph(path: str):
    return parse_graph(_read_text(path))


def _json(o, indent: str) -> str:
    """``o`` as ``json.dumps(o, indent=2)`` writes it, nested at ``indent``.

    Covers the types the commands emit: dict with str keys, list, tuple, str, int,
    bool and None. Any other type, a float or a non-str key among them, raises
    TypeError, so nothing can print differently.
    """
    if isinstance(o, str):
        return _json_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        try:  # a list of strings in one join; ``_json_str`` rejects anything else
            body = sep.join(map(_json_str, o))
        except TypeError:
            body = sep.join([_json(x, inner) for x in o])
        return f"[\n{inner}{body}\n{indent}]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        body = sep.join([f"{_json_str(k)}: {_json(v, inner)}" for k, v in o.items()])
        return f"{{\n{inner}{body}\n{indent}}}"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _emit(doc: dict) -> None:
    print(_json(doc, ""))


def _verdict_doc(v) -> dict:
    doc = {"holds": v.holds}
    if v.witness is not None:
        doc["witness"] = list(v.witness)
    return doc


def cmd_check(args) -> int:
    from .axioms import axiom_report, is_thin, satisfies_star

    g = _load_graph(args.path)
    report = axiom_report(g)
    thin = is_thin(g)
    star = satisfies_star(g)
    trivial = [name for name, flag in (
        ("N1", report.n1_trivial), ("N2", report.n2_trivial), ("N3", report.n3_trivial),
    ) if flag]
    if args.json:
        _emit({
            "schema": SCHEMA,
            "vertices": {"U": g.tokens(g.u_mask), "W": g.tokens(g.w_mask)},
            "n_edges": g.n_edges,
            "is_2qbmg": report.is_2qbmg,
            "axioms": {
                "n1": _verdict_doc(report.n1),
                "n2": _verdict_doc(report.n2),
                "n3": _verdict_doc(report.n3),
                "n3star": _verdict_doc(report.n3star),
            },
            "triviality": {
                "n1_trivial": report.n1_trivial,
                "n2_trivial": report.n2_trivial,
                "n3_trivial": report.n3_trivial,
                "n_trivial": report.n_trivial,
            },
            "proper": report.proper,
            "thin": thin,
            "star": _verdict_doc(star),
        })
    else:
        print(f"graph: {len(g.color_u)} U + {len(g.color_w)} W vertices, {g.n_edges} edges")
        print(f"2-qBMG: {'yes' if report.is_2qbmg else 'no'}")
        for name, verdict in (("N1", report.n1), ("N2", report.n2),
                              ("N3", report.n3), ("N3*", report.n3star)):
            if verdict.holds:
                print(f"{name}: holds")
            else:
                print(f"{name}: violated by ({', '.join(verdict.witness)})")
        if report.n_trivial:
            print("trivial: N (all axioms hold vacuously)")
        else:
            print(f"trivial: {', '.join(trivial) if trivial else 'none'}")
        print(f"proper: {'yes' if report.proper else 'no'}")
        print(f"thin: {'yes' if thin else 'no'}")
        if star.holds:
            print("star: symmetric edges form a matching")
        else:
            print(f"star: fails at vertex {star.witness[0]}")
    return EXIT_OK if report.is_2qbmg else EXIT_FAIL


def _orbit_tokens(grp) -> list[list[str]]:
    """Each orbit's tokens in rank order, which is token order, least orbit first."""
    dom = grp.domain
    return [list(map(dom.__getitem__, bits(m))) for m in grp.orbit_masks()]


def _group_doc(grp) -> dict:
    from .perms import format_permutation

    return {
        "schema": SCHEMA,
        "order": grp.order,
        "generators": [format_permutation(p) for p in grp.generators],
        "orbits": _orbit_tokens(grp),
    }


def cmd_aut(args) -> int:
    from .autgroup import SearchStats, aut_color_preserving, aut_full

    g = _load_graph(args.path)
    stats = SearchStats()
    grp = aut_full(g, stats) if args.full else aut_color_preserving(g, stats)
    if args.stats:
        lengths = ",".join(map(str, stats.orbit_lengths)) or "-"
        print(f"search: nodes {stats.nodes} leaves {stats.leaves} dead_ends {stats.dead_ends} "
              f"base_length {stats.base_length} orbit_lengths {lengths} "
              f"refinement_rounds {stats.refinement_rounds}", file=sys.stderr)
        print(f"twins: classes {stats.classes} of {g.n_vertices} vertices, class product "
              f"{stats.class_product}, quotient order {grp.order // stats.class_product}",
              file=sys.stderr)
    if args.json:
        _emit(_group_doc(grp))
    else:
        kind = "all automorphisms" if args.full else "color-preserving automorphisms"
        print(f"{kind}: order {grp.order}")
        print("generators:")
        for p in grp.generators:
            print(f"  {p.cycle_string()}")
        if not grp.generators:
            print("  (trivial group)")
        print("orbits: " + " ".join("{" + ",".join(o) + "}" for o in _orbit_tokens(grp)))
    return EXIT_OK


def cmd_quotient(args) -> int:
    from .quotients import classical_quotient, parse_partition, partition_quotient

    g = _load_graph(args.path)
    if args.partition:
        partition = parse_partition(_read_text(args.partition))
        result = partition_quotient(g, partition)
        how = "partition"
    else:
        # Gamma's orbits are the twin classes, so its quotient is the classical one.
        result = classical_quotient(g)
        how = "canonical-gamma" if args.canonical_gamma else "classical"
    q = result.quotient
    if args.json:
        _emit({
            "schema": SCHEMA,
            "mode": how,
            "quotient": {
                "U": q.tokens(q.u_mask),
                "W": q.tokens(q.w_mask),
                "edges": [[t, h] for (t, h) in q.edge_list()],
            },
            "projection": {v: result.projection[v] for v in g.sorted_vertices},
        })
        return EXIT_OK
    if args.dot:
        sys.stdout.write(to_dot(q))
        return EXIT_OK
    # Vertices in token order: each block first appears at its least token, and
    # lists its members in token order.
    blocks: dict[str, list[str]] = {}
    for v in g.sorted_vertices:
        blocks.setdefault(result.projection[v], []).append(v)
    comments = [f"{name} <- " + " ".join(members) for name, members in blocks.items()]
    sys.stdout.write(format_graph(q, comments=comments))
    return EXIT_OK


def _generated_graph(args):
    from .constructions import (
        blow_up,
        default_layered_spec,
        default_n2_trivial_tables,
        layered,
        n2_trivial_layer,
        parse_layered_spec,
        random_layered_spec,
        random_n2_trivial_tables,
    )

    if args.family == "layered":
        spec = parse_layered_spec(_read_text(args.spec))
        return layered(spec), [f"layered, s={spec.s}, m={spec.m}"]
    if args.family == "blowup":
        g = _load_graph(args.input)
        return blow_up(g, args.at, args.new), [f"blow-up at {args.at}, adding {args.new}"]
    seeded = args.seed is not None
    if args.family == "two-layer":
        spec = (random_layered_spec(2, args.m, args.seed) if seeded
                else default_layered_spec(2, args.m))
        how = f"seed={args.seed}" if seeded else "order-paired tables"
        return layered(spec), [f"two-layer, m={args.m}, {how}"]
    tables = (random_n2_trivial_tables(args.m, args.seed) if seeded
              else default_n2_trivial_tables(args.m))
    how = f", seed={args.seed}" if seeded else ""
    return n2_trivial_layer(args.m, *tables), [f"n2-trivial, m={args.m}{how}"]


def cmd_generate(args) -> int:
    from .constructions import format_layered_spec, random_layered_spec

    if args.family == "random":
        spec = random_layered_spec(args.s, args.m, args.seed)
        sys.stdout.write(format_layered_spec(
            spec, comments=[f"random layered spec, s={args.s} m={args.m} seed={args.seed}"]))
        return EXIT_OK
    g, comments = _generated_graph(args)
    if getattr(args, "dot", False):
        sys.stdout.write(to_dot(g))
    else:
        sys.stdout.write(format_graph(g, comments=comments))
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_suite

    if args.corpus:
        if not Path(args.corpus).is_dir():
            raise QbmgError(f"corpus {args.corpus} is not a directory")
        paths = sorted(Path(args.corpus).glob("*.qbmg"))
        if not paths:
            print("warning: empty corpus, nothing checked", file=sys.stderr)
            return EXIT_OK
    else:
        paths = [Path(args.path)]
    checks = args.theorems.split(",") if args.theorems is not None else None
    any_fail = False
    docs = []
    for path in paths:
        try:
            g = parse_graph(_read_text(str(path)))
        except GraphFormatError as exc:
            if not args.corpus:
                raise
            raise QbmgError(f"{path.name}: {exc}") from exc
        try:
            results = run_suite(g, checks=checks)
        except SizeCapError as exc:
            if not args.corpus:
                raise
            raise SizeCapError(f"{path.name}: {exc}") from exc
        for r in results:
            any_fail = any_fail or not r.passed
            if args.json:
                docs.append({"file": path.name, "check": r.name,
                             "passed": r.passed, "detail": r.detail})
            else:
                status = "PASS" if r.passed else "FAIL"
                extra = f" ({r.detail})" if r.detail and not r.passed else ""
                print(f"{status} {path.name}: {r.name}{extra}")
    if args.json:
        _emit({"schema": SCHEMA, "results": docs, "all_passed": not any_fail})
    else:
        print(f"checked {len(paths)} graph(s): " + ("all passed" if not any_fail else "FAILURES"))
    return EXIT_OK if not any_fail else EXIT_FAIL


class _VerifyHelp(argparse.HelpFormatter):
    """Ends the ``--theorems`` help with the suite's check names, read only when help prints."""

    def _get_help_string(self, action):
        if action.dest != "theorems":
            return action.help
        from .verify import CHECK_NAMES

        return action.help + ",".join(CHECK_NAMES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbmg",
        description="Recognize, quotient, orient, and compute automorphism groups "
                    "of 2-colored quasi best match graphs.",
    )
    parser.add_argument("--version", action="version", version=f"qbmg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the membership axioms on a graph file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("aut", help="compute an automorphism group")
    p.add_argument("path")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--full", action="store_true", help="all automorphisms")
    group.add_argument("--color-preserving", action="store_true", default=False,
                       help="color-preserving automorphisms (default)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--stats", action="store_true",
                   help="print the twin quotient's search and the twin classes to stderr")
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("quotient", help="emit a quotient graph and its projection")
    p.add_argument("path")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--partition", metavar="FILE",
                       help="quotient by the blocks in FILE (one block per line)")
    group.add_argument("--classical", action="store_true",
                       help="quotient by the equivalence classes (default)")
    group.add_argument("--canonical-gamma", action="store_true",
                       help="quotient by the orbits of the class product group")
    p.add_argument("--json", action="store_true")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of qbmg text")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("generate", help="emit a constructed graph or spec")
    fam = p.add_subparsers(dest="family", required=True)

    f = fam.add_parser("two-layer")
    f.add_argument("--m", type=int, required=True)
    f.add_argument("--seed", type=int, default=None,
                   help="random tables; without it, order-paired tables")
    f.add_argument("--dot", action="store_true")
    f.set_defaults(func=cmd_generate)

    f = fam.add_parser("n2-trivial")
    f.add_argument("--m", type=int, required=True)
    f.add_argument("--seed", type=int, default=None)
    f.add_argument("--dot", action="store_true")
    f.set_defaults(func=cmd_generate)

    f = fam.add_parser("layered")
    f.add_argument("--spec", required=True, help="spec file ('-' for stdin)")
    f.add_argument("--dot", action="store_true")
    f.set_defaults(func=cmd_generate)

    f = fam.add_parser("blowup")
    f.add_argument("--in", dest="input", required=True, help="input graph file")
    f.add_argument("--at", required=True, help="vertex to duplicate")
    f.add_argument("--new", required=True, help="fresh vertex id")
    f.add_argument("--dot", action="store_true")
    f.set_defaults(func=cmd_generate)

    f = fam.add_parser("random", help="emit a seeded random layered spec")
    f.add_argument("--s", type=int, required=True)
    f.add_argument("--m", type=int, required=True)
    f.add_argument("--seed", type=int, required=True)
    f.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="run the theorem suite over graphs",
                       formatter_class=_VerifyHelp)
    p.add_argument("path", nargs="?", help="a single graph file")
    p.add_argument("--corpus", metavar="DIR", help="check every *.qbmg file in DIR")
    p.add_argument("--theorems", metavar="LIST",
                   help="comma-separated subset of: ")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and reused for the process."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and bool(args.path) == bool(args.corpus):
        parser.error("verify needs a graph file or --corpus DIR, not both")
    try:
        return args.func(args)
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except QbmgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
