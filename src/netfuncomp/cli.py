"""Command-line front end.

Every subcommand prints one JSON report to stdout wrapped in an envelope
carrying the tool version and the fully resolved configuration, so a report
can be reproduced from itself.  Floats are rounded to 15 significant digits
and keys, which are always strings, are sorted before printing; identical
inputs and options therefore produce byte-identical reports.  The writer
joins lists of strs and lists of such lists in one go, and sorts and spells
the keys of a list of records with one key set once; neither shortcut
changes a byte.  Exit codes: 0 on success, 2 for any input or usage
problem (with a one-line diagnostic on stderr), 3 when a size cap is
exceeded, 141 (128 + SIGPIPE, no diagnostic) when the reader of stdout
closes it early.

The subcommands and their arguments are described once, in ``_COMMANDS``.
A call with its long options spelled out in full is parsed from that table
directly, without importing ``argparse``; help, ``--version``,
abbreviations, ``--opt=value`` and every malformed call go through the
argparse parser that ``build_parser`` makes from the same table, so their
output and exit codes are argparse's.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import itertools
import json
import operator
import os
import sys
import types
from typing import TYPE_CHECKING

from . import __version__, bounds, chargraph, codesim, entropy, equiv, examples, netmodel, pgraph
from .errors import DomainTooLarge, NetfuncompError, TooLarge, UsageError
from .netmodel import NetworkModel

if TYPE_CHECKING:
    import argparse


_encode_str = json.encoder.encode_basestring_ascii
_INF = float("inf")


def _spell(x: float) -> str:
    """A float as ``json`` spells it."""
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _str_seqs_text(o, nl: str) -> str | None:
    """The text of a list or tuple of lists or tuples of strs (or empty), else None."""
    inner = nl + "  "
    head, sep, tail = "[" + inner + "  ", "," + inner + "  ", inner + "]"
    texts = []
    try:
        for s in o:
            kind = type(s)
            if kind is not list and kind is not tuple or s and type(s[0]) is not str:
                return None
            texts.append(head + sep.join(map(_encode_str, s)) + tail if s else "[]")
    except TypeError:  # a non-str inside: the caller goes item by item
        return None
    return "[" + inner + ("," + inner).join(texts) + nl + "]"


def _write(o, append, nl: str) -> None:
    """Pass the text of ``o`` to ``append``; ``nl`` is the newline and indent of its line.

    Exact types are dispatched first; subclasses (``IntEnum``, numpy floats,
    NamedTuples, dict subclasses) reach the ``isinstance`` branches below them.
    """
    t = type(o)
    if t is str:
        append(_encode_str(o))
    elif o is None:
        append("null")
    elif t is bool:
        append("true" if o else "false")
    elif t is int:
        append(int.__repr__(o))
    elif t is float:
        append(_spell(float(f"{o:.15g}")))
    elif t is list or t is tuple or t is not dict and isinstance(o, (list, tuple)):
        if not o:
            append("[]")
            return
        inner = nl + "  "
        sep = "," + inner
        kind = type(o[0])
        if kind is str:
            try:
                append("[" + inner + sep.join(map(_encode_str, o)) + nl + "]")
                return
            except TypeError:  # a non-str item: go item by item
                pass
        elif kind is list or kind is tuple:
            text = _str_seqs_text(o, nl)
            if text is not None:
                append(text)
                return
        elif kind is dict and o[0] and all(type(r) is dict and r.keys() == o[0].keys() for r in o):
            # Records with one key set: sort and spell the keys once.
            keys = sorted(o[0])
            deeper = inner + "  "
            heads = [_encode_str(k) + ": " for k in keys]
            heads[1:] = ["," + deeper + h for h in heads[1:]]
            opening, closing = "{" + deeper, inner + "}"
            append("[" + inner)
            for i, r in enumerate(o):
                if i:
                    append(sep)
                append(opening)
                for head, value in zip(heads, map(r.__getitem__, keys)):
                    append(head)
                    _write(value, append, deeper)
                append(closing)
            append(nl + "]")
            return
        append("[" + inner)
        # Leaf lists of exact floats join at C speed unless one is NaN or
        # infinite.  Subclasses and mixed lists go item by item.
        text = None
        if kind is float and set(map(type, o)) == {float}:
            text = sep.join(map(float.__repr__, map(float, map("{:.15g}".format, o))))
            if "n" in text:  # nan or inf: json spells them NaN and Infinity
                text = None
        if text is not None:
            append(text)
        else:
            for i, item in enumerate(o):
                if i:
                    append(sep)
                _write(item, append, inner)
        append(nl + "]")
    elif t is dict or isinstance(o, dict):
        if not o:
            append("{}")
            return
        inner = nl + "  "
        sep = "," + inner
        append("{" + inner)
        for i, (key, value) in enumerate(sorted(o.items())):
            if i:
                append(sep)
            append(_encode_str(key) + ": ")
            _write(value, append, inner)
        append(nl + "}")
    elif isinstance(o, str):
        append(_encode_str(o))
    elif isinstance(o, int):
        append(int.__repr__(o))
    elif isinstance(o, float):
        append(_spell(float(f"{o:.15g}")))
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _dumps(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)`` with floats rounded to 15 digits.

    One pass over ``doc``: no rounded copy is built, and the text is the
    one the pure-Python encoder (the only one that indents) would write.
    Every key must be a str; any other key raises TypeError.  Two shapes
    that fill most of a report take a shorter path with the same bytes: a
    list or tuple of strs, or of lists and tuples of strs, is one
    ``str.join``; a list of plain dicts with one key set has its keys sorted
    and spelled once for the whole list.  A shape that breaks off (a non-str
    item, another key set, a subclass item) is written item by item.
    """
    parts: list[str] = []
    _write(doc, parts.append, "\n")
    return "".join(parts)


def _emit(command: str, config: dict, result) -> None:
    doc = {
        "tool": "netfuncomp",
        "version": __version__,
        "command": command,
        "config": config,
        "result": result,
    }
    print(_dumps(doc))


def _load(path: str) -> NetworkModel:
    model = netmodel.load_model(path)
    return netmodel.validate(model)


def _ids(text: str) -> tuple[str, ...]:
    """The comma-separated ids of ``text``, stripped, empty ones dropped, in order."""
    return tuple(x for x in map(str.strip, text.split(",")) if x)


def _pair_key(cut, blocks) -> bounds.PairKey:
    """A (cut, blocks) pair with every id list sorted, as ``bounds.pair_key`` spells it."""
    return tuple(sorted(cut)), tuple(sorted(tuple(sorted(b)) for b in blocks))


def _parse_cut(model: NetworkModel, text: str) -> netmodel.CutAnalysis:
    ids = _ids(text)
    if not ids:
        raise UsageError("empty cut")
    return netmodel.analyze_cut(model, ids)


def _parse_partition(
    model: NetworkModel, cut: netmodel.CutAnalysis, text: str | None
) -> netmodel.StrongPartition:
    blocks = [cut.cut] if text is None else map(_ids, text.split("/"))
    wanted = _pair_key(cut.cut, blocks)
    for part in netmodel.enumerate_strong_partitions(model, cut):
        if bounds.pair_key(part) == wanted:
            return part
    # Only a --blocks text can miss: the one-block partition always exists.
    shown = text if text.strip() else repr(text)
    raise UsageError(f"{shown} is not a strong partition of {cut.cut}")


def _search_config(args) -> bounds.SearchConfig:
    pairs = None
    if getattr(args, "pairs", None):
        listed = netmodel.read_json(args.pairs)
        if not isinstance(listed, list):
            raise UsageError("--pairs file must hold a JSON list of {cut, blocks}")
        pairs = tuple(_pair_entry(n, item) for n, item in enumerate(listed))
    return bounds.SearchConfig(max_cut_size=args.max_cut_size, pairs=pairs)


def _pair_entry(n: int, item) -> bounds.PairKey:
    """One ``--pairs`` entry as a pair key; malformed entries raise UsageError."""

    def id_list(value) -> bool:
        return isinstance(value, list) and all(isinstance(x, str) for x in value)

    if not (
        isinstance(item, dict)
        and id_list(item.get("cut"))
        and isinstance(item.get("blocks"), list)
        and all(id_list(b) for b in item["blocks"])
    ):
        raise UsageError(
            f"--pairs entry {n} must be an object with a \"cut\" list of edge ids "
            "and a \"blocks\" list of edge-id lists"
        )
    return _pair_key(item["cut"], item["blocks"])


def _bounds_result(model: NetworkModel, search: bounds.SearchConfig) -> dict:
    """Each kind's value and witness, one row per pair, one entry per distinct graph.

    A row holds its pair, the three values and the index of its graph's
    entry; an entry holds the graph's key and every kind's details, which
    are per graph and not divided by a cut size.
    """
    reports = bounds.lower_bounds(model, search)
    rows = [
        {
            "cut": list(row[0].cut),
            "blocks": [list(b) for b in row[0].blocks],
            **{r.kind: p.value for r, p in zip(reports, row)},
            "graph": row[0].graph,
        }
        for row in zip(*(r.pairs for r in reports))
    ]
    return {
        **{r.kind: r.value for r in reports},
        "witness": {
            r.kind: {"cut": list(r.witness_cut), "blocks": [list(b) for b in r.witness_blocks]}
            for r in reports
        },
        "pairs": rows,
        "graphs": [{**b, **i, **f} for b, i, f in zip(*(r.graphs for r in reports))],
    }


def _bounds_csv(result: dict) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["cut", "blocks", "basic", "improved", "fixed_length"])
    for row in result["pairs"]:
        writer.writerow(
            [
                ",".join(row["cut"]),
                "/".join(",".join(b) for b in row["blocks"]),
                f"{row['basic']:.15g}",
                f"{row['improved']:.15g}",
                f"{row['fixed_length']:.15g}",
            ]
        )
    return out.getvalue()


def _cmd_validate(args) -> None:
    model = _load(args.model)
    _emit(
        "validate",
        {"model": args.model},
        {
            "valid": True,
            "alphabet": model.alphabet_size,
            "nodes": len(model.nodes),
            "edges": len(model.edges),
            "sources": list(model.sources),
            "sink": model.sink,
        },
    )


def _cmd_cuts(args) -> None:
    model = _load(args.model)
    doc = []
    # Every cut set has its one-block partition, so grouping the pairs by
    # cut lists every cut set, under the pair cap that ``bounds`` has.  The
    # writer spells the tuples of ids as it spells lists.  Cut sets share
    # their source frozensets, so each distinct one is sorted once.
    spelled = functools.cache(lambda ids: tuple(sorted(ids)))
    pairs = bounds.enumerate_pairs(model, bounds.SearchConfig(max_cut_size=args.max_cut_size))
    for analysis, parts in itertools.groupby(pairs, key=operator.attrgetter("cut")):
        doc.append(
            {
                "cut": analysis.cut,
                "k_set": spelled(analysis.k_set),
                "i_set": spelled(analysis.i_set),
                "j_set": spelled(analysis.j_set),
                "global": analysis.is_global,
                "strong_partitions": [p.blocks for p in parts],
            }
        )
    _emit(
        "cuts",
        {"model": args.model, "max_cut_size": args.max_cut_size},
        {"cut_sets": doc, "count": len(doc)},
    )


def _cmd_classes(args) -> None:
    model = _load(args.model)
    i_sources = _ids(args.i)
    j_sources = _ids(args.j)
    q, k = model.alphabet_size, args.k
    netmodel.block_count(q, model.num_sources, k, netmodel.DOMAIN_CAP, "blocks", DomainTooLarge)
    a_j = ()
    if args.aj:
        try:
            a_j = netmodel.parse_assignment(args.aj, q, len(j_sources), k)
        except UsageError as exc:
            raise UsageError(f"assignment {exc}") from None
    part = equiv.i_aj_classes(model, i_sources, j_sources, a_j, k=k)
    _emit(
        "classes",
        {
            "model": args.model,
            "i": list(i_sources),
            "j": list(j_sources),
            "aj": args.aj,
            "k": k,
        },
        {
            "sources": list(part.sources),
            "k": part.k,
            "num_classes": part.num_classes,
            "classes": [
                [netmodel.format_assignment(a, q) for a in cls] for cls in part.classes
            ],
        },
    )


def _cmd_chargraph(args) -> None:
    model = _load(args.model)
    cut = _parse_cut(model, args.cut)
    partition = _parse_partition(model, cut, args.blocks)
    cg = chargraph.build(model, partition, args.k)
    g = cg.graph
    n_edges = g.edge_count()
    if n_edges > chargraph.REPORT_EDGE_CAP:
        raise TooLarge(f"{n_edges} edges exceed the report cap of {chargraph.REPORT_EDGE_CAP}")
    report = chargraph.layer_report(cg)
    if args.dot:
        os.makedirs(args.dot, exist_ok=True)
        name = "chargraph_" + "_".join(cut.cut) + f"_k{args.k}"
        path = os.path.join(args.dot, name + ".dot")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(pgraph.to_dot(g, name=name))
    _emit(
        "chargraph",
        {
            "model": args.model,
            "cut": list(cut.cut),
            "blocks": [list(b) for b in partition.blocks],
            "k": args.k,
            "dot": args.dot,
        },
        {
            "graph": {
                "vertices": list(g.vertices),
                "edges": [list(e) for e in g.edges()],
                "dist": [p / g.scale for p in g.dist],
            },
            "order": list(cg.order),
            "layers": [
                {
                    "vertex": g.vertices[i],
                    "fiber": c.fiber,
                    "class": c.cls,
                    "leftover": c.leftover,
                    "bracket": list(c.bracket),
                }
                for i, c in enumerate(cg.layers)
            ],
            "layer_certificate": {**dataclasses.asdict(report), "ok": report.ok},
        },
    )


def _vertex(label):
    """A graph-document vertex label; JSON lists become tuples."""
    return tuple(label) if isinstance(label, list) else label


def _cmd_entropy(args) -> None:
    doc = netmodel.read_json(args.graph)
    what = "malformed graph document"
    try:
        vertices = netmodel.json_list(doc["vertices"], f"{what}: vertices")
        edges = netmodel.json_list(doc["edges"], f"{what}: edges")
        dist = netmodel.json_numbers(doc["dist"], f"{what}: dist")
        if not all(isinstance(e, list) and len(e) == 2 for e in edges):
            raise UsageError(f"{what}: every edge must be a list of two vertices")
        g = pgraph.ProbGraph(
            [_vertex(v) for v in vertices], [(_vertex(u), _vertex(v)) for u, v in edges], dist
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{what}: {exc}") from exc
    # Each quantity has its own size cap; a capped one is reported as such
    # and the run fails only when none can be computed.  A numeric value
    # reports the Frank-Wolfe gap that bounds its error.
    found: dict[str, entropy.EntropyResult | None] = {}
    status: dict[str, str] = {}
    for name, compute in (
        ("chromatic", entropy.chromatic_entropy),
        ("graph", entropy.graph_entropy),
        ("clique", entropy.clique_entropy),
    ):
        try:
            res = found[name] = compute(g)
            status[name] = "ok"
            if res.method == entropy.METHOD_NUMERIC:
                status[name] = f"ok (gap {res.certificate.gap:.3g} bits)"
        except TooLarge as exc:
            found[name] = None
            status[name] = f"capped: {exc}"
    if not any(found.values()):
        raise TooLarge("; ".join(f"{name} entropy {s}" for name, s in status.items()))
    tree = found["clique"].certificate if found["clique"] is not None else None
    _emit(
        "entropy",
        {"graph": args.graph},
        {
            **{
                f"{name}_entropy": res.value if res is not None else None
                for name, res in found.items()
            },
            "methods": {
                name: res.method if res is not None else None
                for name, res in found.items()
            },
            "status": status,
            "certificate": tree.to_dict(list(g.vertices)) if tree is not None else None,
        },
    )


def _cmd_bounds(args) -> None:
    model = _load(args.model)
    result = _bounds_result(model, _search_config(args))
    if args.csv:
        sys.stdout.write(_bounds_csv(result))
        return
    _emit(
        "bounds",
        {
            "model": args.model,
            "max_cut_size": args.max_cut_size,
            "pairs": args.pairs,
        },
        result,
    )


def _cmd_simulate(args) -> None:
    if args.builtin is None and args.code is None:
        raise UsageError("simulate needs --builtin NAME or --code FILE")
    if args.builtin is not None and args.code is not None:
        raise UsageError("simulate takes --builtin NAME or --code FILE, not both")
    if args.builtin is not None:
        if args.builtin != "diamond":
            raise UsageError(f"unknown builtin scheme {args.builtin!r}")
        k = 2 if args.k is None else args.k
        model = examples.diamond_model() if args.model is None else _load(args.model)
        if model.num_sources != 3:
            raise UsageError(
                f"the diamond scheme needs a model with three sources, not {model.num_sources}"
            )
        scheme = codesim.diamond_scheme(k)
        code = codesim.huffman_transform(model, scheme)
        source = {"builtin": args.builtin, "k": k}
    else:
        if args.k is not None:
            raise UsageError("--k applies to --builtin only; a code file sets its own k")
        if args.model is None:
            raise UsageError("simulate --code needs a model file")
        model = _load(args.model)
        code = codesim.code_from_dict(model, netmodel.read_json(args.code))
        source = {"code": args.code}
    report = codesim.evaluate(model, code)
    _emit(
        "simulate",
        {"model": args.model, **source},
        report.to_dict(),
    )


def _cmd_example(args) -> None:
    if args.name not in examples.BUILTIN_MODELS:
        raise UsageError(f"unknown example {args.name!r}")
    model = examples.BUILTIN_MODELS[args.name]()
    result: dict = {"model": netmodel.model_to_dict(model)}
    if args.bounds:
        result["bounds"] = _bounds_result(model, _search_config(args))
    _emit(
        "example",
        {
            "name": args.name,
            "bounds": args.bounds,
            "max_cut_size": args.max_cut_size,
        },
        result,
    )


_MAX_CUT_SIZE = ("--max-cut-size", {"type": int, "default": None})

# Each subcommand once: its help, its handler, and every argument's flag
# with its ``add_argument`` keywords, in ``-h`` order.  Flags without a
# leading dash are positionals.
_COMMANDS = {
    "validate": ("check a network model file", _cmd_validate, [("model", {})]),
    "cuts": ("enumerate cut sets and strong partitions", _cmd_cuts, [("model", {}), _MAX_CUT_SIZE]),
    "classes": (
        "source-block equivalence classes",
        _cmd_classes,
        [
            ("model", {}),
            ("--i", {"required": True, "help": "comma-separated sources to separate"}),
            ("--j", {"default": "", "help": "comma-separated side-information sources"}),
            ("--aj", {"default": "", "help": "side-information block, flattened symbols"}),
            ("--k", {"type": int, "default": 1}),
        ],
    ),
    "chargraph": (
        "build a characteristic graph",
        _cmd_chargraph,
        [
            ("model", {}),
            ("--cut", {"required": True, "help": "comma-separated edge ids"}),
            ("--blocks", {"default": None, "help": "partition blocks, e.g. e5/e6"}),
            ("--k", {"type": int, "default": 1}),
            ("--dot", {"default": None, "help": "directory for a DOT export"}),
        ],
    ),
    "entropy": (
        "entropies of a probabilistic graph",
        _cmd_entropy,
        [("graph", {"help": "JSON with vertices, edges, dist"})],
    ),
    "bounds": (
        "computing-rate lower bounds",
        _cmd_bounds,
        [
            ("model", {}),
            _MAX_CUT_SIZE,
            ("--pairs", {"default": None, "help": "JSON file restricting the pair search"}),
            ("--csv", {"action": "store_true", "help": "flatten the per-pair table to CSV"}),
        ],
    ),
    "simulate": (
        "simulate a concrete code",
        _cmd_simulate,
        [
            ("model", {"nargs": "?", "default": None}),
            ("--code", {"default": None, "help": "code tables as JSON"}),
            ("--builtin", {"default": None, "help": "built-in scheme name"}),
            ("--k", {"type": int, "default": None, "help": "shots per block of --builtin (default 2)"}),
        ],
    ),
    "example": (
        "built-in example models",
        _cmd_example,
        [
            ("name", {}),
            ("--bounds", {"action": "store_true", "help": "also compute all bounds"}),
            _MAX_CUT_SIZE,
        ],
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The full argparse parser: ``-h``, ``--version`` and every error message."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="netfuncomp",
        description="Lower bounds and code simulation for zero-error network function computation.",
    )
    parser.add_argument("--version", action="version", version=f"netfuncomp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, arguments) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag, keywords in arguments:
            sp.add_argument(flag, **keywords)
        sp.set_defaults(func=handler)
    return parser


def _parse_spelled_out(argv: list[str]) -> types.SimpleNamespace | None:
    """The namespace ``build_parser().parse_args(argv)`` returns, or None.

    Only argv that argparse reads one way is taken: a subcommand, then
    tokens without a leading dash as positionals, and that command's long
    options written out in full, each valued one followed by a value without
    a leading dash that its ``type`` converts.  Everything else (help,
    version, ``--``, abbreviations, ``--opt=value``, unknown options, failed
    conversions, missing arguments) returns None, for argparse to handle.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, arguments = _COMMANDS[argv[0]]
    values = {"command": argv[0], "func": handler}
    options, positionals, missing = {}, [], set()
    for flag, keywords in arguments:
        if flag.startswith("-"):
            options[flag] = keywords
            store_true = keywords.get("action") == "store_true"
            values[flag[2:].replace("-", "_")] = keywords.get("default", False if store_true else None)
            required = keywords.get("required", False)
        else:
            positionals.append(flag)
            values[flag] = keywords.get("default")
            required = keywords.get("nargs") != "?"
        if required:
            missing.add(flag)
    given = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            given.append(token)
            continue
        keywords = options.get(token)
        if keywords is None:
            return None
        missing.discard(token)
        dest = token[2:].replace("-", "_")
        if keywords.get("action") == "store_true":
            values[dest] = True
            continue
        value = next(tokens, "-")  # a missing value is declined like a dashed one
        if value.startswith("-"):
            return None
        try:
            values[dest] = keywords.get("type", str)(value)
        except (TypeError, ValueError):
            return None
    if len(given) > len(positionals):
        return None
    for flag, value in zip(positionals, given):
        values[flag] = value
        missing.discard(flag)
    if missing:
        return None
    return types.SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_spelled_out(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at shutdown
    except NetfuncompError as exc:
        print(f"netfuncomp: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # The reader is gone (``| head``).  Point stdout at devnull so the
        # flush at shutdown writes nothing, as the ``signal`` docs advise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as exc:
        print(f"netfuncomp: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
