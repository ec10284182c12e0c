"""Command-line front end.

Every subcommand prints one JSON report to stdout wrapped in an envelope
carrying the tool version and the fully resolved configuration, so a report
can be reproduced from itself.  Floats are rounded to 15 significant digits
and keys are sorted before printing; identical inputs and options therefore
produce byte-identical reports.  Exit codes: 0 on success, 2 for any input
or usage problem (with a one-line diagnostic on stderr), 3 when a size cap
is exceeded.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys

from . import __version__, bounds, chargraph, codesim, entropy, equiv, examples, netmodel, pgraph
from .errors import NetfuncompError, TooLarge, UsageError
from .netmodel import NetworkModel


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


def _key(key) -> str:
    """A dict key as ``json`` writes it; keys are never rounded."""
    if isinstance(key, str):
        text = key
    elif isinstance(key, float):
        text = _spell(key)
    elif key is True:
        text = "true"
    elif key is False:
        text = "false"
    elif key is None:
        text = "null"
    elif isinstance(key, int):
        text = int.__repr__(key)
    else:
        raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
    return _encode_str(text)


def _write(o, append, nl: str) -> None:
    """Append the text of ``o``; ``nl`` is the newline and indent of its line."""
    if isinstance(o, str):
        append(_encode_str(o))
    elif o is None:
        append("null")
    elif o is True:
        append("true")
    elif o is False:
        append("false")
    elif isinstance(o, int):
        append(int.__repr__(o))
    elif isinstance(o, float):
        append(_spell(float(f"{o:.15g}")))
    elif isinstance(o, (list, tuple)):
        if not o:
            append("[]")
            return
        inner = nl + "  "
        sep = "," + inner
        append("[" + inner)
        # Leaf lists of one exact type make up most of a report's bytes;
        # join them at C speed.  Subclasses and mixed lists go item by item.
        kinds = set(map(type, o))
        text = None
        if kinds == {str}:
            text = sep.join(map(_encode_str, o))
        elif kinds == {float}:
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
    elif isinstance(o, dict):
        if not o:
            append("{}")
            return
        inner = nl + "  "
        sep = "," + inner
        append("{" + inner)
        for i, (key, value) in enumerate(sorted(o.items())):
            if i:
                append(sep)
            append(_key(key) + ": ")
            _write(value, append, inner)
        append(nl + "}")
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _dumps(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)`` with floats rounded to 15 digits.

    One pass over ``doc``: no rounded copy is built, and the text is the
    one the pure-Python encoder (the only one that indents) would write.
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


def _parse_cut(model: NetworkModel, text: str) -> netmodel.CutAnalysis:
    ids = tuple(sorted(x.strip() for x in text.split(",") if x.strip()))
    if not ids:
        raise UsageError("empty cut")
    return netmodel.analyze_cut(model, ids)


def _parse_partition(
    model: NetworkModel, cut: netmodel.CutAnalysis, text: str | None
) -> netmodel.StrongPartition:
    wanted = None
    if text is not None:
        wanted = tuple(
            sorted(
                tuple(sorted(x.strip() for x in blk.split(",") if x.strip()))
                for blk in text.split("/")
            )
        )
    for part in netmodel.enumerate_strong_partitions(model, cut):
        if wanted is None and part.is_trivial:
            return part
        if wanted is not None and tuple(sorted(part.blocks)) == wanted:
            return part
    raise UsageError(f"{text or 'trivial'} is not a strong partition of {cut.cut}")


def _search_config(args) -> bounds.SearchConfig:
    pairs = None
    if getattr(args, "pairs", None):
        with open(args.pairs, encoding="utf-8") as fh:
            listed = json.load(fh)
        if not isinstance(listed, list):
            raise UsageError("--pairs file must hold a JSON list of {cut, blocks}")
        pairs = tuple(_pair_entry(n, item) for n, item in enumerate(listed))
    return bounds.SearchConfig(max_cut_size=args.max_cut_size, pairs=pairs)


def _pair_entry(n: int, item) -> bounds.PairKey:
    """One ``--pairs`` entry as a pair key; malformed entries raise UsageError."""

    def ids(value) -> bool:
        return isinstance(value, list) and all(isinstance(x, str) for x in value)

    if not (
        isinstance(item, dict)
        and ids(item.get("cut"))
        and isinstance(item.get("blocks"), list)
        and all(ids(b) for b in item["blocks"])
    ):
        raise UsageError(
            f"--pairs entry {n} must be an object with a \"cut\" list of edge ids "
            "and a \"blocks\" list of edge-id lists"
        )
    return (
        tuple(sorted(item["cut"])),
        tuple(sorted(tuple(sorted(b)) for b in item["blocks"])),
    )


def _bounds_result(model: NetworkModel, search: bounds.SearchConfig) -> dict:
    reports = bounds.lower_bounds(model, search)
    rows = [
        {
            "cut": list(row[0].cut),
            "blocks": [list(b) for b in row[0].blocks],
            **{r.kind: p.value for r, p in zip(reports, row)},
            "details": {r.kind: p.details for r, p in zip(reports, row)},
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
    for analysis in netmodel.enumerate_cut_sets(model, args.max_cut_size):
        parts = netmodel.enumerate_strong_partitions(model, analysis)
        doc.append(
            {
                "cut": list(analysis.cut),
                "k_set": sorted(analysis.k_set),
                "i_set": sorted(analysis.i_set),
                "j_set": sorted(analysis.j_set),
                "global": analysis.is_global,
                "strong_partitions": [
                    [list(b) for b in p.blocks] for p in parts
                ],
            }
        )
    _emit(
        "cuts",
        {"model": args.model, "max_cut_size": args.max_cut_size},
        {"cut_sets": doc, "count": len(doc)},
    )


def _cmd_classes(args) -> None:
    model = _load(args.model)
    i_sources = tuple(x.strip() for x in args.i.split(",") if x.strip())
    j_sources = tuple(x.strip() for x in args.j.split(",") if x.strip()) if args.j else ()
    a_j = ()
    if args.aj:
        try:
            a_j = netmodel.parse_assignment(args.aj, model.alphabet_size, len(j_sources), args.k)
        except UsageError as exc:
            raise UsageError(f"assignment {exc}") from None
    part = equiv.i_aj_classes(model, i_sources, j_sources, a_j, k=args.k)
    _emit(
        "classes",
        {
            "model": args.model,
            "i": list(i_sources),
            "j": list(j_sources),
            "aj": args.aj,
            "k": args.k,
        },
        {
            "sources": list(part.sources),
            "k": part.k,
            "num_classes": part.num_classes,
            "classes": [
                [netmodel.format_assignment(a, model.alphabet_size) for a in cls]
                for cls in part.classes
            ],
        },
    )


def _cmd_chargraph(args) -> None:
    model = _load(args.model)
    cut = _parse_cut(model, args.cut)
    partition = _parse_partition(model, cut, args.blocks)
    cg = chargraph.build(model, partition, args.k)
    report = chargraph.layer_report(cg)
    g = cg.graph
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
                "dist": [float(p) for p in g.dist],
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
    with open(args.graph, encoding="utf-8") as fh:
        doc = json.load(fh)
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
    # and the run fails only when none can be computed.
    found: dict[str, entropy.EntropyResult | None] = {}
    status: dict[str, str] = {}
    for name, compute in (
        ("chromatic", entropy.chromatic_entropy),
        ("graph", entropy.graph_entropy),
        ("clique", entropy.clique_entropy),
    ):
        try:
            found[name] = compute(g)
            status[name] = "ok"
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
        scheme = codesim.diamond_scheme(k)
        code = codesim.huffman_transform(model, scheme)
        source = {"builtin": args.builtin, "k": k}
    else:
        if args.k is not None:
            raise UsageError("--k applies to --builtin only; a code file sets its own k")
        if args.model is None:
            raise UsageError("simulate --code needs a model file")
        model = _load(args.model)
        with open(args.code, encoding="utf-8") as fh:
            doc = json.load(fh)
        code = codesim.code_from_dict(model, doc)
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
        search = bounds.SearchConfig(max_cut_size=args.max_cut_size)
        result["bounds"] = _bounds_result(model, search)
    _emit(
        "example",
        {
            "name": args.name,
            "bounds": args.bounds,
            "max_cut_size": args.max_cut_size,
        },
        result,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netfuncomp",
        description="Lower bounds and code simulation for zero-error network function computation.",
    )
    parser.add_argument("--version", action="version", version=f"netfuncomp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check a network model file")
    sp.add_argument("model")
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("cuts", help="enumerate cut sets and strong partitions")
    sp.add_argument("model")
    sp.add_argument("--max-cut-size", type=int, default=None)
    sp.set_defaults(func=_cmd_cuts)

    sp = sub.add_parser("classes", help="source-block equivalence classes")
    sp.add_argument("model")
    sp.add_argument("--i", required=True, help="comma-separated sources to separate")
    sp.add_argument("--j", default="", help="comma-separated side-information sources")
    sp.add_argument("--aj", default="", help="side-information block, flattened symbols")
    sp.add_argument("--k", type=int, default=1)
    sp.set_defaults(func=_cmd_classes)

    sp = sub.add_parser("chargraph", help="build a characteristic graph")
    sp.add_argument("model")
    sp.add_argument("--cut", required=True, help="comma-separated edge ids")
    sp.add_argument("--blocks", default=None, help="partition blocks, e.g. e5/e6")
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--dot", default=None, help="directory for a DOT export")
    sp.set_defaults(func=_cmd_chargraph)

    sp = sub.add_parser("entropy", help="entropies of a probabilistic graph")
    sp.add_argument("graph", help="JSON with vertices, edges, dist")
    sp.set_defaults(func=_cmd_entropy)

    sp = sub.add_parser("bounds", help="computing-rate lower bounds")
    sp.add_argument("model")
    sp.add_argument("--max-cut-size", type=int, default=None)
    sp.add_argument("--pairs", default=None, help="JSON file restricting the pair search")
    sp.add_argument("--csv", action="store_true", help="flatten the per-pair table to CSV")
    sp.set_defaults(func=_cmd_bounds)

    sp = sub.add_parser("simulate", help="simulate a concrete code")
    sp.add_argument("model", nargs="?", default=None)
    sp.add_argument("--code", default=None, help="code tables as JSON")
    sp.add_argument("--builtin", default=None, help="built-in scheme name")
    sp.add_argument("--k", type=int, default=None, help="shots per block of --builtin (default 2)")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("example", help="built-in example models")
    sp.add_argument("name")
    sp.add_argument("--bounds", action="store_true", help="also compute all bounds")
    sp.add_argument("--max-cut-size", type=int, default=None)
    sp.set_defaults(func=_cmd_example)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except NetfuncompError as exc:
        print(f"netfuncomp: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"netfuncomp: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"netfuncomp: invalid JSON: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"netfuncomp: invalid input file: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
