"""Built-in example networks.

The diamond network is the standard three-source demonstration: two relays
in parallel between the sources and the sink, computing the arithmetic sum
of three uniform binary sources.  It exercises every feature of the bound
machinery (a nontrivial strong partition, side information, and a gap
between the basic and improved bounds), so it doubles as the CLI's built-in
example and the reference fixture for the acceptance tests.

The layered sum network puts two layers of two relays between the same
three sources and the sink.  Its 10 edges give 973 cut sets and 1,134
(cut set, strong partition) pairs, which makes it the size reference for
cut and strong-partition enumeration.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from .netmodel import Edge, NetworkModel, validate


def _sum_network(relays: Sequence[str], edges: Sequence[tuple[str, str]]) -> NetworkModel:
    """Three uniform binary sources, ``relays``, sink t, target x1 + x2 + x3.

    ``edges`` are (tail, head) pairs, named e1, e2, ... in order.
    """
    table = tuple(
        x1 + x2 + x3 for x1 in range(2) for x2 in range(2) for x3 in range(2)
    )
    return validate(
        NetworkModel(
            nodes=("s1", "s2", "s3", *relays, "t"),
            edges=tuple(Edge(f"e{n}", u, v) for n, (u, v) in enumerate(edges, 1)),
            sources=("s1", "s2", "s3"),
            sink="t",
            alphabet_size=2,
            function_table=table,
            distribution=(0.125,) * 8,
        )
    )


def diamond_model() -> NetworkModel:
    """Three binary sources, relays v1/v2, sink t, target x1 + x2 + x3."""
    return _sum_network(
        ("v1", "v2"),
        (("s1", "v1"), ("s2", "v1"), ("s2", "v2"), ("s3", "v2"), ("v1", "t"), ("v2", "t")),
    )


def layered_sum_model() -> NetworkModel:
    """Three binary sources, relays a1/a2 then b1/b2 fully meshed, sink t, x1 + x2 + x3."""
    return _sum_network(
        ("a1", "a2", "b1", "b2"),
        (
            ("s1", "a1"), ("s2", "a1"), ("s2", "a2"), ("s3", "a2"),
            ("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2"),
            ("b1", "t"), ("b2", "t"),
        ),
    )


def single_edge_model(
    q: int = 2,
    distribution: Sequence[float] | None = None,
    function_table: Sequence[Hashable] | None = None,
) -> NetworkModel:
    """One source, one edge into the sink.  Defaults to the uniform identity."""
    if distribution is None:
        distribution = (1.0 / q,) * q
    if function_table is None:
        function_table = tuple(range(q))
    return validate(
        NetworkModel(
            nodes=("s1", "t"),
            edges=(Edge("e1", "s1", "t"),),
            sources=("s1",),
            sink="t",
            alphabet_size=q,
            function_table=tuple(function_table),
            distribution=tuple(distribution),
        )
    )


BUILTIN_MODELS = {
    "diamond": diamond_model,
    "layered-sum": layered_sum_model,
    "single-edge": single_edge_model,
}
