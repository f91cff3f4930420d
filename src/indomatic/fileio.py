"""Plain-text file formats for digraphs and partitions, plus DOT export.

Digraph file: '#' starts a comment line, the first payload line is
``n <vertex_count>``, and every following payload line is an arc
``u v`` with zero-based endpoints.  The canonical form (what the writer
emits) has no comments, arcs sorted lexicographically, and a newline after
every line, so write(parse(text)) is byte-identical on canonical input.

Partition file: one block per payload line, members as space-separated
vertex ids.  Canonical form sorts members within a line and blocks by
minimum member.
"""
from __future__ import annotations

from typing import List, Optional, Tuple

from .core import Digraph, _digraph_fault
from .domination import ArcPartition, VertexPartition
from .transforms import TaggedVertex


class ParseError(ValueError):
    """Malformed input file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


def _payload_lines(text: str) -> List[Tuple[int, str]]:
    out = []
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        out.append((number, stripped))
    return out


def parse_digraph(text: str) -> Digraph:
    lines = _payload_lines(text)
    if not lines:
        raise ParseError("missing header line 'n <vertex_count>'")
    number, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "n":
        raise ParseError(f"expected 'n <vertex_count>', got {header!r}", number)
    try:
        vertex_count = int(parts[1])
    except ValueError:
        raise ParseError(f"vertex count {parts[1]!r} is not an integer", number)
    arcs = []
    for number, line in lines[1:]:
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(f"expected 'u v', got {line!r}", number)
        try:
            arcs.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise ParseError(f"non-integer endpoint in {line!r}", number)
    fault = _digraph_fault(vertex_count, arcs)
    if fault is not None:
        index, message = fault
        raise ParseError(message, lines[0 if index is None else 1 + index][0])
    return Digraph(vertex_count, frozenset(arcs))


def write_digraph(D: Digraph) -> str:
    lines = [f"n {D.vertex_count}"]
    lines.extend(f"{u} {v}" for u, v in D.sorted_arcs())
    return "\n".join(lines) + "\n"


def parse_partition(text: str, D: Digraph) -> VertexPartition:
    lines = _payload_lines(text)
    if not lines:
        raise ParseError("partition file has no blocks")
    block_of = [None] * D.vertex_count
    for block, (number, line) in enumerate(lines):
        for field in line.split():
            try:
                v = int(field)
            except ValueError:
                raise ParseError(f"non-integer vertex id {field!r}", number)
            if not (0 <= v < D.vertex_count):
                raise ParseError(f"vertex {v} outside [0,{D.vertex_count})", number)
            if block_of[v] is not None:
                raise ParseError(
                    f"vertex {v} already in the block on line {lines[block_of[v]][0]}", number
                )
            block_of[v] = block
    missing = [v for v, block in enumerate(block_of) if block is None]
    if missing:
        raise ParseError(f"vertices {missing} are in no block")
    # Every rule of a partition is checked above; no line is without a field.
    return VertexPartition(tuple(block_of), len(lines))


def _write_blocks(P, member) -> str:
    """The canonical form of P: one block per line, members sorted, blocks
    in order of their least member."""
    lines = [" ".join(member(x) for x in sorted(b)) for b in sorted(P.blocks(), key=min)]
    return "\n".join(lines) + "\n"


def write_partition(P: VertexPartition) -> str:
    return _write_blocks(P, str)


def write_arc_partition(Q: ArcPartition) -> str:
    """One block per line; each arc rendered as ``u,v``."""
    return _write_blocks(Q, lambda arc: f"{arc[0]},{arc[1]}")


def write_dot(D: Digraph, origins: Optional[tuple] = None) -> str:
    """DOT export.  ``origins`` may be any construction's origins, one per
    vertex; a vertex whose origin is a ``TaggedVertex`` carries it as its
    label, and every other vertex is written bare."""
    lines = ["digraph G {"]
    for v in range(D.vertex_count):
        tag = None if origins is None else origins[v]
        if isinstance(tag, TaggedVertex):
            label = (
                f"v{tag.payload}"
                if tag.kind == "vertex"
                else f"a({tag.payload[0]},{tag.payload[1]})"
            )
            lines.append(f'  {v} [label="{label}"];')
        else:
            lines.append(f"  {v};")
    for u, v in D.sorted_arcs():
        lines.append(f"  {u} -> {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
