"""Graphviz DOT export for FOONs and task trees."""
from __future__ import annotations

from .model import ObjectNode, object_key


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(units) -> str:
    """Deterministic DOT text: object ellipses, motion boxes, input->motion->output edges.

    Units are walked in the order given and each unit's objects in key
    order, so the same input always yields byte-identical output.
    """
    lines = ["digraph foon {"]
    object_ids: dict[ObjectNode, str] = {}
    node_lines = []
    edge_lines = []

    def object_id(obj):
        if obj not in object_ids:
            object_ids[obj] = f"o{len(object_ids)}"
            label = _escape(obj.name) + "\\n" + _escape(",".join(sorted(obj.states)))
            node_lines.append(f'  {object_ids[obj]} [shape=ellipse, label="{label}"];')
        return object_ids[obj]

    for position, unit in enumerate(units):
        motion_id = f"m{position}"
        node_lines.append(
            f'  {motion_id} [shape=box, label="{_escape(unit.motion.label)}"];')
        for obj in sorted(unit.inputs, key=object_key):
            edge_lines.append(f"  {object_id(obj)} -> {motion_id};")
        for obj in sorted(unit.outputs, key=object_key):
            edge_lines.append(f"  {motion_id} -> {object_id(obj)};")

    lines.extend(node_lines)
    lines.extend(edge_lines)
    lines.append("}")
    return "\n".join(lines) + "\n"
