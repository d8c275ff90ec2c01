"""Structured reports: deterministic JSON for machines, text for humans.

The JSON report contains only strings, integers, booleans and arrays, is
dumped with sorted keys, and carries no timings, so identical runs are
byte-identical.  Wall-clock timings go to the human-readable text only.
"""

from __future__ import annotations

import json

from .engine import EquivalenceResult, LoopRecord

__all__ = ["result_to_dict", "result_to_json", "render_text", "REPORT_SCHEMA"]

SCHEMA_ID = "cartaneq-equivalence-report/v1"


def _slot_table(table: dict) -> dict:
    """Nonzero structure-function slots keyed "i|j,k" (1-based)."""
    return {
        f"{i + 1}|{j + 1},{k + 1}": str(e)
        for (i, j, k), e in sorted(table.items())
        if not e.is_zero()
    }


def _loop_to_dict(rec: LoopRecord) -> dict:
    data = rec.data
    n = rec.chart_dim
    mc = {
        "alpha_slots": [f"{i + 1},{j + 1}" for (i, j) in data.mc.slots],
        "F": {
            f"{i + 1},{j + 1}": [str(f) for f in data.mc.F[(i, j)]]
            for i in range(n)
            for j in range(n)
            if any(data.mc.F[(i, j)])
        },
    }
    sol = rec.solution
    torsion = []
    for res, kind in zip(sol.torsion, rec.classification.kinds):
        entry = {
            "residual": str(res.expr),
            "label": res.label,
            "class": kind,
        }
        if res.label in rec.targets:
            entry["target"] = str(rec.targets[res.label])
        torsion.append(entry)
    chars = rec.characters
    return {
        "stage": rec.stage,
        "chart_dim": rec.chart_dim,
        "group_dim": rec.group_dim,
        "structure": {"B": _slot_table(data.B), "C": _slot_table(data.C)},
        "mc_basis": mc,
        "absorption": {
            "equations": len(sol.system.slots),
            "unknowns": len(sol.system.unknowns),
            "principal": len(sol.principal),
            "r2": sol.r2,
        },
        "torsion": torsion,
        "characters": {
            "s": chars.s,
            "ranks": chars.ranks,
            "r2": chars.r2,
            "involutive": bool(chars.involutive),
            "witnesses": [
                [str(c) for c in w] if w is not None else None for w in chars.witnesses
            ],
        },
        "action": rec.action,
        "action_detail": {k: _plain(v) for k, v in rec.action_detail.items()},
    }


def _plain(v):
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in v.items()}
    if isinstance(v, (str, int, bool)) or v is None:
        return v
    return str(v)


def result_to_dict(result: EquivalenceResult) -> dict:
    return {
        "schema": SCHEMA_ID,
        "title": result.problem.title,
        "seed": result.policy.seed,
        "max_loops": result.policy.max_loops,
        "outcome": result.outcome,
        "invariants": [str(e) for e in result.invariants],
        "final_chart_dim": result.final.n,
        "final_group_dim": result.final.group.r,
        "provenance": list(result.final.provenance),
        "loops": [_loop_to_dict(rec) for rec in result.loops],
    }


def result_to_json(result: EquivalenceResult) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True, indent=2) + "\n"


def render_text(result: EquivalenceResult, elapsed: float | None = None) -> str:
    lines = []
    title = result.problem.title or "equivalence problem"
    lines.append(f"== {title} ==")
    for rec in result.loops:
        lines.append(
            f"loop {rec.stage}: chart dim {rec.chart_dim}, structure group dim {rec.group_dim}"
        )
        sol = rec.solution
        lines.append(
            f"  absorption: {len(sol.system.slots)} equations, "
            f"{len(sol.system.unknowns)} unknowns, r2 = {sol.r2}"
        )
        for res, kind in zip(sol.torsion, rec.classification.kinds):
            if res.expr.is_zero():
                continue
            target = rec.targets.get(res.label)
            extra = f" -> target {target}" if target is not None else ""
            lines.append(f"  torsion [{kind}] {res.label}: {res.expr}{extra}")
        ch = rec.characters
        lines.append(
            f"  characters s = {tuple(ch.s)}, r2 = {ch.r2}, "
            f"Cartan test {'passes' if ch.involutive else 'fails'}"
        )
        if rec.action == "reduce":
            lines.append(f"  action: reduce ({rec.action_detail.get('provenance', '')})")
        elif rec.action == "prolong":
            lines.append(
                "  action: prolong to chart dim "
                f"{rec.action_detail.get('new_chart_dim')} with abelian group dim "
                f"{rec.action_detail.get('new_group_dim')}"
            )
        else:
            lines.append(f"  action: {rec.action}")
    lines.append(f"outcome: {result.outcome}")
    for inv in result.invariants:
        lines.append(f"  genuine invariant: {inv}")
    if elapsed is not None:
        lines.append(f"elapsed: {elapsed:.2f}s")
    return "\n".join(lines) + "\n"


REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": [
        "schema",
        "title",
        "seed",
        "outcome",
        "loops",
        "final_chart_dim",
        "final_group_dim",
    ],
    "properties": {
        "schema": {"const": SCHEMA_ID},
        "title": {"type": "string"},
        "seed": {"type": "integer"},
        "max_loops": {"type": "integer"},
        "outcome": {
            "enum": ["involutive", "e-structure", "constant-type-violation", "cap-exceeded"]
        },
        "invariants": {"type": "array", "items": {"type": "string"}},
        "final_chart_dim": {"type": "integer"},
        "final_group_dim": {"type": "integer"},
        "provenance": {"type": "array", "items": {"type": "string"}},
        "loops": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "stage",
                    "chart_dim",
                    "group_dim",
                    "structure",
                    "mc_basis",
                    "absorption",
                    "torsion",
                    "characters",
                    "action",
                ],
                "properties": {
                    "stage": {"type": "integer"},
                    "chart_dim": {"type": "integer"},
                    "group_dim": {"type": "integer"},
                    "absorption": {
                        "type": "object",
                        "required": ["equations", "unknowns", "principal", "r2"],
                    },
                    "characters": {
                        "type": "object",
                        "required": ["s", "r2", "involutive"],
                        "properties": {
                            "s": {"type": "array", "items": {"type": "integer"}},
                            "r2": {"type": "integer"},
                            "involutive": {"type": "boolean"},
                        },
                    },
                    "torsion": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["residual", "label", "class"],
                            "properties": {
                                "class": {"enum": ["trivial", "group-dependent", "genuine"]}
                            },
                        },
                    },
                    "action": {
                        "enum": ["reduce", "prolong", "involutive", "halt"]
                    },
                },
            },
        },
    },
}
