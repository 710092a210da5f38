"""Instance ingestion and canonical report emission.

Instance documents are JSON objects with fixed field names:

    {
      "dimension": 1,
      "f": {"type": "piecewise-quadratic", "label": "f",
            "pieces": [{"interval": ["-inf", "+inf"], "coeffs": [2, 0, 0]}]},
      "g": {"type": "tabulated", "label": "g", "table": {"values": [...]}},
      "box": {"lower": [-10], "upper": [10], "samples": [2001]},
      "phi": {"kind": "lsc-quadratic", "a_max": 8, "v_max": 32, "grid": [65, 65]}
    }

Infinities are encoded as the strings "+inf" / "-inf" everywhere (JSON has no
infinities).  Tabulated values follow the box grid enumeration order.  A
point in the box takes the value of its nearest grid point (`NearestLookup`:
a coordinate halfway between two grid points takes the lower one); a point
outside the box is +inf, as for every `TabulatedFunction`, so the table is
the function it describes, on its box, and every sup over it, the
unrestricted ones of conjugates included, is a maximum over its grid.  NaN
values are rejected.  Reports are emitted with sorted keys and floats
rounded to 12 significant digits, so identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numpy as np

from .core import INF, NEG_INF, BoxDomain, ext_from_json
from .duality import ProblemInstance
from .functions import (
    NearestLookup,
    PhiClass,
    PiecewiseQuadratic,
    ProperFunction,
    QuadraticPiece,
    TabulatedFunction,
)


class InstanceFormatError(ValueError):
    """Malformed instance document (carries line/column for JSON errors)."""


def round_sig(x: float, digits: int = 12) -> float:
    if not math.isfinite(x):
        return x
    if x == 0.0:
        return 0.0
    return float(f"{x:.{digits}g}")


def jsonify(obj):
    """Make a document JSON-ready: round floats, encode infinities, sort-safe."""
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if x == math.inf:
            return "+inf"
        if x == -math.inf:
            return "-inf"
        return round_sig(x)
    return obj


def dumps_canonical(doc: dict) -> str:
    return json.dumps(jsonify(doc), sort_keys=True, indent=2) + "\n"


def dumps_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: jsonify(v) for k, v in row.items()})
    return buf.getvalue()


# ---------------------------------------------------------------------------
# instance parsing
# ---------------------------------------------------------------------------


def _require(doc: dict, key: str, where: str):
    """doc[key] of a JSON object `doc` (the part of the document named `where`)."""
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{where} must be a JSON object, got {doc!r}")
    if key not in doc:
        raise InstanceFormatError(f"missing field {key!r} in {where}")
    return doc[key]


def _number(v, where: str) -> float:
    """A JSON number, or "+inf"/"-inf", as a float (see `ext_from_json`)."""
    try:
        return ext_from_json(v)
    except ValueError as exc:
        raise InstanceFormatError(f"{where}: {exc}") from exc


def _list(v, where: str) -> list:
    if not isinstance(v, list):
        raise InstanceFormatError(f"{where} must be a list, got {v!r}")
    return v


def _integer(v, where: str) -> int:
    """A JSON integer (a number with a decimal point, or a boolean, is none)."""
    if type(v) is not int:
        raise InstanceFormatError(f"{where} must be an integer, got {v!r}")
    return v


def _sizes(v, where: str) -> tuple[int, ...]:
    return tuple(_integer(n, f"{where} entry") for n in _list(v, where))


def _parse_box(doc: dict) -> BoxDomain:
    lower = [_number(v, "box lower") for v in _list(_require(doc, "lower", "box"), "box lower")]
    upper = [_number(v, "box upper") for v in _list(_require(doc, "upper", "box"), "box upper")]
    samples = _sizes(_require(doc, "samples", "box"), "box samples")
    try:
        return BoxDomain(tuple(lower), tuple(upper), samples)
    except ValueError as exc:
        raise InstanceFormatError(f"bad box: {exc}") from exc


def _parse_phi(doc: dict, dim: int) -> PhiClass:
    kind = _require(doc, "kind", "phi")
    a_max = _number(doc.get("a_max", 8.0), "phi a_max")
    v_max = _number(doc.get("v_max", 32.0), "phi v_max")
    grid = _sizes(doc.get("grid", []), "phi grid")
    try:
        return PhiClass(kind, dim=dim, a_max=a_max, v_max=v_max, grid_sizes=grid)
    except ValueError as exc:
        raise InstanceFormatError(f"bad phi class: {exc}") from exc


def _table_values(raw: list) -> np.ndarray:
    """`[ext_from_json(v) for v in raw]` as a float64 array, in one numpy pass.

    A list of floats only is one `np.array` call.  numpy alone would also
    read the strings "inf", "nan" or "1.0" and take None for NaN, so
    otherwise the pass runs only where every entry is a number or one of
    the strings "+inf"/"-inf", which it maps to the infinities; any other
    entry, or an integer beyond float range, goes through `ext_from_json`,
    and the document is rejected.
    """
    kinds = set(map(type, raw))
    if kinds == {float}:
        return np.array(raw, dtype=float)
    types = list(map(type, raw))
    if kinds <= {int, float, bool, str}:
        arr = np.array(raw, dtype=object)
        pos, neg = arr == "+inf", arr == "-inf"
        if np.count_nonzero(pos) + np.count_nonzero(neg) == types.count(str):
            arr[pos], arr[neg] = INF, NEG_INF
            try:
                return arr.astype(float)
            except OverflowError:
                pass
    return np.array([_number(v, "table value") for v in raw], dtype=float)


def _parse_function(doc: dict, box: BoxDomain, fallback_label: str) -> ProperFunction:
    ftype = _require(doc, "type", f"function {fallback_label!r}")
    label = str(doc.get("label", fallback_label))
    if ftype == "piecewise-quadratic":
        if box.dim != 1:
            raise InstanceFormatError("piecewise-quadratic functions are 1D only")
        pieces = []
        for i, pc in enumerate(_list(_require(doc, "pieces", "function"), "pieces")):
            iv = _list(_require(pc, "interval", f"piece {i}"), f"piece {i} interval")
            co = _list(_require(pc, "coeffs", f"piece {i}"), f"piece {i} coeffs")
            if len(iv) != 2 or len(co) != 3:
                raise InstanceFormatError(
                    f"piece {i}: interval needs 2 entries and coeffs 3"
                )
            ends_and_coeffs = [_number(v, f"piece {i}") for v in iv + co]
            try:
                pieces.append(QuadraticPiece(*ends_and_coeffs))
            except ValueError as exc:
                raise InstanceFormatError(f"piece {i}: {exc}") from exc
        try:
            return ProperFunction.from_piecewise(
                PiecewiseQuadratic(tuple(pieces)), label
            )
        except ValueError as exc:
            raise InstanceFormatError(str(exc)) from exc
    if ftype == "tabulated":
        table = _require(doc, "table", "function")
        raw = _list(_require(table, "values", "table"), "table values")
        n_expected = int(np.prod(box.samples))
        if len(raw) != n_expected:
            raise InstanceFormatError(
                f"table needs {n_expected} values (box grid size), got {len(raw)}"
            )
        values = _table_values(raw)
        try:
            tab = TabulatedFunction(box, NearestLookup(box, values), label)
        except ValueError as exc:
            raise InstanceFormatError(str(exc)) from exc
        return ProperFunction.from_tabulated(tab)
    raise InstanceFormatError(f"unknown function type {ftype!r}")


def parse_instance(doc: dict) -> ProblemInstance:
    dim = _integer(_require(doc, "dimension", "instance"), "dimension")
    box = _parse_box(_require(doc, "box", "instance"))
    if box.dim != dim:
        raise InstanceFormatError("box dimension does not match 'dimension'")
    f = _parse_function(_require(doc, "f", "instance"), box, "f")
    g = _parse_function(_require(doc, "g", "instance"), box, "g")
    phi = _parse_phi(_require(doc, "phi", "instance"), dim)
    try:
        return ProblemInstance(f, g, box, phi)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc


def load_instance(path: str) -> ProblemInstance:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{path}: instance document must be a JSON object")
    return parse_instance(doc)


def instance_summary(inst: ProblemInstance) -> dict:
    return {
        "dimension": inst.box.dim,
        "f": inst.f.label,
        "g": inst.g.label,
        "box": {
            "lower": list(inst.box.lower),
            "upper": list(inst.box.upper),
            "samples": list(inst.box.samples),
        },
        "phi": inst.phi.truncation_summary(),
    }
