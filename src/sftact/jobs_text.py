"""The text rendering of a report (``--format text``).

One ``key: value`` line per result field, in key order, under a
``command:`` line.  Matrices print as aligned rows under their key,
Bowen-Franks groups as sums of cyclic groups and polynomials in t.
``jobs.emit_report`` imports this module only for the text format.
"""


def _render_matrix_lines(doc, indent=""):
    entries = doc["entries"]
    width = max(len(str(x)) for row in entries for x in row)
    lines = []
    labels = doc.get("labels")
    label_w = max((len(l) for l in labels), default=0) if labels else 0
    for i, row in enumerate(entries):
        prefix = f"{labels[i]:>{label_w}} " if labels else ""
        lines.append(indent + prefix + "[" + " ".join(f"{x:>{width}}" for x in row) + "]")
    return lines


def bf_text(doc) -> str:
    parts = [f"Z/{d}" for d in doc["torsion"]]
    free = doc["free_rank"]
    if free == 1:
        parts.append("Z")
    elif free > 1:
        parts.append(f"Z^{free}")
    return " + ".join(parts) if parts else "0"


def poly_text(coeffs) -> str:
    terms = []
    for k, c in enumerate(coeffs):
        if c:
            power = "" if k == 0 else "t" if k == 1 else f"t^{k}"
            body = power if abs(c) == 1 and k else f"{abs(c)}{power}"
            sign = ("+ " if c > 0 else "- ") if terms else "" if c > 0 else "-"
            terms.append(sign + body)
    return " ".join(terms) if coeffs else "0"


def _render_value(key, value, lines, indent=""):
    if isinstance(value, dict) and "entries" in value:
        lines.append(f"{indent}{key}:")
        lines.extend(_render_matrix_lines(value, indent + "  "))
    elif isinstance(value, dict) and set(value) == {"torsion", "free_rank"}:
        lines.append(f"{indent}BF group: {bf_text(value)}")
    elif isinstance(value, dict):
        lines.append(f"{indent}{key}:")
        for k in value:
            _render_value(k, value[k], lines, indent + "  ")
    elif key in ("recurrence", "char_poly_reciprocal"):
        lines.append(f"{indent}{key}: {poly_text(value)}")
    elif isinstance(value, list) and value and all(
        isinstance(row, list) and all(isinstance(x, int) for x in row) for row in value
    ):
        lines.append(f"{indent}{key}:")
        lines.extend(_render_matrix_lines({"entries": value}, indent + "  "))
    else:
        lines.append(f"{indent}{key}: {value}")
    return lines


def render_text(command: str, result: dict) -> str:
    """The text report of ``command`` with ``result``."""
    lines = [f"command: {command}"]
    for key in sorted(result):
        _render_value(key, result[key], lines)
    return "\n".join(lines) + "\n"
