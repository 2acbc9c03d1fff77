"""Correctness gate: compare each command's report with its reference.

A report is the CLI's CSV: `# beattykit NAME`, `# key=value` lines, one
column line, then rows.  Against the reference:

* the exit code must be the same;
* tokens that are integers on both sides must be equal;
* other numbers must agree within 1e-9 times the row's natural scale
  (SCALES below: N for count sweeps, the Lambda-sum `bound` column for
  exponential sums, ...), or within 1e-9 of the value itself for header
  numbers, the level the acceptance suite works at;
* everything else must be equal as text.

Reports too large to store (beatty generate) hold only integers; the
reference keeps their header and a SHA-256 of the row lines.
"""

from __future__ import annotations

import hashlib
import math
import re

REL_TOL = 1e-9
MAX_STORED_BYTES = 1 << 14

_INT = re.compile(r"-?\d+\Z")

# report name -> column -> where the row's natural scale comes from: a
# column of the same row, or "#param" for a header value.  Columns not
# listed are already normalised (ratios, discrepancies) and use scale 1.
SCALES = {
    "count-sweep": dict.fromkeys(("lhs", "main", "abs_err"), "N"),
    "sieve-psi": dict.fromkeys(("psi", "main"), "L"),
    "expsum-eval": dict.fromkeys(("re", "im", "abs", "bound"), "bound"),
    # the Lambda sum over m <= M has size about M
    "expsum-identity-check": dict.fromkeys(
        ("lhs_re", "lhs_im", "rhs_re", "rhs_im", "residual"), "#M"),
    "bench-sandwich": {"sum": "points"},
}


def parse(text: str):
    """(name, [(key, value)], columns, rows, row text) of a CSV report."""
    lines = text.split("\n")
    if not lines or not lines[0].startswith("# "):
        raise ValueError("report does not start with a '# name' line")
    name = lines[0].split()[-1]
    params, i = [], 1
    while i < len(lines) and lines[i].startswith("# "):
        key, _, val = lines[i][2:].partition("=")
        params.append((key, val))
        i += 1
    if i >= len(lines):
        raise ValueError("report has no column line")
    columns = lines[i].split(",")
    body = lines[i + 1:]
    if body[-1:] != [""]:
        raise ValueError("report does not end with a newline")
    rows = [line.split(",") for line in body[:-1]]
    if any(len(r) != len(columns) for r in rows):
        raise ValueError("row width differs from the column line")
    return name, params, columns, rows, "\n".join(body)


def row_digest(row_text: str) -> str:
    return hashlib.sha256(row_text.encode()).hexdigest()


def make_reference(exit_code: int, out: bytes) -> dict:
    """What refs.json stores for one command."""
    text = out.decode()
    if len(out) <= MAX_STORED_BYTES:
        return {"exit": exit_code, "text": text}
    name, params, columns, rows, row_text = parse(text)
    if not all(_INT.match(tok) for row in rows for tok in row):
        raise ValueError(f"{name}: a large report must hold only integers")
    header = text[: len(text) - len(row_text)]
    return {"exit": exit_code, "header": header, "rows": len(rows),
            "rows_sha256": row_digest(row_text)}


def _number(tok):
    try:
        return float(tok)
    except ValueError:
        return None


def _same(got: str, want: str, scale: float) -> bool:
    if got == want:
        return True
    if _INT.match(got) and _INT.match(want):
        return False
    g, w = _number(got), _number(want)
    if g is None or w is None or math.isnan(g) or math.isnan(w):
        return False
    return abs(g - w) <= REL_TOL * scale


def compare(ref: dict, exit_code: int, out: bytes) -> list:
    """Mismatches between one command's result and its reference."""
    problems = []
    if exit_code != ref["exit"]:
        problems.append(f"exit code {exit_code}, expected {ref['exit']}")
    try:
        text = out.decode()
        got = parse(text)
        want = parse(ref["text"] if "text" in ref else ref["header"])
    except (UnicodeDecodeError, ValueError) as exc:
        return problems + [f"unreadable report: {exc}"]
    name, params, columns, rows, row_text = got
    wname, wparams, wcolumns, wrows, _ = want
    if (name, columns) != (wname, wcolumns):
        return problems + [f"report {name} {columns}, expected "
                           f"{wname} {wcolumns}"]
    if [k for k, _ in params] != [k for k, _ in wparams]:
        problems.append("header keys differ")
    else:
        for (key, val), (_, wval) in zip(params, wparams):
            w = _number(wval)
            scale = max(1.0, abs(w)) if w is not None and math.isfinite(w) \
                else 1.0
            if not _same(val, wval, scale):
                problems.append(f"header {key}={val}, expected {wval}")
    if "text" not in ref:
        if len(rows) != ref["rows"] or row_digest(row_text) != ref["rows_sha256"]:
            problems.append("rows differ from the reference digest")
        return problems
    if len(rows) != len(wrows):
        return problems + [f"{len(rows)} rows, expected {len(wrows)}"]
    hdr = dict(wparams)
    rule = SCALES.get(name, {})
    for r, (row, wrow) in enumerate(zip(rows, wrows)):
        for c, col in enumerate(columns):
            src = rule.get(col)
            if src is None:
                scale = 1.0
            elif src.startswith("#"):
                scale = abs(float(hdr[src[1:]]))
            else:
                scale = abs(float(wrow[columns.index(src)]))
            if not _same(row[c], wrow[c], max(scale, 1.0)):
                problems.append(f"row {r} {col}={row[c]}, expected {wrow[c]}")
    return problems
