"""Deterministic report documents for the verification suites.

A ReportDocument carries the command echo, the working weight (None for
a command that takes none: null in JSON, no line in text), verdict
blocks and dimension tables, and renders byte-deterministically to JSON,
CSV or text.  The JSON schema tag is "poisson-forge/1".
"""

import json

SCHEMA = "poisson-forge/1"


class ReportDocument:
    def __init__(self, command, max_weight):
        self.command = command
        self.max_weight = max_weight
        self.blocks = []          # list of dicts with fixed key order

    def add_verdicts(self, name, verdicts):
        """verdicts: list of dicts with at least name/status keys."""
        self.blocks.append({"block": name, "kind": "verdicts",
                            "verdicts": list(verdicts)})

    def add_table(self, name, header, rows):
        self.blocks.append({"block": name, "kind": "table",
                            "header": list(header),
                            "rows": [list(r) for r in rows]})

    def add_series(self, name, computed, expected, label):
        self.blocks.append({"block": name, "kind": "series",
                            "computed": list(computed),
                            "expected": list(expected),
                            "series": label,
                            "status": "match" if list(computed) == list(expected)
                            else "mismatch"})

    def add_note(self, name, text):
        self.blocks.append({"block": name, "kind": "note", "text": text})

    @property
    def passed(self):
        for b in self.blocks:
            if b["kind"] == "verdicts":
                if any(v.get("status") == "fail" or v.get("ok") is False
                       for v in b["verdicts"]):
                    return False
            elif b["kind"] == "series" and b["status"] != "match":
                return False
        return True

    def as_dict(self):
        return {"schema": SCHEMA, "command": self.command,
                "max_weight": self.max_weight,
                "passed": self.passed, "blocks": self.blocks}

    # -- renderers ----------------------------------------------------

    def to_json(self):
        return json.dumps(self.as_dict(), indent=2, default=str,
                          sort_keys=False) + "\n"

    def to_csv(self):
        lines = ["schema,%s" % SCHEMA]
        for b in self.blocks:
            if b["kind"] == "table":
                lines.append("")
                lines.append("# " + b["block"])
                lines.append(",".join(str(h) for h in b["header"]))
                for row in b["rows"]:
                    lines.append(",".join(str(x) for x in row))
            elif b["kind"] == "series":
                lines.append("")
                lines.append("# " + b["block"])
                lines.append("series,%s" % b["series"])
                lines.append("computed," + ",".join(str(x) for x in b["computed"]))
                lines.append("expected," + ",".join(str(x) for x in b["expected"]))
                lines.append("status,%s" % b["status"])
            elif b["kind"] == "verdicts":
                lines.append("")
                lines.append("# " + b["block"])
                lines.append("name,status,detail")
                for v in b["verdicts"]:
                    status = v.get("status") or ("pass" if v.get("ok") else "fail")
                    lines.append("%s,%s,%s" % (_csv_quote(v["name"]), status,
                                               _csv_quote(str(v.get("detail", "")))))
            else:
                lines.append("")
                lines.append("# " + b["block"])
                lines.append(_csv_quote(b["text"]))
        return "\n".join(lines) + "\n"

    def to_text(self):
        lines = ["poisson-forge report (%s)" % SCHEMA,
                 "command: %s" % self.command]
        if self.max_weight is not None:
            lines.append("max weight: %d" % self.max_weight)
        lines.append("")
        for b in self.blocks:
            lines.append("== %s" % b["block"])
            if b["kind"] == "verdicts":
                for v in b["verdicts"]:
                    status = v.get("status") or ("pass" if v.get("ok") else "fail")
                    mark = {"pass": "PASS", "fail": "FAIL", "info": "info"}[status]
                    detail = str(v.get("detail", ""))
                    lines.append("  %-4s %s%s" % (mark, v["name"],
                                                  ("  -- " + detail) if detail else ""))
            elif b["kind"] == "table":
                lines.append("  " + " | ".join(str(h) for h in b["header"]))
                for row in b["rows"]:
                    lines.append("  " + " | ".join(str(x) for x in row))
            elif b["kind"] == "series":
                lines.append("  series   %s" % b["series"])
                lines.append("  computed %s" % b["computed"])
                lines.append("  expected %s" % b["expected"])
                lines.append("  verdict  %s" % b["status"])
            else:
                lines.append("  " + b["text"])
            lines.append("")
        lines.append("overall: %s" % ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"


def _csv_quote(s):
    if any(ch in s for ch in ",\"\n"):
        return '"' + s.replace('"', '""') + '"'
    return s


def emit_report(doc, fmt="text", path=None):
    """Render and write (or return) the document; byte-deterministic."""
    if fmt == "json":
        payload = doc.to_json()
    elif fmt == "csv":
        payload = doc.to_csv()
    elif fmt == "text":
        payload = doc.to_text()
    else:
        raise ValueError("unknown format %r" % fmt)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(payload)
    return payload
