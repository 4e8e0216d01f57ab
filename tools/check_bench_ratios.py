#!/usr/bin/env python3
"""Gate the bench artifacts: fail CI when a BENCH_*.json breaks its bounds.

Every file carries a top-level "gates" array that declares its own
invariants, and the script just follows them; a file without one is an
error.  Each gate names the row array to scan and the numeric field to
check, bounded by a constant or by another field of the same row:

    "gates": [
      {"array": "engine_head_to_head", "field": "speedup", "min": 0.95},
      {"array": "ratios", "field": "measured_ratio",
       "max_field": "ratio_envelope"}
    ]

Supported bounds: "min" / "max" (constants) and "min_field" / "max_field"
(per-row fields).  Rows missing the gated field are skipped; a gate whose
array matches nothing is an error (a renamed array must not silently
disarm its gate).

Two optional clauses refine a gate:

    "where": {"field": "workers", "equals": 8}          — or a list of such
    "skip_unless": {"field": "hardware_concurrency", "min": 4}

"where" restricts the gate to rows whose field equals the given value
(a list of clauses must all match); with a "where", an empty match is
still an error.  "skip_unless" is a machine-capability clause checked
against the file's TOP-LEVEL fields: when the producing host does not
meet the minimum (e.g. a wall-clock multi-core scaling floor measured on
a 1-core CI box), the gate is skipped with a printed note instead of
failing — the bound is about the machine, not the code.

Usage: check_bench_ratios.py BENCH_e10.json ...

Stdlib only; prints every value it inspects so the CI log doubles as the
perf/ratio trajectory at smoke sizes.
"""

import argparse
import json
import sys


def row_label(row, fallback):
    for key in ("workload", "scenario", "system"):
        if row.get(key):
            return str(row[key])
    return fallback


def row_matches(row, where):
    """True when the row passes the gate's "where" clause(s)."""
    clauses = where if isinstance(where, list) else [where]
    for clause in clauses:
        if not isinstance(clause, dict):
            return False
        if row.get(clause.get("field")) != clause.get("equals"):
            return False
    return True


def check_gate(filename, data, gate, tag):
    """Applies one schema gate; returns (inspected, failures)."""
    array = gate.get("array")
    field = gate.get("field")
    rows = data.get(array)
    if not isinstance(rows, list) or not isinstance(field, str):
        return 0, [(filename, f"gate {array!r}/{field!r}", "malformed gate")]
    skip = gate.get("skip_unless")
    if isinstance(skip, dict):
        cap_field = skip.get("field")
        needed = skip.get("min")
        have = data.get(cap_field)
        capable = isinstance(have, (int, float)) and (
            not isinstance(needed, (int, float)) or have >= needed
        )
        if not capable:
            print(
                f"skip             {filename} [{tag}]  gate {array}.{field}: "
                f"host {cap_field}={have} < required {needed} — "
                "machine-capability floor not applicable"
            )
            # A capability skip is a deliberate outcome, not a disarmed
            # gate: count it so an all-skipped file still reads as gated.
            return 1, []
    where = gate.get("where")
    inspected = 0
    failures = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            continue
        if where is not None and not row_matches(row, where):
            continue
        value = row.get(field)
        if not isinstance(value, (int, float)):
            continue
        lo = gate.get("min")
        hi = gate.get("max")
        if isinstance(gate.get("min_field"), str):
            lo = row.get(gate["min_field"])
        if isinstance(gate.get("max_field"), str):
            hi = row.get(gate["max_field"])
        bad = (isinstance(lo, (int, float)) and value < lo) or (
            isinstance(hi, (int, float)) and value > hi
        )
        label = row_label(row, f"{array}[{i}]")
        bounds = []
        if isinstance(lo, (int, float)):
            bounds.append(f">= {lo:g}")
        if isinstance(hi, (int, float)):
            bounds.append(f"<= {hi:g}")
        verdict = "FAIL" if bad else "ok"
        print(
            f"{verdict:4} {value:10.3f}  {filename} [{tag}]  "
            f"{label}.{field} ({' and '.join(bounds) or 'unbounded'})"
        )
        inspected += 1
        if bad:
            failures.append(
                (filename, f"{label}.{field}", f"{value:g} not {bounds}")
            )
    if inspected == 0:
        failures.append(
            (filename, f"gate {array!r}/{field!r}", "matched no rows")
        )
    return inspected, failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="+", help="BENCH_*.json files to gate")
    args = parser.parse_args()

    failures = []
    total = 0
    for filename in args.files:
        with open(filename) as handle:
            data = json.load(handle)
        tag = f"{data.get('build_type', '?')}/{data.get('sweep_isa', '?')}"
        gates = data.get("gates")
        if not isinstance(gates, list):
            failures.append((filename, "gates", "no \"gates\" block"))
            continue
        for gate in gates:
            inspected, bad = check_gate(filename, data, gate, tag)
            total += inspected
            failures.extend(bad)

    if failures:
        print(f"\n{len(failures)} gate failure(s):", file=sys.stderr)
        for filename, label, reason in failures:
            print(f"  {filename}: {label} — {reason}", file=sys.stderr)
        return 1
    if total == 0:
        print("error: no gated fields found in the given files", file=sys.stderr)
        return 2
    print(f"\nall gates green ({total} values inspected)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
