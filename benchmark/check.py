"""Correctness check of a sweep's results.csv against a stored reference.

The reference was produced at the seed commit on the reference seed. For
every seed the structure must match exactly: the same (method, SNR) rows in
the same order, the same header, bit counts that follow from the blocks
that survived, the same fronthaul column, and the run's seed. On the
reference seed each BER must also lie inside the reference row's Wilson
interval, and rows whose bytes differ are counted.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

REFERENCE_SEED = 0


@dataclass
class CheckResult:
    problems: list[str] = field(default_factory=list)
    rows_changed: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def _rows(text: str) -> tuple[list[str], list[dict], list[str]]:
    lines = text.splitlines()
    if not lines:
        return [], [], []
    reader = csv.DictReader(io.StringIO(text))
    return list(reader.fieldnames or []), list(reader), lines[1:]


def compare(
    run_csv: str,
    reference_csv: str,
    *,
    seed: int,
    trials: int,
    failed_blocks: dict[tuple[str, float], int],
) -> CheckResult:
    """Check one sweep's CSV; `failed_blocks` counts the blocks each
    (method, SNR) lost to numerical failures in that sweep."""
    result = CheckResult()
    problems = result.problems
    ref_header, ref_rows, ref_lines = _rows(reference_csv)
    header, rows, lines = _rows(run_csv)
    if not ref_rows:
        return CheckResult(problems=["reference has no rows"])
    if rows and header != ref_header:
        problems.append(f"header {header} differs from reference {ref_header}")
        return result

    expected = []
    for ref in ref_rows:
        key = (ref["method"], float(ref["snr_db"]))
        survivors = trials - failed_blocks.get(key, 0)
        if survivors > 0:
            expected.append((key, ref, survivors))
    got = [(r["method"], float(r["snr_db"])) for r in rows]
    if got != [key for key, _, _ in expected]:
        problems.append(f"rows {got} differ from expected {[k for k, _, _ in expected]}")
        return result

    against_reference = seed == REFERENCE_SEED
    ref_line = dict(zip(((r["method"], float(r["snr_db"])) for r in ref_rows), ref_lines))
    for (key, ref, survivors), row, line in zip(expected, rows, lines):
        where = f"{key[0]} @ {key[1]} dB"
        bits_per_block, rem = divmod(int(ref["bit_count"]), trials)
        if rem:
            problems.append(f"{where}: reference bit_count is not a multiple of {trials} blocks")
        if int(row["bit_count"]) != bits_per_block * survivors:
            problems.append(f"{where}: bit_count {row['bit_count']} != {bits_per_block * survivors}")
        column = "fronthaul_per_link_real_symbols"
        if row[column] != ref[column]:
            problems.append(f"{where}: fronthaul load {row[column]} != {ref[column]}")
        if int(row["seed"]) != seed:
            problems.append(f"{where}: seed column {row['seed']} != {seed}")
        ber, lo, hi = float(row["ber"]), float(row["ci_low"]), float(row["ci_high"])
        if not 0.0 <= lo <= ber <= hi <= 1.0:
            problems.append(f"{where}: BER {ber} outside its own interval [{lo}, {hi}]")
        if against_reference:
            ref_lo, ref_hi = float(ref["ci_low"]), float(ref["ci_high"])
            if not ref_lo <= ber <= ref_hi:
                problems.append(f"{where}: BER {ber} outside reference interval [{ref_lo}, {ref_hi}]")
            if line != ref_line[key]:
                result.rows_changed += 1
    return result
