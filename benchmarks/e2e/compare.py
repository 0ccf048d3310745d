"""``run.py --compare A.json B.json``: is B worse than A, by the bounds?

One row per workload × end-to-end metric: both medians over the files'
untraced units, the ratio B/A with A as its base, the bound from
``BENCHMARK.json``, and a verdict —

* ``worse``       B's median is worse than A's by more than the bound;
* ``unresolved``  the run-to-run spread (quartile distance over median, of
                  either side) is wider than the bound, or a side has fewer
                  than two runs, so the medians cannot be told apart;
* ``ok``          otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

Series = Dict[Tuple[str, str], List[float]]


def series(units: Sequence[Dict[str, Any]]) -> Series:
    """``(workload, metric) -> values`` over the correct untraced units."""
    values: Series = defaultdict(list)
    for unit in units:
        if unit["correct"] and not unit["trace"]:
            for metric, entry in unit["metrics"].items():
                values[unit["workload"], metric].append(entry["value"])
    return values


def spread(values: Sequence[float]) -> Optional[float]:
    """Quartile distance as a share of the median; None below two values."""
    if len(values) < 2:
        return None
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def quartile_spread(units: Sequence[Dict[str, Any]], metrics: Sequence[Dict[str, Any]]) -> Iterator[str]:
    """Printable lines: median and spread of every series against its bound."""
    bounds = {metric["name"]: metric["bound"] for metric in metrics}
    yield f"\n{'workload':<14} {'metric':<22} {'n':>3} {'median':>12} {'spread':>8} {'bound':>6}"
    for (workload, metric), values in series(units).items():
        yield (
            f"{workload:<14} {metric:<22} {len(values):>3} {statistics.median(values):>12.4f} "
            f"{spread(values) or 0.0:>8.2%} {bounds[metric]:>6.0%}"
        )


def compare(path_a: Path, path_b: Path, metrics: Sequence[Dict[str, Any]]) -> int:
    documents = [json.loads(path.read_text()) for path in (path_a, path_b)]
    for path, document in zip((path_a, path_b), documents):
        if document["stamp"]["smoke"]:
            print(f"{path}: a smoke result measures nothing; refusing", file=sys.stderr)
            return 2
    a, b = (series(document["units"]) for document in documents)
    print(
        f"{'workload':<14} {'metric':<22} {'A median':>12} {'B median':>12} "
        f"{'B/A':>7} {'spread':>7} {'bound':>6}  verdict"
    )
    worse = 0
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        for workload in sorted({key[0] for key in a} | {key[0] for key in b}):
            left, right = a.get((workload, name)), b.get((workload, name))
            if not left or not right:
                print(f"{workload:<14} {name:<22} missing on one side")
                continue
            base, other = statistics.median(left), statistics.median(right)
            change = (other - base) / base
            if metric["better"] == "higher":
                change = -change
            spreads = [spread(left), spread(right)]
            if None in spreads or max(spreads) > bound:
                verdict = "unresolved"
            elif change > bound:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            widest = max((s for s in spreads if s is not None), default=float("nan"))
            print(
                f"{workload:<14} {name:<22} {base:>12.4f} {other:>12.4f} "
                f"{other / base:>7.3f} {widest:>7.2%} {bound:>6.0%}  {verdict}"
            )
    return 1 if worse else 0
