"""Shared helpers for the benchmark harness.

Every bench regenerates one of the paper's tables or figures: it runs
the experiment once inside the ``benchmark`` fixture (so
``pytest benchmarks/ --benchmark-only`` times the harness), prints the
reproduced rows/series, and asserts the paper's qualitative claims
(orderings, bands, crossovers) hold.

Reports are echoed to stdout and recorded in ``benchmarks/out/results.txt``
so the numbers survive pytest's output capture.  The recorder is
*idempotent*: each report is keyed by its title, and a re-run replaces
the existing block in place instead of appending a duplicate — so the
file holds exactly one (the latest) copy of every table however many
times the suite runs.  Machine-readable metrics go to
``benchmarks/out/BENCH_kernel.json`` via :func:`record_json`, keyed the
same way.

``benchmarks/out/`` is not tracked, so running the suite never rewrites
a committed file.  The committed ledgers (``benchmarks/results.txt``
and ``benchmarks/BENCH_kernel.json``) are refreshed deliberately, by
copying the fresh files over them, when a change means to move a
recorded figure.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Tuple

OUT_DIR = pathlib.Path(__file__).parent / "out"
RESULTS_PATH = OUT_DIR / "results.txt"
BENCH_JSON_PATH = OUT_DIR / "BENCH_kernel.json"

_DELIM = "=" * 72


def _parse_blocks(text: str) -> Tuple[str, List[Tuple[str, str]]]:
    """Split results.txt into (preamble, [(title, body), ...]).

    A block is ``<delim>\\n<title>\\n<delim>\\n<body>``; the body runs to
    the next block header (or EOF).  Re-parsing what :func:`report`
    writes round-trips exactly.
    """
    lines = text.split("\n")
    headers = [
        i
        for i in range(len(lines) - 2)
        if lines[i] == _DELIM and lines[i + 2] == _DELIM
    ]
    if not headers:
        return text, []
    preamble = "\n".join(lines[: headers[0]]).strip("\n")
    blocks: List[Tuple[str, str]] = []
    for n, start in enumerate(headers):
        end = headers[n + 1] if n + 1 < len(headers) else len(lines)
        title = lines[start + 1]
        body = "\n".join(lines[start + 3 : end]).strip("\n")
        blocks.append((title, body))
    return preamble, blocks


def _write_blocks(preamble: str, blocks: List[Tuple[str, str]]) -> None:
    parts = [preamble] if preamble else []
    for title, body in blocks:
        parts.append(f"\n{_DELIM}\n{title}\n{_DELIM}\n{body}\n")
    OUT_DIR.mkdir(exist_ok=True)
    RESULTS_PATH.write_text("".join(parts))


def report(title: str, body: str) -> None:
    """Print a reproduced table/figure and record it in ``out/results.txt``.

    Keyed by *title*: a block with the same title is replaced in place
    (re-runs refresh rather than append), a new title appends.
    """
    print(f"\n{_DELIM}\n{title}\n{_DELIM}\n{body}\n")
    text = RESULTS_PATH.read_text() if RESULTS_PATH.exists() else ""
    preamble, blocks = _parse_blocks(text)
    for i, (existing, _) in enumerate(blocks):
        if existing == title:
            blocks[i] = (title, body)
            break
    else:
        blocks.append((title, body))
    _write_blocks(preamble, blocks)


def record_json(key: str, data: Dict) -> None:
    """Merge ``{key: data}`` into ``out/BENCH_kernel.json`` (idempotent by key)."""
    existing = {}
    if BENCH_JSON_PATH.exists():
        existing = json.loads(BENCH_JSON_PATH.read_text())
    existing[key] = data
    OUT_DIR.mkdir(exist_ok=True)
    BENCH_JSON_PATH.write_text(
        json.dumps(existing, indent=2, sort_keys=True) + "\n"
    )


def run_once(benchmark, fn):
    """Run *fn* exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, iterations=1, rounds=1)
