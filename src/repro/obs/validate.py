"""Validators for the observability artifacts the CLIs emit.

Three formats, each validated structurally (not just "is it JSON"):

- **Chrome trace-event JSON** (``--trace-out t.json``): a top-level
  object with a ``traceEvents`` list (or a bare event list).  Complete
  ``X`` events need a numeric ``ts`` and non-negative ``dur``; duration
  ``B``/``E`` events must nest properly per ``(pid, tid)`` track; per
  track, ``ts`` must be non-decreasing in file order (what the in-repo
  tracer guarantees and Perfetto's importer is happiest with).
- **Prometheus text** (``--metrics-out m.prom``): must parse under
  :func:`repro.obs.export.parse_prometheus_text`; each series of a
  histogram family (its samples sharing one label set besides ``le``)
  must have non-decreasing cumulative buckets, a ``+Inf`` bucket, and a
  ``_count`` equal to it.  When the ``serve_faults_*`` family is present
  (a fault-injected serve run, docs/scenarios.md) the per-kind counters
  must sum to ``serve_faults_injected``; when ``serve_resilience_*`` is
  present (a resilience-armed run, docs/resilience.md) breaker episode
  and retry-budget accounting must balance too.
- **JSONL** (``--metrics-out m.jsonl``, span JSONL): every non-empty
  line must be individually ``json.loads``-able.  :func:`iter_jsonl`
  is the one line rule, shared with ``repro obs summarize``.

Each validator returns a list of human-readable problems (empty = valid);
:func:`validate_file` sniffs the format from the suffix/content and is
what ``repro obs validate`` calls.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Hashable
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .export import PrometheusParseError, parse_prometheus_text
from .gcpause import gc_paused

__all__ = [
    "validate_chrome_trace",
    "validate_prometheus",
    "validate_jsonl",
    "iter_jsonl",
    "validate_file",
    "sniff_format",
]

_PHASES_OK = {"X", "B", "E", "M", "i", "I", "C"}

# JSON blanks within a line, and the C scanner behind ``json.loads``:
# ``_SCAN(text, i)`` decodes the one value that starts at ``text[i]``.
_BLANK = re.compile(r"[ \t\r]*").match
_SCAN = json.JSONDecoder().scan_once


def _non_negative(value) -> Optional[float]:
    """``value`` as a float when it is a non-negative, non-NaN number
    (``bool`` excluded), else None — including an integer too large for
    a float, which a file from outside the program may hold."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return None if math.isnan(value) or value < 0 else value


def validate_chrome_trace(payload) -> List[str]:
    """Structural problems of a parsed Chrome trace (empty list = valid)."""
    problems: List[str] = []
    if isinstance(payload, dict):
        events = payload.get("traceEvents")
        if not isinstance(events, list):
            return ["top-level object has no 'traceEvents' list"]
    elif isinstance(payload, list):
        events = payload
    else:
        return [f"expected an object or array, got {type(payload).__name__}"]

    last_ts: Dict[Tuple, float] = {}
    open_stacks: Dict[Tuple, List[str]] = {}
    timed = 0
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event[{i}]: not an object")
            continue
        phase = event.get("ph")
        if not isinstance(phase, str) or not phase:
            problems.append(f"event[{i}]: missing 'ph' phase")
            continue
        if phase not in _PHASES_OK:
            problems.append(f"event[{i}]: unsupported phase {phase!r}")
            continue
        if "name" not in event:
            problems.append(f"event[{i}]: missing 'name'")
        if phase == "M":
            continue        # metadata events carry no timestamp
        ts = event.get("ts")
        ts_value = ts if type(ts) is float and ts >= 0.0 \
            else _non_negative(ts)
        if ts_value is None:
            problems.append(f"event[{i}]: 'ts' must be a non-negative "
                            f"number, got {ts!r}")
            continue
        timed += 1
        track = (event.get("pid", 0), event.get("tid", 0))
        try:
            previous = last_ts.get(track)
        except TypeError:       # a list or object names no track
            problems.extend(
                f"event[{i}]: {key!r} must be a number or string, "
                f"got {value!r}"
                for key, value in zip(("pid", "tid"), track)
                if not isinstance(value, Hashable))
            track = None
        else:
            if previous is not None and ts_value < previous:
                problems.append(
                    f"event[{i}]: ts {ts} goes backwards on track pid/tid "
                    f"{track} (previous {previous})")
            last_ts[track] = ts_value
        if phase == "X":
            dur = event.get("dur")
            if not (type(dur) is float and dur >= 0.0) \
                    and _non_negative(dur) is None:
                problems.append(f"event[{i}]: X event needs a non-negative "
                                f"'dur', got {dur!r}")
        elif track is None:
            continue
        elif phase == "B":
            open_stacks.setdefault(track, []).append(
                str(event.get("name", "")))
        elif phase == "E":
            stack = open_stacks.get(track)
            if not stack:
                problems.append(f"event[{i}]: E event with no open B on "
                                f"track pid/tid {track}")
            else:
                stack.pop()
    for track, stack in open_stacks.items():
        for name in stack:
            problems.append(f"unclosed B event {name!r} on track "
                            f"pid/tid {track}")
    if timed == 0 and not problems:
        problems.append("trace has no timed events")
    return problems


def validate_prometheus(text: str) -> List[str]:
    """Parse + histogram-consistency problems (empty list = valid)."""
    try:
        families = parse_prometheus_text(text)
    except PrometheusParseError as exc:
        return [str(exc)]
    problems: List[str] = []
    if not any(family["samples"] for family in families.values()):
        problems.append("no samples found")
    for name, family in families.items():
        if family["type"] != "histogram":
            continue
        # One series per label set without ``le``, checked on its own.
        series: Dict[Tuple, Tuple[List, List]] = {}
        for sample, labels, value in family["samples"]:
            if sample in (f"{name}_bucket", f"{name}_count"):
                key = tuple(sorted((k, v) for k, v in labels.items()
                                   if k != "le"))
                buckets, counts = series.setdefault(key, ([], []))
                if sample == f"{name}_bucket":
                    buckets.append((labels.get("le"), value))
                else:
                    counts.append(value)
        if not any(buckets for buckets, _ in series.values()):
            problems.append(f"histogram {name}: no _bucket samples")
            continue
        for key, (buckets, counts) in series.items():
            where = name
            if key:
                where += "{" + ",".join(f'{k}="{v}"' for k, v in key) + "}"
            if not buckets:
                problems.append(f"histogram {where}: no _bucket samples")
                continue
            if buckets[-1][0] != "+Inf":
                problems.append(f"histogram {where}: last bucket must be "
                                f'le="+Inf", got le={buckets[-1][0]!r}')
            values = [v for _, v in buckets]
            if any(b > a for b, a in zip(values, values[1:])):
                problems.append(f"histogram {where}: cumulative bucket "
                                "counts decrease")
            if counts and counts[0] != values[-1]:
                problems.append(f"histogram {where}: _count {counts[0]} != "
                                f"+Inf bucket {values[-1]}")
    problems.extend(_faults_consistency(families))
    problems.extend(_resilience_consistency(families))
    return problems


def _family_total(families: Dict, metric: str):
    """Sum of a family's plain samples, or None when it is absent."""
    family = families.get(metric)
    if family is None:
        return None
    return sum(sample[2] for sample in family["samples"]
               if sample[0] == metric)


def _faults_consistency(families: Dict) -> List[str]:
    """Cross-family invariant of fault-injected serve runs: the per-kind
    ``serve_faults_*`` counters partition ``serve_faults_injected``."""

    def total(metric: str):
        return _family_total(families, metric)

    injected = total("serve_faults_injected")
    if injected is None:
        return []
    problems: List[str] = []
    kinds = {"serve_faults_chip_kills": total("serve_faults_chip_kills"),
             "serve_faults_stragglers": total("serve_faults_stragglers"),
             "serve_faults_cache_wipes": total("serve_faults_cache_wipes")}
    missing = sorted(name for name, value in kinds.items() if value is None)
    if missing:
        problems.append(
            "serve_faults_injected present but per-kind counter(s) "
            f"missing: {', '.join(missing)}")
    else:
        by_kind = sum(kinds.values())
        if by_kind != injected:
            problems.append(
                f"serve_faults_injected ({injected:g}) != sum of per-kind "
                f"fault counters ({by_kind:g})")
    failovers = total("serve_faults_failovers")
    kills = kinds.get("serve_faults_chip_kills")
    if failovers is not None and kills is not None and failovers > kills:
        problems.append(
            f"serve_faults_failovers ({failovers:g}) exceeds "
            f"serve_faults_chip_kills ({kills:g}) — a failover without "
            "a kill")
    return problems


def _resilience_consistency(families: Dict) -> List[str]:
    """Cross-family invariants of resilience-armed serve runs (the
    ``serve_resilience_*`` family, docs/resilience.md): breaker episode
    accounting must balance, retries must fit their budget, and the
    faults-side retry counter must agree with the resilience side."""

    def total(metric: str):
        return _family_total(families, metric)

    opens = total("serve_resilience_breaker_opens")
    if opens is None:
        return []
    problems: List[str] = []
    probes = total("serve_resilience_breaker_probes")
    closes = total("serve_resilience_breaker_closes")
    if probes is not None and probes > opens:
        problems.append(
            f"serve_resilience_breaker_probes ({probes:g}) exceeds "
            f"breaker_opens ({opens:g}) — a probe without an open episode")
    if closes is not None and probes is not None and closes > probes:
        problems.append(
            f"serve_resilience_breaker_closes ({closes:g}) exceeds "
            f"breaker_probes ({probes:g}) — a close without a probe")
    scheduled = total("serve_resilience_retries_scheduled")
    budget = total("serve_resilience_retry_budget")
    if scheduled is not None and budget is not None and scheduled > budget:
        problems.append(
            f"serve_resilience_retries_scheduled ({scheduled:g}) exceeds "
            f"the run retry_budget ({budget:g})")
    fault_retries = _family_total(families, "serve_faults_retries")
    if scheduled is not None and fault_retries is not None \
            and fault_retries != scheduled:
        problems.append(
            f"serve_faults_retries ({fault_retries:g}) != "
            f"serve_resilience_retries_scheduled ({scheduled:g}) — the "
            "failover and budget books disagree")
    entries = total("serve_resilience_brownout_entries")
    exits = total("serve_resilience_brownout_exits")
    if entries is not None and exits is not None and exits > entries:
        problems.append(
            f"serve_resilience_brownout_exits ({exits:g}) exceeds "
            f"brownout_entries ({entries:g}) — an exit without an entry")
    return problems


def iter_jsonl(text: str) -> Iterator[Tuple[int, object]]:
    """``(lineno, value)`` for each line ``str.strip`` leaves non-empty:
    its JSON value, or a :class:`json.JSONDecodeError` with the message
    and position of the one ``json.loads`` raises for it (``nesting too
    deep`` past the decoder's recursion limit, the interpreter's message
    for an integer past its digit limit).  The error is built afresh:
    the raised one's traceback and context reach this generator's frame,
    which would hold it in a reference cycle.  Lines end at ``"\\n"``
    only (a trailing ``"\\r"`` is tolerated): a U+2028 inside a JSON
    string is content.

    Each line is decoded where it sits in ``text``, with no copy, and
    kept when its value ends at the line's ``"\\n"`` or only
    ``[ \\t\\r]`` follows it.  Any other line is ``json.loads``-ed on
    its own, and so is every line after it: a container left open reads
    on through the lines that follow, so lines that each left one open
    would each be scanned that far."""
    size = len(text)
    start = lineno = 0
    in_place = True
    while start <= size:
        lineno += 1
        stop = text.find("\n", start)
        if stop < 0:
            stop = size
        first = start
        if first < stop and text[first] in " \t\r":
            first = _BLANK(text, first, stop).end()
        if first == stop:
            start = stop + 1
            continue
        if in_place:
            try:
                value, end = _SCAN(text, first)
            except (StopIteration, ValueError, RecursionError):
                end = size + 1
            if end == stop or end < stop \
                    and _BLANK(text, end, stop).end() == stop:
                yield lineno, value
                start = stop + 1
                continue
            in_place = False
        line = text[start:stop]
        first -= start          # from here on, an index into ``line``
        start = stop + 1
        if not line.strip():
            continue
        try:
            value = json.loads(line)
        except json.JSONDecodeError as exc:
            value = json.JSONDecodeError(exc.msg, line, exc.pos)
        except RecursionError:
            value = json.JSONDecodeError("nesting too deep", line, first)
        except ValueError as exc:       # an integer past the digit limit
            value = json.JSONDecodeError(str(exc), line, first)
        yield lineno, value


def validate_jsonl(text: str) -> List[str]:
    """Problems with a JSONL payload (empty list = valid); lines as
    :func:`iter_jsonl` reads them."""
    problems: List[str] = []
    seen = False
    for lineno, value in iter_jsonl(text):
        seen = True
        if isinstance(value, json.JSONDecodeError):
            problems.append(f"line {lineno}: not valid JSON ({value.msg})")
    if not seen:
        problems.append("no JSON lines found")
    return problems


def _sniff(path: Path, text: str) -> Tuple[str, object]:
    """``(format, payload)``: the format from suffix then content, and
    for ``chrome-trace`` the JSON it parsed to decide (None otherwise)."""
    if path.suffix == ".jsonl":
        return ("jsonl", None)
    if path.suffix in (".prom", ".txt"):
        return ("prometheus", None)
    if text.lstrip().startswith(("{", "[")):
        try:
            return ("chrome-trace", json.loads(text))
        except (ValueError, RecursionError):
            # Many JSON objects on separate lines, one nested too deep
            # to parse, or an integer past the interpreter's digit
            # limit: read it line by line as JSONL.
            return ("jsonl", None)
    return ("prometheus", None)


def sniff_format(path: Path, text: str) -> str:
    """``chrome-trace`` | ``jsonl`` | ``prometheus``, from suffix then
    content."""
    return _sniff(path, text)[0]


@gc_paused()
def validate_file(path: Union[str, Path]) -> Tuple[str, List[str]]:
    """Validate one artifact; returns ``(format, problems)``.  The file
    is decoded from UTF-8 with no newline translation, so its lines end
    where they would in text.  A file that cannot be opened or decoded
    is ``unreadable``, a problem like any other."""
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return ("unreadable", [f"cannot read {path}: {exc}"])
    kind, payload = _sniff(path, text)
    if kind == "chrome-trace":
        return (kind, validate_chrome_trace(payload))
    if kind == "jsonl":
        return (kind, validate_jsonl(text))
    return (kind, validate_prometheus(text))
