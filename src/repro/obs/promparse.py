"""A minimal Prometheus text-exposition parser.

Two consumers:

- ``repro top`` scrapes a live run's ``/metrics`` endpoint and needs
  the sample values back as numbers;
- the exporter-conformance tests round-trip
  :func:`repro.telemetry.export.prometheus_text` through this parser to
  prove the output a real scraper would accept (HELP/TYPE pairing,
  label escaping, monotone cumulative buckets, ``+Inf`` terminals).

It implements the subset of the exposition format the exporter emits —
``# HELP`` / ``# TYPE`` comments and ``name{labels} value`` samples —
and raises :class:`ParseError` on anything malformed rather than
guessing, because a lenient parser would defeat the conformance tests.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


class ParseError(ValueError):
    """The exposition text violates the format."""


@dataclass
class Sample:
    """One ``name{labels} value`` line."""

    name: str
    labels: dict[str, str]
    value: float


@dataclass
class Family:
    """One metric family: HELP/TYPE header plus its samples."""

    name: str
    kind: str = "untyped"
    help: str = ""
    samples: list[Sample] = field(default_factory=list)


def _unescape(value: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\":
            if i + 1 >= len(value):
                raise ParseError(f"dangling escape in label value {value!r}")
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
            elif nxt in ("\\", '"'):
                out.append(nxt)
            else:
                raise ParseError(f"bad escape \\{nxt} in label value {value!r}")
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _unescape_help(text: str) -> str:
    # HELP escapes only \\ and \n; scan left-to-right (a replace chain
    # with a sentinel would corrupt help text containing the sentinel).
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text) and text[i + 1] in ("n", "\\"):
            out.append("\n" if text[i + 1] == "n" else "\\")
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _parse_labels(text: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    pos = 0
    while pos < len(text):
        m = _LABEL_RE.match(text, pos)
        if m is None:
            raise ParseError(f"malformed label pair at {text[pos:]!r}")
        labels[m.group(1)] = _unescape(m.group(2))
        pos = m.end()
        if pos < len(text):
            if text[pos] != ",":
                raise ParseError(f"expected ',' between labels in {text!r}")
            pos += 1
    return labels


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    try:
        return float(text)
    except ValueError as exc:
        raise ParseError(f"bad sample value {text!r}") from exc


#: Suffixes a histogram family's samples may carry.
_HISTO_SUFFIXES = ("_bucket", "_sum", "_count")


def _base_name(sample_name: str, families: dict[str, Family]) -> str:
    """Map a sample line's name back to its family name."""
    if sample_name in families:
        return sample_name
    for suffix in _HISTO_SUFFIXES:
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if base in families and families[base].kind == "histogram":
                return base
    raise ParseError(f"sample {sample_name!r} has no HELP/TYPE header")


def parse_prometheus_text(text: str) -> dict[str, Family]:
    """Parse exposition text into ``{family name: Family}``.

    Enforces what the conformance tests care about: every sample's
    family was announced by a ``# TYPE`` line, HELP and TYPE name the
    same family when both are present, and histogram samples only use
    the blessed ``_bucket``/``_sum``/``_count`` suffixes.
    """
    families: dict[str, Family] = {}
    # The format is '\n'-delimited; str.splitlines would also break on
    # \r / U+2028 etc., which are legal *inside* escaped label values.
    for raw in text.split("\n"):
        line = raw[:-1] if raw.endswith("\r") else raw
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            rest = line[len("# HELP "):]
            name, _, help_text = rest.partition(" ")
            fam = families.setdefault(name, Family(name))
            fam.help = _unescape_help(help_text)
            continue
        if line.startswith("# TYPE "):
            rest = line[len("# TYPE "):]
            name, _, kind = rest.partition(" ")
            if kind not in ("counter", "gauge", "histogram", "summary",
                            "untyped"):
                raise ParseError(f"unknown TYPE {kind!r} for {name!r}")
            fam = families.setdefault(name, Family(name))
            if fam.samples:
                raise ParseError(
                    f"# TYPE for {name!r} appears after its samples"
                )
            fam.kind = kind
            continue
        if line.startswith("#"):
            continue  # free-form comment
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ParseError(f"malformed sample line {line!r}")
        base = _base_name(m.group("name"), families)
        families[base].samples.append(
            Sample(
                name=m.group("name"),
                labels=_parse_labels(m.group("labels") or ""),
                value=_parse_value(m.group("value")),
            )
        )
    return families


def _family_for_sample(
    families: dict[str, Family], name: str
) -> Family | None:
    """The family holding samples named ``name`` (suffix-aware)."""
    if name in families:
        return families[name]
    for suffix in _HISTO_SUFFIXES:
        if name.endswith(suffix):
            fam = families.get(name[: -len(suffix)])
            if fam is not None:
                return fam
    return None


def sample_value(
    families: dict[str, Family],
    name: str,
    labels: dict[str, str] | None = None,
) -> float:
    """The value of one exact sample, 0.0 when absent (scrape gaps).

    ``name`` may be a histogram sample name (``*_sum``, ``*_count``,
    ``*_bucket``); those resolve into their folded family.
    """
    fam = _family_for_sample(families, name)
    if fam is None:
        return 0.0
    want = labels or {}
    for sample in fam.samples:
        if sample.name == name and sample.labels == want:
            return sample.value
    return 0.0


def label_values(
    families: dict[str, Family], name: str, label: str
) -> dict[str, float]:
    """``{label value: sample value}`` across one family's plain samples."""
    fam = _family_for_sample(families, name)
    if fam is None:
        return {}
    out: dict[str, float] = {}
    for sample in fam.samples:
        if sample.name == name and label in sample.labels:
            out[sample.labels[label]] = sample.value
    return out
