"""Summary CSV format: `#` metadata comments, then one row per grid cell.

Every CSV artifact is written by :func:`format_csv`.  Numbers are
serialized with repr so a write→read round trip preserves every float
bit-for-bit.  None, such as the cv of a zero mean count, is an empty
field, never NaN.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence

from .. import __version__
from ..distributions import ALGORITHM_ID
from ..montecarlo import TrialSummary

__all__ = [
    "CSV_HEADER",
    "CsvFormatError",
    "RunMetadata",
    "read_summaries_csv",
    "write_summaries_csv",
]

CSV_HEADER = "p,n,trials,mean_c,sd_c,cv_c"
# One reader per column, in TrialSummary's field order: a row is written by
# astuple and read back by TrialSummary(*...).  An empty cv_c is None.
_READERS = (float, int, int, float, float, lambda v: float(v) if v else None)


class CsvFormatError(ValueError):
    """Malformed summary CSV; the message carries the offending line number."""


@dataclass(frozen=True)
class RunMetadata:
    """Provenance stamped into every emitted artifact.

    `tool_version` and `algorithm_id` are not passed: every record holds
    this package's `__version__` and the sampler's `ALGORITHM_ID`.
    """

    tool_version: str = field(default=__version__, init=False)
    algorithm_id: str = field(default=ALGORITHM_ID, init=False)
    config: str
    master_seed: int | None = None
    timestamp: str | None = None

    @classmethod
    def create(
        cls,
        config: str,
        *,
        master_seed: int | None = None,
        no_timestamp: bool = False,
    ) -> "RunMetadata":
        stamp = None if no_timestamp else datetime.now(timezone.utc).isoformat()
        return cls(config, master_seed=master_seed, timestamp=stamp)

    def comment_lines(self) -> list[str]:
        """One `# field: value` line per field that is set, in field order."""
        return [f"# {key}: {value}" for key, value in asdict(self).items() if value is not None]


def format_csv(metadata: RunMetadata, header: str, rows: Iterable, notes: Iterable = ()) -> str:
    """The metadata comment lines, a `# note` line per note, the header, then a line per row.

    Each value of a row is written by repr, and None as an empty field.
    """
    lines = metadata.comment_lines() + [f"# {note}" for note in notes]
    lines.append(header)
    lines.extend(",".join("" if v is None else repr(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def format_summaries_csv(summaries: Iterable[TrialSummary], metadata: RunMetadata) -> str:
    return format_csv(metadata, CSV_HEADER, map(astuple, summaries))


def write_summaries_csv(
    path: str | Path, summaries: Sequence[TrialSummary], metadata: RunMetadata
) -> None:
    Path(path).write_text(format_summaries_csv(summaries, metadata), encoding="utf-8")


def parse_summaries_csv(text: str) -> tuple[tuple[TrialSummary, ...], dict[str, str]]:
    """Parse CSV text; errors name the 1-based offending line."""
    metadata: dict[str, str] = {}
    summaries: list[TrialSummary] = []
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            key, sep, value = body.partition(":")
            if sep:
                metadata[key.strip()] = value.strip()
            continue
        if not header_seen:
            if line != CSV_HEADER:
                raise CsvFormatError(
                    f"line {lineno}: expected header '{CSV_HEADER}', got '{line}'"
                )
            header_seen = True
            continue
        fields = line.split(",")
        if len(fields) != 6:
            raise CsvFormatError(f"line {lineno}: expected 6 fields, got {len(fields)}")
        try:
            summaries.append(TrialSummary(*(read(v) for read, v in zip(_READERS, fields))))
        except ValueError as exc:
            raise CsvFormatError(f"line {lineno}: {exc}") from exc
    if not header_seen:
        raise CsvFormatError(f"missing header '{CSV_HEADER}'")
    return tuple(summaries), metadata


def read_summaries_csv(path: str | Path) -> tuple[tuple[TrialSummary, ...], dict[str, str]]:
    return parse_summaries_csv(Path(path).read_text(encoding="utf-8"))
