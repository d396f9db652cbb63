"""CSV artifact tables: each declared once, read and written by one code path.

A `Table` is the header line of one CSV artifact plus the kind of each
column and whether `#` lines are comments. `Table.read` parses blocks of
lines with numpy's C reader (`np.loadtxt`). A block that reader refuses
takes the refusal path: split into fields, each column parsed the way
Python's int() and float() parse, which reads the spellings only Python
takes (`1_000`, `٣`, `-0` in an unsigned column) or names `path:line` of
the first bad line. So does a block the C reader must not see: one with
a character outside ASCII (its int parser takes some of them for digits)
or one of `\x1c`-`\x1f` (it skips them as whitespace inside a field,
where Python refuses them).

`Table.write` formats a block of rows as one `%` string whose template
numpy renders: each int column as a space-padded matrix of decimal
digits, side by side with the `%r` and `%s` of the float and text columns
and the separators, without the padding. Ints are written in decimal and
floats in `repr` form, so values read back bit-exactly.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence

import numpy as np

from .dynamics import COMMANDS
from .errors import DataError, open_text

# lines parsed, or rows written, per pass: bounds the Python objects a block
# holds. Through numpy's C reader 16384-line blocks read flight_fuse's tables
# no faster (speeds.csv 19.4-20.7 ms against 18.5-19.1, fused.csv 17.1-18.2
# against 17.8-18.2, truth_state.csv 12.2-12.9 against 12.1-12.7; 2-vCPU Xeon)
# and raise its op's peak RSS from 47.5 to 50.5 MB. They write a 227k-row
# assignments.csv in 24 ms instead of 29, but a 10k-row state table in 80 ms
# instead of 75, at a 4.2 MB traced peak, not 1.7
BLOCK_LINES = 4096
# the ASCII characters numpy's C reader skips as whitespace inside a field,
# where Python's int() and float() refuse them
C_READER_BLIND = "\x1c\x1d\x1e\x1f"


class Kind(NamedTuple):
    """A column's values, of `dtype` (object: text); an integer must fit the
    dtype's range. `values`, when given, are the only ones allowed, called
    `name` in errors. numpy's C reader parses the numeric columns of a
    block and `check` tests their values; on the refusal path `parse`
    converts a column's fields the way Python's int() and float() do, and
    `problem` names what is wrong with one field."""

    dtype: type
    values: tuple | None = None
    name: str = ""

    def parse(self, fields: list[str]) -> np.ndarray:
        return self.check(np.array(fields, dtype=self.dtype))  # ValueError, or OverflowError out of range

    def check(self, column: np.ndarray) -> np.ndarray:
        """`column`; ValueError when it holds a value outside `values`."""
        if self.values is not None and not np.isin(column, self.values).all():
            raise ValueError(f"unknown {self.name}")
        return column

    def problem(self, field: str, line: str) -> str | None:
        """Why one field of `line` does not fit, or None."""
        try:
            value = np.array(field, dtype=self.dtype).item()
        except OverflowError:
            return f"field out of range in {line!r}"
        except ValueError:
            try:
                float(field)
            except ValueError:
                return f"non-numeric field in {line!r}"
            return f"non-integer field in {line!r}"
        if self.values is not None and value not in self.values:
            return f"unknown {self.name} {field!r}"
        return None


def _counted(rows: list[str], n_fields: int) -> list[str]:
    """`rows` stripped, less the blank ones; ValueError unless each holds
    `n_fields` fields."""
    rows = list(filter(None, map(str.strip, rows)))
    if set(map(str.count, rows, itertools.repeat(","))) != {n_fields - 1}:
        raise ValueError("wrong field count")
    return rows


def _decimal(values: np.ndarray) -> np.ndarray:
    """Ints (or floats, truncated toward zero as `%d` does) in decimal,
    right-aligned behind a sign column that holds `-` for a negative value;
    spaces before the first digit."""
    if values.dtype.kind == "f":
        if not np.all(np.abs(values) < 2.0**63):
            raise ValueError("an integer column holds a float outside int64")
        values = values.astype(np.int64)
    negative = values < 0
    magnitude = values.astype(np.uint64)
    magnitude[negative] = -magnitude[negative]  # modulo 2^64, so |int64 min| too
    top = int(magnitude.max(initial=0))
    width = len(str(top))
    if top < 2**32:
        magnitude = magnitude.astype(np.uint32)  # divides faster
    # one row per digit position, transposed on return: row j holds the low
    # byte of magnitude // 10^(width - j), so the digit is that minus ten
    # times the row above, exactly, modulo 256
    matrix = np.empty((width + 1, values.size), np.uint8)
    rest = magnitude
    for row in range(width, 0, -1):
        matrix[row] = rest
        rest = rest // 10
    matrix[2:] -= matrix[1:-1] * np.uint8(10)
    matrix[1:] += ord("0")
    leading = magnitude < 10 ** np.arange(width - 1, 0, -1, dtype=magnitude.dtype)[:, None]
    matrix[1:width][leading] = ord(" ")
    matrix[0] = np.where(negative, ord("-"), ord(" "))
    return matrix.T


INT = Kind(np.int64)
FLOAT = Kind(np.float64)
COMMAND = Kind(object, COMMANDS, "command")


class Table(str):
    """The declaration of one CSV table; the string is its header line.

    `kinds` holds one Kind per column. With `comments`, blank and `#`
    lines may come before the header and between rows; otherwise the
    header is the first line and a `#` line is a malformed row.
    """

    def __new__(cls, header: str, kinds: Sequence[Kind], *, comments: bool = False) -> "Table":
        table = super().__new__(cls, header)
        if len(kinds) != header.count(",") + 1:
            raise ValueError(f"{header!r} needs one kind per column")
        table.kinds, table.comments = tuple(kinds), comments
        table.row = ",".join({np.float64: "%r", object: "%s"}.get(k.dtype, "%d") for k in kinds) + "\n"  # %-format of a row
        # `row` cut at its `%d` fields: constant text, then an int column's
        # index, then constant text, and so on (see `_template`); and the
        # other columns, each with the dtype its values go to `%` as
        ints = [col for col, kind in enumerate(kinds) if kind.dtype not in (np.float64, object)]
        texts = [text.encode() for text in table.row.split("%d")]
        table._pieces = texts[:1] + [piece for col, text in zip(ints, texts[1:]) for piece in (col, text)]
        table._others = [(col, np.float64 if kind.dtype is np.float64 else None)
                        for col, kind in enumerate(kinds) if col not in ints]
        # the numeric columns, which numpy's C reader parses into one record per row
        table._numeric = [col for col, kind in enumerate(kinds) if kind.dtype is not object]
        table._record = np.dtype([(f"f{col}", kinds[col].dtype) for col in table._numeric])
        return table

    def read(self, path: str, extra_columns: bool = False) -> tuple[list[np.ndarray], list[tuple[int, str]]]:
        """One array per column, and the (line number, line) of each `#`
        comment. With extra_columns the header may name further columns,
        whose fields are counted, not parsed. Blank lines are skipped and
        lines stripped; a wrong header, a wrong field count or a field
        that does not fit its kind raises DataError naming path:line.
        BLOCK_LINES lines at a time go to numpy's C reader, or to the
        refusal path (see the module docstring), which reads the same
        values and names the same lines."""
        names = self.split(",")
        columns = [[np.zeros(0, kind.dtype)] for kind in self.kinds]
        comments: list[tuple[int, str]] = []
        with open_text(path) as fh:
            lineno, found = 0, ""
            for raw in fh:
                lineno, found = lineno + 1, raw.strip()
                if not (self.comments and found[:1] in ("", "#")):
                    break
                if found:
                    comments.append((lineno, found))
            else:
                lineno, found = lineno + 1, ""
            fields = found.split(",")
            if fields[: len(names)] != names or (len(fields) != len(names) and not extra_columns):
                raise DataError(f"{path}:{lineno}: unexpected header {found!r}, expected {str(self)!r}")
            while lines := list(itertools.islice(fh, BLOCK_LINES)):
                self._parse_block(path, lines, lineno + 1, len(fields), columns, comments)
                lineno += len(lines)
        return [np.concatenate(blocks) for blocks in columns], comments

    def _parse_block(self, path, lines, first_lineno, n_fields, columns, comments) -> None:
        """Append consecutive body lines' rows to `columns`: numpy's C reader
        parses the block (`_read_c`); a block it refuses or must not see
        takes the refusal path (`_read_split`), which is walked line by
        line only to name its first bad line."""
        text = "".join(lines)
        rows = lines
        if self.comments and "#" in text:
            numbered = [(lineno, line.strip()) for lineno, line in enumerate(lines, start=first_lineno)]
            comments.extend((lineno, line) for lineno, line in numbered if line[:1] == "#")
            rows = [line for _, line in numbered if line[:1] not in ("", "#")]
            text = "\n".join(rows)
        if not rows or text.isspace():
            return
        parsed = None
        if text.isascii() and not any(char in text for char in C_READER_BLIND):
            parsed = self._read_c(rows, n_fields)
        if parsed is None:
            try:
                parsed = self._read_split(rows, n_fields)
            except (ValueError, OverflowError) as exc:
                raise self._first_bad_line(path, lines, first_lineno, n_fields) from exc
        for blocks, values in zip(columns, parsed):
            blocks.append(values)

    def _read_c(self, rows, n_fields) -> list[np.ndarray] | None:
        """The columns of `rows` from numpy's C reader, or None where it
        refuses them. With a text column or extra columns the rows are
        split in Python too: the reader neither counts the fields it is not
        asked for nor parses text, so the split counts each row's fields
        and holds the text."""
        split = len(self._record) < n_fields
        try:
            if split:
                rows = _counted(rows, n_fields)
            record = np.loadtxt(rows, self._record, delimiter=",", comments=None, ndmin=1,
                                usecols=self._numeric if split else None)
            flat = ",".join(rows).split(",") if len(self._record) < len(self.kinds) else []
            return [kind.parse(flat[col::n_fields]) if kind.dtype is object else kind.check(record[f"f{col}"])
                    for col, kind in enumerate(self.kinds)]
        except ValueError:
            return None

    def _read_split(self, rows, n_fields) -> list[np.ndarray]:
        """The columns of `rows`, split into fields and each column parsed
        by its Kind; ValueError or OverflowError on a bad row."""
        flat = ",".join(_counted(rows, n_fields)).split(",")
        return [kind.parse(flat[col::n_fields]) for col, kind in enumerate(self.kinds)]

    def _first_bad_line(self, path, lines, first_lineno, n_fields) -> DataError:
        for lineno, line in enumerate(lines, start=first_lineno):
            line = line.strip()
            if not line or (self.comments and line[0] == "#"):
                continue
            parts = line.split(",")
            if len(parts) != n_fields:
                return DataError(f"{path}:{lineno}: expected {n_fields} fields, got {len(parts)}")
            for kind, part in zip(self.kinds, parts):
                if problem := kind.problem(part, line):
                    return DataError(f"{path}:{lineno}: {problem}")
        return DataError(f"{path}: malformed table")

    def write(self, path: str, columns: Sequence[Sequence], comments: Sequence[str] = ()) -> None:
        """The `#` comment lines, the header, then one row per index of
        `columns` (one sequence per column), BLOCK_LINES rows per pass:
        the `%` of the block's template (`_template`) over the values of
        its float and text columns."""
        n_rows, n_others = len(columns[0]), len(self._others)
        with open(path, "w", newline="\n") as fh:
            fh.writelines(f"{line}\n" for line in [*comments, self])
            for start in range(0, n_rows, BLOCK_LINES):
                stop = min(start + BLOCK_LINES, n_rows)
                fields = [None] * ((stop - start) * n_others)  # row-major, filled a column at a time
                for i, (col, dtype) in enumerate(self._others):
                    fields[i::n_others] = np.asarray(columns[col][start:stop], dtype).tolist()
                fh.write(self._template(columns, start, stop) % tuple(fields))

    def _template(self, columns: Sequence[Sequence], start: int, stop: int) -> str:
        """`row` once per row in [start, stop), each `%d` replaced by the
        row's int: the `_decimal` matrices of the int columns and the
        constant text between them side by side, less the padding."""
        parts = [
            _decimal(np.asarray(columns[piece][start:stop])) if isinstance(piece, int)
            else np.broadcast_to(np.frombuffer(piece, np.uint8), (stop - start, len(piece)))
            for piece in self._pieces
        ]
        return np.hstack(parts).tobytes().translate(None, b" ").decode("ascii")


SPEEDS = Table("t_ref,prop_id,rpm,objective", (INT, INT, FLOAT, FLOAT))  # speeds.csv
GPS = Table("t,x,y,z", (INT, FLOAT, FLOAT, FLOAT))  # gps.csv
STATE = Table("t,x,y,z,vx,vy,vz", (INT,) + (FLOAT,) * 6)
# truth_state.csv: STATE, plus a trailing command column from `simulate`
# that readers take as an extra column of STATE
TRUTH_STATE = Table(STATE + ",command", STATE.kinds + (COMMAND,))
FUSED = Table(STATE + ",cov_trace", STATE.kinds + (FLOAT,))  # fused.csv
TRUTH_RPM = Table("t,prop_id,rpm", (INT, INT, FLOAT), comments=True)  # truth_rpm.csv: `# propN_center=x,y` lines
SPEED_TRACES = Table("t,prop_id,rpm", (INT, INT, FLOAT))  # speed_traces.csv
COMMAND_LOG = Table("t,command", (INT, COMMAND))  # commands.csv
TRACKS = Table("prop_id,centroid_x,centroid_y,n_events", (INT, FLOAT, FLOAT, INT))  # tracks.csv
ASSIGNMENTS = Table("event_index,prop_id", (INT, INT))  # assignments.csv
OBJECTIVE_CURVE = Table("prop_id,omega_rad_s,objective", (INT, FLOAT, FLOAT))  # plots/objective_curve.csv
# event CSVs: a `# width=W height=H` line, then t in [0, 2^64), x and y < 2^16, p in {-1, 1}
EVENTS = Table(
    "t,x,y,p", (Kind(np.uint64), Kind(np.uint16), Kind(np.uint16), Kind(np.int8, (-1, 1), "polarity")), comments=True
)
