"""Result tables: the rows of a study, stored by column, and their JSON
and CSV text."""

import json

import numpy as np


def _csv_cells(values):
    return [f"{v:.17g}" if isinstance(v, float) else str(v) for v in values]


# JSON of a list of cells, items split by a newline: the encoder escapes
# every newline inside a string, so a cell's text holds one only when the
# cell is itself a list or dict. Without an indent this is the C encoder.
_JSON_LINES = json.JSONEncoder(separators=("\n", ": "))


def _json_cells(values):
    cells = _JSON_LINES.encode(values)[1:-1].split("\n")
    if len(cells) != len(values):  # a nested list or dict
        cells = [json.dumps(v) for v in values]
    return cells


class ResultTable:
    """The rows of a study, stored by column; columns names them in the
    order of a row's keys."""

    def __init__(self, columns, metadata=None):
        self.columns = tuple(columns)
        self.metadata = {} if metadata is None else metadata
        self._values = {c: [] for c in self.columns}

    def __len__(self):
        return len(self._values[self.columns[0]])

    def add(self, **row):
        self.add_block(**{c: [v] for c, v in row.items()})

    def add_block(self, **columns):
        """Append rows: each column a list or array of the rows' values, or
        one value that every row shares."""
        if columns.keys() != self._values.keys():
            raise ValueError(
                f"unknown columns {sorted(columns.keys() - self._values.keys())},"
                f" missing columns {sorted(self._values.keys() - columns.keys())}")
        blocks = {c: v.tolist() if isinstance(v, np.ndarray) else v
                  for c, v in columns.items() if isinstance(v, (np.ndarray, list))}
        lengths = sorted({len(v) for v in blocks.values()}) or [1]
        if len(lengths) > 1:
            raise ValueError(f"columns of unequal length {lengths}")
        for c, values in self._values.items():
            values.extend(blocks[c] if c in blocks else [columns[c]] * lengths[0])

    def column(self, name):
        """The values of one column, as an array."""
        return np.asarray(self._values[name])

    @property
    def rows(self):
        """The rows as dicts, formed anew on each read."""
        return [dict(zip(self.columns, r)) for r in zip(*self._values.values())]

    def _text_rows(self, cells):
        """Each 1024 rows as tuples of cell text, so the text of a long table
        is never held whole; cells(values) is the text of a column's values."""
        for i in range(0, len(self), 1024):
            yield zip(*[cells(v[i:i + 1024]) for v in self._values.values()])

    def csv_lines(self):
        """Header line and one line per row; floats keep 17 digits."""
        yield ",".join(self.columns)
        for chunk in self._text_rows(_csv_cells):
            yield from map(",".join, chunk)

    def write(self, path, fmt):
        """Write the table as CSV or as JSON; the JSON text is json.dumps
        of the metadata and of the rows as dicts."""
        if fmt == "csv":
            with open(path, "w") as fh:
                fh.writelines(line + "\n" for line in self.csv_lines())
        elif fmt == "json":
            row = "{%s}" % ", ".join(
                json.dumps(c).replace("%", "%%") + ": %s" for c in self.columns)
            with open(path, "w") as fh:
                fh.write(f'{{"metadata": {json.dumps(self.metadata)}, "rows": [')
                sep = ""
                for chunk in self._text_rows(_json_cells):
                    fh.write(sep + ", ".join([row % r for r in chunk]))
                    sep = ", "
                fh.write("]}")
        else:
            raise ValueError(f"unknown output format {fmt!r}")
