"""Matrix Market reader for the coordinate/real subset.

Supported: ``%%MatrixMarket matrix coordinate real general`` and the
``symmetric`` variant, where each stored off-diagonal entry is mirrored.
Anything else (pattern, complex, integer, array, skew-symmetric, hermitian)
raises UnsupportedFormatError.  Malformed content raises ParseError with the
1-based line number.
"""

from __future__ import annotations

from ..container import MatrixData
from ..errors import ParseError, UnsupportedFormatError


def read_matrix_market(path) -> MatrixData:
    """Parse a Matrix Market file into an assembly buffer (0-based indices)."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()

    if not lines:
        raise ParseError("empty file", line_number=1)
    header = lines[0].split()
    if len(header) != 5 or header[0] != "%%MatrixMarket":
        raise ParseError(
            "expected header '%%MatrixMarket matrix coordinate real <symmetry>'",
            line_number=1,
        )
    obj, fmt, field, symmetry = (tok.lower() for tok in header[1:])
    if obj != "matrix":
        raise UnsupportedFormatError(f"unsupported object '{obj}'")
    if fmt != "coordinate":
        raise UnsupportedFormatError(f"unsupported format '{fmt}' (only coordinate)")
    if field != "real":
        raise UnsupportedFormatError(f"unsupported field '{field}' (only real)")
    if symmetry not in ("general", "symmetric"):
        raise UnsupportedFormatError(f"unsupported symmetry '{symmetry}'")

    # (line number, text) of every line after the header that is neither blank nor a comment
    content = [(idx + 1, text) for idx, line in enumerate(lines)
               if idx and (text := line.strip()) and not text.startswith("%")]
    if not content:
        raise ParseError("missing size line", line_number=len(lines))

    (lineno, text), entries = content[0], content[1:]
    parts = text.split()
    if len(parts) != 3:
        raise ParseError(f"size line needs 'rows cols nnz', got '{text}'", line_number=lineno)
    try:
        rows, cols, declared = (int(p) for p in parts)
    except ValueError:
        raise ParseError(f"size line needs three integers, got '{text}'", line_number=lineno)
    if rows < 0 or cols < 0 or declared < 0:
        raise ParseError("size entries must be non-negative", line_number=lineno)
    if symmetry == "symmetric" and rows != cols:
        raise ParseError("symmetric matrix must be square", line_number=lineno)

    data = MatrixData((rows, cols))
    for seen, (lineno, stripped) in enumerate(entries):
        if seen == declared:
            raise ParseError(f"more than the declared {declared} entries", line_number=lineno)
        parts = stripped.split()
        if len(parts) != 3:
            raise ParseError(f"entry needs 'row col value', got '{stripped}'", line_number=lineno)
        try:
            i, j = int(parts[0]), int(parts[1])
            value = float(parts[2])
        except ValueError:
            raise ParseError(f"could not parse entry '{stripped}'", line_number=lineno)
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise ParseError(
                f"index ({i}, {j}) outside 1..{rows} x 1..{cols}", line_number=lineno
            )
        data.add(i - 1, j - 1, value)
        if symmetry == "symmetric" and i != j:
            data.add(j - 1, i - 1, value)
    if len(entries) != declared:
        raise ParseError(f"expected {declared} entries, file ends after {len(entries)}",
                         line_number=len(lines))
    return data
