"""The PNM header scanner as a loop over bytes: the reference its two patterns are tested against.

``srrnet.pnm._read_header_token`` skips whitespace and '#' comments with one
compiled pattern and takes the token with ``\\S*``. This module keeps the
loop those replaced, which tests one ``data[pos:pos + 1]`` slice at a time
with ``bytes.isspace``, so the two can be compared token for token, error
for error.
"""

from srrnet.pnm import PnmParseError


def read_header_token_by_byte(data: bytes, pos: int) -> tuple[bytes, int]:
    """One whitespace-delimited header token from ``pos``, skipping '#' comments."""
    n = len(data)
    while pos < n:
        ch = data[pos:pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            while pos < n and data[pos:pos + 1] != b"\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise PnmParseError("unexpected end of header", pos)
    start = pos
    while pos < n and not data[pos:pos + 1].isspace():
        pos += 1
    return data[start:pos], pos
