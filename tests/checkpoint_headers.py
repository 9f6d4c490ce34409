"""Test helpers that read and rewrite a checkpoint's JSON header.

with_header is the one place a test replaces a written header. A dict header
gets a fresh header_crc32, so a test that edits a value reaches the loader's
value checks instead of its header digest.
"""
import json
import struct

from qdiff.model import _header_bytes


def read_header(raw):
    """The parsed JSON header of the checkpoint bytes `raw`."""
    (hlen,) = struct.unpack_from("<Q", raw, 8)
    return json.loads(raw[16: 16 + hlen])


def with_header(raw, header, digest=True):
    """The checkpoint bytes `raw` with its JSON header replaced by `header`, a dict
    header re-digested unless digest is False. That writes it as given, to show that
    a header without the header_crc32 every checkpoint carries is refused."""
    (hlen,) = struct.unpack_from("<Q", raw, 8)
    if digest and isinstance(header, dict):
        head = _header_bytes(header)
    else:
        head = json.dumps(header).encode()
    return raw[:8] + struct.pack("<Q", len(head)) + head + raw[16 + hlen:]
