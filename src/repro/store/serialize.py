"""Canonical JSON encoding for store keys and artifacts.

Three jobs live here:

* **Lossless numpy round-trips.**  Artifacts carry numpy arrays (DTA
  critical-period matrices) and occasionally numpy scalars inside
  config dicts.  Arrays are encoded as a tagged object holding the
  dtype string, the shape and the base64 of the raw C-order bytes, so
  decoding reproduces the exact dtype and bit pattern; numpy scalars
  travel as 0-d arrays and come back as the same ``np.generic`` type.

* **Canonical key text.**  Cache keys are the SHA-256 of the canonical
  JSON of a key payload (sorted keys, no whitespace).  Any numpy
  values are normalized through the same encoder first, so logically
  equal payloads always hash identically.  The same digest is the
  body checksum of every stored artifact.

* **One serialization pass per artifact.**  A store ``put`` of a DTA
  characterization carries ~12 MB of base64.  :func:`skeleton` walks a
  value once and leaves each array's base64 as raw bytes beside a
  small JSON skeleton; :func:`dump` lets the C ``json`` encoder emit
  only that skeleton and splices the payload bytes into its output
  verbatim, and :func:`digest` streams the sorted pieces into SHA-256
  without joining them.  Splicing is exact because base64 text
  (``A-Z a-z 0-9 + / =``) holds no character JSON escapes -- no quote,
  backslash, control or non-ASCII character -- so ``json.dumps(text)``
  is ``'"' + text + '"'`` byte for byte.  Tagged arrays that arrive as
  base64 *text* (a parsed envelope, or a body built with
  :func:`encode`) are spliced the same way once their alphabet is
  checked; anything else goes through the C encoder.  The bytes equal
  ``json.dumps`` of the fully encoded value exactly.
"""

from __future__ import annotations

import base64
import hashlib
import json

import numpy as np

#: Tag marking an encoded ndarray (or numpy scalar as a 0-d array).
NDARRAY_TAG = "__ndarray__"

#: String :func:`dump` writes where a payload goes (``{}``: attempt).
PLACEHOLDER = "\x00ndarray\x00{}"

#: Every byte base64 output may contain; none of them is JSON-escaped.
_BASE64_ALPHABET = (b"ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                    b"abcdefghijklmnopqrstuvwxyz0123456789+/=")


class _Payload:
    """Base64 bytes of one array, spliced verbatim by :func:`dump`."""

    __slots__ = ("data",)

    def __init__(self, data: bytes):
        self.data = data


def encode(value):
    """Recursively convert a value into JSON-serializable form.

    Dicts, lists and tuples are walked (tuples become lists -- JSON has
    no tuple type); numpy arrays and scalars become tagged objects;
    everything else must already be JSON-native.
    """
    return _walk(value, spliced=False)


def skeleton(value):
    """:func:`encode` with array payloads left as bytes for :func:`dump`.

    Base64 text already inside a tagged array is lifted out too, so a
    parsed envelope body and a freshly encoded one dump and digest
    through the same splice.
    """
    return _walk(value, spliced=True)


def decode(value):
    """Inverse of :func:`encode`; numpy scalars regain their dtype."""
    if isinstance(value, dict):
        if NDARRAY_TAG in value:
            return _decode_array(value)
        return {key: decode(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode(item) for item in value]
    return value


def _walk(value, *, spliced: bool):
    if isinstance(value, dict):
        out = {_string_key(key): _walk(item, spliced=spliced)
               for key, item in value.items()}
        if spliced and NDARRAY_TAG in out:
            text = out.get("data")
            if type(text) is str and text.isascii():
                data = text.encode("ascii")
                if not data.translate(None, _BASE64_ALPHABET):
                    out["data"] = _Payload(data)
        return out
    if isinstance(value, (list, tuple)):
        return [_walk(item, spliced=spliced) for item in value]
    if isinstance(value, np.ndarray):
        return _encode_array(value, spliced)
    if isinstance(value, np.generic):
        # bool_/integer/floating scalars: a 0-d array keeps the dtype.
        return _encode_array(np.asarray(value), spliced)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot encode {type(value).__name__} for the store")


def _string_key(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"store dict keys must be strings, got {key!r}")
    return key


def _encode_array(array: np.ndarray, spliced: bool) -> dict:
    if array.dtype.hasobject:
        raise TypeError("object arrays cannot be stored")
    data = base64.b64encode(np.ascontiguousarray(array).tobytes())
    return {
        NDARRAY_TAG: True,
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "data": _Payload(data) if spliced else data.decode("ascii"),
    }


def _decode_array(payload: dict):
    raw = base64.b64decode(payload["data"])
    array = np.frombuffer(raw, dtype=np.dtype(payload["dtype"]))
    array = array.reshape(payload["shape"]).copy()
    if array.ndim == 0:
        return array[()]  # numpy scalar with the original dtype
    return array


def dump(skel, *, sort_keys: bool = False) -> list[bytes]:
    """Compact JSON of a :func:`skeleton`, as byte pieces.

    The C encoder writes a placeholder string for each payload; the
    output is split at those placeholders and the payload bytes go in
    between.  A placeholder that also occurs elsewhere in the text (a
    key or string equal to it) would misplace the split, so the count
    is checked and a fresh placeholder is tried on any mismatch.
    """
    attempt = 0
    while True:
        placeholder = PLACEHOLDER.format(attempt)
        attempt += 1
        payloads: list[bytes] = []

        def hold(value, placeholder=placeholder, payloads=payloads):
            if not isinstance(value, _Payload):
                raise TypeError(f"Object of type {type(value).__name__} "
                                f"is not JSON serializable")
            payloads.append(value.data)
            return placeholder

        text = json.dumps(skel, sort_keys=sort_keys,
                          separators=(",", ":"), default=hold)
        token = json.dumps(placeholder)
        if not payloads:
            return [text.encode()]
        if text.count(token) != len(payloads):
            continue  # the placeholder collides with a string
        parts = text.split(token)
        pieces = [parts[0].encode()]
        for data, part in zip(payloads, parts[1:]):
            pieces += (b'"', data, b'"', part.encode())
        return pieces


def digest(skel) -> str:
    """SHA-256 hex digest of a skeleton's canonical (sorted) JSON.

    The pieces stream into the hash; the canonical text is never
    joined.  This is the store's one definition of both the key hash
    and the artifact body checksum.
    """
    sha = hashlib.sha256()
    for piece in dump(skel, sort_keys=True):
        sha.update(piece)
    return sha.hexdigest()


def canonical_json(payload) -> str:
    """Deterministic JSON text of a payload (keys sorted, compact)."""
    return b"".join(dump(skeleton(payload), sort_keys=True)).decode()


def key_hash(payload) -> str:
    """SHA-256 hex digest of a key payload's canonical JSON."""
    return digest(skeleton(payload))
