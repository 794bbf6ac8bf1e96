"""Content-addressed JSON result cache.

Entries are keyed by the sha256 of the canonical serialization of
{"op": ..., "params": ...} and stored one file per key.  Every entry
carries its key and a digest of its payload; an entry under another key's
file name or a digest mismatch (tampering, partial write, bit rot) is
reported as a warning and treated as a miss.  Writes are atomic (temp
file + rename) and all cache failures are soft: the cache never raises,
it only declines to help.

The directory is chosen in this order: explicit argument, the
GRIFCALC_CACHE environment variable, then .grifcalc-cache under the
current directory.

sha256 comes from CPython's built-in module, as in the standard library's
random.py: hashlib would load OpenSSL's libcrypto, which a report process
otherwise never needs.  Warnings go to the "grifcalc.cache" logger, and
logging is imported only when there is one to emit.
"""

from __future__ import annotations

import json
import os

try:  # CPython 3.12+
    from _sha2 import sha256
except ImportError:
    try:  # CPython 3.10 and 3.11
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

ENV_VAR = "GRIFCALC_CACHE"
DEFAULT_DIR = ".grifcalc-cache"


def _warn(msg, *args):
    import logging
    logging.getLogger("grifcalc.cache").warning(msg, *args)


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def cache_key(op, params):
    return sha256(
        _canonical({"op": op, "params": params}).encode()).hexdigest()


def payload_digest(payload):
    return sha256(_canonical(payload).encode()).hexdigest()


class Cache(object):
    def __init__(self, directory=None):
        if directory is None:
            directory = os.environ.get(ENV_VAR) or DEFAULT_DIR
        self.directory = str(directory)

    def _path(self, key):
        return os.path.join(self.directory, key + ".json")

    def get(self, op, params):
        """Return the cached payload, or None on miss or any damage."""
        key = cache_key(op, params)
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError) as exc:
            _warn("cache entry %s unreadable (%s), ignoring", path, exc)
            return None
        if not isinstance(entry, dict) or "payload" not in entry:
            _warn("cache entry %s malformed, ignoring", path)
            return None
        if entry.get("key") != key:
            _warn("cache entry %s holds another key's entry, ignoring", path)
            return None
        if entry.get("digest") != payload_digest(entry["payload"]):
            _warn("cache entry %s fails digest check, ignoring", path)
            return None
        return entry["payload"]

    def put(self, op, params, payload):
        """Store a payload.  Failures are logged and swallowed."""
        import tempfile

        key = cache_key(op, params)
        entry = {
            "key": key,
            "digest": payload_digest(payload),
            "payload": payload,
        }
        try:
            os.makedirs(self.directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(entry, fh, sort_keys=True)
                os.replace(tmp, self._path(key))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as exc:
            _warn("cache write for %s failed (%s), continuing", key, exc)
