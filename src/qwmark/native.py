"""The native GGM walk: ``ggm_walk.c`` built once against libcrypto and loaded with ctypes.

``load_walk()`` returns a function with the contract of ``crypto._walk``, or
None where the kernel cannot be had: no ``cc`` on ``PATH``, no OpenSSL headers
or libcrypto to link, no cache directory that only this user can write, or a
library that does not load.  The caller then keeps the hashlib walk, which
gives the same bytes.

The library is cached in ``$XDG_CACHE_HOME/qwmark`` (``~/.cache/qwmark`` when
that is unset), under a name that is a digest of the source and the compile
command, so an edited source or command builds a new file and a cached load
runs no compiler.  A build writes to a temporary file in that directory and
publishes it with an atomic rename, so processes that build at once each load
a whole library.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import tempfile
from pathlib import Path

SOURCE = Path(__file__).with_name("ggm_walk.c")
COMPILE = ("cc", "-O2", "-shared", "-fPIC")
LINK = ("-lcrypto",)
BUILD_TIMEOUT_S = 60


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):  # the XDG rule: a relative or empty value is ignored
        root = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root) / "qwmark"


def _private(directory: Path) -> bool:
    """Make `directory` if need be; true if this user owns it and no one else may write to it."""
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    st = directory.stat()
    return st.st_uid == os.getuid() and not st.st_mode & 0o022


def _build(target: Path) -> bool:
    """Compile the kernel and publish it at `target`; false if the compiler fails or runs out of time."""
    import subprocess  # only a build needs it, so a cached load imports nothing more

    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=target.parent)
    os.close(fd)
    try:
        command = [*COMPILE, "-o", tmp, str(SOURCE), *LINK]
        try:
            done = subprocess.run(command, stdin=subprocess.DEVNULL, capture_output=True, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False
        if done.returncode == 0:
            os.replace(tmp, target)
        return done.returncode == 0
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_walk():
    """The native walk(seed, path) -> bytes, built or loaded from the cache; None if it cannot be had."""
    try:
        source = SOURCE.read_bytes()
        machine = os.uname()
        key = b"\0".join([source, *map(str.encode, (*COMPILE, *LINK, machine.sysname, machine.machine))])
        target = _cache_dir() / f"ggm_walk-{hashlib.sha256(key).hexdigest()[:16]}.so"
        if not _private(target.parent):
            return None
        if not target.exists() and not _build(target):
            return None
        kernel = ctypes.CDLL(str(target)).qwmark_ggm_walk
    except (OSError, AttributeError):  # no compiler, no cache directory, or a library that does not load
        return None
    kernel.argtypes = (ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p)
    kernel.restype = None
    buffer = ctypes.create_string_buffer

    def walk(seed: bytes, path: str) -> bytes:
        """Seed of the node reached from the SEED_BYTES-byte `seed` along the validated bit path."""
        out = buffer(16)  # SEED_BYTES, as in ggm_walk.c
        kernel(seed, path.encode(), out)
        return out.raw

    return walk
