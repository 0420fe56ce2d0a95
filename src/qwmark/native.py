"""The native GGM leaf: ``ggm_walk.c`` built once against libcrypto and loaded with ctypes.

``load_leaf()`` returns a function with the contract of ``crypto._hashlib_leaf``,
or None where the kernel cannot be had: no ``cc`` on ``PATH``, no OpenSSL headers
or libcrypto to link, no cache directory that only this user can write, or a
library that does not load.  The caller then keeps the hashlib leaf, which
gives the same bytes.

The library is cached in ``$XDG_CACHE_HOME/qwmark`` (``~/.cache/qwmark`` when
that is unset), under a name that is a digest of the source and the compile
command, so an edited source or command builds a new file and a cached load
runs no compiler.  A build writes to a temporary file in that directory and
publishes it with an atomic rename, so processes that build at once each load
a whole library.

One call walks a packed path and hashes the leaf blocks into a buffer kept
per block count, since a fresh one costs more than the call.  ``PyDLL`` keeps
the GIL through a call, and no ``argtypes`` are declared for the one caller,
which cut the call overhead from 0.9 to 0.3 us.  The shared buffers make the
leaf one thread's at a time, as qwmark calls it.
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


def load_leaf():
    """The native leaf(seed, path, width, n_blocks) -> bytes, built or loaded from the cache; None if it cannot be had."""
    try:
        source = SOURCE.read_bytes()
        machine = os.uname()
        key = b"\0".join([source, *map(str.encode, (*COMPILE, *LINK, machine.sysname, machine.machine))])
        target = _cache_dir() / f"ggm_walk-{hashlib.sha256(key).hexdigest()[:16]}.so"
        if not _private(target.parent):
            return None
        if not target.exists() and not _build(target):
            return None
        kernel = ctypes.PyDLL(str(target)).qwmark_ggm_leaf
    except (OSError, AttributeError):  # no compiler, no cache directory, or a library that does not load
        return None
    kernel.restype = None
    buffers = {}

    def leaf(seed: bytes, path: int, width: int, n_blocks: int) -> bytes:
        """``crypto._hashlib_leaf``'s contract in one native call."""
        out = buffers.get(n_blocks) or buffers.setdefault(n_blocks, ctypes.create_string_buffer(32 * n_blocks or 16))
        kernel(seed, (path << (-width % 8)).to_bytes(-(-width // 8), "big"), width, n_blocks, out)
        return out.raw

    return leaf
