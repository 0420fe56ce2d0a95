"""The native kernels: ``ggm_walk.c`` built once against libcrypto and loaded with ctypes.

The library walks the GGM tree on the CPU's SHA instructions where CPUID
reports them, else through libcrypto, and walks a group of more than 8 paths
from one root in the 16 lanes of AVX-512 registers where the CPU has them;
``c_walk_name()`` and ``wide_walk_name()`` say which.

``load_leaf()`` returns a function with the contract of ``crypto._hashlib_leaf``,
``load_sim()`` and ``load_reald()`` ones that build the records of a whole Sim
and a whole RealD distribution, and ``load_decrypt()`` one that decrypts a PE
ciphertext; each returns None where the kernel cannot be had: no ``cc`` on
``PATH``, no OpenSSL headers or libcrypto to link, no cache directory that only
this user can write, or a library that does not load.  ``first_use`` is the one
rule that picks a kernel over its Python twin, which gives the same bytes, and
``kernels()`` reports each pick and the C walks.

The library is cached in ``$XDG_CACHE_HOME/qwmark`` (``~/.cache/qwmark`` when
that is unset), under a name that is a digest of the source and the compile
command, so an edited source or command builds a new file and a cached load
runs no compiler.  A build writes to a temporary file in that directory and
publishes it with an atomic rename, so processes that build at once each load
a whole library; it then unlinks the libraries of other sources or commands
but the ``KEEP_OTHERS`` newest, so that two checkouts run in turn each keep
theirs, while a process that mapped one keeps its mapping.

A leaf call writes into a buffer kept per block count, and a decryption into
one kept per plaintext width, since a fresh one costs more than the call.
``PyDLL`` keeps the GIL through a call, and neither declares ``argtypes``,
which cut the call overhead from 0.9 to 0.3 us.  The shared buffers make
both one thread's at a time, as qwmark calls them.  The Sim and RealD kernels
write their records field by field, each field's column whole before the
next, and each column reaches Python as one ``struct`` unpack mapped to ints
or strings, with no Python statement per record.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import struct
import tempfile
from functools import lru_cache
from itertools import repeat
from pathlib import Path

SOURCE = Path(__file__).with_name("ggm_walk.c")
COMPILE = ("cc", "-O2", "-shared", "-fPIC")
LINK = ("-lcrypto",)
BUILD_TIMEOUT_S = 60
KEEP_OTHERS = 1  # libraries of other sources or commands that a build leaves, the most recently built first


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
            with contextlib.suppress(OSError):  # another process pruned one first: leave the rest to the next build
                others = set(target.parent.glob("ggm_walk-*.so")) - {target}  # never a .build- temporary
                for stale in sorted(others, key=lambda other: other.stat().st_mtime_ns, reverse=True)[KEEP_OTHERS:]:
                    stale.unlink(missing_ok=True)
        return done.returncode == 0
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@lru_cache(maxsize=None)
def _library():
    """The kernel library, built or loaded from the cache; None if it cannot be had."""
    try:
        source = SOURCE.read_bytes()
        machine = os.uname()
        key = b"\0".join([source, *map(str.encode, (*COMPILE, *LINK, machine.sysname, machine.machine))])
        target = _cache_dir() / f"ggm_walk-{hashlib.sha256(key).hexdigest()[:16]}.so"
        if not _private(target.parent):
            return None
        if not target.exists() and not _build(target):
            return None
        return ctypes.PyDLL(str(target))
    except OSError:  # no compiler, no cache directory, or a library that does not load
        return None


def _kernel(name: str, restype, library):
    """Function `name` of `library` (the cached one if None), returning `restype`; None if there is none."""
    kernel = getattr(_library() if library is None else library, name, None)
    if kernel is not None:
        kernel.restype = restype
    return kernel


_PICKS = {}  # report name -> a function naming the kernel picked, one per ``first_use``


def first_use(name: str, load, twin, probes, twin_name: str):
    """A function returning the kernel to run, picked on its first call.

    That is ``load()`` if it returns a kernel that agrees with `twin` on every
    probe, else `twin`; ``kernels()`` reports it as "native" or `twin_name`.
    `probes`, an iterable of argument tuples, is iterated then, and only once.
    The twin runs first on each probe: a kernel may fill a memo that the twin
    would read, as the RealD kernel fills the leaf memo.
    """

    @lru_cache(maxsize=None)
    def picker():
        kernel = load()
        if kernel is not None and all(twin(*probe) == kernel(*probe) for probe in probes):
            return kernel
        return twin

    _PICKS[name] = lambda: twin_name if picker() is twin else "native"
    return picker


def kernels() -> dict[str, str | None]:
    """Each kernel this process runs, under its ``first_use`` name and picked now if not yet, then the C walks.

    The package imports every module that picks a kernel, so the report holds
    "ggm_walk", "decrypt", "sim_kernel" and "reald_kernel"; "c_walk" is
    ``c_walk_name()`` and "wide_walk" is ``wide_walk_name()``.
    """
    picks = {name: report() for name, report in _PICKS.items()}
    return {**picks, "c_walk": c_walk_name(), "wide_walk": wide_walk_name()}


def c_walk_name(library=None) -> str | None:
    """Which C walk down the GGM tree `library` runs, "sha-ni" or "libcrypto"; None if there is no library.

    The library picks it once per process from CPUID; both give the same bytes.
    """
    kernel = _kernel("qwmark_sha_ni", ctypes.c_int, library)
    if kernel is None:
        return None
    return "sha-ni" if kernel() else "libcrypto"


def wide_walk_name(library=None) -> str | None:
    """Whether `library` walks a group of more than 8 paths in 16 AVX-512 lanes, "avx512", or not, "none";
    None if there is no library.

    The library picks it once per process from CPUID and XGETBV; both give the
    same bytes.
    """
    kernel = _kernel("qwmark_avx512", ctypes.c_int, library)
    if kernel is None:
        return None
    return "avx512" if kernel() else "none"


def _fields(raw: bytes, at: int, width: int, count: int) -> tuple[bytes, ...]:
    """The `count` fields of `width` bytes each that lie end to end in `raw` from `at`."""
    return struct.unpack_from(f"{width}s" * count, raw, at)


def _ints(fields) -> list[int]:
    """Each of `fields` read as a big-endian int."""
    return list(map(int.from_bytes, fields, repeat("big")))


def _texts(fields) -> list[str]:
    """Each of `fields`, a bit string in ASCII, as a str."""
    return list(map(bytes.decode, fields))


def load_leaf(library=None):
    """The native leaf(seed, path, width, n_blocks) -> bytes of `library` (the cached one if None); None if none."""
    kernel = _kernel("qwmark_ggm_leaf", None, library)
    if kernel is None:
        return None
    buffers = {}

    def leaf(seed: bytes, path: int, width: int, n_blocks: int) -> bytes:
        """``crypto._hashlib_leaf``'s contract in one native call."""
        out = buffers.get(n_blocks) or buffers.setdefault(n_blocks, ctypes.create_string_buffer(32 * n_blocks or 16))
        kernel(seed, (path << (-width % 8)).to_bytes(-(-width // 8), "big"), width, n_blocks, out)
        return out.raw

    return leaf


def load_sim(library=None):
    """The native sim(head, count, seed_bits, idx_bits, index0, range_bits, f_seed, affine, g_seed).

    It runs in `library`, the cached one if None, and is None if it cannot be
    had.  It returns the `count` records (m, x, y) of a Sim distribution as
    the lists ms and xs of their m and x, as ints, and x_texts and y_texts of
    their x and y as bit strings; ``qwmark_sim`` in ``ggm_walk.c`` states what
    they are and what the arguments mean.
    """
    kernel = _kernel("qwmark_sim", ctypes.c_int, library)
    if kernel is None:
        return None
    kernel.argtypes = (ctypes.c_char_p, *[ctypes.c_uint] * 6, *[ctypes.c_char_p] * 4)

    def sim(head, count, seed_bits, idx_bits, index0, range_bits, f_seed, affine, g_seed):
        ell = seed_bits + idx_bits + 1
        m_bytes, x_bytes = -(-ell // 8), -(-12 * ell // 8)
        # the kernel reads and writes as far as these say, so they must hold before it runs
        if not (
            0 <= count <= 0xFFFF_FFFF
            and 0 <= index0 < 1 << idx_bits <= 1 << 16
            and 1 <= range_bits <= 0xFFFF_FFFF
            and len(f_seed) == len(g_seed) == 16
            and len(affine) == (3 * ell + 1) * -(-9 * ell // 8)
        ):
            raise ValueError("the Sim kernel's arguments do not match its widths")
        out = ctypes.create_string_buffer(count * (m_bytes + x_bytes + 12 * ell + range_bits))
        if kernel(head, len(head), count, seed_bits, idx_bits, index0, range_bits, f_seed, affine, g_seed, out):
            raise MemoryError("the native Sim kernel could not allocate its scratch memory")
        raw, x_at = out.raw, count * m_bytes
        text_at = x_at + count * x_bytes
        return (
            _ints(_fields(raw, 0, m_bytes, count)),
            _ints(_fields(raw, x_at, x_bytes, count)),
            _texts(_fields(raw, text_at, 12 * ell, count)),
            _texts(_fields(raw, text_at + count * 12 * ell, range_bits, count)),
        )

    return sim


def load_reald(library=None):
    """The native reald(head, count, n, m, root) of `library` (the cached one if None); or None.

    It returns the `count` records (b, x, y) of a RealD distribution under the
    n-bit to m-bit GGM PRF of root seed `root`: their bits b as bytes, the
    lists xs and ys of their x and y as ints, and x_texts and y_texts of their
    x and y as bit strings; ``qwmark_reald`` in ``ggm_walk.c`` states what they
    are and what the arguments mean.
    """
    kernel = _kernel("qwmark_reald", ctypes.c_int, library)
    if kernel is None:
        return None
    kernel.argtypes = (ctypes.c_char_p, *[ctypes.c_uint] * 4, ctypes.c_char_p, ctypes.c_char_p)

    def reald(head, count, n, m, root):
        x_bytes, y_bytes = -(-n // 8), -(-m // 8)
        # the kernel reads and writes as far as these say, so they must hold before it runs
        if not (0 <= count <= 0xFFFF_FFFF and 1 <= n <= 0xFFFF_FFFF and 1 <= m <= 0xFFFF_FFFF and len(root) == 16):
            raise ValueError("the RealD kernel's arguments do not match its widths")
        out = ctypes.create_string_buffer(count * (1 + x_bytes + y_bytes + n + m))
        if kernel(head, len(head), count, n, m, root, out):
            raise MemoryError("the native RealD kernel could not allocate its scratch memory")
        raw, y_at, text_at = out.raw, count * (1 + x_bytes), count * (1 + x_bytes + y_bytes)
        return (
            raw[:count],
            _ints(_fields(raw, count, x_bytes, count)),
            _ints(_fields(raw, y_at, y_bytes, count)),
            _texts(_fields(raw, text_at, n, count)),
            _texts(_fields(raw, text_at + count * n, m, count)),
        )

    return reald


def load_decrypt(library=None):
    """The native decrypt(dk, c) of `library` (the cached one if None), ``pe._python_decrypt``'s contract; or None."""
    kernel = _kernel("qwmark_decrypt", ctypes.c_int, library)
    if kernel is None:
        return None
    buffers = {}

    def decrypt(dk, c: int) -> int | None:
        ell, f_seed, affine, g_seed = dk.ell, dk.f_key.ggm.seed, dk.f_key._packed_affine, dk.g_key.seed
        # the kernel reads and writes as far as these say, so they must hold before it runs
        widths = (len(f_seed), len(affine), len(g_seed)) == (16, (3 * ell + 1) * -(-9 * ell // 8), 16)
        if not (ell >= 1 and widths and 0 <= c and c.bit_length() <= 12 * ell):
            raise ValueError("the decryption kernel's arguments do not match its widths")
        out = buffers.get(ell) or buffers.setdefault(ell, ctypes.create_string_buffer(-(-ell // 8)))
        found = kernel(c.to_bytes(-(-12 * ell // 8), "big"), ell, f_seed, affine, g_seed, out)
        if found < 0:
            raise MemoryError("the native decryption kernel could not allocate its scratch memory")
        return int.from_bytes(out.raw, "big") if found else None

    return decrypt
