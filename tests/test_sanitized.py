"""The C kernels under AddressSanitizer and UBSan.

The default build and the ``-DQWMARK_NO_SHA_NI`` build of ``ggm_walk.c`` are
compiled with the sanitizers and each runs ``sanitized_twin.py`` in a child
Python with the sanitizer runtimes preloaded, which calls every entry point
against its Python twin at the width and count edges.  An out-of-bounds access
or undefined behaviour aborts the child, so a kernel that only happens to give
the right bytes fails here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from qwmark import native

from conftest import child_env

HERE = Path(__file__).resolve().parent
SANITIZE = ("-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all")
BUILDS = {"default": (), "no-sha-ni": ("-DQWMARK_NO_SHA_NI",)}


def sanitizer_runtimes() -> list[str]:
    """The paths of cc's libasan.so and libubsan.so; skip, naming what is missing, where there are none."""
    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH")
    paths = []
    for name in ("libasan.so", "libubsan.so"):
        found = subprocess.run(["cc", f"-print-file-name={name}"], capture_output=True, text=True, timeout=60)
        path = found.stdout.strip()
        if found.returncode != 0 or not os.path.isabs(path) or not os.path.exists(path):
            pytest.skip(f"cc has no {name}")
        paths.append(path)
    return paths


def test_every_kernel_matches_its_twin_under_the_sanitizers(tmp_path):
    preload = " ".join(sanitizer_runtimes())
    libraries = {name: tmp_path / f"ggm_walk-{name}.so" for name in BUILDS}
    builds = {
        name: subprocess.Popen(
            ["cc", *SANITIZE, *BUILDS[name], "-shared", "-fPIC", "-o", libraries[name], native.SOURCE, *native.LINK],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        for name in BUILDS
    }
    for name, build in builds.items():
        output = build.communicate(timeout=native.BUILD_TIMEOUT_S)[0]
        assert build.returncode == 0, f"{name}: {output}"
    # the twins never pick a kernel, so the children need no cache of their own; one is given so that none is touched
    env = dict(child_env(tmp_path / "cache"), LD_PRELOAD=preload, ASAN_OPTIONS="detect_leaks=0")
    twins = {
        name: subprocess.Popen(
            [sys.executable, HERE / "sanitized_twin.py", libraries[name]],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for name in BUILDS
    }
    walks = {}
    for name, twin in twins.items():
        stdout, stderr = twin.communicate(timeout=300)
        assert twin.returncode == 0, f"{name}: {stderr}"
        walks[name] = stdout.split()
    assert walks["no-sha-ni"][0] == "libcrypto" and walks["default"][1] == walks["no-sha-ni"][1]
