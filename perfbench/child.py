"""Run one `butterfly-tree` CLI invocation as a child process and time it.

The parent drains the child's stdout in 64 KiB chunks into a file and a
CRC-32, so it holds no output in memory and loads no OpenSSL (hashlib adds
~3.5 MiB); SHA-256 digests are taken from the files after timing.  That
matters for `peak_rss_mib`: with vfork-based spawning the kernel starts a
child's `ru_maxrss` from the parent's peak, so a lean parent keeps the
figure the child's own.  Wall time runs from spawn to exit; CPU time and
peak RSS come from `wait4`'s rusage for that child alone.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
import zlib
from pathlib import Path
from typing import NamedTuple


class ChildRun(NamedTuple):
    wall_s: float
    cpu_s: float
    maxrss_kib: int
    returncode: int
    crc: int
    size: int
    stderr: str


def child_env(root: Path) -> dict:
    """Environment for the CLI: the checkout's sources, bytecode caching on."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_cli(root: Path, argv: tuple[str, ...], scratch: Path, keep: Path) -> ChildRun:
    """Run `python3 -m butterfly_tree.cli *argv` from `root`.

    stderr goes to a file under `scratch`, stdout to `keep`.
    """
    err_path = scratch / "child.stderr"
    with open(err_path, "wb") as err, open(keep, "wb") as copy:
        crc = 0
        size = 0
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "butterfly_tree.cli", *argv],
                                stdout=subprocess.PIPE, stderr=err, cwd=root,
                                env=child_env(root))
        try:
            fd = proc.stdout.fileno()
            while chunk := os.read(fd, 1 << 16):
                crc = zlib.crc32(chunk, crc)
                size += len(chunk)
                copy.write(chunk)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                    maxrss_kib=usage.ru_maxrss, returncode=proc.returncode,
                    crc=crc, size=size,
                    stderr=err_path.read_text(errors="replace"))
