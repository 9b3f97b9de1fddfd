"""Helpers shared by several test modules, kept apart from every test module so that a broken fixture of one module
fails the collection of that module alone."""

import os
import subprocess
from pathlib import Path


def child(command, unbuffered=False, **kwargs) -> subprocess.Popen:
    """``command`` in a child process that imports this ``fwpp``, with
    stdout block-buffered as from a shell, or unbuffered (``PYTHONUNBUFFERED=1``)
    when ``unbuffered`` is set."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")]))
    return subprocess.Popen(command, env=env, **{"stderr": subprocess.PIPE, **kwargs})
