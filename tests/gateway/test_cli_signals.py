"""``repro gateway`` drains on a SIGTERM sent the instant it reports
readiness: the signal handlers are in place before the "listening"
line is printed, so the process exits 0 and takes its shards with it.

The child raises SIGTERM at itself from inside the write of that line,
so the signal cannot land any later than a client reacting to it
could, and the check does not depend on scheduling."""

import os
import signal
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

CHILD = """
import os, signal, sys
from repro.cli import main

class SignalOnReady:
    def __init__(self, stream):
        self.stream = stream
    def write(self, text):
        self.stream.write(text)
        if text.startswith("gateway listening"):
            self.stream.flush()
            os.kill(os.getpid(), signal.SIGTERM)
        return len(text)
    def flush(self):
        self.stream.flush()

sys.stderr = SignalOnReady(sys.stderr)
sys.exit(main(["gateway", "--port", "0", "--workers", "2"]))
"""


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def test_sigterm_at_readiness_drains_and_exits_zero():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    # Own session, so the shards can be found (and reaped) by group.
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD], stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, env=env, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=60)
        assert "gateway listening on" in err, err
        assert proc.returncode == 0, err
        assert not _group_alive(proc.pid), "a shard outlived the gateway"
    finally:
        if proc.poll() is None:
            proc.kill()
        if _group_alive(proc.pid):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
