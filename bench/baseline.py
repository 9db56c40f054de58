"""The frozen baseline: the program as it was when the benchmark was made.

The benchmark runs on shared machines whose speed drifts by tens of
percent over minutes, as other tenants come and go. A timing taken
alone follows that drift more than the program. So the timed loop pairs
every invocation of the program under test with the same invocation of
``baseline/promptpress``, a verbatim copy of ``src/promptpress`` at the
commit that defined the benchmark, run on the same inputs right after
it. The drift slows both alike and cancels in their ratio, while a
change to the program shows in full, since the copy never changes.

The baseline runs in a child process of its own (this file run as a
script), so that it shares no module state, caches or memory with the
program, and the benchmark process's peak RSS is the program's alone.
The child makes its own inputs and fixtures from the same seed with its
own code, then serves one invocation per request line on stdin and
answers with one JSON line on stdout. It runs only while the parent
waits for it, never alongside the program.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BASELINE_SRC = HERE / "baseline"


class Baseline:
    """The parent's handle on the baseline child process.

    Use as a context manager: leaving the block ends the child and waits
    for it, on every path out. The child starts at once; call
    :meth:`wait_ready` before the first :meth:`run`.
    """

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        work.mkdir()
        self._log = open(work / "baseline.stderr", "w+", encoding="utf-8")
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--work", str(work)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log,
            text=True, cwd=work,
        )

    def __enter__(self) -> "Baseline":
        return self

    def wait_ready(self) -> None:
        """Wait until the child has made its inputs and warmed up."""
        self._reply()

    def __exit__(self, *exc) -> None:
        self.close()

    def run(self, i: int) -> dict:
        """Invocation ``i`` of the workload, with a set-up probe before it."""
        self._proc.stdin.write(f"{i}\n")
        self._proc.stdin.flush()
        return self._reply()

    def _reply(self) -> dict:
        line = self._proc.stdout.readline()
        if not line:
            self._log.seek(0)
            raise RuntimeError("baseline process ended: " + self._log.read()[-2000:])
        return json.loads(line)

    def close(self) -> None:
        if self._proc.stdin and not self._proc.stdin.closed:
            try:
                self._proc.stdin.close()  # end of requests: the child exits
            except BrokenPipeError:
                pass
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
        self._log.close()


def _serve(workload_name: str, seed: int, work: Path) -> int:
    sys.path.insert(0, str(BASELINE_SRC))
    sys.path.insert(1, str(HERE))
    import promptpress.cli as cli
    from workloads import WORKLOADS, invoke

    if Path(cli.__file__).resolve().parent != BASELINE_SRC / "promptpress":
        print(f"error: baseline imported from {cli.__file__}", file=sys.stderr)
        return 2
    workload = WORKLOADS[workload_name]()
    workload.prepare(cli, work, seed)
    warm = invoke(cli, workload.warmup_argv())
    if warm.code != 0:
        print(f"baseline warm-up failed: {warm.stderr.strip()}", file=sys.stderr)
        return 1
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        i = int(line)
        probe = invoke(cli, workload.argv(i), workload.first_unit, probe=True)
        inv = invoke(cli, workload.argv(i), workload.first_unit)
        if probe.setup_s is None or inv.code != 0:
            print(f"baseline invocation {i} failed: {inv.stderr.strip()}", file=sys.stderr)
            return 1
        print(json.dumps({"setup_s": [probe.setup_s, inv.setup_s],
                          "work_s": inv.work_s}), flush=True)
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Serve the frozen baseline's invocations.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()
    sys.exit(_serve(args.workload, args.seed, args.work))
