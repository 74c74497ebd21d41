"""Run one ``ucpscatter`` command as the console script does, and time it.

    python3 perfbench/clirun.py transmission --L 5 ...

The command's output goes to stdout unchanged.  The last line on stderr is
``PERFBENCH {json}`` with the import time of ``ucpscatter.cli``, the wall time
of ``main()`` (parsing, computing and writing, not interpreter start) and the
peak resident set of this process and of any worker it reaped, in KiB.
"""

import sys
import time

t_start = time.perf_counter()
from ucpscatter.cli import main  # noqa: E402  (the import is what is timed)

t_imported = time.perf_counter()
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code if isinstance(exc.code, int) else 1
sys.stdout.flush()
t_done = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402

peak_kib = max(
    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
)
report = {"import_s": t_imported - t_start, "main_s": t_done - t_imported, "peak_kib": peak_kib}
print("PERFBENCH " + json.dumps(report), file=sys.stderr)
sys.exit(code)
