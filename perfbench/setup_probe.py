"""Set-up phase of one workload, in a fresh interpreter.

    python3 setup_probe.py SPEC_JSON

SPEC_JSON names the source directory, the workload's configs and toy CLI
argument lists.  The probe imports `nvol.cli`, parses every config, runs the
toy invocations (which pay the lazy imports each layer does on its first
call) and prints the phase times as JSON.  The caller times the whole
process, interpreter start included.
"""

import contextlib
import io
import json
import os
import sys
import time

t0 = time.perf_counter()
spec = json.loads(sys.argv[1])
sys.path.insert(0, spec["src"])
from nvol import cli  # noqa: E402

t1 = time.perf_counter()
for path in spec["configs"]:
    cli.load_config(path)
t2 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(argv) for argv in spec["first_calls"]]
t3 = time.perf_counter()
if any(codes):
    print(f"toy invocation failed with exit codes {codes}", file=sys.stderr)
    sys.exit(1)
print(json.dumps({"import.nvol_cli_s": t1 - t0, "cli.load_config_s": t2 - t1,
                  "import.lazy_s": t3 - t2}))
sys.stdout.flush()
os._exit(0)  # set-up ends here; interpreter teardown is not part of it
