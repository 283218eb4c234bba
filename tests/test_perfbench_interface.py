"""The benchmark's library requests run against the current API.

perfbench/workloads.py calls the README quick-start functions (passing the
FdConfig positionally) and perfbench/checks.py reads QfiReport and
PostSelectionOutcome fields.  A signature or field change fails here, in
Tier-1, rather than as failed operations of a benchmark run.  perfbench/ is
put on sys.path, as scripts/ is for tests/test_golden.py; nothing in it changes.
"""

import sys
from pathlib import Path

import ptsense
from ptsense.errors import PtsenseError
from ptsense.metrology import qfi_sld, qfi_spectral, qfi_two_level

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
import workloads  # noqa: E402

FORMS = (qfi_sld, qfi_spectral, qfi_two_level)


def test_first_library_requests_pass_the_benchmark_checks(tmp_path):
    for request in workloads.build("library-calls", 7, tmp_path)[:20]:
        out = {}
        try:
            workloads.run_request(ptsense, request, out)
        except PtsenseError:
            pass  # typed: the benchmark counts it as undefined, not as a failure
        assert not checks.check_request(out, FORMS), request
