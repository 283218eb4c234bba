"""The benchmark's library requests and seeded sweeps run against the current API.

perfbench/workloads.py calls the README quick-start functions (passing the
FdConfig positionally) and perfbench/checks.py reads QfiReport and
PostSelectionOutcome fields and parses the written datasets.  A signature,
field or dataset layout change fails here, in Tier-1, rather than as failed
operations of a benchmark run.  perfbench/ is put on sys.path, as scripts/ is
for tests/test_golden.py; nothing in it changes.
"""

import sys
from pathlib import Path

import pytest

import ptsense
from ptsense.cli import main
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


#: The metrology sweep (2 gammas x 129 taus x 8 rows) has no undefined row: xi and zeta have values at tau = 0.
@pytest.mark.parametrize("workload, rows", [("dynamics-sweeps", 16512), ("metrology-sweeps", 2064)])
def test_seeded_sweep_datasets_pass_the_benchmark_checks(tmp_path, capsys, workload, rows):
    op = next(op for op in workloads.build(workload, 7, tmp_path) if op.name == "sweep")
    assert main(list(op.argv)) == 0
    capsys.readouterr()
    report = checks.check_dataset(op.output.read_bytes(), op.fmt, op.grid)
    assert not report.failures
    assert report.rows == rows
    assert report.undefined == 0 and report.xi_bad == 0
