"""Install the benchmark's span tracing in a child process.

``bench/run.py --trace`` puts this directory on ``PYTHONPATH`` and sets
``REPRO_BENCH_TRACE`` to a span directory before it starts pool workers
or ``repro serve``; Python imports ``sitecustomize`` at start-up, so
every process of the traced run wraps the same layer functions.
Without the variable this module does nothing.
"""

import os

if os.environ.get("REPRO_BENCH_TRACE"):
    import sys

    sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import benchtrace

    benchtrace.install_in_child(os.environ[benchtrace.ENV])
