"""``python -m benchmarks.e2e``: see :mod:`benchmarks.e2e.run`."""

from benchmarks.e2e.run import main

raise SystemExit(main())
