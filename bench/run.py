"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload {cli_mixed,acked_jitter} --seed N \
        --seconds S --trace {0,1}

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  See bench/README.md.
"""

import sys

from bench_core import main

if __name__ == "__main__":
    sys.exit(main())
