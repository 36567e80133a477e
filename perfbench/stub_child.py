"""Run faasplan's StubServer in its own process until stdin closes.

Usage: python3 stub_child.py DELAY_MS SEED
Prints the stub's URL on one line once it is listening.
"""

import sys

from faasplan.harness import StubServer


def main() -> int:
    delay_ms, seed = float(sys.argv[1]), int(sys.argv[2])
    with StubServer(delay_ms=delay_ms, jitter_ms=0.0, seed=seed) as stub:
        print(stub.url, flush=True)
        sys.stdin.read()
    return 0


if __name__ == "__main__":
    sys.exit(main())
