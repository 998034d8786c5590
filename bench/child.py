"""A pass child's entry point: ``python -m bench.child``.

Starts the set-up clock before the simulator and numpy are imported, so
a pass's ``setup_s`` scales the imports by the host speed they ran at,
then hands over to :func:`bench.passes.main`.
"""

import sys

from bench.speed import ScaledTimer

if __name__ == "__main__":
    setup = ScaledTimer()
    setup.start()
    from bench.passes import main

    sys.exit(main(setup=setup))
