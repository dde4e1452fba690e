"""Set-up of one parfluor process, up to the point of its first timed call.

Run as `python3 perfbench/setup_probe.py <parfluor argv>`: imports the
package from the checkout's `src`, resolves the configuration of the given
command line and loads its crystal material, then prints the monotonic clock.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from parfluor import cli  # noqa: E402

config = cli.load_config(cli.build_parser().parse_args(sys.argv[1:]))
cli.build_crystal(config)
print(repr(time.monotonic()))
