"""Set-up probe: import the CLI and build every system and dictionary.

Usage: python3 perfbench/probe.py CONFIG.json [CONFIG.json ...]
with src/ on PYTHONPATH (run.py sets it).  Its wall time, measured by the
caller, is what a fresh CLI process pays before it samples anything.
"""

import sys

import koopman_cert.cli  # noqa: F401  (the module a CLI process loads)
from koopman_cert.config import dictionary_from_config, load_json, system_from_config

for path in sys.argv[1:]:
    cfg = load_json(path)
    system = system_from_config(cfg["system"])
    dictionary_from_config(cfg["dictionary"], system=system)
