"""What a fresh CLI process loads, and what its heap does between commands.

Each check runs in a fresh interpreter, since this test session has already
imported the whole package.
"""

import json
import os
import platform
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

GOLDEN = {"type": "circle_rotation",
          "t0": {"form": "quadratic", "a": -1, "b": 1, "c": 2, "d": 5}}


def _python(code):
    """Standard output of `code` run by a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_cli_import_loads_no_command_module():
    loaded = set(json.loads(_python(
        "import json, sys, koopman_cert.cli, koopman_cert.config\n"
        "print(json.dumps(sorted(sys.modules)))")))
    assert loaded & {"koopman_cert.studies", "koopman_cert.bounds", "koopman_cert.spectral",
                     "koopman_cert.variance", "concurrent.futures", "csv"} == set()


def test_package_names_resolve_on_first_use():
    names = json.loads(_python(
        "import json, koopman_cert\n"
        "print(json.dumps({n: type(getattr(koopman_cert, n)).__name__ "
        "for n in koopman_cert.__all__}))"))
    assert names == {"bounds": "module", "dictionaries": "module", "edmd": "module",
                     "galerkin": "module", "spectral": "module", "studies": "module",
                     "systems": "module", "variance": "module", "backend_name": "function",
                     "__version__": "str"}
    _python("import koopman_cert\n"
            "assert not hasattr(koopman_cert, 'cli_main')")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc's")
def test_second_study_takes_no_page_faults(tmp_path):
    """Two identical `study` commands in one process: the second reuses the
    heap pages the first freed (without the policy it faults about 660)."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": GOLDEN, "dictionary": {"kind": "fourier",
                                                                "max_freq": 4},
                               "m_grid": [100, 316, 1000, 3162], "n_trials": 200,
                               "seed": 1}))
    argv = ["study", "--config", str(cfg), "--out", str(tmp_path)]
    faults = json.loads(_python(
        "import json, resource\n"
        "from koopman_cert import cli\n"
        "faults = []\n"
        "for _ in range(2):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        f"    assert cli.main({argv!r}) == 0\n"
        "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        "print(json.dumps(faults))"))
    assert faults[1] < 50, faults
