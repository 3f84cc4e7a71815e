"""The package's knobs do not grow: default-valued parameters and dataclass
fields, the options of the command line and the names the package exports
stay at or below their counts.

scripts/src_stats.py does the counting; a change that lowers a count lowers
its ceiling here too.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("src_stats",
                                               ROOT / "scripts" / "src_stats.py")
src_stats = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_stats)

MAX_DEFAULT_PARAMETERS = 19
MAX_DEFAULT_FIELDS = 7
MAX_CLI_OPTIONS = 54
MAX_PUBLIC_NAMES = 63


def test_default_valued_knobs_do_not_grow():
    params, fields = src_stats.default_knobs(ROOT / "src" / "ginzburg")
    assert params <= MAX_DEFAULT_PARAMETERS, params
    assert fields <= MAX_DEFAULT_FIELDS, fields


def test_cli_options_do_not_grow():
    options = src_stats.cli_options(ROOT / "src")
    assert sum(map(len, options.values())) <= MAX_CLI_OPTIONS, options


def test_public_names_do_not_grow():
    names = src_stats.public_names(ROOT / "src")
    assert len(names) <= MAX_PUBLIC_NAMES, names
