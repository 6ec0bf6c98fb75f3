import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from superschur import ScanConfig, generate_nilpotent, get, names
from superschur.fields import RATIONALS, Field


@pytest.fixture(scope="session")
def scan_instances():
    """The default deterministic F5 scan stream, generated once."""
    return list(generate_nilpotent(ScanConfig()))


@pytest.fixture(scope="session")
def three_field_sources(scan_instances):
    """{field: the catalog entries and a scan stream over it} for Q, F_5
    and F_7; the F_5 stream is the default one, the others have 40 samples."""
    out = {}
    for fld in (RATIONALS, Field(5), Field(7)):
        stream = scan_instances if fld == Field(5) else \
            list(generate_nilpotent(ScanConfig(field=fld, samples=40)))
        out[fld] = [get(name, fld) for name in names()] + stream
    return out
