import json
import os
import subprocess
import sys

import pytest
from golden_host import _umath, fingerprint, mismatch_section, pinned

HOST = fingerprint()
AVX512_TARGETS = ["X86_V4", "AVX512_ICL", "AVX512_SPR"]


def _fingerprint_under(**env):
    """The fingerprint a fresh interpreter reports with ``env`` added."""
    script = os.path.join(os.path.dirname(__file__), "golden_host.py")
    out = subprocess.run([sys.executable, script], env={**os.environ, **env},
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


@pytest.mark.skipif(not (_umath.__cpu_features__.get("AVX2")
                         and "DYNAMIC_ARCH" in (HOST["openblas_config"] or "")),
                    reason="needs numpy's bundled DYNAMIC_ARCH OpenBLAS on an AVX2 host")
def test_forced_openblas_core_shows_in_the_fingerprint():
    assert _fingerprint_under(OPENBLAS_CORETYPE="Haswell")["openblas_core"] == "Haswell"


@pytest.mark.skipif(HOST["simd_dispatch"] != ["X86_V3", *AVX512_TARGETS],
                    reason="needs numpy's X86_V3 and AVX-512 dispatch targets enabled")
def test_disabled_simd_targets_show_in_the_fingerprint():
    got = _fingerprint_under(NPY_DISABLE_CPU_FEATURES=" ".join(AVX512_TARGETS))
    assert got["simd_dispatch"] == ["X86_V3"]


def test_pinned_fingerprint_has_every_field():
    assert set(pinned()) == set(HOST)


def test_mismatch_section_names_only_compared_fields_that_differ():
    assert mismatch_section(HOST, HOST) is None
    # Python and the thread variables are printed but never compared.
    assert mismatch_section(HOST, {**HOST, "python": "0.0",
                                   "threads": {"OMP_NUM_THREADS": "2"}}) is None
    section = mismatch_section(HOST, {**HOST, "openblas_core": "OtherCore"})
    assert f"openblas_core: pinned on {HOST['openblas_core']!r}, this host runs 'OtherCore'" in section
    assert "numpy:" not in section and "simd_" not in section
