"""Builder/loader lifecycle of the native tier, each case in a fresh process.

A child interpreter gets its own cache (``XDG_CACHE_HOME`` under
``tmp_path``), loads the tier by calling one kernel and prints a JSON
line: the tier, the library path or the reason, the warnings it saw and
the bits of one scatter.  Every failure mode must end on the NumPy tier
with one warning and the same bits -- never a crash.
"""

import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from repro.kernels import reference
from repro.kernels.native import build
from tests.conftest import counting_cc

REPO = Path(__file__).resolve().parents[2]

CHILD = """
import json, sys, warnings
import numpy as np
with warnings.catch_warnings(record=True) as seen:
    warnings.simplefilter("always")
    from repro.kernels import dispatch, native
    from repro.kernels.native import build
    assert build._loaded is None, "importing must not build or load anything"
    w = np.arange(40, dtype=np.float32).reshape(10, 4) / 7
    idx = np.array([3, 9, 3, 0, 3], dtype=np.int64)
    for _ in range(2):
        dispatch.scatter_add_exact(w, idx, np.full((2, 4), 0.1, np.float32), np.array([0, 2, 5]), -0.5)
    lib, where = build.load()
print(json.dumps({"tier": native.tier(), "where": where, "bits": w.view(np.uint32).tolist(),
                  "warnings": [str(w.message) for w in seen]}))
"""


def want_bits():
    w = np.arange(40, dtype=np.float32).reshape(10, 4) / 7
    idx = np.array([3, 9, 3, 0, 3], dtype=np.int64)
    for _ in range(2):
        reference.scatter_add(
            w, idx, (np.float32(-0.5) * np.full((2, 4), 0.1, np.float32))[np.array([0, 0, 1, 1, 1])]
        )
    return w.view(np.uint32).tolist()


def child_env(cache: Path, **extra: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "CC"}
    env.update(XDG_CACHE_HOME=str(cache), PYTHONPATH=str(REPO / "src"), **extra)
    return env


def start(env: dict[str, str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", CHILD], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )


def finish(child: subprocess.Popen) -> dict:
    out, err = child.communicate(timeout=120)
    assert child.returncode == 0, err
    return json.loads(out.strip().splitlines()[-1])


def run(env: dict[str, str]) -> dict:
    return finish(start(env))


def libraries(cache: Path) -> list[str]:
    return sorted(p.name for p in (cache / "repro-kernels").glob("*"))


needs_compiler = pytest.mark.skipif(
    build.library() is None, reason=f"native tier unavailable: {build.load()[1]}"
)


def test_a_compiler_that_cannot_compile_selects_the_numpy_tier_with_one_warning(tmp_path):
    got = run(child_env(tmp_path, CC="/bin/false"))
    assert got["tier"] == "numpy" and "'/bin/false' exited 1" in got["where"]
    assert len(got["warnings"]) == 1 and "native tier unavailable" in got["warnings"][0]
    assert got["bits"] == want_bits()
    assert not (tmp_path / "repro-kernels").exists() or libraries(tmp_path) == []


def test_no_compiler_at_all_names_the_reason(tmp_path):
    got = run(child_env(tmp_path, CC="/nonexistent/cc"))
    assert got["tier"] == "numpy" and "cannot run '/nonexistent/cc'" in got["where"]
    assert len(got["warnings"]) == 1 and got["bits"] == want_bits()


@needs_compiler
class TestCacheLifecycle:
    def test_cold_then_warm_then_truncated(self, tmp_path):
        """A cold start compiles once through ``CC``; a warm start runs
        no compiler; a truncated library is rebuilt, never loaded."""
        cc, calls = counting_cc(tmp_path)
        env = child_env(tmp_path / "cache", CC=cc)

        cold = run(env)
        assert cold["tier"] == "native" and cold["warnings"] == [] and cold["bits"] == want_bits()
        (name,) = libraries(tmp_path / "cache")  # no temporary left behind
        assert cold["where"].endswith(name) and name.startswith("repro-kernels-")
        assert calls.read_text().count("x") == 1

        warm = run(env)
        assert (warm["tier"], warm["where"], warm["bits"]) == ("native", cold["where"], want_bits())
        assert calls.read_text().count("x") == 1

        library = Path(cold["where"])
        library.write_bytes(library.read_bytes()[:1000])
        again = run(env)
        assert again["tier"] == "native" and again["warnings"] == []
        assert again["bits"] == want_bits() and library.stat().st_size > 1000
        assert calls.read_text().count("x") == 2

    def test_no_writable_cache_directory_builds_in_the_temp_dir(self, tmp_path):
        """Root ignores permission bits, so the cache homes are made
        unusable the portable way: both are regular files."""
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        got = run(child_env(blocker, HOME=str(blocker), TMPDIR=str(tmp)))
        assert got["tier"] == "native" and got["warnings"] == [] and got["bits"] == want_bits()
        assert got["where"].startswith(str(tmp))
        assert list(tmp.iterdir()) == []  # mapped, then removed

    def test_two_processes_racing_on_an_empty_cache_both_load(self, tmp_path):
        env = child_env(tmp_path)
        first, second = start(env), start(env)
        for got in (finish(first), finish(second)):
            assert got["tier"] == "native" and got["warnings"] == []
            assert got["bits"] == want_bits()
        assert len(libraries(tmp_path)) == 1
        # Another compiler string is another library beside it.
        other = run(child_env(tmp_path, CC="cc -g0"))
        assert other["tier"] == "native" and other["where"] != got["where"]
        assert len(libraries(tmp_path)) == 2


def test_the_cache_key_covers_what_decides_the_code():
    base = build.library_name(b"int x;", "cc")
    assert base != build.library_name(b"int y;", "cc")
    assert base != build.library_name(b"int x;", "gcc")
    assert base.startswith("repro-kernels-") and base.endswith(".so")
    assert not {"-ffast-math", "-Ofast", "-funsafe-math-optimizations"} & set(build.FLAGS)
    assert {"-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared"} <= set(build.FLAGS)


def test_cache_directories_follow_xdg_then_home(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    assert build.cache_dirs() == [
        str(tmp_path / "xdg" / "repro-kernels"),
        str(tmp_path / "home" / ".cache" / "repro-kernels"),
    ]
    monkeypatch.delenv("XDG_CACHE_HOME")
    assert build.cache_dirs() == [str(tmp_path / "home" / ".cache" / "repro-kernels")]


def test_the_c_source_ships_as_package_data():
    source = resources.files("repro.kernels.native").joinpath(build.SOURCE)
    assert source.is_file() and b"repro_scatter_add_f32" in source.read_bytes()
    assert re.search(
        r'^\[tool\.setuptools\.package-data\]\n"repro\.kernels\.native" = \["\*\.c"\]$',
        (REPO / "pyproject.toml").read_text(),
        re.MULTILINE,
    )
    lines = len(source.read_text().splitlines())
    assert lines <= 432, f"kernels.c is {lines} lines; CI's ceiling is 432"


def test_the_command_says_what_is_loaded(tmp_path):
    def command(**extra):
        return subprocess.run(
            [sys.executable, "-m", "repro.kernels.native"], env=child_env(tmp_path, **extra),
            capture_output=True, text=True, timeout=120,
        )

    broken = command(CC="/bin/false")
    assert broken.returncode == 1
    assert "tier      numpy" in broken.stdout and "reason    '/bin/false' exited 1" in broken.stdout
    assert "tuning    unknown" in broken.stdout
    if build.library() is None:
        pytest.skip(f"native tier unavailable: {build.load()[1]}")
    ok = command()
    assert ok.returncode == 0, ok.stdout + ok.stderr
    for field in ("tier      native", "compiler  ", "flags     -O3", "library   ", "source    "):
        assert field in ok.stdout
    (tuning,) = [line for line in ok.stdout.splitlines() if line.startswith("tuning    ")]
    assert re.fullmatch(r"tuning    (-march=\S+ -mtune=\S+|unknown)", tuning)
    checks = [line for line in ok.stdout.splitlines() if line.endswith((" ok", " FAIL"))]
    assert len(checks) == 15 and all(line.endswith(" ok") for line in checks)
    assert [line.rsplit(None, 1)[0] for line in checks[-5:]] == [
        "interaction[fwd]", "interaction[bwd]", "uniform_fill", "blas agrees", "pcg64 agrees"
    ]
    moved = [line.split()[0] for line in checks if "  off-line ok" in line]
    assert moved == ["scatter_add_exact", "pool_rows[fp32]", "pool_rows[bf16]", "split_scatter_add[16]"]
