"""The byte promise across interpreters: `finbench run --suite all` gives the
pinned report digests under every supported Python, not only the one that
runs the tests, and a certificate written under one Python replays under
every other.

Each other interpreter among 3.10-3.13 computes the seed-0 and seed-7
digests in one subprocess.  An interpreter is looked up as `python3.X` on
PATH and, when that is missing or does not start (a pyenv shim for a
version that is not selected fails this way), under
`$PYENV_ROOT/versions/3.X.*/bin/python3` (PYENV_ROOT defaults to
~/.pyenv).  The versions that ran are printed; one that is missing or does
not start is printed and warned about, never passed over in silence.
"""

import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import finbench.suites  # noqa: F401  (registers every recipe)
from finbench.certs import RECIPES, save_certificate
from test_scripts import SEED_0_DIGEST, SEED_7_DIGEST

ROOT = Path(__file__).resolve().parent.parent
MINORS = (10, 11, 12, 13)

CHILD = """
import hashlib, platform
from finbench.certs import canonical_dumps
from finbench.suites import run_suite
print(platform.python_version())
for seed in (0, 7):
    report, _ = run_suite("all", seed=seed)
    print(hashlib.sha256(canonical_dumps(report).encode("utf-8")).hexdigest())
"""

# one certificate per layer, written by the running interpreter
LAYER_CERTIFICATES = {
    "functors": ("finitarity-un", {}),
    "nominal": ("finitarity-nom", {"k": 6}),
    "strictness": ("strictness-vec", {}),
    "superfin": ("superfin-powerset", {}),
    "hausdorff": ("hausdorff-bounded", {}),
}

REPLAY_CHILD = """
import platform, sys
from finbench.cli import main
print(platform.python_version())
print(*[main(["replay", path]) for path in sys.argv[1:]])
"""


def _starts(exe, minor):
    try:
        out = subprocess.run([exe, "-c", "import sys; print(sys.version_info[1])"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return False
    return out.returncode == 0 and out.stdout.strip() == str(minor)


def find_interpreter(minor):
    """A path to a working Python 3.minor, or None."""
    candidates = [shutil.which(f"python3.{minor}")]
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    candidates += sorted(str(p) for p in pyenv.glob(f"versions/3.{minor}.*/bin/python3"))
    return next((exe for exe in candidates if exe and _starts(exe, minor)), None)


def _under_other_interpreters(what, args):
    """Run python -c args[0] args[1:] under each other interpreter with the
    checkout's src first on PYTHONPATH, and yield (exe, stdout) per run;
    the child prints its version first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    ran, missing = [], []
    for minor in MINORS:
        if minor == sys.version_info[1]:
            continue
        exe = find_interpreter(minor)
        if exe is None:
            missing.append(f"3.{minor}")
            continue
        out = subprocess.run([exe, "-c", *args], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, (exe, out.stderr)
        yield exe, out.stdout
        ran.append(out.stdout.split()[0])
    print(f"{what} under {', '.join(ran) or 'no other interpreter'}; "
          f"missing or not starting: {', '.join(missing) or 'none'}")
    if missing:
        warnings.warn(f"no working interpreter found for Python {', '.join(missing)}")


def test_report_digests_match_under_other_interpreters():
    for exe, stdout in _under_other_interpreters("digests matched", [CHILD]):
        version, seed_0, seed_7 = stdout.split()
        assert (seed_0, seed_7) == (SEED_0_DIGEST, SEED_7_DIGEST), (exe, version)


def test_certificates_replay_under_other_interpreters(tmp_path):
    paths = []
    for layer, (name, params) in LAYER_CERTIFICATES.items():
        paths.append(str(tmp_path / f"{layer}.json"))
        save_certificate(RECIPES[name](**params), paths[-1])
    for exe, stdout in _under_other_interpreters("certificates replayed",
                                                 [REPLAY_CHILD, *paths]):
        codes = stdout.split()[-len(paths):]
        assert codes == ["0"] * len(paths), (exe, stdout)
