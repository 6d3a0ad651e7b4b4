"""Check that sensyn writes the same bytes under every BLAS and SIMD setting,
and, with ``--against REV``, the same bytes as commit REV.

The commands come from three places, read from this checkout:

* README.md's fenced examples: each ``sensyn`` line of a shell fence (one
  group, run in order, so ``plot r.json`` finds its report) and each Python
  fence, whose printed output is hashed as ``stdout``;
* the ``sensyn`` lines of the CI workflow, with its ``for`` loops expanded
  (one group, run in order);
* every workload of ``bench/workloads.py`` at seeds 3 and 8 (one group per
  workload and seed).

Each group runs in a fresh directory under each of four settings:
``OPENBLAS_NUM_THREADS`` unset, 1 and 2, and numpy's run-time dispatch list
switched off (``NPY_DISABLE_CPU_FEATURES``).  A command runs as
``python -m sensyn.cli`` on the tree's ``src``.  The manifest holds one line
per file a command wrote (its SHA-256) and one per command (its exit code),
keyed by setting, group, step and file name.

Without ``--against`` the script compares the settings with one another.
With it, REV's committed tree is exported with ``git archive`` into a
scratch directory, the same commands run there, and the two manifests are
compared entry by entry.  Either way each difference is printed, and the
exit code is 1 if there is one.  Run from anywhere, for example::

    python scripts/byte_check.py
    python scripts/byte_check.py --against HEAD~1

Two groups run at a time.  Nothing here is part of the test suite or the
benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import os
import re
import shlex
import shutil
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
SENSYN = 'bin/sensyn"'  # how the workflow calls the installed program
WORKLOAD_SEEDS = (3, 8)
JOBS = 2


def readme_groups(path: Path) -> dict[str, list[list[str]]]:
    """The ``sensyn`` command lines of README's shell fences, and each
    Python fence as one ``python -c`` command."""
    shell, python = [], []
    fences = re.findall(r"^```(\w*)\n(.*?)^```", path.read_text(), re.M | re.S)
    for lang, body in fences:
        if lang == "python":
            python.append(["-c", body])
            continue
        for line in body.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["sensyn"]:
                shell.append(["-m", "sensyn.cli", *argv[1:]])
    return {"readme": shell, "readme-python": python}


def workflow_commands(path: Path) -> list[list[str]]:
    """The ``sensyn`` invocations of the workflow's shell lines, in order,
    with the variables of their enclosing ``for`` loops expanded."""
    lines = path.read_text().replace("\\\n", " ").splitlines()
    out: list[list[str]] = []

    def expand(body: list[str], bound: dict[str, str]) -> None:
        k = 0
        while k < len(body):
            line = body[k].strip()
            loop = re.match(r"for (\w+) in (.*?); do$", line)
            if loop:
                depth, end = 1, k + 1
                while depth:
                    word = body[end].strip()
                    depth += word.startswith("for ") - (word == "done")
                    end += 1
                for value in shlex.split(loop.group(2)):
                    expand(body[k + 1:end - 1], {**bound, loop.group(1): value})
                k = end
                continue
            if SENSYN in line:
                rest = re.split(r"\|\||2>|;|&&", line.split(SENSYN, 1)[1])[0]
                for name, value in bound.items():
                    rest = rest.replace(f'"${name}"', value).replace(f"${name}", value)
                out.append(["-m", "sensyn.cli", *shlex.split(rest)])
            k += 1

    expand(lines, {})
    return out


def workload_groups() -> dict[str, list[list[str]]]:
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules["workloads"] = workloads  # dataclasses look the module up
    spec.loader.exec_module(workloads)
    return {f"{name}@{seed}": [["-m", "sensyn.cli", *cmd.argv]
                               for cmd in workloads.commands(name, seed)]
            for name in workloads.WHY for seed in WORKLOAD_SEEDS}


def settings() -> dict[str, dict[str, str | None]]:
    """Environment changes of each setting (``None`` unsets a variable)."""
    import numpy as np

    core = getattr(np, "_core", None) or np.core
    features = " ".join(core._multiarray_umath.__cpu_dispatch__)
    return {
        "blas-unset": {"OPENBLAS_NUM_THREADS": None},
        "blas-1": {"OPENBLAS_NUM_THREADS": "1"},
        "blas-2": {"OPENBLAS_NUM_THREADS": "2"},
        "dispatch-off": {"OPENBLAS_NUM_THREADS": None,
                         "NPY_DISABLE_CPU_FEATURES": features},
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_group(tree: Path, commands: list[list[str]], change: dict,
              workdir: Path, prefix: str) -> dict[str, str]:
    """Run one group's commands in order in ``workdir``: the manifest
    entries of the files each command wrote (new or with a new mtime) and
    of its exit code."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("SENSYN_SEED", "NPY_DISABLE_CPU_FEATURES")}
    env.update(PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    for key, value in change.items():
        env.pop(key, None)
        if value is not None:
            env[key] = value
    workdir.mkdir(parents=True)
    entries = {}
    for step, argv in enumerate(commands):
        before = {p.name: p.stat().st_mtime_ns for p in workdir.iterdir()}
        proc = subprocess.run([sys.executable, *argv], cwd=workdir, env=env,
                              stdin=subprocess.DEVNULL, capture_output=True)
        key = f"{prefix} {step:02d}"
        entries[f"{key} exit"] = str(proc.returncode)
        if argv[0] == "-c":
            entries[f"{key} stdout"] = _sha256(proc.stdout)
        for p in sorted(workdir.iterdir()):
            if before.get(p.name) != p.stat().st_mtime_ns:
                entries[f"{key} {p.name}"] = _sha256(p.read_bytes())
    return entries


def manifest(tree: Path, groups: dict, envs: dict, scratch: Path) -> dict[str, str]:
    tasks = [(name, setting) for setting in envs for name in groups]

    def one(task):
        name, setting = task
        return run_group(tree, groups[name], envs[setting],
                         scratch / setting / name.replace("@", "-"),
                         f"{setting} {name}")

    entries: dict[str, str] = {}
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        for part in pool.map(one, tasks):
            entries.update(part)
    return entries


def write_manifest(path: Path, entries: dict[str, str]) -> None:
    path.write_text("".join(f"{value}  {key}\n"
                            for key, value in sorted(entries.items())))


def across_settings(entries: dict[str, str]) -> list[str]:
    """Each (group, step, file) whose value is not the same in every setting."""
    by_item: dict[str, dict[str, str]] = {}
    for key, value in entries.items():
        setting, item = key.split(" ", 1)
        by_item.setdefault(item, {})[setting] = value
    settings_seen = {key.split(" ", 1)[0] for key in entries}
    return [f"{item}: " + ", ".join(f"{s}={values.get(s, 'missing')[:12]}"
                                    for s in sorted(settings_seen))
            for item, values in sorted(by_item.items())
            if len(set(values.values())) > 1 or len(values) < len(settings_seen)]


def against(ours: dict[str, str], theirs: dict[str, str], rev: str) -> list[str]:
    """Each (setting, group, step, file) whose value differs from REV's."""
    return [f"{key}: here {ours.get(key, 'missing')[:12]}, "
            f"{rev} {theirs.get(key, 'missing')[:12]}"
            for key in sorted(set(ours) | set(theirs))
            if ours.get(key) != theirs.get(key)]


def export(rev: str, dest: Path) -> None:
    """The committed tree of ``rev`` in ``dest``."""
    data = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="compare with the outputs of commit REV")
    parser.add_argument("--manifest", type=Path, default=Path("byte_check.sha256"),
                        help="where to write this tree's manifest "
                             "(REV's goes beside it, suffixed with REV)")
    args = parser.parse_args(argv)

    groups = {**readme_groups(ROOT / "README.md"),
              "ci": workflow_commands(WORKFLOW),
              **workload_groups()}
    envs = settings()
    print(f"{sum(map(len, groups.values()))} commands in {len(groups)} groups, "
          f"{len(envs)} settings", flush=True)
    scratch = Path(tempfile.mkdtemp(prefix="byte_check_"))
    try:
        ours = manifest(ROOT, groups, envs, scratch / "here")
        write_manifest(args.manifest, ours)
        if args.against is None:
            diffs = across_settings(ours)
        else:
            export(args.against, scratch / "rev")
            theirs = manifest(scratch / "rev", groups, envs, scratch / "there")
            write_manifest(args.manifest.with_name(
                f"{args.manifest.name}.{args.against.replace('/', '_')}"), theirs)
            diffs = against(ours, theirs, args.against)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for line in diffs:
        print(f"differs: {line}")
    print(f"{len(ours)} entries per tree; {len(diffs)} differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
