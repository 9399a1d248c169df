#!/usr/bin/env python3
"""CLI/docs lint: documented nvpsim command lines use only real flags.

Every `nvpsim <cmd> ...` command line in README.md, EXPERIMENTS.md,
DESIGN.md and .claude/skills/verify/SKILL.md must pass <cmd> only flags
that subcommand accepts. A command line is a line of a fenced code
block, with `\\` continuations joined, or an inline code span; the
flags after one `nvpsim <cmd>` run up to the next one, a shell comment
or a pipe. `nvpsim run|sweep --engine` checks both subcommands.

The accepted flags come from the binary itself: its top-level usage
names the subcommands, and `nvpsim <cmd> --help` is rejected like any
undeclared flag with a usage listing the subcommand's flag table. So a
flag renamed in the code fails here until the docs follow.

Usage: tools/cli_docs_lint.py [--self-test] NVPSIM
  --self-test first proves the lint catches a bogus flag planted in a
  continuation line and in an inline span.
"""

import pathlib
import re
import subprocess
import sys
import tempfile

DOCS = ["README.md", "EXPERIMENTS.md", "DESIGN.md",
        ".claude/skills/verify/SKILL.md"]
COMMAND = re.compile(r"(?<![\w.-])nvpsim\s+([a-z]+(?:\|[a-z]+)*)")
FLAG = re.compile(r"(?<![\w-])--([a-z][a-z0-9-]*)")
SPAN = re.compile(r"`([^`\n]+(?:\n[^`\n]+)*)`")


def accepted_flags(nvpsim):
    """Subcommand -> set of flag names, from the binary's usage text."""
    top = subprocess.run([nvpsim], capture_output=True, text=True)
    names = re.search(r"usage: nvpsim <([a-z|]+)>", top.stderr)
    if top.returncode == 0 or not names:
        sys.exit(f"cli-docs-lint: no subcommand list from {nvpsim}")
    table = {}
    for cmd in names.group(1).split("|"):
        res = subprocess.run([nvpsim, cmd, "--help"], capture_output=True,
                             text=True)
        if res.returncode == 0 or f"usage: nvpsim {cmd}" not in res.stderr:
            sys.exit(f"cli-docs-lint: `nvpsim {cmd} --help` was not "
                     f"rejected with a usage:\n{res.stderr}")
        table[cmd] = set(re.findall(r"^  --([a-z0-9-]+)", res.stderr,
                                    re.M))
    return table


def command_lines(text):
    """(line number, text) of every candidate command line."""
    lines = text.split("\n")
    fenced = []
    prose = list(lines)
    in_fence = False
    i = 0
    while i < len(lines):
        if lines[i].lstrip().startswith("```"):
            in_fence = not in_fence
            prose[i] = ""
            i += 1
            continue
        if in_fence:
            start, line = i, lines[i]
            prose[i] = ""
            while line.rstrip().endswith("\\") and i + 1 < len(lines):
                i += 1
                prose[i] = ""
                line = line.rstrip()[:-1] + " " + lines[i]
            fenced.append((start + 1, line))
        i += 1
    prose_text = "\n".join(prose)
    spans = [(prose_text.count("\n", 0, m.start()) + 1, m.group(1))
             for m in SPAN.finditer(prose_text)]
    return fenced + spans


def violations(root, table):
    out = []
    for doc in DOCS:
        path = root / doc
        if not path.exists():
            continue
        for lineno, line in command_lines(path.read_text()):
            matches = list(COMMAND.finditer(line))
            for k, m in enumerate(matches):
                end = matches[k + 1].start() if k + 1 < len(matches) \
                    else len(line)
                args = re.split(r"\s#|\|\s|;|&&", line[m.end():end])[0]
                for cmd in m.group(1).split("|"):
                    if cmd not in table:
                        out.append(f"{doc}:{lineno}: no subcommand "
                                   f"'nvpsim {cmd}'")
                        continue
                    for flag in FLAG.findall(args):
                        if flag not in table[cmd]:
                            out.append(f"{doc}:{lineno}: nvpsim {cmd} "
                                       f"does not accept --{flag}")
    return out


def main():
    args = sys.argv[1:]
    self_test = "--self-test" in args
    args = [a for a in args if a != "--self-test"]
    if len(args) != 1:
        sys.exit(__doc__)
    table = accepted_flags(args[0])
    if self_test:
        # Plant bogus flags and require the lint to name both: a lint
        # that cannot fail gates nothing.
        with tempfile.TemporaryDirectory() as tmp:
            (pathlib.Path(tmp) / "README.md").write_text(
                "```sh\nnvpsim run --kernel sobel \\\n"
                "    --lint-selftest-bogus 1\n```\n"
                "Then `nvpsim sweep --jobs 1 --kernle x`.\n")
            found = violations(pathlib.Path(tmp), table)
        if not any("README.md:2: nvpsim run does not accept "
                   "--lint-selftest-bogus" in v for v in found) or \
                not any("--kernle" in v for v in found):
            sys.exit("cli-docs-lint: self-test FAILED (planted flags "
                     f"were not caught: {found})")
        print("cli-docs-lint: self-test OK")
    root = pathlib.Path(__file__).resolve().parent.parent
    found = violations(root, table)
    for v in found:
        print(f"cli-docs-lint: {v}", file=sys.stderr)
    if found:
        sys.exit("cli-docs-lint: FAIL (fix the docs or the flag table)")
    print("cli-docs-lint: OK (every documented nvpsim command line uses "
          "accepted flags)")


if __name__ == "__main__":
    main()
