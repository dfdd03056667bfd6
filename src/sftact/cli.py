"""The ``sftact`` command line: the arguments, one job, its exit code.

The job layer (document parsing, the command table, the runners and the
renderer) is ``sftact.jobs``, imported only when a job runs, so importing
this module compiles none of it and no argument-parsing library.
``parse_job``, ``run_job`` and ``emit_report`` are that layer's entry
points, kept here as plain functions; ``main`` passes the document text,
the subcommand and the ``--limit``/``--max-n`` overrides to the same
``jobs.parse_job``, the one function that decodes a job document.  Exit
codes, carried by the error families of ``errors``: 0 success, 1 input
errors (usage errors included), 2 precondition failures, 3 exhausted
budgets, 4 internal errors (a failed check of the package's own, or any
unexpected exception).
"""

import sys

from .errors import InputError, SftactError

HELP = """\
usage: sftact COMMAND [--input PATH|-] [--format json|text] [--limit N] [--max-n N]

commands: {commands}
Flags take one value, as --flag value or --flag=value, before or after the
command; the last one wins.  --input is the job document (default -, stdin),
--format the rendering; --limit and --max-n override the job's parameters.
"""

_DEFAULTS = {"--input": "-", "--format": "json", "--limit": None, "--max-n": None}


def _parse_args(argv):
    """(command, {flag: value}), or None when help is asked for."""
    flags, command, extra = dict(_DEFAULTS), None, []
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        name, eq, value = token.partition("=")
        if name in flags:
            value = value if eq else next(tokens, None)
            if value is None or not eq and value.startswith("--"):
                raise InputError(f"argument {name}: expected one argument")
            flags[name] = value
        elif command is None and not token.startswith("-"):
            command = token
        else:
            extra.append(token)
    if command is None:
        raise InputError("the following arguments are required: command")
    if extra:
        import json  # a token that is not printable is shown escaped, on one line

        shown = (token if token.isprintable() else json.dumps(token) for token in extra)
        raise InputError("unrecognized arguments: " + " ".join(shown))
    for name in ("--limit", "--max-n"):
        try:
            flags[name] = None if flags[name] is None else int(flags[name])
        except ValueError:
            raise InputError(f"argument {name}: invalid int value: {flags[name]!r}") from None
    return command, flags


def _choose(name, value, choices):
    if value not in choices:
        listed = ", ".join(map(repr, choices))
        raise InputError(f"argument {name}: invalid choice: {value!r} (choose from {listed})")


def main(argv=None) -> int:
    """Run one job.  A package error prints one ``<label>: <message>``
    line and exits with its family's code; an exception that no family
    names is a defect, reported as one ``internal error: <type>:
    <message>`` line, exit 4."""
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        from . import jobs

        if args is None:
            sys.stdout.write(HELP.format(commands=", ".join(jobs.COMMANDS)))
            return 0
        command, flags = args
        _choose("command", command, jobs.COMMANDS)
        _choose("--format", flags["--format"], jobs.FORMATS)
        try:
            if flags["--input"] == "-":
                text = sys.stdin.read()
            else:
                with open(flags["--input"], "r", encoding="utf-8") as fh:
                    text = fh.read()
        except (OSError, UnicodeDecodeError) as err:
            raise InputError(f"cannot read input: {err}") from err
        overrides = {"limit": flags["--limit"], "max_n": flags["--max-n"]}
        job = jobs.parse_job(text, command, {k: v for k, v in overrides.items() if v is not None})
        sys.stdout.write(jobs.emit_report(jobs.run_job(job), flags["--format"]))
        return 0
    except SftactError as err:
        print(f"{err.label}: {err}", file=sys.stderr)
        return err.exit_code
    except Exception as err:
        message = " ".join(str(err).split())
        print(f"internal error: {type(err).__name__}: {message}", file=sys.stderr)
        return 4


def parse_job(text: str):
    """Decode and validate a job document (``jobs.parse_job``)."""
    from . import jobs
    return jobs.parse_job(text)


def run_job(job):
    """Run a parsed job (``jobs.run_job``)."""
    from . import jobs
    return jobs.run_job(job)


def emit_report(report, format: str = "json") -> str:
    """Render a report (``jobs.emit_report``)."""
    from . import jobs
    return jobs.emit_report(report, format)


if __name__ == "__main__":
    sys.exit(main())
