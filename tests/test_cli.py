"""Job documents, dispatch, rendering, exit codes."""

import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import contract_check
import sftact
from sftact import InputError, cli, errors, group_from_generators, jobs
from sftact.action import cycles_of
from sftact.cli import emit_report, main, parse_job, run_job
from sftact.jobs import COMMANDS, parse_cycles

from helpers import (
    SIX_STATE_A,
    dense_product,
    dense_selectors,
    emit_job,
    plain_orbits,
    random_group_action,
    z48_with_swapped_products,
)

SIX_STATE_JOB = {
    "command": "reduce",
    "input": {
        "matrix": [list(row) for row in SIX_STATE_A.entries],
        "group": {"generators": ["(1 2)(3 4 5 6)"]},
    },
}


def job_text(doc):
    return json.dumps(doc)


def run_cli(tmp_path, doc, *args, optimize=False, code=None):
    """Run ``sftact <command> --input <file> *args`` as a child process on
    the document ``doc``, under ``python -O`` when ``optimize``.  ``code``,
    when given, is Python source run in place of ``-m sftact.cli``: it sets
    the child up and then calls ``main()`` itself."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    src = str(Path(sftact.__file__).resolve().parent.parent)
    path_entries = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_entries)))
    entry = ["-c", code] if code else ["-m", "sftact.cli"]
    return subprocess.run(
        [sys.executable, *(["-O"] if optimize else []), *entry, doc["command"], "--input", str(path), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


CONTRACT_CASES = {name: case for name, *case in contract_check.contract_cases()}


def contract_case_problems(name):
    """What differs from the expectation of the case ``name`` of
    ``contract_check.py``'s table, run through ``main`` in process."""
    return contract_check.case_problems(*CONTRACT_CASES[name])


TWO_SHIFT_LINK = {"a": [[2]], "b": [[1, 1], [1, 1]], "r": [[1, 1]], "s": [[1], [1]]}

SPLIT_INPUT = {
    "matrix": [[1, 1], [1, 0]],
    "group": {"generators": []},
    "direction": "out",
    "partition": [[[1], [2]], [[1]]],
}

TRANSPORT_INPUT = {
    "certificate": {"a": [[1, 1], [1, 1]], "b": [[1, 1], [1, 1]], "r": [[1, 0], [0, 1]], "s": [[1, 1], [1, 1]]},
    "phi": {"generators": ["(1 2)"]},
    "psi": {"generators": ["(1 2)"]},
}


class TestParseJob:
    def test_minimal_reduce_job(self):
        job = parse_job(job_text(SIX_STATE_JOB))
        assert job.command == "reduce"
        assert job.parameters == {}

    def test_empty_document(self):
        with pytest.raises(InputError, match="missing command"):
            parse_job("{}")

    def test_malformed_json(self):
        with pytest.raises(InputError, match="malformed"):
            parse_job("{")

    def test_unknown_command(self):
        with pytest.raises(InputError, match="unknown command"):
            parse_job(job_text({"command": "frobnicate"}))

    def test_negative_entry_names_the_path(self):
        doc = {
            "command": "invariants",
            "input": {"matrix": [[1, -1], [0, 1]]},
        }
        with pytest.raises(InputError, match=r"matrix\[0\]\[1\]"):
            parse_job(job_text(doc))

    def test_fractional_table_entry_names_the_path(self):
        doc = {
            "command": "repshift",
            "input": {"hnn": {"preset": "trefoil"}, "group": {"table": [[0, 1.7], [1, 0]]}},
        }
        with pytest.raises(InputError, match=r"^\$\.input\.group\.table\[0\]\[1\]: "):
            parse_job(job_text(doc))

    def test_non_associative_table_names_the_table(self):
        with pytest.raises(InputError, match=r"^\$\.input\.group\.table: .*not associative"):
            parse_job(job_text(Z48_REPSHIFT_JOB))

    def test_bad_cycle_entry(self):
        doc = {
            "command": "reduce",
            "input": {"matrix": [[1, 1], [1, 1]], "group": {"generators": ["(1 3)"]}},
        }
        with pytest.raises(InputError, match=r"^\$\.input\.group\.generators\[0\]: .*out of range"):
            parse_job(job_text(doc))

    @pytest.mark.parametrize(
        "doc, pattern",
        [
            (
                {"command": "split", "input": dict(SPLIT_INPUT, direction="sideways")},
                r"^\$\.input\.direction: expected 'out' or 'in'$",
            ),
            (
                {"command": "split", "input": dict(SPLIT_INPUT, partition={"1": [[1]]})},
                r"^\$\.input\.partition: expected an array",
            ),
            (
                {"command": "split", "input": dict(SPLIT_INPUT, partition=[[[1], []], [[1]]])},
                r"^\$\.input\.partition\[0\]\[1\]: expected a nonempty array of states$",
            ),
            (
                {"command": "split", "input": dict(SPLIT_INPUT, partition=[[[1], [0]], [[1]]])},
                r"^\$\.input\.partition\[0\]\[1\]\[0\]: expected an integer >= 1$",
            ),
            (
                {"command": "transport", "input": dict(TRANSPORT_INPUT, phi=["(1 2)"])},
                r"^\$\.input\.phi: expected an object$",
            ),
            (
                {"command": "transport", "input": dict(TRANSPORT_INPUT, psi={"generators": ["(1 9)"]})},
                r"^\$\.input\.psi\.generators\[0\]: cycle entry 9 out of range",
            ),
            (
                {"command": "verify-sse", "input": {"chain": [TWO_SHIFT_LINK, TWO_SHIFT_LINK]}},
                r"^\$\.input\.chain: consecutive chain endpoints do not agree$",
            ),
        ],
        ids=[
            "bad-direction", "partition-not-array", "empty-block", "state-below-one",
            "non-object-phi", "bad-psi-cycle", "chain-endpoints",
        ],
    )
    def test_runner_era_errors_raise_from_parse_job(self, doc, pattern):
        with pytest.raises(InputError, match=pattern):
            parse_job(job_text(doc))

    @pytest.mark.parametrize(
        "doc, path",
        [
            ({"command": "reduce", "input": dict(SIX_STATE_JOB["input"], maxtrix=[[1]])}, "$.input.maxtrix"),
            (
                {"command": "burnside", "input": {"matrix": [[1]], "group": {"generators": [], "limt": 5}}},
                "$.input.group.limt",
            ),
            ({"command": "split", "input": dict(SPLIT_INPUT, blocks=[])}, "$.input.blocks"),
            (
                {"command": "repshift", "input": {"hnn": {"preset": "trefoil", "b_gens": 2}, "group": "Z2"}},
                "$.input.hnn.b_gens",
            ),
            (
                {
                    "command": "tqft",
                    "input": {
                        "hnn": {"b_gens": 1, "u_gens": [], "v_gens": [], "phi_images": [], "relators": []},
                        "group": "Z2",
                    },
                },
                "$.input.hnn.relators",
            ),
            (
                {"command": "repshift", "input": {"hnn": {"preset": "trefoil"}, "group": {"name": "Z2", "table": [[0]]}}},
                "$.input.group.table",
            ),
            (
                {"command": "repshift", "input": {"hnn": {"preset": "trefoil"}, "group": {"table": [[0]], "order": 1}}},
                "$.input.group.order",
            ),
            ({"command": "transport", "input": dict(TRANSPORT_INPUT, cert={})}, "$.input.cert"),
            (
                {
                    "command": "transport",
                    "input": dict(TRANSPORT_INPUT, certificate=dict(TRANSPORT_INPUT["certificate"], t=[[1]])),
                },
                "$.input.certificate.t",
            ),
            ({"command": "verify-sse", "input": dict(TWO_SHIFT_LINK, chain=[TWO_SHIFT_LINK])}, "$.input.a"),
            ({"command": "verify-sse", "input": dict(TWO_SHIFT_LINK, note="x")}, "$.input.note"),
            (
                {"command": "verify-sse", "input": {"chain": [dict(TWO_SHIFT_LINK, R=[[1, 1]])]}},
                "$.input.chain[0].R",
            ),
            # a key that is not printable is shown as a JSON string, so the message stays one line
            ({"command": "reduce", "input": dict(SIX_STATE_JOB["input"], **{"a\nb": 1})}, '$.input["a\\nb"]'),
            (
                {"command": "reduce", "input": {"matrix": [[1]], "group": {"generators": [], "\u2028": 1}}},
                '$.input.group["\\u2028"]',
            ),
        ],
        ids=[
            "input", "perm-group", "split-input", "hnn-preset", "hnn-words", "group-name",
            "group-table", "transport-input", "certificate", "chain-beside-link", "inline-link",
            "chain-link", "unprintable-input", "unprintable-perm-group",
        ],
    )
    def test_unknown_field_names_its_path(self, doc, path):
        with pytest.raises(InputError) as info:
            parse_job(job_text(doc))
        assert str(info.value) == f"{path}: unknown field"

    @pytest.mark.parametrize(
        "names, pattern",
        [
            (5, r"^\$\.input\.group\.names: expected an array of element names$"),
            ("ab", r"^\$\.input\.group\.names: expected an array of element names$"),
            (["a", 2], r"^\$\.input\.group\.names\[1\]: expected a string$"),
        ],
        ids=["number", "string", "non-string-entry"],
    )
    def test_group_names_must_be_an_array_of_strings(self, names, pattern):
        doc = {
            "command": "repshift",
            "input": {"hnn": {"preset": "trefoil"}, "group": {"table": [[0, 1], [1, 0]], "names": names}},
        }
        with pytest.raises(InputError, match=pattern):
            parse_job(job_text(doc))

    def test_named_table_elements_accepted(self):
        doc = {
            "command": "repshift",
            "input": {"hnn": {"preset": "trefoil"}, "group": {"table": [[0, 1], [1, 0]], "names": ["e", "g"]}},
        }
        assert parse_job(job_text(doc)).parsed[1].names == ("e", "g")

    def test_format_field_checked(self):
        doc = dict(SIX_STATE_JOB, format="sftact-job/999")
        with pytest.raises(InputError, match="unsupported format"):
            parse_job(job_text(doc))

    def test_missing_matrix_reported(self):
        with pytest.raises(InputError, match="missing field 'matrix'"):
            parse_job(job_text({"command": "invariants", "input": {}}))

    def test_missing_certificate_reported(self):
        with pytest.raises(InputError, match="missing field 'certificate'"):
            parse_job(job_text({"command": "transport", "input": {}}))


class TestCycles:
    def test_parse_and_render_round_trip(self):
        perm = parse_cycles("(1 2)(3 4 5 6)", 6, "test")
        assert perm == (1, 0, 3, 4, 5, 2)
        assert cycles_of(perm) == "(1 2)(3 4 5 6)"

    def test_identity(self):
        assert parse_cycles("()", 3, "test") == (0, 1, 2)
        assert cycles_of((0, 1, 2)) == "()"

    def test_comma_separated(self):
        assert parse_cycles("(1,2)", 2, "test") == (1, 0)


Z48_REPSHIFT_JOB = {
    "command": "repshift",
    "input": {"hnn": {"preset": "trefoil"}, "group": {"table": z48_with_swapped_products()}},
}

NUMBER_NAMES_JOB = {
    "command": "repshift",
    "input": {"hnn": {"preset": "trefoil"}, "group": {"table": [[0]], "names": 5}},
}

NON_INVARIANT_JOB = {
    "command": "reduce",
    "input": {"matrix": [[1, 1], [0, 1]], "group": {"generators": ["(1 2)"]}},
}


class TestRunJob:
    @pytest.mark.parametrize(
        "command, input_doc",
        [
            ("tqft", {"hnn": {"preset": "trefoil"}, "group": "S3"}),
            ("bundle-counts", {"hnn": {"preset": "trefoil"}, "group": "S3"}),
            ("invariants", SIX_STATE_JOB["input"]),
            ("quotient-counts", SIX_STATE_JOB["input"]),
        ],
    )
    def test_reports_without_selectors(self, monkeypatch, command, input_doc):
        def unread(self):
            raise AssertionError("a selector was built")

        for name in ("u_selector", "v_selector"):
            monkeypatch.setattr(sftact.reduce.ReducedShift, name, property(unread))
        report = run_job(parse_job(job_text({"command": command, "input": input_doc})))
        assert report["result"]

    def test_reduce_full_seven_shift_under_s7(self):
        doc = {
            "command": "reduce",
            "input": {
                "matrix": [[1] * 7 for _ in range(7)],
                "group": {"generators": ["(1 2)", "(1 2 3 4 5 6 7)"]},
            },
        }
        report = run_job(parse_job(job_text(doc)))
        assert report["result"]["right"]["entries"] == [[7]]
        assert report["result"]["left"]["entries"] == [[7]]
        assert report["result"]["orbits"] == [[1, 2, 3, 4, 5, 6, 7]]
        s7 = group_from_generators(7, [(1, 0, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 0)])
        assert s7.order == 5040

    def test_reduce_six_state(self):
        report = run_job(parse_job(job_text(SIX_STATE_JOB)))
        assert report["result"]["right"]["entries"] == [[1, 2], [2, 1]]
        assert report["result"]["left"]["entries"] == [[1, 1], [4, 1]]

    def test_classify_swap(self):
        doc = {
            "command": "classify",
            "input": {"matrix": [[1, 1], [1, 1]], "group": {"generators": ["(1 2)"]}},
        }
        report = run_job(parse_job(job_text(doc)))
        assert report["result"]["verdict"] == "constant-to-one"

    def test_bundle_counts_trefoil(self):
        doc = {
            "command": "bundle-counts",
            "input": {"hnn": {"preset": "trefoil"}, "group": "Z2"},
            "parameters": {"max_n": 6},
        }
        report = run_job(parse_job(job_text(doc)))
        assert report["result"]["counts"] == [1, 1, 4, 1, 1, 4]

    def test_verify_sse_chain(self):
        doc = {
            "command": "verify-sse",
            "input": {
                "chain": [
                    {"a": [[2]], "b": [[1, 1], [1, 1]], "r": [[1, 1]], "s": [[1], [1]]},
                    {
                        "a": [[1, 1], [1, 1]],
                        "b": [[1, 1], [1, 1]],
                        "r": [[1, 0], [0, 1]],
                        "s": [[1, 1], [1, 1]],
                    },
                ]
            },
        }
        report = run_job(parse_job(job_text(doc)))
        assert report["result"] == {"links": [True, True], "valid": True}

    def test_verify_sse_chain_endpoints_checked(self):
        link = {"a": [[2]], "b": [[1, 1], [1, 1]], "r": [[1, 1]], "s": [[1], [1]]}
        doc = {"command": "verify-sse", "input": {"chain": [link, link]}}
        with pytest.raises(InputError, match=r"input\.chain: .*endpoints do not agree"):
            run_job(parse_job(job_text(doc)))

    def test_split_command(self):
        doc = {
            "command": "split",
            "input": {
                "matrix": [[1, 1], [1, 0]],
                "group": {"generators": []},
                "direction": "out",
                "partition": [[[1], [2]], [[1]]],
            },
        }
        report = run_job(parse_job(job_text(doc)))
        assert report["result"]["matrix"]["entries"] == [[1, 1, 0], [0, 0, 1], [1, 1, 0]]
        assert report["result"]["verified"] is True

    def test_transport_command(self):
        entries = [list(row) for row in SIX_STATE_A.entries]
        ident = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
        doc = {
            "command": "transport",
            "input": {
                "certificate": {"a": entries, "b": entries, "r": entries, "s": ident},
                "phi": {"generators": ["(1 2)(3 4 5 6)"]},
                "psi": {"generators": ["(1 2)(3 4 5 6)"]},
            },
        }
        report = run_job(parse_job(job_text(doc)))
        assert report["result"]["a_reduced"]["entries"] == [[1, 2], [2, 1]]
        assert report["result"]["verified"] is True

    def test_tqft_command(self):
        doc = {
            "command": "tqft",
            "input": {"hnn": {"preset": "trefoil"}, "group": "S3"},
        }
        report = run_job(parse_job(job_text(doc)))
        assert len(report["result"]["basis"]) == 11


# phi's generators and their conjugates by (2 3), listed in the same order:
# closed on their own, the two groups list their elements in different orders
PAIRED_TRANSPORT = {
    "command": "transport",
    "input": {
        "certificate": {
            "a": [[1, 1, 1]] * 3, "b": [[1, 1, 1]] * 3, "r": [[1, 0, 0], [0, 0, 1], [0, 1, 0]], "s": [[1, 1, 1]] * 3,
        },
        "phi": {"generators": ["(1 2)", "(1 2 3)"]},
        "psi": {"generators": ["(1 3)", "(1 3 2)"]},
    },
}


class TestTransportPairing:
    """psi's k-th listed generator pairs with phi's k-th."""

    def test_conjugate_generators_transport(self, tmp_path):
        proc = run_cli(tmp_path, PAIRED_TRANSPORT)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["result"] == {
            "a_reduced": {"entries": [[3]], "labels": ["G1"]},
            "b_reduced": {"entries": [[3]], "labels": ["G1"]},
            "r": [[1]],
            "s": [[3]],
            "verified": True,
        }

    @pytest.mark.parametrize(
        "gens, message",
        [
            (["(1 3 2)", "(1 3)"], "the pairing sends phi element () to both () and (1 2 3)"),
            (["(1 3)"], "1 listed, but phi lists 2; generators pair in order"),
            (["()", "()"], "the pairing sends two phi elements to one psi element"),
        ],
        ids=["swapped", "fewer", "not-one-to-one"],
    )
    def test_unpaired_generators_exit_two(self, tmp_path, gens, message):
        doc = json.loads(json.dumps(PAIRED_TRANSPORT))
        doc["input"]["psi"]["generators"] = gens
        proc = run_cli(tmp_path, doc)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"precondition failed: $.input.psi.generators: {message}\n"

    def test_relabelled_action_transports_like_plain_orbit_sums(self):
        """psi is phi relabelled by a random q, listed as the q-conjugates of
        phi's generators, with the certificate (Q, Q^-1 A); the transported
        pair is (U R V', U' S V) with selectors of plainly searched orbits."""
        rng = random.Random(137)
        reordered = 0
        for _ in range(40):
            phi, gens = random_group_action(rng, max_states=5)
            n = phi.matrix.dim
            q = rng.sample(range(n), n)
            q_inv = sorted(range(n), key=q.__getitem__)
            conj = [tuple(q[g[q_inv[k]]] for k in range(n)) for g in gens]
            a = phi.matrix.entries
            b = [[a[q_inv[k]][q_inv[l]] for l in range(n)] for k in range(n)]
            r = [[int(q[i] == k) for k in range(n)] for i in range(n)]
            s = [list(a[q_inv[k]]) for k in range(n)]
            doc = {
                "command": "transport",
                "input": {
                    "certificate": {"a": [list(row) for row in a], "b": b, "r": r, "s": s},
                    "phi": {"generators": [cycles_of(g) for g in gens]},
                    "psi": {"generators": [cycles_of(h) for h in conj]},
                },
            }
            result = run_job(parse_job(job_text(doc)))["result"]
            u, v = dense_selectors(n, plain_orbits(n, gens))
            u2, v2 = dense_selectors(n, plain_orbits(n, conj))
            assert result["a_reduced"]["entries"] == [list(row) for row in dense_product(u, a, v)]
            assert result["b_reduced"]["entries"] == [list(row) for row in dense_product(u2, b, v2)]
            assert result["r"] == [list(row) for row in dense_product(u, r, v2)]
            assert result["s"] == [list(row) for row in dense_product(u2, s, v)]
            assert result["verified"] is True
            closed = group_from_generators(n, gens).elements
            images = [tuple(q[g[q_inv[k]]] for k in range(n)) for g in closed]
            reordered += images != list(group_from_generators(n, conj).elements)
        # pairing the two closures by index would refuse these
        assert reordered > 0


class TestEmit:
    def test_json_deterministic(self):
        report = run_job(parse_job(job_text(SIX_STATE_JOB)))
        assert emit_report(report, "json") == emit_report(report, "json")

    def test_text_deterministic(self):
        report = run_job(parse_job(job_text(SIX_STATE_JOB)))
        assert emit_report(report, "text") == emit_report(report, "text")

    def test_json_round_trip(self):
        report = run_job(parse_job(job_text(SIX_STATE_JOB)))
        doc = json.loads(emit_report(report, "json"))
        assert doc["result"]["right"]["entries"] == [[1, 2], [2, 1]]
        assert doc["format"] == "sftact-report/1"

    def test_job_round_trip(self):
        job = parse_job(job_text(SIX_STATE_JOB))
        again = parse_job(emit_job(job))
        assert again == job
        assert parse_job(emit_job(again)) == again

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_exact_result_beyond_digit_limit_in_process(self, tmp_path, fmt):
        """emit_report prints integers past Python's digit limit itself, with
        the same bytes as the CLI, and leaves the limit as it found it."""
        get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        before = get_limit()
        big = 10**4000
        doc = {"command": "invariants", "input": {"matrix": [[big, 1], [1, big]]}}
        text = emit_report(run_job(parse_job(job_text(doc))), fmt)
        assert get_limit() == before
        proc = run_cli(tmp_path, doc, "--format", fmt)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert text == proc.stdout
        assert "9" * 8000 in text

    def test_bf_text_rendering(self):
        from sftact.jobs_text import bf_text

        assert bf_text({"torsion": [2, 2], "free_rank": 0}) == "Z/2 + Z/2"
        assert bf_text({"torsion": [], "free_rank": 0}) == "0"
        assert bf_text({"torsion": [3], "free_rank": 2}) == "Z/3 + Z^2"
        doc = {
            "command": "invariants",
            "input": {
                "matrix": [list(row) for row in SIX_STATE_A.entries],
                "group": {"generators": ["(1 2)(3 4 5 6)"]},
            },
        }
        report = run_job(parse_job(job_text(doc)))
        text = emit_report(report, "text")
        assert "BF group: Z/2 + Z/2" in text
        assert "BF group: Z/4" in text


class TestMain:
    def run_main(self, tmp_path, capsys, doc, args):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(doc))
        code = main(list(args) + ["--input", str(path)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_success_exit_zero(self, tmp_path, capsys):
        code, out, _ = self.run_main(tmp_path, capsys, SIX_STATE_JOB, ["reduce"])
        assert code == 0
        assert json.loads(out)["result"]["right"]["entries"] == [[1, 2], [2, 1]]

    def test_undecodable_input_exit_one(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_bytes(b'\xff{"command": "reduce"}')
        code = main(["reduce", "--input", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith("error: cannot read input: 'utf-8' codec can't decode byte 0xff")
        assert len(captured.err.splitlines()) == 1

    def test_command_inferred_from_subcommand(self, tmp_path, capsys):
        doc = {k: v for k, v in SIX_STATE_JOB.items() if k != "command"}
        code, out, _ = self.run_main(tmp_path, capsys, doc, ["reduce"])
        assert code == 0

    def test_input_error_exit_one(self, tmp_path, capsys):
        doc = {"command": "invariants", "input": {"matrix": [[1, -1], [0, 1]]}}
        code, _, err = self.run_main(tmp_path, capsys, doc, ["invariants"])
        assert code == 1
        assert "matrix" in err

    def test_precondition_exit_two(self, tmp_path, capsys):
        doc = {
            "command": "classify",
            "input": {
                "matrix": [[1, 0, 1], [0, 1, 1], [0, 0, 1]],
                "group": {"generators": ["(1 2)"]},
            },
        }
        code, _, err = self.run_main(tmp_path, capsys, doc, ["classify"])
        assert code == 2
        assert "irreducible" in err

    def test_closure_limit_exit_three(self, tmp_path, capsys):
        doc = {
            "command": "reduce",
            "input": {
                "matrix": [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
                "group": {"generators": ["(1 2)", "(1 2 3)"], "limit": 2},
            },
        }
        code, out, err = self.run_main(tmp_path, capsys, doc, ["reduce"])
        assert (code, out) == (3, "")
        assert err == "budget exhausted: group closure exceeds limit 2\n"

    def test_quotient_counts_at_large_max_n(self, tmp_path, capsys):
        doc = {
            "command": "quotient-counts",
            "input": {"matrix": [[0, 1], [1, 0]], "group": {"generators": ["(1 2)"]}},
            "parameters": {"max_n": 600},
        }
        code, out, _ = self.run_main(tmp_path, capsys, doc, ["quotient-counts"])
        assert code == 0
        assert json.loads(out)["result"]["counts"] == [1] * 600

    def test_many_base_generators(self, tmp_path, capsys):
        hnn = {"b_gens": 3000, "u_gens": [], "v_gens": [], "phi_images": []}
        doc = {"command": "repshift", "input": {"hnn": hnn, "group": "Z1"}}
        code, out, err = self.run_main(tmp_path, capsys, doc, ["repshift"])
        assert (code, err) == (0, "")
        assert json.loads(out)["result"]["period_counts"] == [1] * 6

    @pytest.mark.parametrize("group, order", [("S6", 720), ("Z1", 1)])
    def test_huge_base_generator_count_exit_three(self, tmp_path, capsys, group, order):
        hnn = {"b_gens": 10**9, "u_gens": [], "v_gens": [], "phi_images": []}
        doc = {"command": "repshift", "input": {"hnn": hnn, "group": group}}
        start = time.perf_counter()
        code, out, err = self.run_main(tmp_path, capsys, doc, ["repshift"])
        # the budget check itself is immediate; the bound leaves room for building S6
        assert time.perf_counter() - start < 10
        assert (code, out) == (3, "")
        # one assignment over Z1: the message names the generator count instead
        what = f"{order}^1000000000 assignments" if order > 1 else "1000000000 generators"
        assert err == f"budget exhausted: {what} exceed the limit 1000000\n"

    def test_repshift_state_bound_exit_three(self, tmp_path, capsys, monkeypatch):
        # trefoil over S4 (576 states) is the largest shift the tests and corpus
        # print; trefoil over S5 (14400 states) is refused by the slow test
        assert 576 < jobs._REPSHIFT_STATE_BOUND < 14400
        doc = {"command": "repshift", "input": {"hnn": {"preset": "trefoil"}, "group": "Z3"}}
        monkeypatch.setattr(jobs, "_REPSHIFT_STATE_BOUND", 8)
        code, out, err = self.run_main(tmp_path, capsys, doc, ["repshift"])
        assert (code, out) == (3, "")
        assert err == (
            "budget exhausted: the representation shift has 9 states, more than the 8 a repshift "
            "report prints as a dense matrix; tqft and bundle-counts report on it\n"
        )
        monkeypatch.setattr(jobs, "_REPSHIFT_STATE_BOUND", 9)
        assert self.run_main(tmp_path, capsys, doc, ["repshift"])[0] == 0

    @pytest.mark.parametrize("key", contract_check.UNKNOWN_PARAMETERS)
    def test_unknown_parameter_exit_one(self, key):
        assert contract_case_problems(f"unknown-parameter {key}") == []

    @pytest.mark.parametrize(
        "command, parameters, args, key",
        [
            ("reduce", {}, ["--limit", "5"], "limit"),
            ("tqft", {}, ["--max-n", "3"], "max_n"),
            ("reduce", {"m": 3}, [], "m"),
            ("tqft", {"m": 3}, [], "m"),
            ("burnside", {"limit": 5}, [], "limit"),
            ("witness", {}, ["--max-n", "3"], "max_n"),
            ("bundle-counts", {"m": 1}, [], "m"),
        ],
    )
    def test_parameter_the_command_does_not_read_exit_one(self, tmp_path, capsys, command, parameters, args, key):
        doc = {"command": command, "input": {}, "parameters": parameters}
        code, out, err = self.run_main(tmp_path, capsys, doc, [command] + args)
        assert (code, out, err) == (1, "", f"error: $.parameters.{key}: unknown parameter\n")

    @pytest.mark.parametrize(
        "command, input_doc, key, value",
        [
            ("witness", SIX_STATE_JOB["input"], "m", 2),
            ("burnside", SIX_STATE_JOB["input"], "max_n", 2),
            ("quotient-counts", SIX_STATE_JOB["input"], "max_n", 2),
            ("repshift", {"hnn": {"preset": "trefoil"}, "group": "Z2"}, "max_n", 2),
            ("repshift", {"hnn": {"preset": "trefoil"}, "group": "Z2"}, "limit", 50),
            ("tqft", {"hnn": {"preset": "trefoil"}, "group": "Z2"}, "limit", 50),
            ("bundle-counts", {"hnn": {"preset": "trefoil"}, "group": "Z2"}, "max_n", 2),
            ("bundle-counts", {"hnn": {"preset": "trefoil"}, "group": "Z2"}, "limit", 50),
        ],
    )
    def test_each_read_parameter_is_accepted(self, tmp_path, capsys, command, input_doc, key, value):
        doc = {"command": command, "input": input_doc, "parameters": {key: value}}
        code, out, err = self.run_main(tmp_path, capsys, doc, [command])
        assert (code, err) == (0, "")
        assert json.loads(out)["input"]["parameters"] == {key: value}

    def test_unprintable_parameter_keeps_one_line(self, tmp_path, capsys):
        doc = dict(SIX_STATE_JOB, parameters={"max\rn": 3})
        code, out, err = self.run_main(tmp_path, capsys, doc, ["reduce"])
        assert (code, out, err) == (1, "", 'error: $.parameters["max\\rn"]: unknown parameter\n')

    @pytest.mark.parametrize("flag", contract_check.UNKNOWN_FLAGS)
    def test_unknown_flag_exit_one(self, flag):
        assert contract_case_problems(f"unknown-flag {flag}") == []

    def test_usage_error_exit_one(self, tmp_path, capsys):
        code, out, err = self.run_main(tmp_path, capsys, SIX_STATE_JOB, ["reduce", "--max-n", "x"])
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and "--max-n" in err

    @pytest.mark.parametrize("command, input_doc, field", contract_check.RECTANGULAR)
    def test_rectangular_state_matrix_exit_one(self, command, input_doc, field):
        assert contract_case_problems(f"rectangular {command}") == []

    @pytest.mark.parametrize("group, message", contract_check.NAMED_TOO_LARGE)
    def test_named_group_too_large_exit_one(self, group, message):
        assert contract_case_problems(f"named-group {group}") == []

    def test_zero_one_precondition_names_no_refusing_recoding(self):
        """A matrix with an entry above 1 is refused with a line that names
        no recoding: higher-block recoding refuses the same matrix."""
        assert contract_case_problems("zero-one matrix") == []
        with pytest.raises(errors.PreconditionError, match="higher-block recoding needs a zero-one matrix"):
            sftact.higher_block(sftact.SftPresentation(sftact.IntMatrix(((2,),))), 2)

    @pytest.mark.parametrize(
        "names, path, message",
        [
            (["a", "a"], "names", "element names must be pairwise distinct"),
            (["a"], "names", "expected one name per table row"),
            ([], "names", "expected one name per table row"),
            # state labels join element names with commas, so the group is at fault, not the HNN data
            (["a", "a,a"], "names[1]", "element names must not contain ','"),
            (["e", "x,y"], "names[1]", "element names must not contain ','"),
        ],
        ids=["repeated", "too-few", "empty", "comma-labels-collide", "comma-labels-unreadable"],
    )
    def test_faulty_group_names_name_the_names(self, tmp_path, capsys, names, path, message):
        group = {"table": [[0, 1], [1, 0]], "names": names}
        doc = {"command": "repshift", "input": {"hnn": {"preset": "trefoil"}, "group": group}}
        code, out, err = self.run_main(tmp_path, capsys, doc, ["repshift"])
        assert (code, out, err) == (1, "", f"error: $.input.group.{path}: {message}\n")

    def test_uncovered_split_partition_exit_one(self, tmp_path, capsys):
        doc = {"command": "split", "input": dict(SPLIT_INPUT, partition=[[[1]], [[1]]])}
        code, out, err = self.run_main(tmp_path, capsys, doc, ["split"])
        assert (code, out) == (1, "")
        assert err == "error: $.input.partition: blocks at state 1 do not partition its out-edges\n"

    @pytest.mark.parametrize("command", ["repshift", "tqft", "bundle-counts"])
    def test_inconsistent_hnn_data_exit_one(self, tmp_path, capsys, command):
        # U = <u | u^2> sits in B = <b> as u = b, but over Z3 b may have order 3
        hnn = {
            "b_gens": 1,
            "u_gens": [[[1, 1]]],
            "u_relators": [[[1, 1], [1, 1]]],
            "v_gens": [[[1, 1]]],
            "phi_images": [[[1, 1]]],
        }
        doc = {"command": command, "input": {"hnn": hnn, "group": "Z3"}}
        code, out, err = self.run_main(tmp_path, capsys, doc, [command])
        assert (code, out) == (1, "")
        assert err.startswith("error: $.input.hnn: inconsistent HNN data: the initial state")

    def test_max_n_override_obeys_parameter_rules(self, tmp_path, capsys):
        doc = {"command": "repshift", "input": {"hnn": {"preset": "trefoil"}, "group": "Z2"}}
        code, out, err = self.run_main(tmp_path, capsys, doc, ["repshift", "--max-n", "0"])
        assert (code, out) == (1, "")
        assert "$.parameters.max_n" in err

    def test_limit_override_obeys_parameter_rules(self, tmp_path, capsys):
        doc = {"command": "repshift", "input": {"hnn": {"preset": "trefoil"}, "group": "Z2"}}
        code, out, err = self.run_main(tmp_path, capsys, doc, ["repshift", "--limit", "-3"])
        assert (code, out) == (1, "")
        assert "$.parameters.limit" in err

    def test_override_is_echoed(self, tmp_path, capsys):
        doc = dict(SIX_STATE_JOB, command="burnside", parameters={"max_n": 2})
        code, out, _ = self.run_main(tmp_path, capsys, doc, ["burnside", "--max-n", "3"])
        assert code == 0
        report = json.loads(out)
        assert report["input"]["parameters"] == {"max_n": 3}
        assert len(report["result"]["counts"]) == 3

    @pytest.mark.parametrize(
        "command, key, parameters, args",
        [
            ("burnside", "max_n", {"max_n": 10001}, []),
            ("burnside", "max_n", {}, ["--max-n", str(10**20)]),
            ("witness", "m", {"m": 10001}, []),
        ],
        ids=["max_n-document", "max_n-flag", "m-document"],
    )
    def test_count_length_above_bound_exit_one(self, tmp_path, capsys, command, key, parameters, args):
        doc = dict(SIX_STATE_JOB, command=command, parameters=parameters)
        code, out, err = self.run_main(tmp_path, capsys, doc, [command] + args)
        assert (code, out) == (1, "")
        assert err == f"error: $.parameters.{key}: expected an integer <= 10000\n"

    def test_count_length_at_bound(self, tmp_path, capsys):
        """``max_n`` may be 10000, and ``limit`` has no upper bound."""
        doc = {
            "command": "repshift",
            "input": {"hnn": {"preset": "trefoil"}, "group": "Z1"},
            "parameters": {"max_n": 10000, "limit": 10**20},
        }
        code, out, err = self.run_main(tmp_path, capsys, doc, ["repshift"])
        assert (code, err) == (0, "")
        assert json.loads(out)["result"]["period_counts"] == [1] * 10000

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_exact_result_beyond_digit_limit(self, tmp_path, capsys, fmt):
        """det(I - tA) = 1 - 2*10^4000 t + (10^8000 - 1) t^2 prints in full,
        and the interpreter's digit limit is the same afterwards."""
        get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        before = get_limit()
        big = 10**4000
        doc = {"command": "invariants", "input": {"matrix": [[big, 1], [1, big]]}}
        code, out, err = self.run_main(tmp_path, capsys, doc, ["invariants", "--format", fmt])
        assert (code, err) == (0, "")
        assert get_limit() == before
        # the decimal digits of 10^8000 - 1 and of -2*10^4000, written out by hand
        assert re.search(r"-\s?2" + "0" * 4000 + r"(?!\d)", out)
        assert re.search(r"(?<!\d)" + "9" * 8000 + r"(?!\d)", out)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit before Python 3.11")
    def test_integer_literal_beyond_digit_limit_exit_one(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text('{"command": "invariants", "input": {"matrix": [[' + "7" * 5000 + "]]}}")
        code = main(["invariants", "--input", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith("error: malformed JSON document: ")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "command, text",
        [
            ("reduce", '{"command": "reduce", "input": ' + "[" * 3000 + "]" * 3000 + "}"),
            (
                "tqft",
                '{"command": "tqft", "input": {"hnn": {"preset": "trefoil"}, "group": '
                + '{"name": ' * 990 + '"S3"' + "}" * 990 + "}}",
            ),
        ],
        ids=["arrays-3000-deep", "group-names-990-deep"],
    )
    def test_nesting_past_the_recursion_limit_exit_one(self, tmp_path, capsys, command, text):
        """Past sys.getrecursionlimit(), where json.loads stops up to 3.11;
        from 3.12 on its C decoder nests deeper, and the depth bound stops
        these.  The message is the same either way."""
        path = tmp_path / "job.json"
        path.write_text(text)
        code = main([command, "--input", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: malformed JSON document: nested more than 100 deep\n"

    @pytest.mark.parametrize(
        "depth, message",
        [
            (100, "$.input: expected an object"),
            (101, "malformed JSON document: nested more than 100 deep"),
            (100000, "malformed JSON document: nested more than 100 deep"),
        ],
    )
    def test_nesting_bound(self, tmp_path, capsys, depth, message):
        """The job object and depth - 1 arrays inside it; 100000 levels are
        past the JSON decoder's own limit in every Python version."""
        path = tmp_path / "job.json"
        path.write_text('{"command": "reduce", "input": ' + "[" * (depth - 1) + "]" * (depth - 1) + "}")
        code = main(["reduce", "--input", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")

    def test_group_name_must_be_a_string(self, tmp_path, capsys):
        """``{"name": ...}`` holds a name, not another group document."""
        for group in ({"name": {"name": "S3"}}, {"name": {"table": [[0]]}}, {"name": 3}):
            doc = {"command": "tqft", "input": {"hnn": {"preset": "trefoil"}, "group": group}}
            code, out, err = self.run_main(tmp_path, capsys, doc, ["tqft"])
            assert (code, out, err) == (1, "", "error: $.input.group.name: expected a group name\n")

    @pytest.mark.parametrize("text", [",()", "(),", " , () ", "(1 2),"])
    def test_stray_comma_in_cycles_exit_one(self, tmp_path, capsys, text):
        doc = {"command": "reduce", "input": {"matrix": [[1, 1], [1, 1]], "group": {"generators": [text]}}}
        code, out, err = self.run_main(tmp_path, capsys, doc, ["reduce"])
        assert (code, out) == (1, "")
        assert err == f"error: $.input.group.generators[0]: malformed cycle notation {text!r}\n"

    @pytest.mark.parametrize(
        "name",
        ["Z" + "9" * 5000, "S3\n", "S\u0663", "Z1_2", " Z2", "Z-3"],
        ids=["past-digit-limit", "newline", "arabic-indic-digit", "underscore", "leading-space", "sign"],
    )
    def test_malformed_group_name_exit_one(self, tmp_path, capsys, name):
        """Only a whole ASCII name reads as a group; a parameter past Python's
        int digit limit (3.11 and later) is unknown, and before 3.11 it is
        past the builder's range."""
        doc = {"command": "repshift", "input": {"hnn": {"preset": "trefoil"}, "group": name}}
        code, out, err = self.run_main(tmp_path, capsys, doc, ["repshift"])
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(
            ("error: $.input.group: unknown group name ", "error: $.input.group: cyclic groups are supported")
        ), err
        if len(name) < 10:
            assert err == f"error: $.input.group: unknown group name {name!r}\n"

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("2_0", "non-integer entry in cycle '1 2_0'"),
            ("\u0662", "non-integer entry in cycle '1 \u0662'"),
            ("2.0", "non-integer entry in cycle '1 2.0'"),
            ("0x2", "non-integer entry in cycle '1 0x2'"),
            ("--2", "non-integer entry in cycle '1 --2'"),
            ("-1", "cycle entry -1 out of range 1..3"),
            ("+9", "cycle entry 9 out of range 1..3"),
            ("+2", None),
            ("002", None),
        ],
    )
    def test_cycle_entry_grammar(self, tmp_path, capsys, entry, message):
        ones = [[1, 1, 1]] * 3
        doc = {"command": "reduce", "input": {"matrix": ones, "group": {"generators": [f"(1 {entry})"]}}}
        code, out, err = self.run_main(tmp_path, capsys, doc, ["reduce"])
        if message is None:
            assert (code, err) == (0, "")
        else:
            assert (code, out) == (1, "")
            assert err == f"error: $.input.group.generators[0]: {message}\n"

    def test_cycle_entry_past_digit_limit_exit_one(self, tmp_path, capsys):
        entry = "9" * 5000
        doc = {"command": "reduce", "input": {"matrix": [[1, 1], [1, 1]], "group": {"generators": [f"(1 {entry})"]}}}
        code, out, err = self.run_main(tmp_path, capsys, doc, ["reduce"])
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        # int() reads it before Python 3.11, and then it is out of range
        assert err.startswith(("error: $.input.group.generators[0]: non-integer entry in cycle '1 99",
                               "error: $.input.group.generators[0]: cycle entry 99")), err[:100]

    @pytest.mark.parametrize(
        "error, code, line",
        [
            (errors.InputError, 1, "error: boom"),
            (errors.PreconditionError, 2, "precondition failed: boom"),
            (errors.LimitExceededError, 3, "budget exhausted: boom"),
            (errors.CapExceededError, 3, "budget exhausted: boom"),
            (errors.InternalError, 4, "internal error: boom"),
            (errors.SftactError, 4, "internal error: boom"),
            (ValueError, 4, "internal error: ValueError: boom"),
        ],
        ids=lambda v: v.__name__ if isinstance(v, type) else None,
    )
    def test_each_error_family_has_its_exit_code(self, tmp_path, capsys, monkeypatch, error, code, line):
        parse, _, reads = jobs._COMMAND_TABLE["burnside"]

        def fail(parsed):
            raise error("boom")

        monkeypatch.setitem(jobs._COMMAND_TABLE, "burnside", (parse, fail, reads))
        doc = dict(SIX_STATE_JOB, command="burnside")
        assert self.run_main(tmp_path, capsys, doc, ["burnside"]) == (code, "", line + "\n")

    def test_budget_defaults_are_the_library_ones(self):
        from sftact import action, repshift

        assert action.group_from_generators.__defaults__ == (action.CLOSURE_LIMIT,)
        assert repshift.enumerate_homs.__defaults__ == (repshift.HOM_LIMIT,)
        assert repshift.build_repshift.__defaults__ == (repshift.HOM_LIMIT,)
        assert (action.CLOSURE_LIMIT, repshift.HOM_LIMIT) == (100000, 1000000)

    def test_text_format_stable(self, tmp_path, capsys):
        code1, out1, _ = self.run_main(
            tmp_path, capsys, SIX_STATE_JOB, ["reduce", "--format", "text"]
        )
        code2, out2, _ = self.run_main(
            tmp_path, capsys, SIX_STATE_JOB, ["reduce", "--format", "text"]
        )
        assert code1 == code2 == 0
        assert out1 == out2


SWAP_JOB = {"command": "quotient-counts", "input": {"matrix": [[0, 1], [1, 0]], "group": {"generators": ["(1 2)"]}}}
SWAP_TWO = "command: quotient-counts\ncounts: [1, 1]\n"
HELP = cli.HELP.format(commands=", ".join(COMMANDS))
CHOICES = ", ".join(map(repr, COMMANDS))

# argv ("P" is the path of a file holding SWAP_JOB) -> exit code, stdout, stderr
ARGV_TABLE = [
    (["quotient-counts", "--input", "P", "--format", "text", "--max-n", "2"], 0, SWAP_TWO, ""),
    (["quotient-counts", "--input=P", "--format=text", "--max-n=2"], 0, SWAP_TWO, ""),
    (["--format", "text", "--max-n=2", "quotient-counts", "--input", "P"], 0, SWAP_TWO, ""),
    (["quotient-counts", "--input", "P", "--format", "json", "--max-n", "5", "--format=text", "--max-n", "2"],
     0, SWAP_TWO, ""),
    (["-h"], 0, HELP, ""),
    (["--help"], 0, HELP, ""),
    (["quotient-counts", "--input", "P", "--help"], 0, HELP, ""),
    ([], 1, "", "error: the following arguments are required: command\n"),
    (["--input", "P", "--max-n", "2"], 1, "", "error: the following arguments are required: command\n"),
    (["frobnicate", "--input", "P"], 1, "",
     f"error: argument command: invalid choice: 'frobnicate' (choose from {CHOICES})\n"),
    (["quotient-counts", "--input", "P", "--max-n"], 1, "", "error: argument --max-n: expected one argument\n"),
    (["quotient-counts", "--input", "--format", "text"], 1, "", "error: argument --input: expected one argument\n"),
    (["quotient-counts", "--input", "P", "--format", "yaml"], 1, "",
     "error: argument --format: invalid choice: 'yaml' (choose from 'json', 'text')\n"),
    (["quotient-counts", "--input", "P", "--max", "2"], 1, "", "error: unrecognized arguments: --max 2\n"),
    (["quotient-counts", "--input", "P", "--limit", "2.5"], 1, "", "error: argument --limit: invalid int value: '2.5'\n"),
    (["quotient-counts", "--input", "P", "reduce", "-x"], 1, "", "error: unrecognized arguments: reduce -x\n"),
    (["quotient-counts", "--input", "P", "--cap\n5"], 1, "", 'error: unrecognized arguments: "--cap\\n5"\n'),
    (["reduce", "--input", "P"], 1, "",
     "error: $.command: document says 'quotient-counts' but the subcommand is 'reduce'\n"),
]


@pytest.mark.parametrize("argv, code, out, err", ARGV_TABLE, ids=[" ".join(row[0]) or "empty" for row in ARGV_TABLE])
def test_argv(tmp_path, capsys, argv, code, out, err):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(SWAP_JOB))
    argv = [token.replace("P", str(path)) if token in ("P", "--input=P") else token for token in argv]
    assert main(argv) == code
    assert capsys.readouterr() == (out, err)


def test_help_lists_every_command():
    assert HELP.startswith("usage: sftact COMMAND [--input PATH|-] [--format json|text] [--limit N] [--max-n N]\n")
    assert f"commands: {', '.join(COMMANDS)}\n" in HELP


class TestOptimizedInterpreter:
    """Checks must be raised errors, not asserts that ``python -O`` drops."""

    @pytest.mark.parametrize(
        "doc, code",
        [(NON_INVARIANT_JOB, 2), (Z48_REPSHIFT_JOB, 1), (NUMBER_NAMES_JOB, 1)],
        ids=["non-invariant-action", "non-associative-table", "non-array-names"],
    )
    def test_one_line_error_without_traceback(self, tmp_path, doc, code):
        proc = run_cli(tmp_path, doc, optimize=True)
        assert proc.returncode == code
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr

    def test_failed_internal_check_exits_four(self, tmp_path):
        # One period count of the identity element is off by one, so the
        # Burnside sum is no longer divisible by the group order.
        code = """
import sys
from sftact import matrices
from sftact.cli import main

zeta = matrices._zeta
calls = []

def off_by_one(sub, m, with_det):
    out, det = zeta(sub, m, with_det)
    out[0] += not calls
    calls.append(sub)
    return out, det

matrices._zeta = off_by_one
sys.exit(main())
"""
        doc = {"command": "burnside", "input": SIX_STATE_JOB["input"], "parameters": {"max_n": 4}}
        proc = run_cli(tmp_path, doc, optimize=True, code=code)
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr == (
            "internal error: the period-1 Burnside sum is not divisible by |G| = 4\n"
        )

    def test_uncaught_exception_exits_four(self, tmp_path):
        # A runner that fails with an exception the exit codes do not name.
        code = """
import sys
from sftact import cli, jobs

parse, _, reads = jobs._COMMAND_TABLE["burnside"]

def crash(parsed):
    return 1 // 0

jobs._COMMAND_TABLE["burnside"] = (parse, crash, reads)
sys.exit(cli.main())
"""
        doc = {"command": "burnside", "input": SIX_STATE_JOB["input"]}
        proc = run_cli(tmp_path, doc, optimize=True, code=code)
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr == "internal error: ZeroDivisionError: integer division or modulo by zero\n"
