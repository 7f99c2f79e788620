import hashlib
import json
import tracemalloc

import pytest

import hcolkit.cli
import hcolkit.reductions
import hcolkit.reps
from hcolkit.cli import main
from hcolkit.graphs import Graph, make_complete, make_cycle, make_petersen, write_graph
from hcolkit.kernels import VertexCoverInstance, read_kernel_result, write_instance
from hcolkit.reductions import CnfFormula, write_dimacs, write_list_instance
from hcolkit.gf import field_make
from hcolkit.reps import kneser_rep, rep_from_json, rep_to_json, vandermonde_rep


@pytest.fixture
def files(tmp_path):
    paths = {}

    def put(name, text):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
        return str(p)

    put("petersen.g", write_graph(make_petersen()))
    put("k4.g", write_graph(make_complete(4)))
    put("c5.g", write_graph(make_cycle(5)))
    put("empty4.g", write_graph(Graph(4)))
    inst = VertexCoverInstance(
        Graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)]), (0, 1, 2)
    )
    put("inst.g", write_instance(inst))
    put("phi4.cnf", write_dimacs(CnfFormula(2, ((1, 2, -1, -2), (1, 1, 2, -2)))))
    put("badwidth.cnf", write_dimacs(CnfFormula(2, ((1, 2),))))
    put("lists.g", write_list_instance(make_cycle(4), {0: (0,), 2: (0, 2)}))
    paths["dir"] = str(tmp_path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_witness_text_and_json(files, capsys):
    code, out, _ = run(capsys, "witness", files["petersen.g"])
    assert code == 0 and out.startswith("q=3 witness={")
    code, out, _ = run(capsys, "--format", "json", "witness", files["k4.g"])
    assert code == 0 and json.loads(out)["q"] == 4
    code, out, _ = run(capsys, "witness", files["empty4.g"])
    assert code == 0 and out.startswith("q=1 ")


def test_kernelize_combinatorial(files, capsys, tmp_path):
    out_path = str(tmp_path / "kern.g")
    code, out, _ = run(
        capsys,
        "kernelize", files["inst.g"],
        "--target", files["c5.g"],
        "--mode", "combinatorial", "--q", "2",
        "--verify", "--out", out_path,
    )
    assert code == 0
    stats = json.loads(out)
    assert stats["verified_equivalent"] is True
    assert stats["vertices"] <= 3 + 3 + 3  # k + C(3,1) + C(3,2)
    result = read_kernel_result(open(out_path).read())
    assert result.graph.is_vertex_cover(result.cover)


def test_kernelize_stats_file(files, capsys, tmp_path):
    out_path = str(tmp_path / "kern.g")
    stats_path = str(tmp_path / "kern.stats.json")
    code, out, _ = run(
        capsys,
        "kernelize", files["inst.g"], "--target", files["c5.g"],
        "--mode", "combinatorial", "--q", "2",
        "--out", out_path, "--stats", stats_path,
    )
    assert code == 0 and out == ""
    stats = json.loads(open(stats_path).read())
    assert stats["mode"] == "combinatorial" and "elapsed" not in stats


def test_kernelize_empty_instance(files, capsys, tmp_path):
    empty_path = str(tmp_path / "empty_inst.g")
    open(empty_path, "w").write(write_instance(VertexCoverInstance(Graph(0), ())))
    out_path = str(tmp_path / "empty_kern.g")
    code, out, _ = run(
        capsys,
        "kernelize", empty_path, "--target", files["c5.g"],
        "--mode", "combinatorial", "--q", "2", "--out", out_path,
    )
    assert code == 0
    assert json.loads(out)["vertices"] == 0
    assert read_kernel_result(open(out_path).read()).graph.n == 0


def test_kernelize_rejects_edgeless_target(files, capsys):
    code, _, err = run(
        capsys,
        "kernelize", files["inst.g"], "--target", files["empty4.g"],
        "--mode", "combinatorial", "--q", "2",
    )
    assert code == 2 and "no edges" in err


def test_kernelize_refuses_q_below_the_target_witness_number(files, capsys, tmp_path):
    # K4 with cover {0, 1, 2} is not 3-colourable, but its kernel at q = 2
    # against K3 (q(K3) = 3) is; q = 3 keeps the answer
    k4_path = str(tmp_path / "k4_inst.g")
    open(k4_path, "w").write(write_instance(VertexCoverInstance(make_complete(4), (0, 1, 2))))
    k3_path = str(tmp_path / "k3.g")
    open(k3_path, "w").write(write_graph(make_complete(3)))
    argv = ("kernelize", k4_path, "--target", k3_path, "--mode", "combinatorial")
    for extra in ((), ("--verify",)):
        code, out, err = run(capsys, *argv, "--q", "2", *extra)
        assert (code, out) == (2, "")
        assert err == (
            "hcol: --q 2 is below the witness number 3 of the target; "
            "the kernel would not preserve target-colorability\n"
        )
    code, out, _ = run(capsys, *argv, "--q", "3", "--verify")
    assert code == 0 and out.startswith("10 ")


def test_kernelize_combinatorial_reads_target_under_the_witness_ceiling(files, capsys, monkeypatch):
    # q(target) cannot be certified above the witness ceiling, so such a
    # target is refused while reading, with or without --verify
    monkeypatch.setenv("HCOL_WITNESS_VERTICES", "4")
    argv = ("kernelize", files["inst.g"], "--target", files["c5.g"], "--mode", "combinatorial", "--q", "2")
    for extra in ((), ("--verify",)):
        code, out, err = run(capsys, *argv, *extra)
        assert code == 2 and out == ""
        assert "announces 5 vertices, above the limit of 4" in err


def test_kernelize_flag_validation(files, capsys):
    code, _, err = run(
        capsys,
        "kernelize", files["inst.g"], "--target", files["c5.g"],
        "--mode", "combinatorial",
    )
    assert code == 2 and "--q" in err


def test_represent_and_algebraic_kernelize(files, capsys, tmp_path):
    rep_path = str(tmp_path / "pet.json")
    code, out, _ = run(
        capsys, "represent", "--family", "kneser", "--m", "5", "--r", "2",
        "--out", rep_path,
    )
    assert code == 0 and json.loads(out)["d"] == 3
    rep = rep_from_json(open(rep_path).read(), make_petersen())
    assert rep.d == 3

    # an instance over the petersen target: map through the generated graph file
    pet_path = str(tmp_path / "pet.g")
    open(pet_path, "w").write(write_graph(rep.graph))
    inst_path = str(tmp_path / "pinst.g")
    inst = VertexCoverInstance(Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)]), (0, 1, 2))
    open(inst_path, "w").write(write_instance(inst))
    kern_path = str(tmp_path / "pk.g")
    code, out, _ = run(
        capsys,
        "kernelize", inst_path, "--target", pet_path,
        "--mode", "algebraic", "--rep", rep_path,
        "--verify", "--out", kern_path,
    )
    assert code == 0
    stats = json.loads(out)
    assert stats["mode"] == "algebraic" and stats["verified_equivalent"] is True


def kernelize_edited_rep(files, capsys, tmp_path, edits):
    """Run the algebraic kernelization of inst.g into C5 with the
    Vandermonde representation of C5 over GF(163) (d = 3) after `edits`,
    a map from a path into its JSON to a new value (None deletes it)."""
    payload = json.loads(rep_to_json(vandermonde_rep(make_cycle(5), field_make(163, 1))))
    for path, value in edits.items():
        *outer, last = path
        node = payload
        for key in outer:
            node = node[key]
        if value is None:
            del node[last]
        else:
            node[last] = value
    rep_path = tmp_path / "bad.rep"
    rep_path.write_text(json.dumps(payload))
    return run(
        capsys,
        "kernelize", files["inst.g"], "--target", files["c5.g"],
        "--mode", "algebraic", "--rep", str(rep_path),
    )


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("spec",), None, "entry 'spec' of type dict"),
        (("spec", "p"), None, "entry 'p' of type int"),
        (("d",), None, "entry 'd' of type int"),
        (("spec", "m"), "3", "entry 'm' of type int"),
        (("vectors",), 5, "entry 'vectors' of type list"),
        (("vectors", 0), 3, "lists of coefficient lists"),
        (("vectors", 0, 1), ["7"], "ints in [0, 163)"),
        (("vectors", 0, 1), [170], "ints in [0, 163)"),
        (("spec", "irreducible"), [200, 1], "ints in [0, 163)"),
        (("spec", "p"), 10**24, "primality is decided only below"),
        (("spec", "p"), 4, "4 is not prime"),
        (("spec", "m"), 0, "extension degree must be >= 1"),
        (("spec", "irreducible"), [1, 2], "modulus must be monic of degree m"),
        (("vectors", 0), None, "one vector per vertex required"),
        (("vectors", 0), [[1], [1], [1], [1]], "vector of wrong dimension"),
        (("kind",), "skew", "unknown representation kind 'skew'"),
    ],
    ids=(
        "no-spec", "no-p", "no-d", "string-m", "vectors-not-list", "vector-not-list",
        "string-coefficient", "coefficient-above-p", "modulus-above-p", "p-above-prime-range",
        "p-not-prime", "m-zero", "modulus-not-monic", "vector-missing", "vector-too-long",
        "unknown-kind",
    ),
)
def test_malformed_rep_is_one_line(files, capsys, tmp_path, path, value, message):
    # a C5 representation over GF(163) with one entry removed (value None) or replaced
    code, out, err = kernelize_edited_rep(files, capsys, tmp_path, {path: value})
    assert code == 2 and out == ""
    assert err.startswith("hcol: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_reducible_modulus_is_one_line(files, capsys, tmp_path):
    # GF(163^2) modulo x^2: monic of degree m, but not irreducible
    edits = {("spec", "m"): 2, ("spec", "irreducible"): [0, 0, 1]}
    code, out, err = kernelize_edited_rep(files, capsys, tmp_path, edits)
    assert (code, out, err) == (2, "", "hcol: modulus is reducible\n")


def test_algebraic_kernelize_checks_faithfulness_once(files, capsys, tmp_path, monkeypatch):
    # the Kneser representation is not kernel-ready, so it is normalized
    # anew; that keeps the verdict of the one check on the file as read
    rep = kneser_rep(5, 2, field_make(163, 1), seed=0)
    assert not rep.has_unit_first_entries()
    rep_path, target_path = tmp_path / "k52.rep", tmp_path / "k52.g"
    rep_path.write_text(rep_to_json(rep))
    target_path.write_text(write_graph(rep.graph))
    calls = []
    for module in (hcolkit.cli, hcolkit.reps):
        def counted(rep, check=module.check_faithful):
            calls.append(rep)
            return check(rep)
        monkeypatch.setattr(module, "check_faithful", counted)
    code, _, _ = run(
        capsys,
        "kernelize", files["inst.g"], "--target", str(target_path),
        "--mode", "algebraic", "--rep", str(rep_path), "--verify",
    )
    assert code == 0 and len(calls) == 1


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (("witness", "bad.g"), "2 0\nL\n", "label line without a vertex: 'L'"),
        (
            ("reduce", "--from", "list-hcol", "--instance", "bad.g", "--target", "c5.g"),
            "2 0\nA\n",
            "list line without a vertex: 'A'",
        ),
    ],
    ids=("bare-label", "bare-list-line"),
)
def test_bare_tag_line_is_one_line(files, capsys, tmp_path, argv, text, message):
    files["bad.g"] = str(tmp_path / "bad.g")
    (tmp_path / "bad.g").write_text(text)
    code, out, err = run(capsys, *(files.get(a, a) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("hcol: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("line", ["A 7 0 1", "A -1 2"])
def test_list_line_outside_the_graph_is_refused(files, capsys, tmp_path, line):
    # the oracle refuses such lists, so the reduction must not drop them
    bad = tmp_path / "bad.lst"
    bad.write_text(f"3 1\n0 1\n{line}\n")
    code, out, err = run(
        capsys, "reduce", "--from", "list-hcol", "--instance", str(bad), "--target", files["c5.g"],
    )
    assert code == 2 and out == ""
    assert err == f"hcol: list line needs a vertex of the graph: {line!r}\n"


def test_rep_above_degree_ceiling_is_refused(files, capsys, tmp_path):
    # a C5 representation over GF(163) rewritten to GF(163^12) with an
    # irreducible modulus: refused for its degree, before the modulus is tested
    payload = json.loads(rep_to_json(vandermonde_rep(make_cycle(5), field_make(163, 1))))
    payload["spec"].update(m=12, irreducible=[1] + [0] * 10 + [18, 1])
    rep_path = tmp_path / "deg12.rep"
    rep_path.write_text(json.dumps(payload))
    code, out, err = run(
        capsys,
        "kernelize", files["inst.g"], "--target", files["c5.g"],
        "--mode", "algebraic", "--rep", str(rep_path),
    )
    assert code == 2 and out == ""
    assert err.startswith("hcol: ") and "degree 12 exceeds ceiling 8" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_rep_over_a_large_prime_is_decided(files, capsys, tmp_path):
    # the same representation read over GF(10^18 + 3): primality of p is
    # decided at once, not by trial division up to 10^9
    payload = json.loads(rep_to_json(vandermonde_rep(make_cycle(5), field_make(163, 1))))
    payload["spec"]["p"] = 10**18 + 3
    rep_path = tmp_path / "bigp.rep"
    rep_path.write_text(json.dumps(payload))
    code, out, err = run(
        capsys,
        "kernelize", files["inst.g"], "--target", files["c5.g"],
        "--mode", "algebraic", "--rep", str(rep_path),
    )
    assert code == 0 and err == ""
    assert '"field_order":1000000000000000003' in out


def test_represent_vandermonde_and_ortho(files, capsys):
    code, out, _ = run(
        capsys, "represent", "--family", "vandermonde",
        "--graph", files["c5.g"], "--field", "7",
    )
    assert code == 0 and json.loads(out)["d"] == 3
    code, out, _ = run(capsys, "represent", "--family", "ortho", "--d", "3", "--field", "2")
    assert code == 0 and json.loads(out)["n"] == 4


PINNED_REPRESENT = {
    "kneser-5-2": (
        ("represent", "--family", "kneser", "--m", "5", "--r", "2"),
        "9ec953cc17ad2132d644cbb6652158d5bce014edb02f61c9f7507d362f4253e2",
    ),
    "kneser-5-2-gf256": (
        ("represent", "--family", "kneser", "--m", "5", "--r", "2", "--field", "2^8"),
        "e78d075cd8f2cda3f63b23d98d05c3894008919bdf11de74745d546386d20332",
    ),
    "vandermonde-c5-gf7": (
        ("represent", "--family", "vandermonde", "--graph", "c5.g", "--field", "7"),
        "c5a6ed421b682886792e2d20d006d92805b419b05272a09e593c2c8510b48840",
    ),
    # seeds whose first projections are rejected (two or three trials)
    "kneser-5-2-seed5": (
        ("--seed", "5", "represent", "--family", "kneser", "--m", "5", "--r", "2", "--field", "163"),
        "0b76c7bc72ccc3ff9306f4cce2f5f7fc06e530d2917a7af4a90ae18badb983a2",
    ),
    "kneser-5-2-seed6": (
        ("--seed", "6", "represent", "--family", "kneser", "--m", "5", "--r", "2", "--field", "163"),
        "2a8d5f10399bfd514b33baee0318a8814dec1b5efa69492e3a2073ac55738f28",
    ),
    "kneser-5-2-seed9": (
        ("--seed", "9", "represent", "--family", "kneser", "--m", "5", "--r", "2", "--field", "163"),
        "d79e56896f066013991599882902774a9f821349b70cfe53a8e3d48fae111084",
    ),
    "kneser-6-2-gf307-seed1": (
        ("--seed", "1", "represent", "--family", "kneser", "--m", "6", "--r", "2", "--field", "307"),
        "96e176924985a0b28a92c5287e290ba322d20249009942d799efdb8c5bd1c637",
    ),
    "kneser-7-2-gf509-seed8": (
        ("--seed", "8", "represent", "--family", "kneser", "--m", "7", "--r", "2", "--field", "509"),
        "2f82d5728d56d6cde3499489965bcb71df0e02a7bb019fe6eb93c61afc90c460",
    ),
    # r = 3 with three points per support, r = 1, and m = 2r (a matching)
    "kneser-7-3": (
        ("represent", "--family", "kneser", "--m", "7", "--r", "3"),
        "bde280f18d4f77290aa7675fa0d59624973d0e0de14c9d523f6484056a9c17b2",
    ),
    "kneser-6-1": (
        ("represent", "--family", "kneser", "--m", "6", "--r", "1"),
        "812cd16c0e2c6784701b1a09742224f3a530b7d12715871bcda1e7ad425e0887",
    ),
    "kneser-6-3": (
        ("represent", "--family", "kneser", "--m", "6", "--r", "3"),
        "e9b8484bbcc528b4b0fb3fa296a232cfcfb7980fab02d30a2987817d13b8649b",
    ),
}


@pytest.mark.parametrize("argv, digest", PINNED_REPRESENT.values(), ids=PINNED_REPRESENT)
def test_represent_output_is_pinned(files, capsys, argv, digest):
    # representation JSON is part of the output contract: seeded and byte-stable
    code, out, _ = run(capsys, *(files.get(a, a) for a in argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_seed_and_format_from_the_environment_are_read_on_every_call(files, capsys, monkeypatch):
    # the parser is built once, so HCOL_SEED and HCOL_FORMAT must not be frozen into it
    for seed in ("5", "6"):
        monkeypatch.setenv("HCOL_SEED", seed)
        argv, digest = PINNED_REPRESENT[f"kneser-5-2-seed{seed}"]
        code, out, _ = run(capsys, *argv[2:])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
    for fmt, start in (("json", "{"), ("text", "q=4 ")):
        monkeypatch.setenv("HCOL_FORMAT", fmt)
        code, out, _ = run(capsys, "witness", files["k4.g"])
        assert code == 0 and out.startswith(start)


def test_represent_graph_out_feeds_kernelize(files, capsys, tmp_path):
    # full CLI flow for an orthogonality-graph target
    rep_path = str(tmp_path / "o.json")
    graph_path = str(tmp_path / "o.g")
    code, _, _ = run(
        capsys, "represent", "--family", "ortho", "--d", "3", "--field", "2",
        "--out", rep_path, "--graph-out", graph_path,
    )
    assert code == 0
    inst_path = str(tmp_path / "oinst.g")
    inst = VertexCoverInstance(Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)]), (0, 1, 2))
    open(inst_path, "w").write(write_instance(inst))
    code, out, _ = run(
        capsys,
        "--seed", "2",
        "kernelize", inst_path, "--target", graph_path,
        "--mode", "algebraic", "--rep", rep_path, "--verify",
        "--out", str(tmp_path / "okern.g"),
    )
    assert code == 0
    stats = json.loads(out)
    assert stats["verified_equivalent"] is True
    # the raw orthogonal representation over GF(2) was normalized into GF(8)
    assert stats["field_order"] == 8


def test_unfaithful_rep_is_refused_by_its_first_pair(files, capsys, tmp_path):
    # a K(5,2) representation with vector 0 replaced by vector 1: 0 now lies
    # in the span of the neighbors of vertex 5, which is not adjacent to it
    payload = json.loads(rep_to_json(kneser_rep(5, 2, field_make(163, 1), seed=0)))
    payload["vectors"][0] = payload["vectors"][1]
    rep_path = tmp_path / "dup.rep"
    rep_path.write_text(json.dumps(payload))
    code, out, err = run(
        capsys,
        "kernelize", files["inst.g"], "--target", files["petersen.g"],
        "--mode", "algebraic", "--rep", str(rep_path),
    )
    assert (code, out) == (2, "")
    assert err == f"hcol: representation in {rep_path} is not faithful: (0, 5, False)\n"


def test_zero_dimensional_rep_is_refused(files, capsys, tmp_path):
    payload = json.loads(rep_to_json(kneser_rep(5, 2, field_make(163, 1), seed=0)))
    payload.update(d=0, kind="orthogonal", vectors=[[] for _ in payload["vectors"]])
    rep_path = tmp_path / "zero.rep"
    rep_path.write_text(json.dumps(payload))
    code, out, err = run(
        capsys,
        "kernelize", files["inst.g"], "--target", files["petersen.g"],
        "--mode", "algebraic", "--rep", str(rep_path),
    )
    assert (code, out) == (2, "")
    assert err == "hcol: representation dimension must be at least 1, got 0\n"


def test_represent_field_too_small(files, capsys):
    code, _, err = run(
        capsys, "represent", "--family", "kneser", "--m", "5", "--r", "2",
        "--field", "7",
    )
    assert code == 2 and "threshold" in err


@pytest.mark.parametrize(
    "field, message",
    [
        ("7^", "--field must be p or p^m with integers p and m >= 1, got '7^'"),
        ("x", "--field must be p or p^m with integers p and m >= 1, got 'x'"),
        ("7^1^2", "--field must be p or p^m with integers p and m >= 1, got '7^1^2'"),
        ("1e3", "--field must be p or p^m with integers p and m >= 1, got '1e3'"),
        # m = 0 is malformed, not above the degree ceiling
        ("2^0", "--field must be p or p^m with integers p and m >= 1, got '2^0'"),
        ("4", "4 is not prime"),
        ("2^9", "infeasible at desk scale: extension degree must be in [1, 8]"),
    ],
    ids=["no-m", "not-a-number", "two-carets", "float", "m-zero", "not-prime", "above-degree-ceiling"],
)
def test_represent_refuses_a_malformed_field(capsys, field, message):
    code, out, err = run(capsys, "represent", "--family", "ortho", "--d", "3", "--field", field)
    assert (code, out, err) == (2, "", f"hcol: {message}\n")


def test_reduce_nae_sat(files, capsys, tmp_path):
    out_path = str(tmp_path / "red.g")
    code, _, _ = run(
        capsys, "reduce", "--from", "nae-sat", "--cnf", files["phi4.cnf"],
        "--target", files["k4.g"], "--out", out_path,
    )
    assert code == 0
    from hcolkit.kernels import read_instance

    inst = read_instance(open(out_path).read())
    assert inst.k == 4 + 2 * 4 * 2  # |V_H| + 2qn, interior-free gadget


def test_reduce_width_mismatch(files, capsys):
    code, _, err = run(
        capsys, "reduce", "--from", "nae-sat", "--cnf", files["badwidth.cnf"],
        "--target", files["k4.g"],
    )
    assert code == 2 and "width" in err


def test_reduce_refuses_a_repeated_dimacs_header(files, capsys, tmp_path):
    cnf = tmp_path / "twice.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 -1 0\np cnf 5 1\n")
    code, out, err = run(
        capsys, "reduce", "--from", "nae-sat", "--cnf", str(cnf), "--target", files["k4.g"],
    )
    assert (code, out, err) == (2, "", "hcol: repeated line in DIMACS file: 'p'\n")


def test_reduce_refuses_a_clause_before_the_dimacs_header(files, capsys, tmp_path):
    cnf = tmp_path / "late.cnf"
    cnf.write_text("1 2 0\np cnf 2 1\n")
    code, out, err = run(
        capsys, "reduce", "--from", "nae-sat", "--cnf", str(cnf), "--target", files["k4.g"],
    )
    assert (code, out, err) == (2, "", "hcol: missing 'p cnf' header before '1 2 0'\n")


def test_reduce_list_hcol(files, capsys, tmp_path):
    out_path = str(tmp_path / "plain.g")
    code, _, _ = run(
        capsys, "reduce", "--from", "list-hcol", "--instance", files["lists.g"],
        "--target", files["c5.g"], "--out", out_path,
    )
    assert code == 0
    from hcolkit.graphs import read_graph

    g = read_graph(open(out_path).read())
    assert g.n >= 4 + 5


def test_sweep_random_q(capsys):
    code, out, _ = run(
        capsys, "sweep", "--experiment", "random-q", "--sizes", "8,10", "--trials", "3"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,trials,mean_q,threshold,fraction_within"
    assert len(lines) == 3


def test_sweep_kernel_growth(capsys):
    code, out, _ = run(
        capsys, "sweep", "--experiment", "kernel-growth", "--ks", "4,5",
        "--q", "2", "--trials", "2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,trial,vertices,vertex_bound,ratio"
    assert len(lines) == 5
    for line in lines[1:]:
        ratio = float(line.split(",")[-1])
        assert ratio <= 1.0


def test_sweep_zero_trials(capsys):
    code, out, _ = run(
        capsys, "sweep", "--experiment", "random-q", "--sizes", "8", "--trials", "0"
    )
    assert code == 0
    assert out.strip() == "n,trials,mean_q,threshold,fraction_within"


@pytest.mark.parametrize(
    "argv",
    [("--experiment", "random-q", "--sizes", "8"), ("--experiment", "kernel-growth", "--ks", "4")],
    ids=["random-q", "kernel-growth"],
)
def test_sweep_refuses_negative_trials(capsys, argv):
    code, out, err = run(capsys, "sweep", *argv, "--trials", "-1")
    assert (code, out, err) == (2, "", "hcol: --trials must be non-negative, got -1\n")


@pytest.mark.parametrize("q", ["-2", "0"])
@pytest.mark.parametrize("trials", ["0", "2"])
def test_sweep_kernel_growth_refuses_q_below_one(capsys, q, trials):
    argv = ("sweep", "--experiment", "kernel-growth", "--ks", "4", "--q", q)
    code, out, err = run(capsys, *argv, "--trials", trials)
    assert (code, out, err) == (2, "", f"hcol: --q must be at least 1, got {q}\n")
    # the --trials check comes first
    code, out, err = run(capsys, *argv, "--trials", "-1")
    assert (code, out, err) == (2, "", "hcol: --trials must be non-negative, got -1\n")


def test_sweep_random_q_ignores_q(capsys):
    argv = ("sweep", "--experiment", "random-q", "--sizes", "8", "--trials", "2")
    assert run(capsys, *argv, "--q", "-2") == run(capsys, *argv)


@pytest.mark.parametrize(
    "argv",
    [("--experiment", "kernel-growth", "--ks"), ("--experiment", "random-q", "--sizes")],
    ids=["ks", "sizes"],
)
@pytest.mark.parametrize("value, item", [("-1", "-1"), ("0", "0"), ("x", "x"), ("4,,6", "")])
def test_sweep_refuses_a_count_list_entry_below_one(capsys, argv, value, item):
    flag = argv[-1]
    code, out, err = run(capsys, "sweep", *argv, value, "--trials", "1")
    assert (code, out, err) == (2, "", f"hcol: {flag} must list integers of at least 1, got {item!r}\n")
    # the --trials check comes first
    code, out, err = run(capsys, "sweep", *argv, value, "--trials", "-1")
    assert (code, out, err) == (2, "", "hcol: --trials must be non-negative, got -1\n")


def test_kneser_outside_its_range_is_one_line(capsys):
    expect = (2, "", "hcol: Kneser graph needs m >= 2r >= 2, got m=4, r=0\n")
    argv = ("represent", "--family", "kneser", "--m", "4", "--r", "0")
    assert run(capsys, *argv) == expect
    assert run(capsys, *argv, "--field", "7") == expect


def test_commands_are_deterministic(files, capsys, tmp_path):
    args = ["--seed", "5", "sweep", "--experiment", "random-q", "--sizes", "10", "--trials", "3"]
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    rep1 = str(tmp_path / "r1.json")
    rep2 = str(tmp_path / "r2.json")
    run(capsys, "--seed", "9", "represent", "--family", "kneser", "--m", "4", "--r", "2", "--out", rep1)
    run(capsys, "--seed", "9", "represent", "--family", "kneser", "--m", "4", "--r", "2", "--out", rep2)
    assert open(rep1).read() == open(rep2).read()


def test_cross_process_determinism(files, tmp_path):
    # different hash seeds in different interpreters must not leak into output
    import os
    import subprocess
    import sys

    argv = [
        sys.executable, "-m", "hcolkit.cli", "--seed", "11",
        "kernelize", files["inst.g"], "--target", files["c5.g"],
        "--mode", "combinatorial", "--q", "2", "--verify",
    ]
    outputs = []
    for hash_seed in ("0", "424242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(argv, capture_output=True, env=env, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


KERNELIZE = ("kernelize", "inst.g", "--target", "c5.g", "--mode")


@pytest.mark.parametrize(
    "argv, patched, code, last_line",
    [
        ((*KERNELIZE, "combinatorial", "--q", "2", "--rep", "x.rep"), None, 2,
         "hcol: --rep applies to the algebraic mode only"),
        ((*KERNELIZE, "algebraic"), None, 2, "hcol: --mode algebraic needs --rep"),
        ((*KERNELIZE, "algebraic", "--rep", "x.rep", "--q", "2"), None, 2,
         "hcol: --q applies to the combinatorial mode only"),
        (("represent", "--family", "kneser", "--m", "5"), None, 2,
         "hcol: --family kneser needs --m and --r"),
        (("represent", "--family", "vandermonde", "--field", "7"), None, 2,
         "hcol: --family vandermonde needs --graph and --field"),
        (("represent", "--family", "ortho", "--field", "3"), None, 2,
         "hcol: --family ortho needs --d and --field"),
        (("reduce", "--from", "nae-sat", "--target", "k4.g"), None, 2,
         "hcol: --from nae-sat needs --cnf"),
        (("reduce", "--from", "list-hcol", "--target", "c5.g"), None, 2,
         "hcol: --from list-hcol needs --instance"),
        (("--bogus", "witness", "k4.g"), None, 1,
         "hcol: error: unrecognized arguments: --bogus"),
        ((*KERNELIZE, "combinatorial", "--q", "2", "--verify"), "verify_kernel_equivalence", 3,
         "hcol: invariant violation: kernelization changed target-colorability"),
    ],
    ids=[
        "rep-in-combinatorial", "algebraic-without-rep", "q-in-algebraic",
        "kneser-without-r", "vandermonde-without-graph", "ortho-without-d",
        "nae-sat-without-cnf", "list-hcol-without-instance", "usage", "verify-disagrees",
    ],
)
def test_exit_code_contract(files, capsys, monkeypatch, argv, patched, code, last_line):
    # refused input exits 2 and an internal fault 3, each with one line;
    # a usage error exits 1 after the usage text
    if patched:
        monkeypatch.setattr(hcolkit.cli, patched, lambda *args, **kwargs: False)
    try:
        got = main([files.get(arg, arg) for arg in argv])
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    assert (got, captured.out) == (code, "")
    if code == 1:
        assert captured.err.splitlines()[-1] == last_line
    else:
        assert captured.err == last_line + "\n"


def test_internal_fault_in_a_reduction_exits_3(files, capsys, monkeypatch):
    monkeypatch.setattr(hcolkit.reductions, "naesat_cover_size", lambda *args: -1)
    code, out, err = run(
        capsys, "reduce", "--from", "nae-sat", "--cnf", files["phi4.cnf"], "--target", files["k4.g"],
    )
    assert (code, out) == (3, "")
    assert err.startswith("hcol: invariant violation: cover has ")
    assert err.endswith(" vertices, closed form says -1\n") and err.count("\n") == 1


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "witness", "/nonexistent/path.g")
    assert code == 1


def test_unreadable_path_is_usage_error(capsys, tmp_path):
    # a directory is not a graph file: one message line, no traceback
    code, out, err = run(capsys, "witness", str(tmp_path))
    assert code == 1
    assert out == ""
    assert err == f"hcol: cannot read {tmp_path}\n"


@pytest.mark.parametrize("flag", ["--out", "--stats", "--graph-out"])
@pytest.mark.parametrize("where", ["a directory", "a missing directory"])
def test_unwritable_output_names_the_write(files, capsys, tmp_path, flag, where):
    bad = str(tmp_path) if where == "a directory" else str(tmp_path / "missing" / "x.txt")
    if flag == "--out":
        argv = ["witness", files["petersen.g"], "--out", bad]
    elif flag == "--stats":
        argv = ["kernelize", files["inst.g"], "--target", files["c5.g"],
                "--mode", "combinatorial", "--q", "2", "--stats", bad]
    else:
        argv = ["represent", "--family", "kneser", "--m", "4", "--r", "2",
                "--graph-out", bad]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err == f"hcol: cannot write {bad}\n"


def test_help_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    for sub in ("witness", "kernelize", "represent", "reduce", "sweep"):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        capsys.readouterr()


def test_witness_ceiling_exit_code(files, capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("HCOL_WITNESS_VERTICES", "3")
    code, _, err = run(capsys, "witness", files["petersen.g"])
    assert code == 2 and "desk scale" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("witness",),
        ("reduce", "--from", "nae-sat", "--cnf", "phi4.cnf", "--target"),
        ("reduce", "--from", "list-hcol", "--instance", "lists.g", "--target"),
        ("kernelize", "--target", "c5.g", "--mode", "combinatorial", "--q", "2", "--verify"),
        ("kernelize", "inst.g", "--mode", "combinatorial", "--q", "2", "--verify", "--target"),
    ],
    ids=["witness", "reduce-nae-sat", "reduce-list-hcol", "kernelize-verify-instance", "kernelize-verify-target"],
)
def test_witness_refuses_a_large_header_before_building_rows(argv, files, capsys, tmp_path):
    path = tmp_path / "huge.g"
    path.write_text("100000 0\n")
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *(files.get(arg, arg) for arg in argv), str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert "100000 vertices" in err and err.count("\n") == 1
    # one row per announced vertex would take well over a megabyte
    assert peak < 600_000


def test_vandermonde_refuses_a_graph_above_the_field_order_at_its_header(files, capsys, tmp_path):
    path = tmp_path / "huge.g"
    path.write_text("2000000 0\n")
    tracemalloc.start()
    try:
        code, out, err = run(
            capsys, "represent", "--family", "vandermonde", "--graph", str(path), "--field", "7"
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == (
        "hcol: infeasible at desk scale: graph header announces 2000000 vertices, "
        "above the limit of 7\n"
    )
    assert peak < 600_000


def test_kernelize_reads_above_the_oracle_ceiling_only_without_verify(files, capsys, monkeypatch):
    # the 6-vertex instance is above a 5-vertex oracle: --verify refuses
    # it while reading, and a plain kernelize still builds its kernel
    monkeypatch.setenv("HCOL_ORACLE_VERTICES", "5")
    argv = ("kernelize", files["inst.g"], "--target", files["c5.g"], "--mode", "combinatorial", "--q", "2")
    code, out, err = run(capsys, *argv, "--verify")
    assert code == 2 and out == "" and "announces 6 vertices, above the limit of 5" in err
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.startswith("6 ")


@pytest.mark.parametrize(
    "source, message",
    [
        ("nae-sat", "no edge gadget found within 3 vertices "
                    "(inconclusive; the target may still be projective)"),
        ("list-hcol", "no edge gadget found within 3 vertices"),
    ],
    ids=["nae-sat", "list-hcol"],
)
def test_reduce_gadget_search_exhaustion(files, capsys, tmp_path, monkeypatch, source, message):
    # C_6 is not a core, so no edge gadget exists; a tiny enumeration
    # ceiling makes the inconclusive search fast and the abort visible
    monkeypatch.setenv("HCOL_GADGET_VERTICES", "3")
    c6_path = str(tmp_path / "c6.g")
    open(c6_path, "w").write(write_graph(make_cycle(6)))
    cnf_path = str(tmp_path / "w3.cnf")
    open(cnf_path, "w").write(write_dimacs(CnfFormula(2, ((1, 2, -1),))))
    given = ("--cnf", cnf_path) if source == "nae-sat" else ("--instance", files["lists.g"])
    code, out, err = run(capsys, "reduce", "--from", source, *given, "--target", c6_path)
    assert (code, out) == (2, "")
    assert err == f"hcol: infeasible at desk scale: {message}\n"


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("HCOL_SEED", "x", "HCOL_SEED must be an integer"),
        ("HCOL_ORACLE_VERTICES", "0", "oracle_vertices must be positive"),
        ("HCOL_FORMAT", "xml", "HCOL_FORMAT must be one of text, json, got 'xml'"),
    ],
)
def test_bad_env_setting_is_one_line(files, capsys, monkeypatch, name, value, message):
    monkeypatch.setenv(name, value)
    code, out, err = run(capsys, "witness", files["k4.g"])
    assert code == 2 and out == ""
    assert err.startswith("hcol: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err
