"""The benchmark's workloads: their input corpora, the timed job and the
correctness check that runs after it.

Every input comes from a fixed corpus whose entries are generated from
fixed per-entry seeds, so the outputs of every entry can be pinned by
golden digests recorded once (see ``record_goldens.py``).  Each corpus
has two disjoint parts: ``main``, which every non-negative ``--seed``
draws from, and ``held-out``, which negative seeds draw from.  The seed
fixes the order in which a run visits its part: a seeded shuffle per
stratum, interleaved so that every prefix keeps the stratum mix.  A
third part, ``smoke``, holds tiny inputs for the smoke mode.

Why a fixed corpus and not fresh inputs per seed: job cost is heavy
tailed on ``witness-gnp`` and ``oracle-reduce`` (one G(32, 1/2) graph
takes 0.2 to 1.5 s), so a tail percentile over fresh inputs moves by
20-40% from seed to seed, and a 10-25% regression could not be told
apart from a new draw.  Revisiting one corpus keeps the run-to-run
spread at the level of timing noise.
"""

from __future__ import annotations

import hashlib
import random
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import hcolkit.cli as cli
from hcolkit import graphs, hom, kernels, reductions, reps, witness
from hcolkit.graphs import Graph

PARTS = ("main", "held-out", "smoke")


def part_for_seed(seed: int, smoke: bool) -> str:
    if smoke:
        return "smoke"
    return "held-out" if seed < 0 else "main"


def entry_rng(*key) -> random.Random:
    # str seeds hash through SHA-512, so they are stable across processes
    return random.Random("/".join(map(str, key)))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Entry:
    """One corpus input: its golden key, stratum and the files it needs."""

    key: str
    stratum: str
    files: dict[str, str]
    data: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What a job left behind, collected inside the timed region."""

    code: int
    output: str = ""
    stats: str = ""
    hom: object = None


def interleave(entries: list[Entry], seed: int) -> list[Entry]:
    """Seeded shuffle within each stratum, then round-robin over the strata.

    A round takes one entry of each stratum, strata in first-seen order,
    so any prefix holds the strata in equal shares.
    """
    rng = random.Random(seed)
    queues: dict[str, list[Entry]] = {}
    for entry in entries:
        queues.setdefault(entry.stratum, []).append(entry)
    for queue in queues.values():
        rng.shuffle(queue)
    order: list[Entry] = []
    while any(queues.values()):
        order.extend(queue.pop(0) for queue in queues.values() if queue)
    return order


def run_cli(argv: list[str]) -> int:
    # attribute lookup at call time, so a traced run reaches its wrapper
    return cli.main(argv)


class Workload:
    """One benchmark workload.

    ``corpus`` builds the inputs of one part; ``prepare`` writes what the
    jobs share; ``setup_argv`` lists the `hcol` calls the set-up makes;
    ``job`` runs one timed job and ``check`` compares its outcome with the
    goldens and oracles, outside the timed region.
    """

    name: str
    # fixed per workload so the metric compares across commits; chosen so
    # that ten corpus entries lie beyond it where the corpus allows
    tail_pct: int
    trace_jobs: int  # jobs in each pass of a traced run

    def corpus(self, part: str) -> list[Entry]:
        raise NotImplementedError

    def prepare(self, work: Path) -> None:
        pass

    def setup_argv(self, work: Path) -> list[list[str]]:
        return []

    def job(self, entry: Entry, work: Path) -> Outcome:
        raise NotImplementedError

    def golden(self, outcome: Outcome) -> dict:
        """What `record_goldens.py` pins for one entry."""
        return {"sha256": sha256(outcome.output)}

    def check(self, entry: Entry, outcome: Outcome, golden: dict, work: Path) -> str:
        """Empty when the job's output is correct, else the reason."""
        raise NotImplementedError

    def post_check(self, entries: list[Entry], goldens: dict, work: Path) -> tuple[str, dict]:
        """A check made once per run after the timed loop, plus labelled points."""
        return "", {}


# ---------------------------------------------------------------------------
# witness-gnp
# ---------------------------------------------------------------------------

_WITNESS_LINE = re.compile(r"q=(\d+) witness=\{([\d,]*)\} checked_up_to=(\d+)\n")


class WitnessGnp(Workload):
    """`hcol witness` on G(n, 1/2), n = 24..32 in equal shares."""

    name = "witness-gnp"
    tail_pct = 75
    trace_jobs = 10

    def corpus(self, part):
        # a pass over 8 graphs of each size takes about 17 s at the seed commit
        sizes, per_size = ((12, 14), 2) if part == "smoke" else ((24, 26, 28, 30, 32), 8)
        entries = []
        for n in sizes:
            for i in range(per_size):
                key = f"{part}/n{n}/{i}"
                g = graphs.make_random(n, entry_rng("witness", key).getrandbits(32))
                name = f"w-n{n}-{i}.g"
                entries.append(Entry(key, f"n{n}", {name: graphs.write_graph(g)}, {"file": name}))
        return entries

    def job(self, entry, work):
        out = work / "witness.out"
        code = run_cli(["witness", str(work / entry.data["file"]), "--out", str(out)])
        return Outcome(code, out.read_text() if code == 0 else "")

    def golden(self, outcome):
        return {"sha256": sha256(outcome.output), "q": int(_WITNESS_LINE.fullmatch(outcome.output).group(1))}

    def check(self, entry, outcome, golden, work):
        if outcome.code != 0:
            return f"exit code {outcome.code}"
        if sha256(outcome.output) != golden["sha256"]:
            return "output differs from golden"
        match = _WITNESS_LINE.fullmatch(outcome.output)
        if not match:
            return "unparseable output"
        q = int(match.group(1))
        members = tuple(int(v) for v in match.group(2).split(",") if v)
        cert = witness.WitnessCertificate(q, members, int(match.group(3)))
        g = graphs.read_graph(entry.files[entry.data["file"]])
        if q != golden["q"] or not cert.validate(g):
            return "certificate fails validation"
        return ""


# ---------------------------------------------------------------------------
# algebraic-prime
# ---------------------------------------------------------------------------

def cover_instance(rng: random.Random, k: int, outside: int, degree: int, p_cover: float):
    """k cover vertices with random edges among them, plus `outside`
    vertices each adjacent to `degree` random cover vertices."""
    edges = [(u, v) for u in range(k) for v in range(u + 1, k) if rng.random() < p_cover]
    for j in range(outside):
        edges.extend((u, k + j) for u in rng.sample(range(k), degree))
    return kernels.VertexCoverInstance(Graph(k + outside, edges), tuple(range(k)))


class AlgebraicPrime(Workload):
    """`hcol kernelize --mode algebraic --verify` against K(5,2), whose
    representation `hcol represent` builds over GF(163) in the set-up."""

    name = "algebraic-prime"
    tail_pct = 75
    trace_jobs = 2

    def corpus(self, part):
        # cover size k, outside vertices, their degree, instances; a pass
        # takes about 13 s at the seed commit
        k, outside, degree, count = (8, 10, 4, 2) if part == "smoke" else (20, 40, 8, 10)
        entries = []
        for i in range(count):
            key = f"{part}/{i}"
            inst = cover_instance(entry_rng("algebraic", key), k, outside, degree, 0.15)
            name = f"a-{i}.inst"
            entries.append(Entry(key, f"k{k}", {name: kernels.write_instance(inst)}, {"file": name}))
        return entries

    def setup_argv(self, work):
        return [[
            "represent", "--family", "kneser", "--m", "5", "--r", "2",
            "--out", str(work / "k52.rep"), "--graph-out", str(work / "k52.g"),
        ]]

    def job(self, entry, work):
        out, stats = work / "kernel.out", work / "kernel.stats"
        code = run_cli([
            "kernelize", str(work / entry.data["file"]), "--target", str(work / "k52.g"),
            "--mode", "algebraic", "--rep", str(work / "k52.rep"), "--verify",
            "--out", str(out), "--stats", str(stats),
        ])
        if code != 0:
            return Outcome(code)
        return Outcome(code, out.read_text(), stats.read_text())

    def check(self, entry, outcome, golden, work):
        if outcome.code != 0:
            return f"exit code {outcome.code} (3 means --verify found a mismatch)"
        if '"verified_equivalent": true' not in outcome.stats:
            return "stats do not record a verified kernel"
        if sha256(outcome.output) != golden["sha256"]:
            return "kernel file differs from golden"
        return ""

    def post_check(self, entries, goldens, work):
        """Rebuild the first job's kernel through the library and check that
        every dropped polynomial is rebuilt exactly from its certificate."""
        entry = entries[0]
        inst = kernels.read_instance(entry.files[entry.data["file"]])
        target = graphs.read_graph((work / "k52.g").read_text())
        rep = reps.rep_from_json((work / "k52.rep").read_text(), target)
        if not rep.has_unit_first_entries() or rep.spec.order <= target.n:
            rep = reps.normalize_first_entry(rep, seed=0)
        started = time.perf_counter()
        result = kernels.algebraic_kernel(inst, target, rep, rep.d)
        points = {
            "algebraic_kernel_s": time.perf_counter() - started,
            "size_d_traces": len(result.polys),
            "basis_kept": len(result.basis.kept),
            "basis_dropped": len(result.basis.certificates),
        }
        if sha256(kernels.write_kernel_result(result)) != goldens[entry.key]["sha256"]:
            return "library kernel differs from golden", points
        for dropped in result.basis.certificates:
            if result.basis.reconstruct(result.polys, dropped) != result.polys[dropped]:
                return f"certificate of dropped polynomial {dropped} does not rebuild it", points
        return "", points


class AlgebraicExt(AlgebraicPrime):
    """The same instances and target with the representation over GF(2^8):
    characteristic 2 at the `field_degree` ceiling.  The basis work is the
    same as over GF(163); only the extension-field multiply and inverse
    differ, so this shows whether a prime-field fast path costs extension
    fields."""

    name = "algebraic-ext"

    def setup_argv(self, work):
        return [argv + ["--field", "2^8"] for argv in super().setup_argv(work)]


# ---------------------------------------------------------------------------
# oracle-reduce
# ---------------------------------------------------------------------------

def random_formula(rng: random.Random, n_vars: int, n_clauses: int, width: int):
    clauses = tuple(
        tuple(rng.choice((1, -1)) * v for v in rng.sample(range(1, n_vars + 1), width))
        for _ in range(n_clauses)
    )
    return reductions.CnfFormula(n_vars, clauses)


def random_list_instance(rng: random.Random, n_lo: int, n_hi: int, p_edge: float):
    n = rng.randint(n_lo, n_hi)
    g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p_edge])
    lists = {v: tuple(sorted(rng.sample(range(5), rng.randint(2, 4)))) for v in range(n)}
    return g, lists


class OracleReduce(Workload):
    """`hcol reduce` followed by `find_homomorphism` on its output.

    Variants: NAE-SAT against K4 (single-edge gadget, no clusters),
    against the Petersen graph (path gadget, compiled clusters), against
    K(6,2) (7-vertex gadget, 2-3k vertex instances), and list-coloring
    against C5, in equal shares.  Sizes keep every job of the corpus under
    a second; unsatisfiable list instances on 10-14 vertices ran for
    minutes.
    """

    name = "oracle-reduce"
    tail_pct = 95
    trace_jobs = 60
    # variant -> (target file, target, NAE-SAT (variables, clauses) or None for list-hcol)
    variants = {
        "k4": ("k4.g", graphs.make_complete(4), (5, 14)),
        "petersen": ("petersen.g", graphs.make_petersen(), (4, 8)),
        "kneser62": ("k62.g", graphs.make_kneser(6, 2), (4, 5)),
        "c5-list": ("c5.g", graphs.make_cycle(5), None),
    }

    def corpus(self, part):
        # a pass over 50 rounds takes about 10 s at the seed commit
        rounds = 1 if part == "smoke" else 50
        entries = []
        for variant, (target_file, target, nae) in self.variants.items():
            width = len(reductions.find_tight_witness_set(target))
            for i in range(rounds):
                key = f"{part}/{variant}/{i}"
                rng = entry_rng("oracle", key)
                data = {"target": target_file}
                if nae:
                    data["formula"] = random_formula(rng, *nae, width)
                    name = f"o-{variant}-{i}.cnf"
                    text = reductions.write_dimacs(data["formula"])
                else:
                    data["graph"], data["lists"] = random_list_instance(rng, 6, 9, 0.3)
                    name = f"o-{variant}-{i}.lst"
                    text = reductions.write_list_instance(data["graph"], data["lists"])
                data["file"] = name
                entries.append(Entry(key, variant, {name: text}, data))
        return entries

    def prepare(self, work):
        self.targets = {}
        for target_file, target, _ in self.variants.values():
            (work / target_file).write_text(graphs.write_graph(target))
            self.targets[target_file] = graphs.read_graph((work / target_file).read_text())
        self.answers: dict[str, bool] = {}

    def job(self, entry, work):
        out = work / "reduced.out"
        nae = "formula" in entry.data
        code = run_cli([
            "reduce", "--from", "nae-sat" if nae else "list-hcol",
            "--cnf" if nae else "--instance", str(work / entry.data["file"]),
            "--target", str(work / entry.data["target"]), "--out", str(out),
        ])
        if code != 0:
            return Outcome(code)
        text = out.read_text()
        g = kernels.read_instance(text).graph if nae else graphs.read_graph(text)
        return Outcome(code, text, hom=hom.find_homomorphism(g, self.targets[entry.data["target"]]))

    def check(self, entry, outcome, golden, work):
        if outcome.code != 0:
            return f"exit code {outcome.code}"
        if sha256(outcome.output) != golden["sha256"]:
            return "reduced instance differs from golden"
        if outcome.hom is not None and not outcome.hom.check():
            return "returned homomorphism breaks an edge"
        if entry.key not in self.answers:
            self.answers[entry.key] = self.answer(entry)
        if (outcome.hom is not None) != self.answers[entry.key]:
            return f"oracle says {outcome.hom is not None}, the source instance says otherwise"
        return ""

    def answer(self, entry: Entry) -> bool:
        """Ground truth from the small source instance."""
        if "formula" in entry.data:
            return reductions.nae_sat_brute(entry.data["formula"])
        h = self.targets[entry.data["target"]]
        return hom.find_homomorphism(entry.data["graph"], h, lists=entry.data["lists"]) is not None


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (WitnessGnp(), AlgebraicPrime(), AlgebraicExt(), OracleReduce())
}
