"""Command-line frontend: witness numbers, kernelization, representations,
reductions, and experiment sweeps.

Exit codes: 0 success; 1 usage error (bad flags) or a file that cannot
be read or written; 2 refused input (malformed content, a bad HCOL_*
value, or input above a ceiling); 3 internal invariant violation.  Every
command is deterministic given its inputs and seed: stats omit wall
time, JSON is key-sorted, CSV headers are fixed.

Configuration flags can also be set through HCOL_* environment
variables (e.g. HCOL_SEED, HCOL_ORACLE_VERTICES); explicit flags win.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys

from .config import Ceilings, ceilings_from_env, env_choice, env_int
from .errors import CeilingError, InvariantViolation
from .gf import FieldSpec, field_make, is_prime
from .graphs import Graph, make_random, read_graph, write_graph
from .kernels import (
    VertexCoverInstance,
    algebraic_kernel,
    combinatorial_kernel,
    kernel_size_report,
    read_instance,
    verify_kernel_equivalence,
    write_instance,
    write_kernel_result,
)
from .reductions import (
    find_edge_gadget,
    find_tight_witness_set,
    read_dimacs,
    read_list_instance,
    reduce_list_to_plain,
    reduce_naesat_to_hcol,
)
from .reps import (
    check_faithful,
    kneser_field_threshold,
    kneser_rep,
    normalize_first_entry,
    ortho_graph,
    rep_from_json,
    rep_to_json,
    vandermonde_rep,
)
from .witness import witness_number


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the convention here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


_FORMATS = ("text", "json")


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    # built once; the HCOL_SEED and HCOL_FORMAT defaults are read per call in main
    parser = _Parser(prog="hcol", description=__doc__)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--format", choices=_FORMATS, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    w = sub.add_parser("witness", help="exact non-adjacency witness number")
    w.add_argument("graph")
    w.add_argument("--out")

    k = sub.add_parser("kernelize", help="shrink a cover-parameterized instance")
    k.add_argument("instance")
    k.add_argument("--target", required=True)
    k.add_argument("--mode", choices=("combinatorial", "algebraic"), required=True)
    k.add_argument("--q", type=int)
    k.add_argument("--rep")
    k.add_argument("--verify", action="store_true")
    k.add_argument("--out")
    k.add_argument("--stats")

    r = sub.add_parser("represent", help="build a vector representation")
    r.add_argument("--family", choices=("kneser", "vandermonde", "ortho"), required=True)
    r.add_argument("--m", type=int)
    r.add_argument("--r", type=int)
    r.add_argument("--d", type=int)
    r.add_argument("--graph")
    r.add_argument("--field", help="p or p^m; chosen automatically for kneser when omitted")
    r.add_argument("--projective", action="store_true")
    r.add_argument("--out")
    r.add_argument("--graph-out", help="also write the represented graph as a graph file")

    d = sub.add_parser("reduce", help="hardness-style instance transformations")
    d.add_argument("--from", dest="source", choices=("nae-sat", "list-hcol"), required=True)
    d.add_argument("--cnf")
    d.add_argument("--instance")
    d.add_argument("--target", required=True)
    d.add_argument("--out")

    s = sub.add_parser("sweep", help="experiment sweeps (CSV)")
    s.add_argument("--experiment", choices=("random-q", "kernel-growth"), required=True)
    s.add_argument("--sizes", default="16,24,32", help="random-q: vertex counts")
    s.add_argument("--ks", default="4,6,8", help="kernel-growth: cover sizes")
    s.add_argument("--q", type=int, default=2, help="kernel-growth: subset size bound")
    s.add_argument("--trials", type=int, default=20)
    s.add_argument("--out")

    return parser


class _WriteError(Exception):
    """Writing an output file failed; the message is its path."""


def _emit(text: str, path: str | None) -> None:
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise _WriteError(path) from exc
    else:
        sys.stdout.write(text)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _parse_field(spec_text: str, ceilings: Ceilings) -> FieldSpec:
    if "^" in spec_text:
        p_text, m_text = spec_text.split("^", 1)
        p, m = int(p_text), int(m_text)
    else:
        p, m = int(spec_text), 1
    return field_make(p, m, ceilings=ceilings)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_witness(args, ceilings: Ceilings) -> int:
    graph = read_graph(_read(args.graph), max_vertices=ceilings.witness_vertices)
    cert = witness_number(graph, ceilings=ceilings)
    if args.format == "json":
        payload = {
            "q": cert.q,
            "witness_set": list(cert.witness_set),
            "checked_up_to": cert.checked_up_to,
        }
        _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    else:
        members = ",".join(map(str, cert.witness_set))
        _emit(
            f"q={cert.q} witness={{{members}}} checked_up_to={cert.checked_up_to}\n",
            args.out,
        )
    return 0


def _cmd_kernelize(args, ceilings: Ceilings) -> int:
    # the verify step's oracle refuses a larger instance or target anyway;
    # refuse it before building its rows
    limit = ceilings.oracle_vertices if args.verify else None
    inst = read_instance(_read(args.instance), max_vertices=limit)
    if args.mode == "combinatorial":
        # --q is checked against q(target), which is certified only up to
        # the witness ceiling
        limit = min(limit or ceilings.witness_vertices, ceilings.witness_vertices)
    target = read_graph(_read(args.target), max_vertices=limit)
    if target.m == 0:
        raise ValueError(
            "target graph has no edges, so colorability just asks whether the "
            "instance is edgeless; kernelization is refused for such targets"
        )
    if args.mode == "combinatorial":
        if args.q is None:
            raise ValueError("--mode combinatorial needs --q")
        if args.rep is not None:
            raise ValueError("--rep applies to the algebraic mode only")
        q = witness_number(target, ceilings=ceilings).q
        if args.q < q:
            raise ValueError(
                f"--q {args.q} is below the witness number {q} of the target; "
                "the kernel would not preserve target-colorability"
            )
        result = combinatorial_kernel(inst, args.q, ceilings=ceilings)
    else:
        if args.rep is None:
            raise ValueError("--mode algebraic needs --rep")
        if args.q is not None:
            raise ValueError("--q applies to the combinatorial mode only")
        rep = rep_from_json(_read(args.rep), target, ceilings=ceilings)
        report = check_faithful(rep)
        if not report:
            raise ValueError(
                f"representation in {args.rep} is not faithful: {report.counterexample}"
            )
        rep = normalize_first_entry(rep, seed=args.seed, ceilings=ceilings)
        result = algebraic_kernel(inst, target, rep, rep.d, ceilings=ceilings)
    if args.verify and not verify_kernel_equivalence(inst, result, target, ceilings=ceilings):
        raise InvariantViolation("kernelization changed target-colorability")
    _emit(write_kernel_result(result), args.out)
    stats = dict(result.stats)
    if args.verify:
        stats["verified_equivalent"] = True
    stats_text = json.dumps(stats, sort_keys=True) + "\n"
    if args.stats:
        _emit(stats_text, args.stats)
    elif args.out:
        # stats to stdout when the kernel itself went to a file
        sys.stdout.write(stats_text)
    return 0


def _cmd_represent(args, ceilings: Ceilings) -> int:
    if args.family == "kneser":
        if args.m is None or args.r is None:
            raise ValueError("--family kneser needs --m and --r")
        if args.field:
            spec = _parse_field(args.field, ceilings)
        else:
            p = kneser_field_threshold(args.m, args.r)
            while not is_prime(p):
                p += 1
            spec = field_make(p, 1, ceilings=ceilings)
        rep = kneser_rep(args.m, args.r, spec, seed=args.seed, ceilings=ceilings)
    elif args.family == "vandermonde":
        if not args.graph or not args.field:
            raise ValueError("--family vandermonde needs --graph and --field")
        spec = _parse_field(args.field, ceilings)
        # vandermonde_rep needs one field element per vertex; refuse a
        # larger graph before building its rows
        graph = read_graph(_read(args.graph), max_vertices=spec.order)
        rep = vandermonde_rep(graph, spec)
    else:
        if args.d is None or not args.field:
            raise ValueError("--family ortho needs --d and --field")
        spec = _parse_field(args.field, ceilings)
        rep = ortho_graph(spec, args.d, projective=args.projective, ceilings=ceilings)
    _emit(rep_to_json(rep), args.out)
    if args.graph_out:
        _emit(write_graph(rep.graph), args.graph_out)
    if args.out:
        summary = {
            "d": rep.d,
            "kind": rep.kind,
            "n": rep.graph.n,
            "field_order": rep.spec.order,
        }
        sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")
    return 0


def _cmd_reduce(args, ceilings: Ceilings) -> int:
    # the witness search (nae-sat) or the gadget check's oracle (list-hcol)
    # refuses a larger target anyway; refuse it before building its rows
    limit = ceilings.witness_vertices if args.source == "nae-sat" else ceilings.oracle_vertices
    target = read_graph(_read(args.target), max_vertices=limit)
    if args.source == "nae-sat":
        if not args.cnf:
            raise ValueError("--from nae-sat needs --cnf")
        formula = read_dimacs(_read(args.cnf))
        width = formula.width()
        tight = find_tight_witness_set(target, ceilings=ceilings)
        if width is None or width != len(tight):
            raise ValueError(
                f"clause width must equal the witness number {len(tight)} of the target"
            )
        gadget = find_edge_gadget(target, ceilings=ceilings)
        if gadget is None:
            raise CeilingError(
                f"no edge gadget found within {ceilings.gadget_vertices} vertices "
                "(inconclusive; the target may still be projective)"
            )
        inst = reduce_naesat_to_hcol(formula, target, tight, gadget)
        _emit(write_instance(inst), args.out)
    else:
        if not args.instance:
            raise ValueError("--from list-hcol needs --instance")
        graph, lists = read_list_instance(_read(args.instance))
        gadget = find_edge_gadget(target, ceilings=ceilings)
        if gadget is None:
            raise CeilingError(
                f"no edge gadget found within {ceilings.gadget_vertices} vertices"
            )
        out = reduce_list_to_plain(graph, lists, target, gadget)
        _emit(write_graph(out), args.out)
    return 0


def _sample_seed(seed: int, major: int, trial: int) -> int:
    return (seed * 1_000_003 + major * 9_176_941 + trial) & 0xFFFFFFFF


def _counts(flag: str, text: str) -> list[int]:
    """The comma-separated list given to ``flag``, each entry at least 1."""
    counts = []
    for item in text.split(","):
        item = item.strip()
        try:
            count = int(item)
        except ValueError:
            count = 0
        if count < 1:
            raise ValueError(f"{flag} must list integers of at least 1, got {item!r}")
        counts.append(count)
    return counts


def _cmd_sweep(args, ceilings: Ceilings) -> int:
    if args.trials < 0:
        raise ValueError(f"--trials must be non-negative, got {args.trials}")
    if args.experiment == "kernel-growth" and args.q < 1:
        raise ValueError(f"--q must be at least 1, got {args.q}")
    rows = []
    if args.experiment == "random-q":
        header = "n,trials,mean_q,threshold,fraction_within"
        for n in _counts("--sizes", args.sizes):
            if args.trials == 0:
                continue
            qs = []
            for trial in range(args.trials):
                g = make_random(n, _sample_seed(args.seed, n, trial))
                qs.append(witness_number(g, ceilings=ceilings).q)
            threshold = 2 * math.log2(n)
            within = sum(1 for q in qs if q <= threshold)
            rows.append(
                f"{n},{args.trials},{sum(qs)/len(qs):.4f},{threshold:.4f},"
                f"{within/len(qs):.4f}"
            )
    else:
        header = "k,trial,vertices,vertex_bound,ratio"
        for k in _counts("--ks", args.ks):
            for trial in range(args.trials):
                rng = random.Random(_sample_seed(args.seed, k, trial))
                inst = _random_growth_instance(rng, k, args.q)
                result = combinatorial_kernel(inst, args.q, ceilings=ceilings)
                report = kernel_size_report(result)
                rows.append(
                    f"{k},{trial},{report['vertices']},{report['vertex_bound']},"
                    f"{report['ratio']:.4f}"
                )
    _emit(header + "\n" + "".join(r + "\n" for r in rows), args.out)
    return 0


def _random_growth_instance(rng: random.Random, k: int, q: int) -> VertexCoverInstance:
    """Cover of size k plus k outside vertices with random small neighborhoods."""
    n = 2 * k
    edges = set()
    for u in range(k):
        for v in range(u + 1, k):
            if rng.random() < 0.5:
                edges.add((u, v))
    for v in range(k, n):
        size = rng.randrange(1, min(q + 2, k) + 1)
        for u in rng.sample(range(k), size):
            edges.add((u, v))
    return VertexCoverInstance(Graph(n, sorted(edges)), tuple(range(k)))


_COMMANDS = {
    "witness": _cmd_witness,
    "kernelize": _cmd_kernelize,
    "represent": _cmd_represent,
    "reduce": _cmd_reduce,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    try:
        # HCOL_* settings are read before the flags, so a bad one exits 2 first
        seed, fmt = env_int("SEED", 0), env_choice("FORMAT", "text", _FORMATS)
        args = _build_parser().parse_args(argv)
        if args.seed is None:
            args.seed = seed
        if args.format is None:
            args.format = fmt
        ceilings = ceilings_from_env()
        try:
            return _COMMANDS[args.command](args, ceilings)
        except _WriteError as exc:
            print(f"hcol: cannot write {exc}", file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"hcol: cannot read {exc.filename}", file=sys.stderr)
            return 1
    except InvariantViolation as exc:
        print(f"hcol: invariant violation: {exc}", file=sys.stderr)
        return 3
    except CeilingError as exc:
        print(f"hcol: infeasible at desk scale: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"hcol: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
