"""Command-line front end over the JSON file formats.

One verb per capability::

    preset            write a built-in template
    sample            sample a template at a given size
    solve             decide an instance against a template
    ac                run arc-consistency on (instance, structure)
    hom               exhaustive homomorphism search between two files
    powerset          the structure on non-empty domain subsets
    check-ts          search a totally symmetric polymorphism
    check-semilattice search a semilattice polymorphism
    check-equiv       subset-structure vs totally-symmetric agreement
    walk              shortest alternating closed walk on two relations
    orbits            growth report for a template

Each command returns ``(data, ok, note)``; ``run_cli`` writes ``data`` as
JSON to --out or stdout, the human-readable ``note`` to stderr, and exits
0 when ``ok`` (accept/found/success) and 1 otherwise (reject/absent).
Other exit codes: 2 usage or format error, or a path that cannot be read
or written; 3 internal cap exceeded; 4 internal error (any other
exception).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .errors import CapExceeded, SchemaError, VerificationFailed
from .lab import (
    DEFAULT_ORBIT_BUDGET,
    check_aclwalk_lemma,
    check_set_hom_equiv,
    find_alternating_walk,
    orbit_count,
)
from .polymorphism import (
    DEFAULT_CONSTRAINT_BUDGET,
    find_semilattice,
    has_ts_polymorphism,
)
from .powerset import power_structure
from .sampler import sample
from .solver import ac, hom_exists, solve
from .structures import FiniteStructure, Instance
from .template import Template, preset

EXIT_ACCEPT = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_CRASH = 4


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"{path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise SchemaError(f"{path}: JSON nested too deeply") from exc


def load_template(path) -> Template:
    return Template.from_json_dict(_load_json(path))


def load_instance(path) -> Instance:
    return Instance.from_json_dict(_load_json(path))


def load_structure(path) -> FiniteStructure:
    return FiniteStructure.from_json_dict(_load_json(path))


def load_instance_or_structure(path):
    data = _load_json(path)
    if isinstance(data, dict) and "variables" in data:
        return Instance.from_json_dict(data)
    return FiniteStructure.from_json_dict(data)


def _cmd_preset(args):
    return preset(args.name).to_json_dict(), True, f"preset {args.name!r}"


def _cmd_sample(args):
    t = load_template(args.template)
    smp = sample(t, args.size)
    if args.sidecar:
        with open(args.sidecar, "w") as fh:
            fh.write(json.dumps(smp.sidecar_json_dict(), indent=2) + "\n")
    note = (
        f"sample of {t.name!r} at n={args.size}: "
        f"{smp.structure.size} elements"
    )
    return smp.structure.to_json_dict(), True, note


def _cmd_solve(args):
    t = load_template(args.template)
    verdict = solve(t, load_instance(args.instance))
    data = verdict.to_json_dict()
    if not args.witness:
        data.pop("witness", None)
    return data, verdict.accept, "accept" if verdict.accept else "reject"


def _cmd_ac(args):
    instance = load_instance(args.instance)
    accept, h = ac(instance, load_structure(args.structure))
    data = {
        "accept": accept,
        "domains": {v: sorted(h[v]) for v in instance.variables},
    }
    return data, accept, "accept" if accept else "reject"


def _cmd_hom(args):
    a = load_instance_or_structure(getattr(args, "from"))
    mapping = hom_exists(a, load_structure(args.to))
    found = mapping is not None
    data = {
        "exists": found,
        "mapping": (
            {str(k): v for k, v in mapping.items()} if found else None
        ),
    }
    return data, found, "found" if found else "absent"


def _cmd_powerset(args):
    p = power_structure(load_structure(args.structure))
    return p.to_json_dict(), True, f"{p.size} subsets"


def _cmd_check_ts(args):
    structure = load_structure(args.structure)
    table = has_ts_polymorphism(structure, args.arity, args.budget)
    data = {
        "arity": args.arity,
        "found": table is not None,
        "table": table.to_json_dict() if table else None,
    }
    return data, table is not None, "found" if table else "absent"


def _cmd_check_semilattice(args):
    table = find_semilattice(load_structure(args.structure))
    data = {"found": table is not None}
    if table:
        data["table"] = table.to_json_dict()
    return data, table is not None, "found" if table else "absent"


def _cmd_check_equiv(args):
    report = check_set_hom_equiv(load_structure(args.structure))
    note = "consistent" if report.consistent else "INCONSISTENT"
    return asdict(report), report.consistent, note


def _cmd_walk(args):
    r_struct = load_structure(getattr(args, "from"))
    s_struct = load_structure(args.to)
    r = _single_binary_relation(r_struct, getattr(args, "from"))
    s = _single_binary_relation(s_struct, args.to)
    walk = find_alternating_walk(r, s, args.size)
    data = {"found": walk is not None}
    if walk:
        data["walk"] = asdict(walk)
    return data, walk is not None, "found" if walk else "absent"


def _cmd_orbits(args):
    t = load_template(args.template)
    report = orbit_count(t, args.size, args.budget)
    note = f"{report.class_count} classes ({report.exactness})"
    return asdict(report), True, note


def _cmd_walk_lemma(args):
    report = check_aclwalk_lemma(load_structure(args.structure), args.arity)
    n = len(report.violations)
    note = f"{n} violations over {len(report.pairs)} pairs"
    return report.to_json_dict(), n == 0, note


def _single_binary_relation(structure, path):
    binary = [
        structure.relations[name]
        for name, arity in structure.signature.symbols
        if arity == 2
    ]
    if len(binary) != 1:
        raise SchemaError(
            f"{path}: expected exactly one binary relation, "
            f"found {len(binary)}"
        )
    return binary[0]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordcsp",
        description="Sampling + arc-consistency solving for order-definable "
        "templates, with verification tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="write JSON here instead of stdout")
        return p

    p = add("preset", _cmd_preset, "write a built-in template")
    p.add_argument("--name", required=True)

    p = add("sample", _cmd_sample, "sample a template at a given size")
    p.add_argument("--template", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--sidecar", help="also write representatives here")

    p = add("solve", _cmd_solve, "decide an instance against a template")
    p.add_argument("--template", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--witness", action="store_true")

    p = add("ac", _cmd_ac, "arc-consistency on (instance, structure)")
    p.add_argument("--instance", required=True)
    p.add_argument("--structure", required=True)

    p = add("hom", _cmd_hom, "homomorphism search between two files")
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)

    p = add("powerset", _cmd_powerset, "structure on non-empty subsets")
    p.add_argument("--structure", required=True)

    p = add("check-ts", _cmd_check_ts, "totally symmetric polymorphism")
    p.add_argument("--structure", required=True)
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_CONSTRAINT_BUDGET)

    p = add("check-semilattice", _cmd_check_semilattice, "semilattice search")
    p.add_argument("--structure", required=True)

    p = add(
        "check-equiv",
        _cmd_check_equiv,
        "subset-structure hom vs totally symmetric polymorphism",
    )
    p.add_argument("--structure", required=True)

    p = add("walk", _cmd_walk, "shortest alternating closed walk")
    p.add_argument("--from", required=True, help="structure with relation R")
    p.add_argument("--to", required=True, help="structure with relation S")
    p.add_argument("--size", type=int, required=True, help="max half length")

    p = add("walk-lemma", _cmd_walk_lemma, "alternating-walk consequence check")
    p.add_argument("--structure", required=True)
    p.add_argument("--arity", type=int, required=True)

    p = add("orbits", _cmd_orbits, "growth of distinguishable n-subsets")
    p.add_argument("--template", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_ORBIT_BUDGET)

    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_ACCEPT
    try:
        data, ok, note = args.fn(args)
        text = json.dumps(data, indent=2) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        print(note, file=sys.stderr)
        return EXIT_ACCEPT if ok else EXIT_REJECT
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (SchemaError, VerificationFailed, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(
            f"error: internal error: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return EXIT_CRASH


def main(argv=None):
    sys.exit(run_cli(argv))


if __name__ == "__main__":
    main()
